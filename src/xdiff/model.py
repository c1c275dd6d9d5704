"""Evolution laws for the coupled occupied-area / population-density system.

The original system couples a density equation with porous-medium diffusion
to an area equation with density-weighted cross-diffusion, both driven by
logistic reactions and a nonlocal density average.  Two companion forms are
provided: a mollified variant (all fields smoothed by the periodic heat
semigroup, with the whole right side smoothed again) and the square-root
density form used for uniqueness-style cross-checks.  All three share one
assembly of the right side on the stacked state (A, rho) or (A, eta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, InvalidValue
from .kernel import KernelSpec, heat_multiplier, kernel_l1_norm


class NumericalFault(RuntimeError):
    """Raised when an evolution term or a stepped state stops being finite."""


@dataclass(frozen=True)
class ModelParams:
    """Model constants.

    alpha       growth-pressure rate (> 0)
    mu          effective elastic coupling, dimensionless, in [0, 1)
    beta        density logistic rate (> 0)
    beta_tilde  area logistic rate (>= 0)
    K           density carrying capacity (> 0)
    K_tilde     area carrying capacity (> 0)
    kernel      even interaction kernel for the nonlocal density average
    """

    alpha: float
    mu: float
    beta: float
    beta_tilde: float
    K: float
    K_tilde: float
    kernel: KernelSpec

    def __post_init__(self) -> None:
        checks = (
            ("alpha", self.alpha, self.alpha > 0),
            ("beta", self.beta, self.beta > 0),
            ("beta_tilde", self.beta_tilde, self.beta_tilde >= 0),
            ("K", self.K, self.K > 0),
            ("K_tilde", self.K_tilde, self.K_tilde > 0),
        )
        for name, value, ok in checks:
            if not (np.isfinite(value) and ok):
                raise InvalidValue(name, f"is out of range, got {value}")
        if not (0.0 <= self.mu < 1.0):
            raise InvalidValue("mu", f"must satisfy 0 <= mu < 1, got {self.mu}")


@dataclass(frozen=True, eq=False)
class State:
    """Time t together with the area field A and density field rho on one grid.

    Both fields are expected to be nonnegative; the integrator clips
    negative entries to zero at t = 0 and after each step.
    """

    t: float
    A: Field
    rho: Field

    def __post_init__(self) -> None:
        if self.A.grid != self.rho.grid:
            raise ValueError("A and rho must share one grid")

    @property
    def grid(self) -> Grid:
        return self.A.grid


@dataclass(frozen=True)
class EnergyReport:
    """Sobolev-type energies of a state; +inf when a steep state overflows."""

    e_tilde: float
    e_sqrt: float


# ---------------------------------------------------------------------------
# right-hand sides (array level on the stacked state; Field wrappers below)
# ---------------------------------------------------------------------------

# Fault names of the four assembled terms, in checking order: area reaction,
# area flux, then the reaction and transport of the density or of eta.
_TERM_NAMES = {
    False: (
        "area reaction terms",
        "area flux d/dx(rho * dA/dx)",
        "density reaction terms",
        "density flux d/dx(rho * drho/dx)",
    ),
    True: (
        "area reaction terms (sqrt form)",
        "area flux d/dx(eta^2 * dA/dx)",
        "eta reaction terms",
        "eta transport terms",
    ),
}


def _assemble(
    grid: Grid, u: np.ndarray, p: ModelParams, conv_sym: np.ndarray, sqrt: bool
) -> np.ndarray:
    """Right side of the stacked state ``u = (A, w)``, with w = rho, or w = eta
    and rho = eta^2 in the sqrt form.

    All nonlinear terms are assembled pointwise from the raw fields, so every
    term carrying a factor of the state vanishes exactly on the nodes where
    that state vanishes; this is what preserves the discrete zero set of the
    density and keeps the area confined to the density support.  Both rows
    share one flux, d/dx(rho * du/dx) expanded as rho*u_xx + rho_x*u_x with
    u_xx = D(D u) for the Nyquist-zeroed spectral derivative D: its quadrature
    is exactly zero because D is antisymmetric, and where rho = 0 the density
    flux reduces to rho_x^2 >= 0.  With the density growth rate g, the density
    equation reads rho*g + flux and the eta equation eta*g/2 + eta*eta_x^2 +
    flux, so that 2*eta*d(eta) reproduces the density equation wherever
    eta > 0.

    One rfft of the stacked fields and one irfft of the stacked derivative and
    average spectra feed the pointwise terms.
    """
    n = grid.n_points
    ik = grid._ik
    a, w = u
    with np.errstate(over="ignore", invalid="ignore"):  # finiteness checked below
        rho = w * w if sqrt else w
        uh = np.fft.rfft(np.stack((a, w, rho)) if sqrt else u)  # rows A, w[, rho]
        rh = uh[-1]
        extra = (rh * conv_sym, rh * ik) if sqrt else (rh * conv_sym,)
        # rows A_x, w_x, A_xx, w_xx, Gamma*rho[, rho_x]
        d = np.fft.irfft(np.vstack((uh[:2] * ik, uh[:2] * (ik * ik), *extra)), n=n)
        ux, uxx, avg = d[0:2], d[2:4], d[4]
        rx = d[5] if sqrt else ux[1]
        area_flux, w_flux = rho * uxx + rx * ux

        local_push = rho - avg  # density excess over its nonlocal average
        area_reaction = a * (p.alpha * rho - p.mu * p.alpha * local_push) + p.beta_tilde * a * (
            1.0 - rho * a / p.K_tilde
        )
        g = p.beta * (1.0 - a * rho / p.K) - p.alpha * rho + p.mu * p.alpha * local_push
        if sqrt:
            w_reaction = 0.5 * w * g
            w_transport = w * ux[1] * ux[1] + w_flux
        else:
            w_reaction = w * g
            w_transport = w_flux
        out = np.stack((area_reaction + area_flux, w_reaction + w_transport))

    if not np.all(np.isfinite(out)):
        terms = zip((area_reaction, area_flux, w_reaction, w_transport), _TERM_NAMES[sqrt])
        bad = (name for term, name in terms if not np.all(np.isfinite(term)))
        # finite terms whose sum overflows name no single term
        raise NumericalFault(f"non-finite values in {next(bad, 'right-hand side sum')}")
    return out


def _rhs_core(grid: Grid, u: np.ndarray, p: ModelParams, conv_sym: np.ndarray) -> np.ndarray:
    """Original-system right side of the stacked (A, rho)."""
    return _assemble(grid, u, p, conv_sym, sqrt=False)


def _rhs_sqrt_core(grid: Grid, u: np.ndarray, p: ModelParams, conv_sym: np.ndarray) -> np.ndarray:
    """Square-root-form right side of the stacked (A, eta)."""
    return _assemble(grid, u, p, conv_sym, sqrt=True)


def _rhs_regularized_core(
    grid: Grid, u: np.ndarray, p: ModelParams, conv_sym: np.ndarray, damp: np.ndarray
) -> np.ndarray:
    """Mollified right side: smooth the stacked (A, rho) by the heat multiplier
    ``damp``, assemble, smooth the result."""
    n = grid.n_points
    smoothed = np.fft.irfft(np.fft.rfft(u) * damp, n=n)
    return np.fft.irfft(np.fft.rfft(_assemble(grid, smoothed, p, conv_sym, sqrt=False)) * damp, n=n)


def _fields(grid: Grid, d: np.ndarray) -> tuple[Field, Field]:
    return Field(grid, d[0]), Field(grid, d[1])


def rhs(s: State, p: ModelParams) -> tuple[Field, Field]:
    """Time derivatives (dA/dt, drho/dt) of the original system."""
    u = np.stack((s.A.values, s.rho.values))
    return _fields(s.grid, _rhs_core(s.grid, u, p, p.kernel.symbol(s.grid)))


def rhs_regularized(s: State, p: ModelParams, eps: float) -> tuple[Field, Field]:
    """Time derivatives of the heat-semigroup-mollified system (eps = 0 is rhs up to roundoff)."""
    u = np.stack((s.A.values, s.rho.values))
    damp = heat_multiplier(s.grid, eps)
    return _fields(s.grid, _rhs_regularized_core(s.grid, u, p, p.kernel.symbol(s.grid), damp))


def rhs_sqrt(t: float, A: Field, eta: Field, p: ModelParams) -> tuple[Field, Field]:
    """Time derivatives (dA/dt, deta/dt) of the square-root density form."""
    if A.grid != eta.grid:
        raise ValueError("A and eta must share one grid")
    if float(np.min(eta.values)) < 0.0:
        raise ValueError("eta must be nonnegative")
    u = np.stack((A.values, eta.values))
    return _fields(A.grid, _rhs_sqrt_core(A.grid, u, p, p.kernel.symbol(A.grid)))


# ---------------------------------------------------------------------------
# energy and the blow-up threshold
# ---------------------------------------------------------------------------


def energy(grid: Grid, a: np.ndarray, rho: np.ndarray) -> EnergyReport:
    """Sobolev energies of the node values ``a`` and ``rho`` (density derivative order 3).

    One rfft of the stacked (rho, A, sqrt(rho)) and one irfft of the stacked
    derivative spectra give the three derivatives the energies need.
    """
    dx = grid.dx
    k2 = grid.k**2
    root = np.sqrt(np.clip(rho, 0.0, None))
    with np.errstate(over="ignore"):  # energies may legitimately reach +inf
        rh, ah, rooth = np.fft.rfft(np.stack((rho, a, root)))
        # d^3 rho, d^2 A and d^2 sqrt(rho), with the multipliers of Grid.deriv_values
        r_m, a_m1, root_xx = np.fft.irfft(
            np.stack((rh * (-grid._ik * k2), ah * -k2, rooth * -k2)), n=grid.n_points
        )
        e_tilde = 1.0 + float(
            np.sum(r_m**2) * dx + np.sum(rho**2) * dx + np.sum(a**2) * dx + np.sum(a_m1**2) * dx
        )
        e_sqrt = 1.0 + float(np.sum(root**2) * dx + np.sum(root_xx**2) * dx)
    return EnergyReport(e_tilde=e_tilde, e_sqrt=e_sqrt)


def blowup_threshold(p: ModelParams) -> float:
    """Critical central curvature mu*beta*||kernel||_1 / (1 - mu).

    Initial data with second density derivative above this value at the
    central zero drive that derivative to infinity in finite time.
    """
    return p.mu * p.beta * kernel_l1_norm(p.kernel) / (1.0 - p.mu)

