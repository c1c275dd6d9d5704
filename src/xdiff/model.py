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
from .kernel import KernelSpec, heat_multiplier


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


class Workspace:
    """Constants and work arrays of the right-side evaluations of one run.

    The constants are the grid (its multiplier rows ``ik`` and ``ik2``), the
    kernel symbol and the folded coupling ``mu*alpha``; the work arrays hold
    the sqrt form's stacked fields, the derivative spectra and the pointwise
    terms, sized for the sqrt form's extra density row, so one workspace
    serves every form.  The transforms return fresh arrays, because the
    ``out=`` argument of ``np.fft`` needs numpy 2.  A run builds one and
    drops it at its end: evaluations overwrite the work arrays, so a
    workspace is never shared between runs or threads.
    """

    def __init__(self, grid: Grid, p: ModelParams, conv_sym: np.ndarray):
        n, m = grid.n_points, grid.k.size
        self.grid, self.p, self.conv_sym = grid, p, conv_sym
        self.mu_alpha = p.mu * p.alpha
        self.fields = np.empty((3, n))  # sqrt form: A, eta, rho = eta^2
        self.deriv_spectra = np.empty((6, m), dtype=complex)
        self.flux, self.pair = np.empty((2, n)), np.empty((2, n))
        self.push, self.pressure, self.area, self.density_area = np.empty((4, n))
        self.logistic, self.growth, self.transport, self.scratch = np.empty((4, n))
        self.finite = np.empty((2, n), dtype=bool)


def _assemble(ws: Workspace, u: np.ndarray, sqrt: bool) -> np.ndarray:
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
    average spectra feed the pointwise terms, which are written into the work
    arrays of ``ws``; beside the transforms, only the returned array is new.
    """
    p, ik, ik2 = ws.p, ws.grid.ik, ws.grid.ik2
    a, w = u
    rows = 3 if sqrt else 2
    spec = ws.deriv_spectra[: rows + 3]
    with np.errstate(over="ignore", invalid="ignore"):  # finiteness checked below
        if sqrt:
            fields = ws.fields
            fields[:2] = u
            rho = np.multiply(w, w, out=fields[2])
            uh = np.fft.rfft(fields)  # rows A, eta, rho
            np.multiply(uh[2], ik, out=spec[5])
        else:
            rho = w
            uh = np.fft.rfft(u)  # rows A, rho
        # rows A_x, w_x, A_xx, w_xx, Gamma*rho[, rho_x]
        np.multiply(uh[:2], ik, out=spec[0:2])
        np.multiply(uh[:2], ik2, out=spec[2:4])
        np.multiply(uh[-1], ws.conv_sym, out=spec[4])
        d = np.fft.irfft(spec, n=ws.grid.n_points)
        ux, uxx, avg = d[0:2], d[2:4], d[4]
        rx = d[5] if sqrt else ux[1]
        flux = np.multiply(rho, uxx, out=ws.flux)
        flux += np.multiply(rx, ux, out=ws.pair)
        area_flux, w_flux = flux

        # The reactions, with the roundings of the plain expressions
        #   a*(alpha*rho - mu*alpha*(rho - avg)) + beta_tilde*a*(1 - rho*a/K_tilde)
        #   g = beta*(1 - a*rho/K) - alpha*rho + mu*alpha*(rho - avg)
        # evaluated left to right: operands of a product or sum may swap,
        # which is exact, but none is regrouped, so every bit is kept.
        push = np.subtract(rho, avg, out=ws.push)
        push *= ws.mu_alpha
        pressure = np.multiply(p.alpha, rho, out=ws.pressure)
        area_reaction = np.subtract(pressure, push, out=ws.area)
        area_reaction *= a
        density_area = np.multiply(rho, a, out=ws.density_area)
        logistic = np.divide(density_area, p.K_tilde, out=ws.logistic)
        np.subtract(1.0, logistic, out=logistic)
        logistic *= np.multiply(p.beta_tilde, a, out=ws.scratch)
        area_reaction += logistic
        g = np.divide(density_area, p.K, out=ws.growth)
        np.subtract(1.0, g, out=g)
        g *= p.beta
        g -= pressure
        g += push
        w_reaction = g
        if sqrt:
            g *= np.multiply(0.5, w, out=ws.scratch)
            w_transport = np.multiply(w, ux[1], out=ws.transport)
            w_transport *= ux[1]
            w_transport += w_flux
        else:
            g *= w
            w_transport = w_flux
        out = np.empty_like(u)
        np.add(area_reaction, area_flux, out=out[0])
        np.add(w_reaction, w_transport, out=out[1])

    if not np.isfinite(out, out=ws.finite).all():
        terms = zip((area_reaction, area_flux, w_reaction, w_transport), _TERM_NAMES[sqrt])
        bad = (name for term, name in terms if not np.all(np.isfinite(term)))
        # finite terms whose sum overflows name no single term
        raise NumericalFault(f"non-finite values in {next(bad, 'right-hand side sum')}")
    return out


def _rhs_core(ws: Workspace, u: np.ndarray) -> np.ndarray:
    """Original-system right side of the stacked (A, rho)."""
    return _assemble(ws, u, sqrt=False)


def _rhs_sqrt_core(ws: Workspace, u: np.ndarray) -> np.ndarray:
    """Square-root-form right side of the stacked (A, eta)."""
    return _assemble(ws, u, sqrt=True)


def _rhs_regularized_core(ws: Workspace, u: np.ndarray, damp: np.ndarray) -> np.ndarray:
    """Mollified right side: smooth the stacked (A, rho) by the heat multiplier
    ``damp``, assemble, smooth the result."""
    n = ws.grid.n_points
    uh = np.fft.rfft(u)
    uh *= damp
    smoothed = np.fft.irfft(uh, n=n)
    uh = np.fft.rfft(_assemble(ws, smoothed, sqrt=False))
    uh *= damp
    return np.fft.irfft(uh, n=n)


def _fields(grid: Grid, d: np.ndarray) -> tuple[Field, Field]:
    return Field(grid, d[0]), Field(grid, d[1])


def rhs(s: State, p: ModelParams) -> tuple[Field, Field]:
    """Time derivatives (dA/dt, drho/dt) of the original system."""
    u = np.stack((s.A.values, s.rho.values))
    return _fields(s.grid, _rhs_core(Workspace(s.grid, p, p.kernel.symbol(s.grid)), u))


def rhs_regularized(s: State, p: ModelParams, eps: float) -> tuple[Field, Field]:
    """Time derivatives of the heat-semigroup-mollified system (eps = 0 is rhs up to roundoff)."""
    u = np.stack((s.A.values, s.rho.values))
    ws = Workspace(s.grid, p, p.kernel.symbol(s.grid))
    return _fields(s.grid, _rhs_regularized_core(ws, u, heat_multiplier(s.grid, eps)))


def rhs_sqrt(A: Field, eta: Field, p: ModelParams) -> tuple[Field, Field]:
    """Time derivatives (dA/dt, deta/dt) of the square-root density form."""
    if A.grid != eta.grid:
        raise ValueError("A and eta must share one grid")
    if float(np.min(eta.values)) < 0.0:
        raise ValueError("eta must be nonnegative")
    u = np.stack((A.values, eta.values))
    return _fields(A.grid, _rhs_sqrt_core(Workspace(A.grid, p, p.kernel.symbol(A.grid)), u))


# ---------------------------------------------------------------------------
# energy and the blow-up threshold
# ---------------------------------------------------------------------------


def _energy_spectra(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """rfft of the stacked (rho, A, sqrt(rho)); row 0 is the density spectrum."""
    with np.errstate(over="ignore"):
        return np.fft.rfft(np.stack((rho, a, np.sqrt(np.clip(rho, 0.0, None)))))


def energy(
    grid: Grid, a: np.ndarray, rho: np.ndarray, spectra: np.ndarray | None = None
) -> EnergyReport:
    """Sobolev energies of the node values ``a`` and ``rho`` (density derivative order 3).

    One rfft of the stacked (rho, A, sqrt(rho)) and one irfft of the stacked
    derivative spectra give the three derivatives the energies need.  A
    caller that holds that rfft already passes it as ``spectra``.
    """
    dx = grid.dx
    root = np.sqrt(np.clip(rho, 0.0, None))
    if spectra is None:
        spectra = _energy_spectra(a, rho)
    rh, ah, rooth = spectra
    with np.errstate(over="ignore"):  # energies may legitimately reach +inf
        # d^3 rho, d^2 A and d^2 sqrt(rho)
        r_m, a_m1, root_xx = np.fft.irfft(
            np.stack((rh * grid.d3, ah * grid.d2, rooth * grid.d2)), n=grid.n_points
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
    return p.mu * p.beta * p.kernel.l1_norm() / (1.0 - p.mu)

