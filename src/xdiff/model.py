"""Evolution laws for the coupled occupied-area / population-density system.

The original system couples a density equation with porous-medium diffusion
to an area equation with density-weighted cross-diffusion, both driven by
logistic reactions and a nonlocal density average.  Two companion forms are
provided: a mollified variant (all fields smoothed by the periodic heat
semigroup, with the whole right side smoothed again) and the square-root
density form used for uniqueness-style cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, InvalidValue
from .kernel import KernelSpec, kernel_l1_norm

ENERGY_DERIVATIVE_ORDER = 3  # density derivative order in the Sobolev energy; area uses one less


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

    Both fields are expected to be nonnegative up to the integrator's
    positivity tolerance; the integrator enforces that after each step.
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
# right-hand sides (array level; Field wrappers below)
# ---------------------------------------------------------------------------


def _require_finite(arr: np.ndarray, term: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalFault(f"non-finite values in {term}")


def _rhs_core(
    grid: Grid,
    a: np.ndarray,
    r: np.ndarray,
    p: ModelParams,
    conv_sym: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Original-system right side on raw node values.

    All nonlinear terms are assembled pointwise from the raw fields, so every
    term carrying a factor of the state vanishes exactly on the nodes where
    that state vanishes; this is what preserves the discrete zero set of the
    density and keeps the area confined to the density support.  The density
    flux keeps its conservative form, differentiated through the smooth
    spectral roll-off (aliasing control without sharp-cutoff ringing); the
    area flux is expanded as rho*A_xx + rho_x*A_x, whose quadrature is still
    exactly zero because the spectral derivative matrix is antisymmetric.
    """
    n = grid.n_points
    ik = grid._ik
    flux_mult = ik * grid._flux_filter
    with np.errstate(over="ignore", invalid="ignore"):  # finiteness checked below
        ah = np.fft.rfft(a)
        rh = np.fft.rfft(r)

        ax = np.fft.irfft(ah * ik, n=n)
        axx = np.fft.irfft(ah * (ik * ik), n=n)
        rx = np.fft.irfft(rh * ik, n=n)
        avg = np.fft.irfft(rh * conv_sym, n=n)

        local_push = r - avg  # density excess over its nonlocal average
        da_reaction = a * (p.alpha * r - p.mu * p.alpha * local_push) + p.beta_tilde * a * (
            1.0 - r * a / p.K_tilde
        )
        dr_reaction = (
            p.beta * r * (1.0 - a * r / p.K) - p.alpha * r * r + p.mu * p.alpha * r * local_push
        )
        da_flux = r * axx + rx * ax
        dr_flux = np.fft.irfft(np.fft.rfft(r * rx) * flux_mult, n=n)

    _require_finite(da_reaction, "area reaction terms")
    _require_finite(da_flux, "area flux d/dx(rho * dA/dx)")
    _require_finite(dr_reaction, "density reaction terms")
    _require_finite(dr_flux, "density flux d/dx(rho * drho/dx)")
    return da_reaction + da_flux, dr_reaction + dr_flux


def _rhs_regularized_core(
    grid: Grid,
    a: np.ndarray,
    r: np.ndarray,
    p: ModelParams,
    conv_sym: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Mollified right side: smooth both inputs, evaluate, smooth the result."""
    if eps == 0.0:
        return _rhs_core(grid, a, r, p, conv_sym)
    n = grid.n_points
    damp = np.exp(-eps * grid.k**2)
    a_s = np.fft.irfft(np.fft.rfft(a) * damp, n=n)
    r_s = np.fft.irfft(np.fft.rfft(r) * damp, n=n)
    da, dr = _rhs_core(grid, a_s, r_s, p, conv_sym)
    da = np.fft.irfft(np.fft.rfft(da) * damp, n=n)
    dr = np.fft.irfft(np.fft.rfft(dr) * damp, n=n)
    return da, dr


def _rhs_sqrt_core(
    grid: Grid,
    a: np.ndarray,
    e: np.ndarray,
    p: ModelParams,
    conv_sym: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Right side for (A, eta) with eta^2 playing the role of the density.

    The eta reaction carries the chain-rule prefactor eta/2 so that
    2*eta*d(eta) reproduces the density equation wherever eta > 0.  Term
    assembly mirrors the original-system core: pointwise products, a
    conservative filtered eta flux, and the area flux expanded against the
    spectral derivative of eta^2.
    """
    n = grid.n_points
    ik = grid._ik
    flux_mult = ik * grid._flux_filter
    with np.errstate(over="ignore", invalid="ignore"):  # finiteness checked below
        ah = np.fft.rfft(a)
        eh = np.fft.rfft(e)

        ax = np.fft.irfft(ah * ik, n=n)
        axx = np.fft.irfft(ah * (ik * ik), n=n)
        ex = np.fft.irfft(eh * ik, n=n)

        dens = e * e
        dens_h = np.fft.rfft(dens)
        dens_x = np.fft.irfft(dens_h * ik, n=n)
        avg = np.fft.irfft(dens_h * conv_sym, n=n)

        de_reaction = 0.5 * e * (
            p.beta
            - (p.beta / p.K) * a * dens
            - p.alpha * dens
            + p.alpha * p.mu * (dens - avg)
        )
        de_transport = e * ex * ex + np.fft.irfft(np.fft.rfft(dens * ex) * flux_mult, n=n)
        da_reaction = p.alpha * a * ((1.0 - p.mu) * dens + p.mu * avg) + p.beta_tilde * a * (
            1.0 - a * dens / p.K_tilde
        )
        da_flux = dens * axx + dens_x * ax

    _require_finite(da_reaction, "area reaction terms (sqrt form)")
    _require_finite(da_flux, "area flux d/dx(eta^2 * dA/dx)")
    _require_finite(de_reaction, "eta reaction terms")
    _require_finite(de_transport, "eta transport terms")
    return da_reaction + da_flux, de_reaction + de_transport


def rhs(s: State, p: ModelParams) -> tuple[Field, Field]:
    """Time derivatives (dA/dt, drho/dt) of the original system."""
    sym = p.kernel.symbol(s.grid)
    da, dr = _rhs_core(s.grid, s.A.values, s.rho.values, p, sym)
    return Field(s.grid, da), Field(s.grid, dr)


def rhs_regularized(s: State, p: ModelParams, eps: float) -> tuple[Field, Field]:
    """Time derivatives of the heat-semigroup-mollified system (eps = 0 is rhs)."""
    if eps < 0:
        raise ValueError(f"mollifier width eps must be nonnegative, got {eps}")
    sym = p.kernel.symbol(s.grid)
    da, dr = _rhs_regularized_core(s.grid, s.A.values, s.rho.values, p, sym, eps)
    return Field(s.grid, da), Field(s.grid, dr)


def rhs_sqrt(t: float, A: Field, eta: Field, p: ModelParams) -> tuple[Field, Field]:
    """Time derivatives (dA/dt, deta/dt) of the square-root density form."""
    if A.grid != eta.grid:
        raise ValueError("A and eta must share one grid")
    if float(np.min(eta.values)) < 0.0:
        raise ValueError("eta must be nonnegative")
    sym = p.kernel.symbol(A.grid)
    da, de = _rhs_sqrt_core(A.grid, A.values, eta.values, p, sym)
    return Field(A.grid, da), Field(A.grid, de)


# ---------------------------------------------------------------------------
# energy and the blow-up threshold
# ---------------------------------------------------------------------------


def energy(s: State) -> EnergyReport:
    """Sobolev energies of the state (density derivative order fixed at 3)."""
    grid = s.grid
    dx = grid.dx
    a = s.A.values
    r = s.rho.values
    m = ENERGY_DERIVATIVE_ORDER

    with np.errstate(over="ignore"):  # energies may legitimately reach +inf
        r_m = grid.deriv_values(r, m)
        a_m1 = grid.deriv_values(a, m - 1)
        e_tilde = 1.0 + float(
            np.sum(r_m**2) * dx + np.sum(r**2) * dx + np.sum(a**2) * dx + np.sum(a_m1**2) * dx
        )

    root = np.sqrt(np.clip(r, 0.0, None))
    root_xx = grid.deriv_values(root, 2)
    e_sqrt = 1.0 + float(np.sum(root**2) * dx + np.sum(root_xx**2) * dx)

    return EnergyReport(e_tilde=e_tilde, e_sqrt=e_sqrt)


def blowup_threshold(p: ModelParams) -> float:
    """Critical central curvature mu*beta*||kernel||_1 / (1 - mu).

    Initial data with second density derivative above this value at the
    central zero drive that derivative to infinity in finite time.
    """
    return p.mu * p.beta * kernel_l1_norm(p.kernel) / (1.0 - p.mu)

