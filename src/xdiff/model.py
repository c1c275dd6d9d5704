"""Evolution laws for the coupled occupied-area / population-density system.

The original system couples a density equation with porous-medium diffusion
to an area equation with density-weighted cross-diffusion, both driven by
logistic reactions and a nonlocal density average.  Two companion forms
exist: a mollified variant (all fields smoothed by the 3-point Laplacian's
heat semigroup, with the whole right side smoothed again) and the square-root
density form used for uniqueness-style cross-checks.  All three share the
assembly here, on the stacked arrays; ``xdiff.integrator`` owns the forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, GridMismatchError, InvalidValue, all_finite
from .kernel import KernelSpec, smooth


class NumericalFault(RuntimeError):
    """Raised when an evolution term or a stepped state stops being finite."""


@dataclass(frozen=True)
class ModelParams:
    """Model constants.

    alpha       growth-pressure rate (> 0)
    mu          effective elastic coupling, dimensionless, in [0, 1)
    beta        density logistic rate (> 0)
    beta_tilde  area logistic rate (>= 0)
    K           density carrying capacity (> 0, with a finite crowding rate beta/K)
    K_tilde     area carrying capacity (> 0, with a finite beta_tilde/K_tilde)
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
            ("K", self.K, self.K > 0 and np.isfinite(float(self.beta) / float(self.K))),
            ("K_tilde", self.K_tilde, self.K_tilde > 0
             and np.isfinite(float(self.beta_tilde) / float(self.K_tilde))),
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
            raise GridMismatchError("A and rho must share one grid")

    @property
    def grid(self) -> Grid:
        return self.A.grid


# ---------------------------------------------------------------------------
# right-hand sides (array level on the stacked state)
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


def flux_wavenumber(dx: float) -> float:
    """2/dx, the largest wavenumber the density flux differentiates.

    Its square is the area face flux's largest symbol, 4/dx^2, so with the
    density row's multiplier capped here both rows' flux symbols are at most
    (2/dx)^2, the bound the step rule's stability unit reads."""
    return 2.0 / dx


class Workspace:
    """Constants and work arrays of the right-side evaluations of one run.

    The constants are the reaction rates folded for the regrouped
    reactions, the area face flux's factor 1/(2 dx^2), the density flux's
    derivative multiplier ``ik``, D = i min(k, 2/dx) (``flux_wavenumber``)
    with the Nyquist mode zeroed, and ``ik2``, D*D, and the pressure's
    symbol alpha*(1 - mu) + mu*alpha*Gamma^ from the kernel's symbol on the
    grid, which turns the density into the pressure P.  D is exact on the
    modes with k <= 2/dx, the lower 64%, and caps the rest, so the density
    row is no stiffer than the area's face flux.  The work arrays hold
    the sqrt form's stacked (eta, rho), the spectra of the second row's
    derivatives and of the pressure, and the pointwise terms, sized for the
    sqrt form's extra density row, so one workspace serves every form; the
    views into them are cut once here.  The transforms return fresh arrays,
    because the ``out=`` argument of ``np.fft`` needs numpy 2.  A run or public
    call builds one and drops it at its end: evaluations overwrite the work
    arrays, so a workspace is never shared between runs or threads.
    """

    def __init__(self, grid: Grid, p: ModelParams):
        n, m = grid.N, grid.k.size
        self.p, self.n = p, n
        self.area_crowding, self.density_crowding = p.beta_tilde / p.K_tilde, p.beta / p.K
        self.face_scale = 0.5 / (grid.dx * grid.dx)
        ik = 1j * np.minimum(grid.k, flux_wavenumber(grid.dx))
        ik[-1] = 0.0  # Nyquist mode dropped, as in the grid's exact D
        self.ik, self.ik2 = ik, ik * ik
        # P = irfft(rho_hat*pressure_sym) is alpha*rho - mu*alpha*(rho - Gamma*rho); stored
        # complex: numpy would cast the real symbol to these values on every product
        symbol = p.alpha * (1.0 - p.mu) + (p.mu * p.alpha) * p.kernel.symbol(grid)
        self.pressure_sym = symbol.astype(complex)
        self.fields = np.empty((2, n))  # sqrt form: eta, rho = eta^2
        spectra = np.empty((4, m), dtype=complex)
        # rows w_x, w_xx, P[, rho_x]
        self.spectra = {False: spectra[:3], True: spectra}
        self.area_flux, self.w_flux, self.area, self.face = np.empty((4, n))
        self.density_area, self.growth, self.transport, self.scratch = np.empty((4, n))


def _unchecked() -> np.errstate:
    """numpy's error state around evaluations and steps: overflow and invalid
    operations pass silently, because their results are checked for
    finiteness and reported by name."""
    return np.errstate(over="ignore", invalid="ignore")


def _assemble(ws: Workspace, u: np.ndarray, sqrt: bool) -> np.ndarray:
    """Right side of the stacked state ``u = (A, w)``, with w = rho, or w = eta
    and rho = eta^2 in the sqrt form.

    All nonlinear terms are assembled pointwise from the raw fields, so every
    term carrying a factor of the state vanishes exactly on the nodes where
    that state vanishes; this is what preserves the discrete zero set of the
    density and keeps the area confined to the density support.  The rows
    discretize the flux d/dx(rho * du/dx) in two ways.  The area row takes it
    on cell faces, (F[j+1/2] - F[j-1/2])/dx with
    F[j+1/2] = (rho[j] + rho[j+1])/2 * (A[j+1] - A[j])/dx: second order in
    space, it telescopes to zero mass, it is even bit for bit for even data,
    and at a node where A = 0 and rho >= 0 it is a sum of nonnegative terms,
    so the area gains no negative mass outside its support.  The second row
    keeps the spectral flux rho*w_xx + rho_x*w_x with w_x = D w, w_xx = D(D w)
    and rho_x = D rho for the workspace's capped derivative D = i min(k, 2/dx),
    Nyquist zeroed: its quadrature is exactly zero because D is
    antisymmetric, where rho = 0 one D serving both terms reduces the density
    flux to (D rho)^2 >= 0, and its largest symbol is the area row's, 4/dx^2.
    With the density growth rate g, the density equation reads
    rho*g + flux and the eta equation eta*g/2 + eta*eta_x^2 + flux, so that
    2*eta*d(eta) reproduces the density equation wherever eta > 0.

    The reactions are regrouped around the pressure
    P = alpha*(1 - mu)*rho + mu*alpha*(Gamma*rho), which is
    alpha*rho - mu*alpha*(rho - Gamma*rho) and the inverse transform of the
    density spectrum times the workspace's pressure symbol:

        area reaction  a*(beta_tilde + P - (beta_tilde/K_tilde)*rho*a)
        g              beta - P - (beta/K)*rho*a

    the same model as the plain expressions, rounded differently; the factors
    a and rho (or eta/2) are still applied last, so those terms are exactly
    zero where a or rho vanishes.  The area's spectrum is never formed: one
    rfft of w (of the stacked eta and rho in the sqrt form) and one irfft of
    the stacked w_x, w_xx, P (and rho_x) spectra feed the pointwise terms,
    which are written into the work arrays of ``ws``; beside the transforms,
    only the returned array is new.

    The caller holds numpy's error state at ``_unchecked()``, once per run or
    public call rather than once here: an overflow surfaces as a
    non-finite output, which this function reports by term.
    """
    p = ws.p
    a, w = u[0], u[1]  # indexing: unpacking an array iterates it, which is slower
    spectra = ws.spectra[sqrt]
    if sqrt:
        fields = ws.fields
        fields[0] = w
        rho = np.multiply(w, w, out=fields[1])
        wh = np.fft.rfft(fields)  # rows eta, rho
        w_hat, rho_hat = wh[0], wh[1]
        np.multiply(rho_hat, ws.ik, out=spectra[3])
    else:
        rho = w
        w_hat = rho_hat = np.fft.rfft(w)
    np.multiply(w_hat, ws.ik, out=spectra[0])
    np.multiply(w_hat, ws.ik2, out=spectra[1])
    np.multiply(rho_hat, ws.pressure_sym, out=spectra[2])
    d = np.fft.irfft(spectra, n=ws.n)
    wx, wxx, pressure = d[0], d[1], d[2]
    rx = d[3] if sqrt else wx
    # face j lies between nodes j and j + 1, and face N - 1 wraps to node 0
    face, scratch = ws.face, ws.scratch
    np.subtract(a[1:], a[:-1], out=face[:-1])
    face[-1] = a[0] - a[-1]
    np.add(rho[1:], rho[:-1], out=scratch[:-1])
    scratch[-1] = rho[0] + rho[-1]
    face *= scratch
    area_flux = ws.area_flux
    np.subtract(face[1:], face[:-1], out=area_flux[1:])
    area_flux[0] = face[0] - face[-1]
    area_flux *= ws.face_scale
    w_flux = np.multiply(rho, wxx, out=ws.w_flux)
    w_flux += np.multiply(rx, wx, out=scratch)

    density_area = np.multiply(rho, a, out=ws.density_area)
    area_reaction = np.add(pressure, p.beta_tilde, out=ws.area)
    area_reaction -= np.multiply(density_area, ws.area_crowding, out=scratch)
    area_reaction *= a
    g = np.subtract(p.beta, pressure, out=ws.growth)
    g -= np.multiply(density_area, ws.density_crowding, out=scratch)
    w_reaction = g
    if sqrt:
        g *= np.multiply(0.5, w, out=scratch)
        w_transport = np.multiply(w, wx, out=ws.transport)
        w_transport *= wx
        w_transport += w_flux
    else:
        g *= w
        w_transport = w_flux
    out = np.empty(u.shape)
    np.add(area_reaction, area_flux, out=out[0])
    np.add(w_reaction, w_transport, out=out[1])

    if not all_finite(out):
        terms = zip((area_reaction, area_flux, w_reaction, w_transport), _TERM_NAMES[sqrt])
        bad = (name for term, name in terms if not all_finite(term))
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
    """Mollified right side: ``smooth`` the stacked (A, rho) by the heat
    multiplier ``damp``, assemble, ``smooth`` the result."""
    out = smooth(_assemble(ws, smooth(u, damp), sqrt=False), damp)
    # a finite assembled side may still overflow in the transform
    if not all_finite(out):
        raise NumericalFault("non-finite values in smoothed right-hand side")
    return out


# ---------------------------------------------------------------------------
# energy and the blow-up threshold
# ---------------------------------------------------------------------------


def _energy_spectra(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The rfft of the stacked (rho, A, sqrt(rho)), whose row 0 is the density
    spectrum; a negative density node counts as 0 under the root.  The
    transform of a huge state may overflow, so the caller holds the error
    state."""
    fields = np.empty((3, rho.size))
    fields[0], fields[1] = rho, a
    root = np.maximum(rho, 0.0, out=fields[2])
    np.sqrt(root, out=root)
    return np.fft.rfft(fields)


def energy(
    grid: Grid, a: np.ndarray, rho: np.ndarray, spectra: np.ndarray | None = None
) -> tuple[float, float]:
    """Sobolev energies ``(e_tilde, e_sqrt)`` of the node values ``a`` and
    ``rho`` (density derivative order 3); +inf when a steep state overflows.

    By Parseval, from the rfft X of the stacked (rho, A, sqrt(rho)) alone: a
    row's node sum of f^2 + (d f)^2 is N times the sum over modes of
    w_m (1 + |d_m|^2) |X_m / N|^2, ``grid.energy_weights``.  Scaled before
    squaring, a square overflows no earlier than in node space, and with every
    weight at least 1 an overflow gives +inf, never nan.  A caller that holds
    ``_energy_spectra(a, rho)`` already passes it as ``spectra``.
    """
    with np.errstate(over="ignore"):  # energies may legitimately reach +inf
        spectra = _energy_spectra(a, rho) if spectra is None else spectra
        # on the real and imaginary parts: a complex product of inf would meet a 0
        power = spectra.view(np.float64) / grid.N
        np.square(power, out=power)
        power *= grid.energy_weights
        rho_m, a_m, root_m = power.sum(axis=1)
        length = grid.N * grid.dx
        return 1.0 + float(rho_m * length + a_m * length), 1.0 + float(root_m * length)


def blowup_threshold(p: ModelParams) -> float:
    """Critical central curvature mu*beta*||kernel||_1 / (1 - mu).

    Initial data with second density derivative above this value at the
    central zero drive that derivative to infinity in finite time.
    """
    return p.mu * p.beta * p.kernel.l1_norm() / (1.0 - p.mu)

