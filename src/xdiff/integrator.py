"""Explicit time advancement with degenerate-diffusion step control.

A run steps one of the three evolution forms with second-order damped RKC
super-time-stepping (Sommeijer, Shampine & Verwer 1998), each stage the same
pointwise right side.  A damped RKC step of s stages is stable on
[-beta(s), 0] of the real axis, beta(s) about 0.653 s^2 at the damping
``DAMPING``, so ``_step_size`` gives each step the size that accuracy, the
snapshots and the end time allow, capped by the stability of ``S_CAP``
stages, and then the fewest stages that are stable at that size.  The
diffusive unit is dx^2 / (4 max(rho)): the density weights the flux of both
equations, and both rows' flux symbols are at most (2/dx)^2, the area's on
its faces and the density's under its capped spectral derivative.
``_Stepper`` maps each form to its right side, for runs and for the public
``rhs`` and ``step``; ``step`` is classical RK4, the fourth-order reference
for fixed-step convergence checks.  Runs halt on reaching the end time, on
the two-signal blow-up detector, on step-size underflow, or on loss of
finiteness.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import (
    DiagnosticRecord, hull, second_derivative_at_center, support, symmetry_defect
)
from .grid import Field, Grid, InvalidValue, all_finite
from .kernel import heat_multiplier, smooth
from .model import (
    ModelParams,
    NumericalFault,
    State,
    Workspace,
    energy,
    _energy_spectra,
    _rhs_core,
    _rhs_regularized_core,
    _rhs_sqrt_core,
    _unchecked,
    flux_wavenumber,
)

POSITIVITY_TOL = 1e-12  # initial data may dip this far below zero
CLIP_BUDGET_FRACTION = 1e-8  # clipped mass allowed per run, relative to initial mass
BLOWUP_CAP = 1e6  # central curvature that halts any run
CURVATURE_GROWTH = 10.0  # growth over a positive initial curvature y0 that arms the window
RISE_WINDOW = 0.04  # trailing time, in units of 1/y0, over which the curvature must rise

RUN_MODES = ("original", "regularized", "sqrt")

STABILITY_SHARE = 0.25 * math.pi**2 / 2.7853  # the Euler unit times the flux spectral radius bound
S_CAP = 40  # most stages in one RKC step, bounding roundoff growth through them
DAMPING = 2.0 / 13.0  # RKC's epsilon, in w0 = 1 + epsilon / s^2: keeps |R| off 1 away from z = 0
DT_MAX = 1e-2  # longest step, the stability bound where the density vanishes
DT_MIN = 1e-14  # smallest step; two in a row halt on underflow
CHANGE_FRACTION = 0.005  # a step's first-order change of each row, over the row's maximum
CURVATURE_FRACTION = 0.02  # a step's share of 1/y, y the central curvature, when y0 > 0
ERROR_RTOL = 3e-3  # relative tolerance of RKC's error estimate, which may lengthen a step
ERROR_AREL = 3e-5  # share of its row's maximum below which a node's error weight stops shrinking


def _chebyshev(s: int, x: float) -> tuple[list[float], list[float], list[float]]:
    """T_j(x), T_j'(x) and T_j''(x) for j = 0..s, by the three-term recurrence."""
    t, d1, d2 = [1.0, x], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        t.append(2.0 * x * t[j - 1] - t[j - 2])
        d1.append(2.0 * t[j - 1] + 2.0 * x * d1[j - 1] - d1[j - 2])
        d2.append(4.0 * d1[j - 1] + 2.0 * x * d2[j - 1] - d2[j - 2])
    return t, d1, d2


def stability_interval(stages: int) -> float:
    """Length beta(s) of the real interval on which s-stage damped RKC is
    stable, the first entry of ``_rkc_table(s)``."""
    return _rkc_table(stages)[0]


class HaltReason(str, enum.Enum):
    REACHED_T_END = "reached_t_end"
    BLOWUP_DETECTED = "blowup_detected"
    DT_UNDERFLOW = "dt_underflow"
    NUMERICAL_FAULT = "numerical_fault"


@dataclass(frozen=True)
class RunMode:
    """Which evolution form a run integrates; ``regularized`` smooths fields with width ``eps``."""

    kind: str = "original"
    eps: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in RUN_MODES:
            raise InvalidValue("kind", f"must be one of {', '.join(RUN_MODES)}, got {self.kind!r}")
        if not (np.isfinite(self.eps) and self.eps >= 0):
            raise InvalidValue("eps", f"must be nonnegative and finite, got {self.eps}")
        if self.kind != "regularized" and self.eps != 0.0:
            raise InvalidValue("eps", "only applies to the regularized mode")


@dataclass
class RunOutcome:
    """Trajectory summary: halt reason, diagnostic series, snapshot states, budgets.

    ``rhs_evals`` counts the right-side evaluations, the stages of every step.
    """

    halt_reason: HaltReason
    final_state: State
    series: list[DiagnosticRecord]
    snapshots: list[State]
    steps: int = 0
    rhs_evals: int = 0
    initial_mass_rho: float = 0.0
    initial_mass_A: float = 0.0
    clipped_mass_rho: float = 0.0
    clipped_mass_A: float = 0.0
    fault_detail: str = ""


def _euler_unit(dx: float, rho_max: float) -> float:
    """The forward-Euler diffusive unit: the share ``STABILITY_SHARE`` (0.886)
    of one over the flux's spectral radius bound max(rho) k^2,
    k = ``flux_wavenumber(dx)`` = 2/dx.

    The density maximum ``rho_max`` bounds the diffusivity of both equations,
    and k bounds both rows' flux symbols, the density's capped multiplier and
    the area's face flux.  A density that vanishes everywhere (a zero or -0.0
    maximum) couples no node to another, and the unit is inf."""
    k = flux_wavenumber(dx)
    spectral_radius = rho_max * k * k
    return STABILITY_SHARE / spectral_radius if spectral_radius > 0.0 else math.inf


def cfl_dt(dx: float, rho_max: float) -> float:
    """RKC stability bound, the ``S_CAP``-stage interval in forward-Euler units,
    capped at DT_MAX, which is the bound for a density that vanishes everywhere."""
    return min(_euler_unit(dx, rho_max) * stability_interval(S_CAP), DT_MAX)


def _error_ratio(
    last: tuple[np.ndarray, np.ndarray, float],
    v: np.ndarray,
    f_v: np.ndarray,
    sizes: np.ndarray,
) -> float:
    """RMS over both rows of RKC's weighted error estimate for the step from ``last`` to ``v``.

    ``last`` holds the stepped state, its right side and the size of the step
    that ended at ``v``; ``f_v`` is the right side at ``v`` and ``sizes`` its
    rows' maxima.  The estimate 0.8 (v_n - v_n+1) + 0.4 dt_n (f(v_n) +
    f(v_n+1)) (Sommeijer, Shampine & Verwer 1998) is weighted by
    ERROR_RTOL (ERROR_AREL max|v_n+1| + max(v_n, v_n+1)), the first term per
    row; both states are clipped nonnegative, so max(v_n, v_n+1) is that of
    their magnitudes.  The constant factors are applied to the RMS.  A zero
    weight, from a row that is zero at both ends, gives inf.
    """
    v_last, f_last, dt_last = last
    est = f_last + f_v
    est *= 0.5 * dt_last
    est += v_last - v
    scale = np.maximum(v_last, v)
    scale += ERROR_AREL * sizes[:, None]
    if scale.min() == 0.0:
        return math.inf
    est /= scale
    flat = est.reshape(-1)
    return 0.8 / ERROR_RTOL * math.sqrt(float(np.dot(flat, flat)) / flat.size)


def _step_size(
    dx: float,
    v: np.ndarray,
    f_v: np.ndarray,
    rho_max: float,
    y0: float,
    y: float,
    remaining: float,
    last: tuple[np.ndarray, np.ndarray, float] | None,
) -> tuple[float, int, bool]:
    """The step rule, its one owner: ``(dt, stages, at_floor)`` for a step from
    the stepped state ``v``, its right side ``f_v`` and the density maximum.

    The accuracy bound is CHANGE_FRACTION * min over rows of max v / max|f(v)|,
    lengthened, never shortened, to the size RKC's error estimate proposes for
    the step that ended at ``v``, dt_n clamp(0.8 err^(-1/3), 0.2, 10) with err
    from ``_error_ratio`` (``last`` is None on a run's first step, which takes
    the change rule alone).  dt = min(cfl_dt, the accuracy bound,
    CURVATURE_FRACTION / y when the initial and latest central curvatures y0
    and y are positive), floored at DT_MIN (``at_floor``: the underflow rule),
    then cut to the ``remaining`` time to the next snapshot or the end, exactly
    when the bound covers it up to a relative 1e-9: the caller lands when
    dt == remaining.  ``stages`` is the fewest in [2, S_CAP] stable at dt.
    """
    # every stepped state is clipped nonnegative; a row whose maximum is -0.0
    # holds only zeros, so its rate is 0 and it drops out of the ratios
    sizes, rates = v.max(axis=1), np.max(np.abs(f_v), axis=1)
    # the ratio first: a subnormal row times the fraction would round to 0
    ratios = [float(size) / float(rate) for size, rate in zip(sizes, rates) if rate > 0]
    accuracy = CHANGE_FRACTION * min(ratios, default=math.inf)
    if last is not None:
        err = _error_ratio(last, v, f_v, sizes)
        # an estimate that overflowed to inf or NaN gives the smallest factor
        factor = 10.0 if err == 0.0 else min(10.0, max(0.2, 0.8 * err ** (-1.0 / 3.0)))
        accuracy = max(accuracy, last[2] * factor)
    bound = min(cfl_dt(dx, rho_max), accuracy)
    if y0 > 0.0 and y > 0.0:
        bound = min(bound, CURVATURE_FRACTION / y)
    floored = max(bound, DT_MIN)
    # a bound a rounding error short would leave a sliver step of about 1e-18,
    # whose roundoff change of the curvature the blow-up detector reads as a dip
    dt = remaining if floored >= remaining * (1.0 - 1e-9) else floored
    unit = _euler_unit(dx, rho_max)
    stages = next((s for s in range(2, S_CAP) if unit * stability_interval(s) >= dt), S_CAP)
    return dt, stages, floored == DT_MIN


def _apply_positivity(u: np.ndarray, dx: float) -> tuple[np.ndarray, float, float]:
    """Zero the negative entries of the stacked (A, rho) in place.

    Returns ``(u, clipped_A, clipped_rho)``, the clipped masses being the
    removed magnitude times ``dx``.
    """
    clipped = [0.0, 0.0]
    for i, (row, low) in enumerate(zip(u, u.min(axis=1).tolist())):
        if low < 0.0:
            negative = np.minimum(row, 0.0)
            row -= negative
            clipped[i] = float(-np.sum(negative)) * dx
    return u, clipped[0], clipped[1]


_Rhs = Callable[[np.ndarray], np.ndarray]
_Scheme = Callable[[np.ndarray, float, _Rhs, np.ndarray, int], np.ndarray]


def _rk4(u: np.ndarray, dt: float, f: _Rhs, k1: np.ndarray, stages: int = 4) -> np.ndarray:
    """Classical RK4 from the first stage ``k1 = f(u)``.

    ``stages`` is always 4; it only matches RKC's signature.
    """
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    return u + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


@functools.cache
def _rkc_table(s: int) -> tuple[float, float, tuple[tuple[float, float, float, float], ...]]:
    """beta(s), mu~_1 and the rows (mu_j, nu_j, mu~_j, gamma~_j), j = 2..s, of damped RKC.

    With w0 = 1 + DAMPING / s^2, w1 = T_s'(w0) / T_s''(w0),
    b_j = T_j''(w0) / T_j'(w0)^2 for j >= 2 and b_0 = b_1 = b_2, the
    stability polynomial is a_s + b_s T_s(w0 + w1 z) for the Chebyshev
    polynomial T_s and a_j = 1 - b_j T_j(w0).  It is stable on
    [-beta(s), 0] of the real axis, beta(s) = (w0 + 1) T_s''(w0) / T_s'(w0).
    """
    w0 = 1.0 + DAMPING / s**2
    t, d1, d2 = _chebyshev(s, w0)
    w1 = d1[s] / d2[s]
    b = [d2[j] / d1[j] ** 2 for j in range(2, s + 1)]
    b = [b[0], b[0]] + b
    rows = []
    for j in range(2, s + 1):
        mu_t = 2.0 * b[j] * w1 / b[j - 1]
        gamma_t = -(1.0 - b[j - 1] * t[j - 1]) * mu_t
        rows.append((2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2], mu_t, gamma_t))
    return (w0 + 1.0) * d2[s] / d1[s], b[1] * w1, tuple(rows)


def _rkc(u: np.ndarray, dt: float, f: _Rhs, f_u: np.ndarray, stages: int) -> np.ndarray:
    """One damped RKC step of ``stages`` stages in increment form: d_j = Y_j - u, returning u + d_s.

    The first stage ``f_u = f(u)`` does not depend on dt, so the caller,
    which chooses dt with it, passes it in.  The step writes neither ``u``
    nor ``f_u``, only the four arrays it allocates.

    d_j = mu_j d_{j-1} + nu_j d_{j-2} + mu~_j dt f(u + d_{j-1}) + gamma~_j dt f(u).
    Not the equivalent stage-value form mu_j Y_{j-1} + nu_j Y_{j-2} +
    (1 - mu_j - nu_j) u + ...: its rounded sum takes a subnormal u such as
    5e-324 below zero where the right side vanishes.  The increments are
    updated in place, and so is each stage's right side; the stage input y
    and the product buffer are separate, so an f that returns its argument
    or a view of it still gives the plain expressions' result.
    """
    _, mu1, rows = _rkc_table(stages)
    g = dt * f_u
    d, d_old, y, term = (np.empty_like(u) for _ in range(4))
    np.multiply(mu1, g, out=d)
    d_old.fill(0.0)
    for mu, nu, mu_t, gamma_t in rows:
        k = f(np.add(u, d, out=y))
        k *= mu_t * dt
        d_old *= nu
        d_old += np.multiply(mu, d, out=term)
        d_old += k
        d_old += np.multiply(gamma_t, g, out=term)
        d_old, d = d, d_old
    return u + d


class _Stepper:
    """The right side of one evolution form of the stacked (A, rho).

    Built once per run or public ``rhs`` or ``step`` call, so the workspace
    lives exactly as long as that call; the right sides are looked up at
    call time, so a wrapper installed on this module's names sees every
    stage, and ``evals`` counts them.  The sqrt form steps
    (A, eta) with eta = sqrt(rho) and squares eta back afterwards.  The
    mollified form is chosen by ``mode.eps``, as in ``mollify``, so
    ``regularized`` at eps = 0 is the original form.  Its heat multiplier
    ``damp`` (None for the other forms) is built once, for the stages and
    for ``run``'s initial data.
    """

    def __init__(self, grid: Grid, p: ModelParams, mode: RunMode):
        ws = Workspace(grid, p)
        self.grid, self.sqrt, self.evals = grid, mode.kind == "sqrt", 0
        self.damp = damp = heat_multiplier(grid, mode.eps) if mode.eps else None
        if self.sqrt:
            self._rhs = lambda w: _rhs_sqrt_core(ws, w)
        elif damp is not None:
            self._rhs = lambda w: _rhs_regularized_core(ws, w, damp)
        else:
            self._rhs = lambda w: _rhs_core(ws, w)

    def f(self, w: np.ndarray) -> np.ndarray:
        self.evals += 1
        return self._rhs(w)

    def stepped(self, u: np.ndarray) -> np.ndarray:
        """The state the scheme advances: (A, eta) in the sqrt form, else ``u`` itself."""
        if self.sqrt:
            return np.stack((u[0], np.sqrt(np.clip(u[1], 0.0, None))))
        return u


def _step_arrays(
    stepper: _Stepper,
    scheme: _Scheme,
    v: np.ndarray,
    f_v: np.ndarray,
    dt: float,
    stages: int,
) -> tuple[np.ndarray, float, float]:
    """One ``scheme`` step of ``stages`` stages from the stepped state ``v`` and
    its right side ``f_v``, plus positivity; returns (u, clipped_A,
    clipped_rho) of the stacked (A, rho)."""
    u = scheme(v, dt, stepper.f, f_v, stages)
    if stepper.sqrt:
        u[1] *= u[1]
    if not all_finite(u):
        raise NumericalFault("non-finite state after step")
    return _apply_positivity(u, stepper.grid.dx)


def rhs(s: State, p: ModelParams, mode: RunMode = RunMode()) -> tuple[Field, Field]:
    """Time derivatives (dA/dt, drho/dt) of the selected evolution form at ``s``; in the
    sqrt form (dA/dt, deta/dt) at eta = sqrt(max(rho, 0)), the state a sqrt run steps."""
    grid = s.grid
    stepper = _Stepper(grid, p, mode)
    with _unchecked():
        d = stepper.f(stepper.stepped(np.stack((s.A.values, s.rho.values))))
    return Field(grid, d[0]), Field(grid, d[1])


def step(s: State, p: ModelParams, dt: float, mode: RunMode = RunMode()) -> State:
    """Advance one classical RK4 step of the selected evolution form."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    grid = s.grid
    stepper = _Stepper(grid, p, mode)
    v = stepper.stepped(np.stack((s.A.values, s.rho.values)))
    with _unchecked():
        u, _, _ = _step_arrays(stepper, _rk4, v, stepper.f(v), dt, 4)
    return State(t=s.t + dt, A=Field(grid, u[0]), rho=Field(grid, u[1]))


# ---------------------------------------------------------------------------
# full run driver
# ---------------------------------------------------------------------------


def _record(
    grid: Grid, t: float, a: np.ndarray, r: np.ndarray, zero_nodes: np.ndarray
) -> DiagnosticRecord:
    """Diagnostics of the node values ``a``, ``r`` at time t; ``zero_nodes``
    holds the node indices of the initial density's interior zero set.

    One rfft of the stacked (rho, A, sqrt(rho)) serves both the energies and
    the central curvature, so a record makes 1 FFT call.  A huge but finite
    state may overflow in a sum; inside a run's error state such values come
    out non-finite without a warning, and the run faults on a non-finite
    curvature.
    """
    spectra = _energy_spectra(a, r)
    e_tilde, e_sqrt = energy(grid, a, r, spectra)
    supp_rho_lo, supp_rho_hi = hull(support(grid, r))
    supp_A_lo, supp_A_hi = hull(support(grid, a))
    zero_max = float(r[zero_nodes].max()) if zero_nodes.size else None
    return DiagnosticRecord(
        t=t,
        max_rho=float(r.max()),
        min_rho=float(r.min()),
        min_A=float(a.min()),
        rho_xx_at_0=second_derivative_at_center(grid, r, spectra[0]),
        supp_rho_lo=supp_rho_lo,
        supp_rho_hi=supp_rho_hi,
        supp_A_lo=supp_A_lo,
        supp_A_hi=supp_A_hi,
        mass_rho=float(r.sum() * grid.dx),
        mass_A=float(a.sum() * grid.dx),
        e_tilde=e_tilde,
        e_sqrt=e_sqrt,
        symmetry_defect_rho=symmetry_defect(r),
        zero_set_max_rho=zero_max,
    )


def _blowup_detected(t: float, y: float, y0: float, last_dip: float) -> bool:
    """Two-signal detector on the central curvature ``y`` at time ``t``.

    A run feeds it the curvature after every step, whatever its record
    cadence, with the initial curvature ``y0`` and ``last_dip``, the latest
    step time at which the curvature did not rise (-inf before any).  The
    hard cap fires for any data.  The growth signal is armed only for data
    with positive y0 (the blow-up mechanism presupposes it).  It fires once
    the curvature exceeds ``CURVATURE_GROWTH * y0`` and has risen at every
    step of the trailing window ``RISE_WINDOW / y0``, which must also fit
    after t = 0.  ``1 / y0`` is the time scale of the comparison ODE
    y' = y^2, so the window does not depend on the step size.
    """
    if y > BLOWUP_CAP:
        return True
    if y0 <= 0.0 or y <= CURVATURE_GROWTH * y0:
        return False
    return t - RISE_WINDOW / y0 >= max(0.0, last_dip)


def _interior_zero_nodes(r0: np.ndarray) -> np.ndarray:
    """Node indices where the initial density vanishes, one support-adjacent cell excluded.

    Band-limited interpolation smears a compact-support kink over one cell,
    so nodes touching the initial support do not count as zero set.
    """
    positive = r0 > 0.0
    adjacent = np.roll(positive, 1) | np.roll(positive, -1)
    return np.flatnonzero((r0 == 0.0) & ~adjacent)


def run(config) -> RunOutcome:
    """Integrate a full configuration and collect diagnostics.

    Each step takes the size and stage count of ``_step_size``, the one owner
    of the step rule; two sizes in a row at DT_MIN halt on underflow.  A
    run records every ``record_every`` steps and checks for blow-up after
    every step.  Every halt breaks to one tail, which records the final state
    unless the last step was recorded and builds the outcome.  On one step a
    clip-budget fault precedes the snapshots, the snapshots the blow-up
    detector, and the detector the end time.  Identical configurations give
    bit-identical series on one platform: the loop is sequential and every
    reduction is a fixed-order numpy reduction.
    """
    grid = config.grid
    dx = grid.dx

    initial = []
    for name, spec in (("rho0", config.rho0), ("A0", config.A0)):
        try:
            values = spec.sample(grid).values
        except ValueError as exc:  # a non-finite sample, or a CSV file that does not fit
            raise ValueError(f"{name}: {exc}") from None
        # in Python floats, which overflow to inf where numpy's sum would warn
        low = float(np.min(values))
        if low < -POSITIVITY_TOL:
            raise ValueError(f"{name} must be nonnegative (min {low:.3e})")
        total = sum(values.tolist())
        if not math.isfinite(total * dx):
            raise ValueError(f"{name} is too large: its mass on the grid overflows")
        # every rfft mode is at most the node sum, so the central curvature's
        # N/2 + 1 terms k^2 |rho_hat|, doubled, stay below this bound
        if name == "rho0" and not math.isfinite(total * float(grid.k2[-1]) * 2 * grid.N):
            raise ValueError("rho0 is too large: its central curvature on the grid overflows")
        initial.append(values)
    u = np.stack(initial[::-1])  # (A, rho)
    stepper = _Stepper(grid, config.params, config.mode)
    if stepper.damp is not None:
        # the mollified form's data, checked before smoothing, a positive
        # operator; a dip within the tolerance is clipped below like a step's
        u = smooth(u, stepper.damp)
    u, clipped_a, clipped_rho = _apply_positivity(u, dx)
    t = 0.0
    zero_nodes = _interior_zero_nodes(u[1])

    steps = consecutive_dt_min = 0
    fault_detail = ""
    # the stepped state, its right side and the size of the last step, for its error estimate
    last: tuple[np.ndarray, np.ndarray, float] | None = None
    snapshots: list[State] = []
    pending_snaps = list(config.snapshot_times)
    # one error state per run: evaluations, steps and diagnostics check finiteness
    with _unchecked():
        series = [_record(grid, t, u[0], u[1], zero_nodes)]
        initial_mass = series[0].mass_rho + series[0].mass_A
        # the detector's state: curvatures y0 and y, and the last time y did not rise
        y0 = y = series[0].rho_xx_at_0
        last_dip = -math.inf
        while True:
            while pending_snaps and t >= pending_snaps[0]:
                snapshots.append(State(t=t, A=Field(grid, u[0]), rho=Field(grid, u[1])))
                pending_snaps.pop(0)
            if steps and _blowup_detected(t, y, y0, last_dip):
                reason = HaltReason.BLOWUP_DETECTED
                break
            if t >= config.t_end:
                reason = HaltReason.REACHED_T_END
                break

            # the step ends exactly on the next snapshot time or the end time
            target = pending_snaps[0] if pending_snaps else config.t_end
            try:
                # RKC's first stage f(v) does not depend on dt, so it serves the
                # step rule too, and the error estimate of the step before
                v = stepper.stepped(u)
                f_v = stepper.f(v)
                rho_max = float(u[1].max())
                dt, stages, at_floor = _step_size(dx, v, f_v, rho_max, y0, y, target - t, last)
                consecutive_dt_min = consecutive_dt_min + 1 if at_floor else 0
                if consecutive_dt_min >= 2:
                    reason = HaltReason.DT_UNDERFLOW
                    break
                u, ca, cr = _step_arrays(stepper, _rkc, v, f_v, dt, stages)
                last = (v, f_v, dt)
                t = target if dt == target - t else t + dt
                steps += 1
                clipped_a += ca
                clipped_rho += cr
                over_budget = clipped_rho + clipped_a > CLIP_BUDGET_FRACTION * initial_mass
                if initial_mass > 0 and over_budget:
                    raise NumericalFault("clipped mass exceeded the per-run budget")
                if steps % config.record_every == 0:
                    series.append(_record(grid, t, u[0], u[1], zero_nodes))
                    curvature = series[-1].rho_xx_at_0
                else:
                    curvature = second_derivative_at_center(grid, u[1])
                if not math.isfinite(curvature):
                    raise NumericalFault("non-finite central curvature after step")
            except NumericalFault as fault:
                reason, fault_detail = HaltReason.NUMERICAL_FAULT, str(fault)
                break
            if curvature <= y:
                last_dip = t
            y = curvature

        if series[-1].t < t:
            series.append(_record(grid, t, u[0], u[1], zero_nodes))
    return RunOutcome(
        halt_reason=reason,
        final_state=State(t=t, A=Field(grid, u[0]), rho=Field(grid, u[1])),
        series=series,
        snapshots=snapshots,
        steps=steps,
        rhs_evals=stepper.evals,
        initial_mass_rho=series[0].mass_rho,
        initial_mass_A=series[0].mass_A,
        clipped_mass_rho=clipped_rho,
        clipped_mass_A=clipped_a,
        fault_detail=fault_detail,
    )
