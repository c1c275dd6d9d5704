"""Explicit time advancement with degenerate-diffusion step control.

A run steps one of the three evolution forms with RKL2 super-time-stepping
(Meyer, Balsara & Aslam 2014): ``RKL2_STAGES`` stages, each the same
pointwise right side, with a real-axis stability interval ``RKL2_GAIN`` times
that of classical RK4.  The step size follows the diffusive stability
restriction dt ~ dx^2 / max(rho), since the density weights the flux of both
equations, scaled by that gain.  The public ``step`` is classical RK4, the
fourth-order reference for fixed-step convergence checks.  Runs halt on
reaching the end time, on the two-signal blow-up detector, on step-size
underflow, or on loss of finiteness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import DiagnosticRecord, second_derivative_at_center, support, symmetry_defect
from .grid import Field, Grid, InvalidValue
from .kernel import heat_multiplier, mollify
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
)

DIFFUSIVITY_FLOOR = 1e-12
POSITIVITY_TOL = 1e-12  # initial data may dip this far below zero
CLIP_BUDGET_FRACTION = 1e-8  # clipped mass allowed per run, relative to initial mass
BLOWUP_CAP = 1e6  # central curvature that halts any run
CURVATURE_GROWTH = 10.0  # growth over a positive initial curvature y0 that arms the window
RISE_WINDOW = 0.04  # trailing time, in units of 1/y0, over which the curvature must rise

RUN_MODES = ("original", "regularized", "sqrt")

RKL2_STAGES = 10
RK4_REAL_STABILITY = 2.7853  # RK4 is stable on [-2.7853, 0] of the real axis
# RKL2 with s stages is stable on [-(s^2 + s - 2)/2, 0]; its step is the RK4
# step scaled by the ratio of the two intervals, 19.39 for s = 10
RKL2_GAIN = (RKL2_STAGES**2 + RKL2_STAGES - 2) / (2.0 * RK4_REAL_STABILITY)


class HaltReason(str, enum.Enum):
    REACHED_T_END = "reached_t_end"
    BLOWUP_DETECTED = "blowup_detected"
    DT_UNDERFLOW = "dt_underflow"
    NUMERICAL_FAULT = "numerical_fault"


@dataclass(frozen=True)
class RunMode:
    """Which evolution form a run integrates.

    ``regularized`` smooths fields with width ``eps`` and starts from data
    shifted up by ``delta`` (the shift enters only through the initial data).
    """

    kind: str = "original"
    eps: float = 0.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in RUN_MODES:
            raise InvalidValue("kind", f"must be one of {', '.join(RUN_MODES)}, got {self.kind!r}")
        for name in ("eps", "delta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise InvalidValue(name, f"must be nonnegative and finite, got {value}")
            if self.kind != "regularized" and value != 0.0:
                raise InvalidValue(name, "only applies to the regularized mode")


@dataclass(frozen=True)
class StepControl:
    """Step-size policy."""

    cfl_safety: float = 0.25
    dt_min: float = 1e-14
    dt_max: float = 1e-2

    def __post_init__(self) -> None:
        if not (0.0 < self.cfl_safety <= 1.0):
            raise InvalidValue("cfl_safety", f"must be in (0, 1], got {self.cfl_safety}")
        if not self.dt_min > 0.0:
            raise InvalidValue("dt_min", f"must be positive, got {self.dt_min}")
        if not self.dt_max > self.dt_min:
            raise InvalidValue("dt_max", f"must exceed dt_min = {self.dt_min}, got {self.dt_max}")


@dataclass
class RunOutcome:
    """Trajectory summary: halt reason, diagnostic series, snapshot states, budgets."""

    halt_reason: HaltReason
    final_state: State
    series: list[DiagnosticRecord]
    snapshots: list[State]
    steps: int = 0
    initial_mass_rho: float = 0.0
    initial_mass_A: float = 0.0
    clipped_mass_rho: float = 0.0
    clipped_mass_A: float = 0.0
    fault_detail: str = ""


def cfl_dt(dx: float, rho: np.ndarray, ctrl: StepControl) -> float:
    """RKL2 step bound RKL2_GAIN * cfl_safety * dx^2 / max(rho), clamped to the dt window.

    The density bounds the diffusivity of both equations, so its maximum
    (floored to keep the pure-reaction regime at dt_max) sets the step.
    ``cfl_safety * dx^2 / max(rho)`` is the RK4 bound; scaled by
    ``RKL2_GAIN``, ``cfl_safety`` keeps its meaning as a fraction of the
    stability limit.
    """
    diffusivity = max(float(np.max(rho)), DIFFUSIVITY_FLOOR)
    dt = ctrl.cfl_safety * dx**2 / diffusivity * RKL2_GAIN
    return min(max(dt, ctrl.dt_min), ctrl.dt_max)


def _apply_positivity(u: np.ndarray, dx: float) -> tuple[np.ndarray, float, float]:
    """Zero the negative entries of the stacked (A, rho) in place.

    Returns ``(u, clipped_A, clipped_rho)``, the clipped masses being the
    removed magnitude times ``dx``.
    """
    clipped = [0.0, 0.0]
    for i, row in enumerate(u):
        if float(np.min(row)) < 0.0:
            negative = np.minimum(row, 0.0)
            row -= negative
            clipped[i] = float(-np.sum(negative)) * dx
    return u, clipped[0], clipped[1]


_Rhs = Callable[[np.ndarray], np.ndarray]
_Scheme = Callable[[np.ndarray, float, _Rhs], np.ndarray]
_Advance = Callable[[np.ndarray, float], np.ndarray]


def _rk4(u: np.ndarray, dt: float, f: _Rhs) -> np.ndarray:
    k1 = f(u)
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    return u + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def _rkl2_table(s: int) -> tuple[float, tuple[tuple[float, float, float, float], ...]]:
    """``mu~_1`` and the rows ``(mu_j, nu_j, mu~_j, gamma~_j)``, j = 2..s, of RKL2.

    With w1 = 4 / (s^2 + s - 2), b_0 = b_1 = b_2 = 1/3 and
    b_j = (j^2 + j - 2) / (2 j (j + 1)), the stability polynomial is
    a_s + b_s P_s(1 + w1 z) for the Legendre polynomial P_s and a_j = 1 - b_j.
    """
    w1 = 4.0 / (s * s + s - 2)
    b = [1.0 / 3.0, 1.0 / 3.0] + [(j * j + j - 2) / (2.0 * j * (j + 1)) for j in range(2, s + 1)]
    rows = []
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        rows.append((mu, nu, mu * w1, -(1.0 - b[j - 1]) * mu * w1))
    return b[1] * w1, tuple(rows)


_RKL2_MU1, _RKL2_ROWS = _rkl2_table(RKL2_STAGES)


def _rkl2(u: np.ndarray, dt: float, f: _Rhs) -> np.ndarray:
    """One RKL2 step in increment form: d_j = Y_j - u, returning u + d_s.

    d_j = mu_j d_{j-1} + nu_j d_{j-2} + mu~_j dt f(u + d_{j-1}) + gamma~_j dt f(u).
    Not the equivalent stage-value form mu_j Y_{j-1} + nu_j Y_{j-2} +
    (1 - mu_j - nu_j) u + ...: its rounded sum takes a subnormal u such as
    5e-324 below zero where the right side vanishes.  The increments are
    updated in place, and so is each stage's right side; the stage input y
    and the product buffer are separate, so an f that returns its argument
    or a view of it still gives the plain expressions' result.
    """
    g = dt * f(u)
    d = _RKL2_MU1 * g
    d_old, y, term = np.zeros_like(d), np.empty_like(d), np.empty_like(d)
    for mu, nu, mu_t, gamma_t in _RKL2_ROWS:
        k = f(np.add(u, d, out=y))
        k *= mu_t * dt
        d_old *= nu
        d_old += np.multiply(mu, d, out=term)
        d_old += k
        d_old += np.multiply(gamma_t, g, out=term)
        d_old, d = d, d_old
    return u + d


def _advance(
    grid: Grid, p: ModelParams, conv_sym: np.ndarray, mode: RunMode, scheme: _Scheme
) -> _Advance:
    """One ``scheme`` step of the stacked (A, rho) in the selected evolution form.

    Called once per run (``_rkl2``) or per public ``step`` (``_rk4``), so the
    right sides' workspace lives exactly as long as that run or step; the
    right sides are looked up at call time, so a wrapper installed on this
    module's names sees every stage.  The sqrt form steps (A, eta) with
    eta = sqrt(rho) and squares eta back afterwards.
    """
    ws = Workspace(grid, p, conv_sym)
    if mode.kind == "sqrt":

        def advance(u: np.ndarray, dt: float) -> np.ndarray:
            v = np.stack((u[0], np.sqrt(np.clip(u[1], 0.0, None))))
            v = scheme(v, dt, lambda w: _rhs_sqrt_core(ws, w))
            v[1] *= v[1]
            return v

        return advance
    if mode.kind == "regularized":
        damp = heat_multiplier(grid, mode.eps)
        f = lambda w: _rhs_regularized_core(ws, w, damp)
    else:
        f = lambda w: _rhs_core(ws, w)
    return lambda u, dt: scheme(u, dt, f)


def _step_arrays(
    grid: Grid, u: np.ndarray, dt: float, advance: _Advance
) -> tuple[np.ndarray, float, float]:
    """One step of the stacked (A, rho) plus positivity; returns (u, clipped_A, clipped_rho)."""
    u = advance(u, dt)
    if not np.all(np.isfinite(u)):
        raise NumericalFault("non-finite state after step")
    return _apply_positivity(u, grid.dx)


def step(s: State, p: ModelParams, dt: float, mode: RunMode = RunMode()) -> State:
    """Advance one classical RK4 step of the selected evolution form."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = s.grid
    advance = _advance(grid, p, p.kernel.symbol(grid), mode, _rk4)
    u, _, _ = _step_arrays(grid, np.stack((s.A.values, s.rho.values)), dt, advance)
    return State(t=s.t + dt, A=Field(grid, u[0]), rho=Field(grid, u[1]))


# ---------------------------------------------------------------------------
# full run driver
# ---------------------------------------------------------------------------


def _record(
    grid: Grid, t: float, a: np.ndarray, r: np.ndarray, zero_mask: np.ndarray
) -> DiagnosticRecord:
    """Diagnostics of the node values ``a``, ``r`` at time t; ``zero_mask`` marks
    the initial density's interior zero set.

    One rfft of the stacked (rho, A, sqrt(rho)) serves both the energies and
    the central curvature, so a record makes 2 FFT calls.
    """
    spectra = _energy_spectra(a, r)
    report = energy(grid, a, r, spectra)
    dx = grid.dx
    zero_max = float(np.max(r[zero_mask])) if zero_mask.any() else None
    return DiagnosticRecord(
        t=t,
        max_rho=float(np.max(r)),
        min_rho=float(np.min(r)),
        min_A=float(np.min(a)),
        rho_xx_at_0=second_derivative_at_center(grid, r, spectra[0]),
        supp_rho=tuple(support(grid, r)),
        supp_A=tuple(support(grid, a)),
        mass_rho=float(np.sum(r) * dx),
        mass_A=float(np.sum(a) * dx),
        e_tilde=report.e_tilde,
        e_sqrt=report.e_sqrt,
        symmetry_defect_rho=symmetry_defect(r),
        zero_set_max_rho=zero_max,
    )


def _blowup_detected(ts: list[float], ys: list[float]) -> bool:
    """Two-signal detector on the central curvature ``ys`` at the times ``ts``.

    A run feeds it the curvature after every step, whatever its record
    cadence.  The hard cap fires for any data.  The growth signal is armed
    only for data with positive initial central curvature y0 (the blow-up
    mechanism presupposes it).  It fires once the curvature exceeds
    ``CURVATURE_GROWTH * y0`` and has risen at every entry since the last one
    at least ``RISE_WINDOW / y0`` back; the window counts only once the
    entries span it.  ``1 / y0`` is the time scale of the comparison ODE
    y' = y^2, so the window does not depend on the step size.
    """
    latest = ys[-1]
    if latest > BLOWUP_CAP:
        return True
    y0 = ys[0]
    if y0 <= 0.0 or latest <= CURVATURE_GROWTH * y0:
        return False
    start = ts[-1] - RISE_WINDOW / y0
    if ts[0] > start:
        return False
    i = len(ts) - 1
    while ts[i] > start:
        if ys[i - 1] >= ys[i]:
            return False
        i -= 1
    return True


def _interior_zero_mask(r0: np.ndarray) -> np.ndarray:
    """Nodes where the initial density vanishes, one support-adjacent cell excluded.

    Band-limited interpolation smears a compact-support kink over one cell,
    so nodes touching the initial support do not count as zero set.
    """
    positive = r0 > 0.0
    adjacent = np.roll(positive, 1) | np.roll(positive, -1)
    return (r0 == 0.0) & ~adjacent


def run(config) -> RunOutcome:
    """Integrate a full configuration and collect diagnostics.

    Advances with the diffusive CFL step, shortened where needed to end
    exactly on each requested snapshot time and on the end time, records
    every ``record_every`` steps, checks for blow-up after every step, and
    halts with the matching reason.  Identical configurations reproduce
    bit-identical series on one platform: the loop is sequential and every
    reduction is a fixed-order numpy reduction.
    """
    grid = Grid(config.grid_L, config.grid_N)
    p: ModelParams = config.params
    ctrl: StepControl = config.ctrl
    mode: RunMode = config.mode

    rho0 = config.rho0.sample(grid).values
    a0 = config.A0.sample(grid).values
    if mode.kind == "regularized":
        rho0, a0 = rho0 + mode.delta, a0 + mode.delta
    for name, values in (("rho0", rho0), ("A0", a0)):
        if float(np.min(values)) < -POSITIVITY_TOL:
            raise ValueError(f"{name} must be nonnegative (min {float(np.min(values)):.3e})")
    if mode.kind == "regularized":
        # checked before smoothing: the mollifier's truncation undershoot is
        # not the data's, and is clipped and counted below like a step's
        rho0, a0 = (mollify(Field(grid, v), mode.eps).values for v in (rho0, a0))
    u, clipped_a, clipped_rho = _apply_positivity(np.stack((a0, rho0)), grid.dx)
    t = 0.0

    advance = _advance(grid, p, p.kernel.symbol(grid), mode, _rkl2)
    zero_mask = _interior_zero_mask(u[1])
    initial_mass_A = float(np.sum(u[0]) * grid.dx)
    initial_mass_rho = float(np.sum(u[1]) * grid.dx)

    steps = 0
    consecutive_dt_min = 0
    fault_detail = ""
    series = [_record(grid, t, u[0], u[1], zero_mask)]
    # the central curvature after every step, for the blow-up detector
    times, curvatures = [t], [series[0].rho_xx_at_0]
    snapshots: list[State] = []
    pending_snaps = sorted(config.snapshot_times)

    def state() -> State:
        return State(t=t, A=Field(grid, u[0]), rho=Field(grid, u[1]))

    def take_snapshots() -> None:
        while pending_snaps and t >= pending_snaps[0]:
            snapshots.append(state())
            pending_snaps.pop(0)

    def out(reason: HaltReason) -> RunOutcome:
        if series[-1].t < t:
            series.append(_record(grid, t, u[0], u[1], zero_mask))
        return RunOutcome(
            halt_reason=reason,
            final_state=state(),
            series=series,
            snapshots=snapshots,
            steps=steps,
            initial_mass_rho=initial_mass_rho,
            initial_mass_A=initial_mass_A,
            clipped_mass_rho=clipped_rho,
            clipped_mass_A=clipped_a,
            fault_detail=fault_detail,
        )

    take_snapshots()
    while True:
        if t >= config.t_end:
            return out(HaltReason.REACHED_T_END)

        raw_dt = cfl_dt(grid.dx, u[1], ctrl)
        if raw_dt == ctrl.dt_min:
            consecutive_dt_min += 1
            if consecutive_dt_min >= 2:
                return out(HaltReason.DT_UNDERFLOW)
        else:
            consecutive_dt_min = 0

        # the step ends exactly on the next snapshot time or the end time
        target = pending_snaps[0] if pending_snaps else config.t_end
        remaining = target - t
        dt = min(raw_dt, remaining)
        try:
            u, ca, cr = _step_arrays(grid, u, dt, advance)
        except NumericalFault as fault:
            fault_detail = str(fault)
            return out(HaltReason.NUMERICAL_FAULT)
        t = target if dt == remaining else t + dt
        steps += 1
        clipped_a += ca
        clipped_rho += cr

        initial_mass = initial_mass_rho + initial_mass_A
        if initial_mass > 0 and clipped_rho + clipped_a > CLIP_BUDGET_FRACTION * initial_mass:
            fault_detail = "clipped mass exceeded the per-run budget"
            return out(HaltReason.NUMERICAL_FAULT)

        take_snapshots()
        if steps % config.record_every == 0:
            series.append(_record(grid, t, u[0], u[1], zero_mask))
            curvature = series[-1].rho_xx_at_0
        else:
            curvature = second_derivative_at_center(grid, u[1])
        times.append(t)
        curvatures.append(curvature)
        if _blowup_detected(times, curvatures):
            return out(HaltReason.BLOWUP_DETECTED)
