"""Explicit time advancement with degenerate-diffusion step control.

A classical four-stage Runge-Kutta step drives one of the three evolution
forms; the step size follows the diffusive stability restriction
dt ~ dx^2 / max(rho), since the density weights the flux of both equations.
Runs halt on reaching the end time, on the two-signal blow-up detector, on
step-size underflow, or on loss of finiteness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .diagnostics import DiagnosticRecord, second_derivative_at_center, support, symmetry_defect
from .grid import Field, Grid, InvalidValue, make_grid
from .kernel import heat_multiplier, mollify
from .model import (
    ModelParams,
    NumericalFault,
    State,
    energy,
    _rhs_core,
    _rhs_regularized_core,
    _rhs_sqrt_core,
)

DIFFUSIVITY_FLOOR = 1e-12
BLOWUP_WINDOW = 50  # trailing records that must rise monotonically
CLIP_BUDGET_FRACTION = 1e-8  # clipped mass allowed per run, relative to initial mass

CLIP_TO_ZERO = "clip_to_zero"
REJECT = "reject"
RUN_MODES = ("original", "regularized", "sqrt")


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
            if value < 0:
                raise InvalidValue(name, f"must be nonnegative, got {value}")
            if self.kind != "regularized" and value != 0.0:
                raise InvalidValue(name, "only applies to the regularized mode")


@dataclass(frozen=True)
class StepControl:
    """Step-size, positivity and halt policy."""

    cfl_safety: float = 0.25
    dt_min: float = 1e-14
    dt_max: float = 1e-2
    positivity_tol: float = 1e-12
    clip_policy: str = CLIP_TO_ZERO
    blowup_cap: float = 1e6
    curvature_growth_factor: float = 10.0

    def __post_init__(self) -> None:
        if not (0.0 < self.cfl_safety <= 1.0):
            raise InvalidValue("cfl_safety", f"must be in (0, 1], got {self.cfl_safety}")
        if not self.dt_min > 0.0:
            raise InvalidValue("dt_min", f"must be positive, got {self.dt_min}")
        if not self.dt_max > self.dt_min:
            raise InvalidValue("dt_max", f"must exceed dt_min = {self.dt_min}, got {self.dt_max}")
        if self.positivity_tol < 0:
            raise InvalidValue("positivity_tol", f"must be nonnegative, got {self.positivity_tol}")
        if self.clip_policy not in (CLIP_TO_ZERO, REJECT):
            raise InvalidValue(
                "clip_policy", f"must be one of {CLIP_TO_ZERO}, {REJECT}, got {self.clip_policy!r}"
            )
        if not self.blowup_cap > 0:
            raise InvalidValue("blowup_cap", f"must be positive, got {self.blowup_cap}")
        if not self.curvature_growth_factor > 1.0:
            raise InvalidValue(
                "curvature_growth_factor", f"must exceed 1, got {self.curvature_growth_factor}"
            )


@dataclass(frozen=True)
class Snapshot:
    t: float
    A: Field
    rho: Field


@dataclass
class RunOutcome:
    """Trajectory summary: halt reason, diagnostic series, snapshots, budgets."""

    halt_reason: HaltReason
    final_state: State
    series: list[DiagnosticRecord]
    snapshots: list[Snapshot]
    steps: int = 0
    initial_mass_rho: float = 0.0
    initial_mass_A: float = 0.0
    clipped_mass_rho: float = 0.0
    clipped_mass_A: float = 0.0
    fault_detail: str = ""


def cfl_dt(s: State, ctrl: StepControl) -> float:
    """Diffusive step bound cfl_safety * dx^2 / max(rho), clamped to the dt window.

    The density bounds the diffusivity of both equations, so its maximum
    (floored to keep the pure-reaction regime at dt_max) sets the step.
    """
    diffusivity = max(float(np.max(s.rho.values)), DIFFUSIVITY_FLOOR)
    dt = ctrl.cfl_safety * s.grid.dx**2 / diffusivity
    return min(max(dt, ctrl.dt_min), ctrl.dt_max)


def _apply_positivity(values: np.ndarray, ctrl: StepControl, what: str) -> tuple[np.ndarray, float]:
    """Zero negative entries, returning the summed magnitude that was removed.

    Under the reject policy, entries below -positivity_tol abort instead of
    being clipped; sub-tolerance negatives are discretization artifacts and
    are zeroed under either policy.
    """
    minimum = float(np.min(values))
    if minimum >= 0.0:
        return values, 0.0
    if ctrl.clip_policy == REJECT and minimum < -ctrl.positivity_tol:
        raise NumericalFault(
            f"{what} fell to {minimum:.3e}, below -positivity_tol under the reject policy"
        )
    negative = np.minimum(values, 0.0)
    return values - negative, float(-np.sum(negative))


_Advance = Callable[[np.ndarray, float], np.ndarray]


def _rk4(u: np.ndarray, dt: float, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    k1 = f(u)
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    return u + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def _advance(grid: Grid, p: ModelParams, conv_sym: np.ndarray, mode: RunMode) -> _Advance:
    """One RK4 step of the stacked (A, rho) in the selected evolution form.

    Called once per run; the right sides are looked up at call time, so a
    wrapper installed on this module's names sees every stage.  The sqrt form
    steps (A, eta) with eta = sqrt(rho) and squares eta back afterwards.
    """
    if mode.kind == "sqrt":

        def advance(u: np.ndarray, dt: float) -> np.ndarray:
            v = np.stack((u[0], np.sqrt(np.clip(u[1], 0.0, None))))
            v = _rk4(v, dt, lambda w: _rhs_sqrt_core(grid, w, p, conv_sym))
            v[1] *= v[1]
            return v

        return advance
    if mode.kind == "regularized":
        damp = heat_multiplier(grid, mode.eps)
        f = lambda w: _rhs_regularized_core(grid, w, p, conv_sym, damp)
    else:
        f = lambda w: _rhs_core(grid, w, p, conv_sym)
    return lambda u, dt: _rk4(u, dt, f)


def _step_arrays(
    grid: Grid, u: np.ndarray, dt: float, ctrl: StepControl, advance: _Advance
) -> tuple[np.ndarray, float, float]:
    """One step of the stacked (A, rho) plus positivity; returns (u, clipped_A, clipped_rho)."""
    u = advance(u, dt)
    if not np.all(np.isfinite(u)):
        raise NumericalFault("non-finite state after step")
    u[0], clipped_a = _apply_positivity(u[0], ctrl, "area")
    u[1], clipped_r = _apply_positivity(u[1], ctrl, "density")
    return u, clipped_a * grid.dx, clipped_r * grid.dx


def step(
    s: State, p: ModelParams, dt: float, ctrl: StepControl, mode: RunMode = RunMode()
) -> State:
    """Advance one classical RK4 step of the selected evolution form."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = s.grid
    advance = _advance(grid, p, p.kernel.symbol(grid), mode)
    u, _, _ = _step_arrays(grid, np.stack((s.A.values, s.rho.values)), dt, ctrl, advance)
    return State(t=s.t + dt, A=Field(grid, u[0]), rho=Field(grid, u[1]))


# ---------------------------------------------------------------------------
# full run driver
# ---------------------------------------------------------------------------


def _record(
    grid: Grid,
    t: float,
    a: np.ndarray,
    r: np.ndarray,
    zero_mask: Optional[np.ndarray],
) -> DiagnosticRecord:
    a_field = Field(grid, a)
    r_field = Field(grid, r)
    state = State(t=t, A=a_field, rho=r_field)
    report = energy(state)
    dx = grid.dx
    zero_max = None
    if zero_mask is not None and zero_mask.any():
        zero_max = float(np.max(r[zero_mask]))
    return DiagnosticRecord(
        t=t,
        max_rho=float(np.max(r)),
        min_rho=float(np.min(r)),
        min_A=float(np.min(a)),
        rho_xx_at_0=second_derivative_at_center(state),
        supp_rho=tuple(support(r_field)),
        supp_A=tuple(support(a_field)),
        mass_rho=float(np.sum(r) * dx),
        mass_A=float(np.sum(a) * dx),
        e_tilde=report.e_tilde,
        e_sqrt=report.e_sqrt,
        symmetry_defect_rho=symmetry_defect(r_field),
        zero_set_max_rho=zero_max,
    )


def _blowup_detected(series: list[DiagnosticRecord], ctrl: StepControl) -> bool:
    """Two-signal detector: hard cap, or growth factor plus a monotone window.

    The growth-factor signal is armed only for data with positive initial
    central curvature (the blow-up mechanism presupposes it); the monotone
    window separates genuine divergence from transient oscillation.
    """
    latest = series[-1].rho_xx_at_0
    if latest > ctrl.blowup_cap:
        return True
    initial = series[0].rho_xx_at_0
    if initial <= 0.0 or latest <= ctrl.curvature_growth_factor * initial:
        return False
    if len(series) < BLOWUP_WINDOW:
        return False
    window = [rec.rho_xx_at_0 for rec in series[-BLOWUP_WINDOW:]]
    return all(b > a for a, b in zip(window, window[1:]))


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

    Advances with the diffusive CFL step, records every ``record_every``
    steps, snapshots on first crossing each requested time, and halts with
    the matching reason.  Identical configurations reproduce bit-identical
    series on one platform: the loop is sequential and every reduction is
    a fixed-order numpy reduction.
    """
    grid = make_grid(config.grid_L, config.grid_N)
    p: ModelParams = config.params
    ctrl: StepControl = config.ctrl
    mode: RunMode = config.mode

    rho0 = config.rho0.sample(grid)
    a0 = config.A0.sample(grid)
    if mode.kind == "regularized":
        rho0 = mollify(Field(grid, rho0.values + mode.delta), mode.eps)
        a0 = mollify(Field(grid, a0.values + mode.delta), mode.eps)

    for name, f in (("rho0", rho0), ("A0", a0)):
        if float(np.min(f.values)) < -ctrl.positivity_tol:
            raise ValueError(f"{name} must be nonnegative (min {float(np.min(f.values)):.3e})")
    u = np.stack((np.clip(a0.values, 0.0, None), np.clip(rho0.values, 0.0, None)))
    t = 0.0

    advance = _advance(grid, p, p.kernel.symbol(grid), mode)
    zero_mask = _interior_zero_mask(u[1])
    initial_mass_A = float(np.sum(u[0]) * grid.dx)
    initial_mass_rho = float(np.sum(u[1]) * grid.dx)

    series = [_record(grid, t, u[0], u[1], zero_mask)]
    snapshots: list[Snapshot] = []
    pending_snaps = sorted(config.snapshot_times)
    while pending_snaps and t >= pending_snaps[0]:
        snapshots.append(Snapshot(t, Field(grid, u[0]), Field(grid, u[1])))
        pending_snaps.pop(0)

    steps = 0
    clipped_rho = 0.0
    clipped_a = 0.0
    consecutive_dt_min = 0
    fault_detail = ""

    def out(reason: HaltReason) -> RunOutcome:
        if series[-1].t < t:
            series.append(_record(grid, t, u[0], u[1], zero_mask))
        return RunOutcome(
            halt_reason=reason,
            final_state=State(t=t, A=Field(grid, u[0]), rho=Field(grid, u[1])),
            series=series,
            snapshots=snapshots,
            steps=steps,
            initial_mass_rho=initial_mass_rho,
            initial_mass_A=initial_mass_A,
            clipped_mass_rho=clipped_rho,
            clipped_mass_A=clipped_a,
            fault_detail=fault_detail,
        )

    while True:
        if t >= config.t_end:
            return out(HaltReason.REACHED_T_END)

        raw_dt = cfl_dt(State(t=t, A=Field(grid, u[0]), rho=Field(grid, u[1])), ctrl)
        if raw_dt == ctrl.dt_min:
            consecutive_dt_min += 1
            if consecutive_dt_min >= 2:
                return out(HaltReason.DT_UNDERFLOW)
        else:
            consecutive_dt_min = 0

        remaining = config.t_end - t
        dt = min(raw_dt, remaining)
        try:
            u, ca, cr = _step_arrays(grid, u, dt, ctrl, advance)
        except NumericalFault as fault:
            fault_detail = str(fault)
            return out(HaltReason.NUMERICAL_FAULT)
        t = config.t_end if dt == remaining else t + dt
        steps += 1
        clipped_a += ca
        clipped_rho += cr

        initial_mass = initial_mass_rho + initial_mass_A
        if initial_mass > 0 and clipped_rho + clipped_a > CLIP_BUDGET_FRACTION * initial_mass:
            fault_detail = "clipped mass exceeded the per-run budget"
            return out(HaltReason.NUMERICAL_FAULT)

        while pending_snaps and t >= pending_snaps[0]:
            snapshots.append(Snapshot(t, Field(grid, u[0]), Field(grid, u[1])))
            pending_snaps.pop(0)

        if steps % config.record_every == 0:
            series.append(_record(grid, t, u[0], u[1], zero_mask))
            if _blowup_detected(series, ctrl):
                return out(HaltReason.BLOWUP_DETECTED)
