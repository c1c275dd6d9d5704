"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two reference
experiments run once per session through the real CLI entry point and the
criteria are evaluated from the files it writes plus direct operator checks.

Criterion 4 checks that the area support expands into the density support
and stays inside it: the area hull edges never retreat and each moves outward
by a fixed distance, the same at N = 1024 and N = 2048.  It does not ask the
area front to reach the density edge.  The area diffusivity is the density,
which vanishes cubically at that edge, so a threshold front closes a gap s
only after a time of order 1/s, long after the density zero-set bound of
criterion 3 has stopped holding (see "Area-support expansion" in the README).
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xdiff
from xdiff.cli import SERIES_HEADER, main
from xdiff.config import CsvData, parse_config, preset, preset_with_overrides, render_config
from xdiff.diagnostics import support, t_star
from xdiff.grid import Field, Grid
from xdiff.integrator import RunMode
from xdiff.kernel import heat_multiplier, smooth
from xdiff.model import State, blowup_threshold

from reference import rhs, rk4, step
from spectral import derivative

RHO_SUP_BOUND = 1.5  # beta / (alpha (1 - mu)) for the reference parameters
CURVATURE_AT_CENTER = 62.5
T_STAR_REFERENCE = 1.6009e-2
AREA_EDGE_ADVANCE = 0.05  # measured 0.0703 at N = 1024, 0.0693 at N = 2048
# the RK4 run loop's fig2-support area edge advance at N = 2048, 71 cells of
# 2/2048 on each side: measured with the patch of ``rk4_run_loop`` below
# (1,290 steps, about 1.2 s on 2 shared vCPUs), too slow to rerun in the suite
RK4_AREA_EDGE_ADVANCE_2048 = 0.0693359375
RK4_REAL_STABILITY = 2.7853  # classical RK4 is stable on [-2.7853, 0] of the real axis
# clipped area mass allowed, relative to the initial mass: the area's face
# flux is nonnegative where the area vanishes, so the runs clip none
AREA_CLIP_FRACTION = 1e-12


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def read_series(path):
    lines = path.read_text().splitlines()
    assert lines[0] == SERIES_HEADER
    names = SERIES_HEADER.split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return {name: np.array([row[i] for row in rows]) for i, name in enumerate(names)}


def read_outcome(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


@pytest.fixture(scope="session")
def fig1(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    start = time.perf_counter()
    code = main(["preset", "fig1-blowup", "--out", str(out)])
    wall = time.perf_counter() - start
    return {
        "code": code,
        "wall": wall,
        "out_dir": out,
        "series": read_series(out / "series.csv"),
        "outcome": read_outcome(out / "outcome.txt"),
        "config": preset("fig1-blowup"),
    }


@pytest.fixture(scope="session")
def fig2(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    code = main(["preset", "fig2-support", "--out", str(out)])
    return {
        "code": code,
        "out_dir": out,
        "series": read_series(out / "series.csv"),
        "outcome": read_outcome(out / "outcome.txt"),
        "config": preset("fig2-support"),
    }


def area_edge_motion(s):
    """Outward advance of the (lower, upper) area hull edges over the run,
    and their gaps to the density hull edges at the last record."""
    lo, hi = s["supp_A_lo"], s["supp_A_hi"]
    advance = np.array([lo[0] - lo[-1], hi[-1] - hi[0]])
    gap = np.array([lo[-1] - s["supp_rho_lo"][-1], s["supp_rho_hi"][-1] - hi[-1]])
    return advance, gap


def run_hulls(out):
    """The support hull edges of a run's records, the fields named like the series columns."""
    names = ("supp_A_lo", "supp_A_hi", "supp_rho_lo", "supp_rho_hi")
    return {name: np.array([getattr(rec, name) for rec in out.series]) for name in names}


def reference_params():
    return preset("fig1-blowup").params


@pytest.fixture
def rk4_run_loop(monkeypatch):
    """Runs step with classical RK4 at its own step bound, the run loop RKC
    replaced, as a reference for the RKC results."""
    import xdiff.integrator as integrator

    monkeypatch.setattr(integrator, "_rkc", rk4)
    # the stability bound in forward-Euler units becomes RK4's real interval
    monkeypatch.setattr(integrator, "stability_interval", lambda s: RK4_REAL_STABILITY)


def test_rk4_run_loop_is_pinned(rk4_run_loop):
    # the reference sits at RK4's stability bound, not at the accuracy rule,
    # so a change to that rule leaves it where it is
    out = xdiff.run(preset_with_overrides("fig2-support", {"grid.N": "512"}))
    assert out.halt_reason is xdiff.HaltReason.REACHED_T_END
    assert (out.steps, out.rhs_evals) == (83, 332)
    advance, _ = area_edge_motion(run_hulls(out))
    assert advance.tolist() == [0.07421875, 0.07421875]


def test_criterion_1_blowup_reproduction(fig1):
    with criterion(1, "blow-up reproduction"):
        assert fig1["code"] == 3, "preset must exit with the blow-up code"
        assert fig1["outcome"]["halt_reason"] == "blowup_detected"

        rxx = fig1["series"]["rho_xx_0"]
        assert rxx[0] == pytest.approx(CURVATURE_AT_CENTER, rel=0.01)

        final = rxx[-50:]
        assert len(final) == 50
        assert np.all(np.diff(final) > 0), "central curvature must rise monotonically"

        t_halt = float(fig1["outcome"]["final_t"])
        assert t_halt <= 1.5 * t_star(CURVATURE_AT_CENTER, 0.075)
        assert 1.5 * t_star(CURVATURE_AT_CENTER, 0.075) == pytest.approx(
            1.5 * T_STAR_REFERENCE, rel=1e-4
        )

        assert fig1["wall"] <= 300.0, "runtime must stay within five minutes"


def test_criterion_1_blowup_at_n512():
    with criterion(1, "blow-up reproduction at N = 512"):
        out = xdiff.run(preset_with_overrides("fig1-blowup", {"grid.N": "512"}))
        assert out.halt_reason is xdiff.HaltReason.BLOWUP_DETECTED, out.fault_detail
        assert out.final_state.t <= 1.5 * t_star(CURVATURE_AT_CENTER, 0.075)


def test_sqrt_form_blowup_at_n512():
    # the original form blows up at N = 512 (above), and so does the sqrt form,
    # at t = 0.0044947: its area row steps the same face flux, which clips no
    # area mass outside the area support
    out = xdiff.run(preset_with_overrides("fig1-blowup", {"grid.N": "512", "mode.kind": "sqrt"}))
    assert out.halt_reason is xdiff.HaltReason.BLOWUP_DETECTED, out.fault_detail
    assert out.final_state.t <= 1.5 * t_star(CURVATURE_AT_CENTER, 0.075)


def test_mollified_blowup_at_n512():
    # the mollified form at eps = 1e-6 blows up at N = 512 as at N = 1024: its
    # smoothing, the 3-point Laplacian's semigroup, is a positive operator, so
    # it clips no more than roundoff as the central curvature blows up (a
    # spectral exp(-eps k^2) is not positive on the grid, and clips over the
    # budget here)
    overrides = {"grid.N": "512", "mode.kind": "regularized", "mode.eps": "1e-6"}
    out = xdiff.run(preset_with_overrides("fig1-blowup", overrides))
    assert out.halt_reason is xdiff.HaltReason.BLOWUP_DETECTED, out.fault_detail


def law_blowup_time(cfg):
    """ln(1 + g0/(3 y0))/g0, the blow-up time of y' = 3y^2 + g0 y from the
    central curvature y0 of the initial density, with its growth rate
    g0 = beta - mu alpha (Gamma * rho)(0) at x = 0 frozen at t = 0."""
    grid = cfg.grid
    rho = cfg.rho0.sample(grid).values
    p = cfg.params
    average = np.fft.irfft(np.fft.rfft(rho) * p.kernel.symbol(grid), n=grid.N)
    g0 = p.beta - p.mu * p.alpha * average[grid.N // 2]
    y0 = derivative(grid, rho, 2)[grid.N // 2]
    return math.log1p(g0 / (3.0 * y0)) / g0


def inverse_curvature_fit(out):
    """(t_b, slope): the zero and the slope of a line fitted to 1/y over the
    detector's trailing window, y the central curvature of every record."""
    from xdiff.integrator import RISE_WINDOW

    t = np.array([rec.t for rec in out.series])
    y = np.array([rec.rho_xx_at_0 for rec in out.series])
    window = t >= t[-1] - RISE_WINDOW / y[0]
    slope, intercept = np.polyfit(t[window], 1.0 / y[window], 1)
    return -intercept / slope, slope


def test_blowup_time_approaches_the_law_under_refinement():
    # at x = 0 the density and its slope vanish, so the central curvature y
    # obeys y' = 3y^2 + g0 y (README, "Blow-up law"); the blow-up time fitted
    # to 1/y nears the law's under refinement: +5.0%, +1.5% and +0.34% at
    # N = 512, 1024 and 2048
    errors = []
    for n in (512, 1024, 2048):
        cfg = preset_with_overrides("fig1-blowup", {"grid.N": str(n)})
        out = xdiff.run(cfg)
        assert out.halt_reason is xdiff.HaltReason.BLOWUP_DETECTED, out.fault_detail
        law = law_blowup_time(cfg)
        assert law == pytest.approx(0.0053227, rel=1e-4)
        fitted, _ = inverse_curvature_fit(out)
        errors.append(abs(fitted / law - 1.0))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.01


@settings(max_examples=4, deadline=None)
@given(scale=st.floats(0.1, 4.0))
@example(scale=0.1)
@example(scale=4.0)
def test_the_blowup_law_holds_across_amplitudes(scale):
    # y' = 3y^2 + g0 y blows up at about 1/(3 y0), and the detector fires
    # once y passes 10 y0, at 0.9 of that time: measured 0.888 to 0.902 over
    # these amplitudes at N = 2048 (the law with g0 frozen gives 0.880 at
    # scale 0.1), with a fitted slope of 1/y of -2.96 to -2.98 against the
    # law's -3; the margins are 0.03 and 0.1
    base = preset("fig1-blowup")
    rho0 = dataclasses.replace(base.rho0, amp=scale * base.rho0.amp)
    y0 = scale * CURVATURE_AT_CENTER
    t_end = 2.0 * t_star(y0, blowup_threshold(base.params))
    cfg = dataclasses.replace(base, grid=Grid(1.0, 2048), rho0=rho0, t_end=t_end, snapshot_times=())
    out = xdiff.run(cfg)
    assert out.halt_reason is xdiff.HaltReason.BLOWUP_DETECTED, out.fault_detail
    assert out.final_state.t * 3.0 * y0 == pytest.approx(0.9, abs=0.03)
    _, slope = inverse_curvature_fit(out)
    assert slope == pytest.approx(-3.0, abs=0.1)


@pytest.mark.parametrize(
    "name, halt",
    [
        ("fig2-support", xdiff.HaltReason.REACHED_T_END),
        ("fig1-blowup", xdiff.HaltReason.BLOWUP_DETECTED),
    ],
)
def test_presets_hold_at_n256(name, halt):
    # one rung below the refinement ladder, where a spectral area flux clipped
    # more than the budget outside the area support in the first step
    out = xdiff.run(preset_with_overrides(name, {"grid.N": "256"}))
    assert out.halt_reason is halt, out.fault_detail
    initial = out.initial_mass_A + out.initial_mass_rho
    assert out.clipped_mass_A <= AREA_CLIP_FRACTION * initial


@pytest.mark.slow
def test_criterion_1_halt_across_record_cadences(monkeypatch):
    # the detector reads the curvature after every step, so the record
    # cadence does not move the halt
    import xdiff.integrator as integrator

    bound = 1.5 * t_star(CURVATURE_AT_CENTER, 0.075)
    ladder = ((512, 0.1, (1, 10, 100)), (512, 0.25, (1, 10, 100)), (1024, 0.25, (1, 100)))
    with criterion(1, "blow-up halt across record cadences"):
        for n, safety, cadences in ladder:
            # the unit's share of RK4's stability limit
            share = safety * math.pi**2 / RK4_REAL_STABILITY
            monkeypatch.setattr(integrator, "STABILITY_SHARE", share)
            halts = []
            for every in cadences:
                overrides = {"grid.N": str(n), "run.record_every": str(every)}
                out = xdiff.run(preset_with_overrides("fig1-blowup", overrides))
                case = f"N = {n}, RK4 share = {safety}, record_every = {every}"
                halted = out.halt_reason is xdiff.HaltReason.BLOWUP_DETECTED
                assert halted, (case, out.fault_detail)
                t_halt = out.final_state.t
                assert t_halt <= bound, case
                halts.append(t_halt)
                assert out.series[-2].t <= halts[0] <= t_halt, case
                assert t_halt == halts[0], case


@pytest.mark.slow
def test_criterion_1_rkc_halt_agrees_with_rk4(fig1, rk4_run_loop):
    # RKC takes about 40 times fewer steps than RK4 and halts within 1% of it
    with criterion(1, "blow-up halt, RKC against RK4"):
        rk4 = xdiff.run(preset("fig1-blowup"))
        assert rk4.halt_reason is xdiff.HaltReason.BLOWUP_DETECTED, rk4.fault_detail
        rkc_halt = float(fig1["outcome"]["final_t"])
        assert rkc_halt == pytest.approx(rk4.final_state.t, rel=0.01)
        assert int(fig1["outcome"]["steps"]) * 15 < rk4.steps


def test_criterion_2_threshold_consistency():
    with criterion(2, "threshold consistency"):
        p = reference_params()
        thr = blowup_threshold(p)
        assert thr == p.mu * p.beta * p.kernel.l1_norm() / (1.0 - p.mu)
        assert thr == pytest.approx(0.075, rel=1e-15)
        assert CURVATURE_AT_CENTER > thr


def test_criterion_3_density_support_invariance(fig2):
    with criterion(3, "density support invariance"):
        dx = 2.0 * fig2["config"].grid.L / fig2["config"].grid.N
        s = fig2["series"]
        drift_lo = np.max(np.abs(s["supp_rho_lo"] - s["supp_rho_lo"][0]))
        drift_hi = np.max(np.abs(s["supp_rho_hi"] - s["supp_rho_hi"][0]))
        assert max(drift_lo, drift_hi) <= 2 * dx
        assert np.all(np.abs(s["supp_rho_lo"] + 0.5) <= 2 * dx)
        assert np.all(np.abs(s["supp_rho_hi"] - 0.5) <= 2 * dx)

        zero_set_max = float(fig2["outcome"]["max_rho_on_initial_zero_set"])
        assert zero_set_max <= 1e-10, (
            "density must stay numerically zero on the interior zero set"
        )


def test_criterion_3_holds_at_n512():
    # the coarsest rung of the refinement ladder: the zero-set bound must not
    # need N = 1024 to hold
    with criterion(3, "density zero set at N = 512"):
        out = xdiff.run(preset_with_overrides("fig2-support", {"grid.N": "512"}))
        assert out.halt_reason is xdiff.HaltReason.REACHED_T_END
        zero_set_max = max(rec.zero_set_max_rho for rec in out.series)
        print(f"zero-set headroom at N = 512: {1e-10 / zero_set_max:.3g}")
        assert zero_set_max <= 1e-10


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-0.6, -0.4), b=st.floats(0.4, 0.6), peak=st.floats(1.0, 3.0))
def test_criterion_3_holds_for_drawn_cubic_bumps(a, b, peak):
    # fig2-support with the density bump's ends and peak drawn: cubic contact
    # at both ends keeps the zero set below the bound at N = 512 and 1024,
    # recorded every step (the worst of a 54-run grid over these ranges read
    # 1.08e-11)
    amp = -peak / ((b - a) / 2.0) ** 6
    for n in (512, 1024):
        overrides = {
            "grid.N": str(n),
            "rho0.a": repr(a),
            "rho0.b": repr(b),
            "rho0.amp": repr(amp),
            "run.record_every": "1",
        }
        out = xdiff.run(preset_with_overrides("fig2-support", overrides))
        assert out.halt_reason is xdiff.HaltReason.REACHED_T_END, out.fault_detail
        assert max(rec.zero_set_max_rho for rec in out.series) <= 1e-10, n


@pytest.mark.parametrize("order", [2, 3, 4])
def test_criterion_3_zero_set_leak_follows_its_convergence_law(order):
    # fig2-support with p = r = order and the preset's max rho0 = 2.1875,
    # recorded every step: the density leaves a zero node only by the square
    # of the interpolant's slope there, O(dx^(p - 1)), so the largest leak
    # onto the zero set falls as dx^(2(p - 1)), 4^(p - 1)-fold per doubling of
    # N (measured 4.0, 16.1 and 64.2).  The margin is 0.1 in the order.
    amp = 2.1875 * (-1) ** order / 0.25**order
    leaks = []
    for n in (512, 1024, 2048):
        overrides = {
            "grid.N": str(n),
            "rho0.amp": repr(amp),
            "rho0.p": str(order),
            "rho0.r": str(order),
            "run.record_every": "1",
        }
        out = xdiff.run(preset_with_overrides("fig2-support", overrides))
        assert out.halt_reason is xdiff.HaltReason.REACHED_T_END, out.fault_detail
        assert out.series[0].max_rho == pytest.approx(2.1875, rel=1e-12)
        leaks.append(max(rec.zero_set_max_rho for rec in out.series))
    orders = [math.log2(coarse / fine) for coarse, fine in zip(leaks, leaks[1:])]
    assert all(abs(o - 2 * (order - 1)) <= 0.1 for o in orders), (leaks, orders)


def test_fig1_density_support_at_every_snapshot(fig1):
    # the density's two humps keep their outer edges at |x| = 0.5 up to the
    # last snapshot before blow-up: no spurious intervals on the zero set
    with criterion(3, "fig1 density support at every snapshot"):
        cfg = fig1["config"]
        grid = cfg.grid
        snaps = sorted(fig1["out_dir"].glob("snapshot_*.csv"))
        assert len(snaps) == len(cfg.snapshot_times)
        for path in snaps:
            rho = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2]
            intervals = support(grid, rho)
            assert len(intervals) == 2, (path.name, intervals)
            assert abs(intervals[0][0] + 0.5) <= 2 * grid.dx, (path.name, intervals)
            assert abs(intervals[-1][1] - 0.5) <= 2 * grid.dx, (path.name, intervals)


def test_criterion_4_area_support_expansion(fig2):
    with criterion(4, "area support expansion"):
        dx = 2.0 * fig2["config"].grid.L / fig2["config"].grid.N
        s = fig2["series"]

        assert abs(s["supp_A_lo"][0] - (-0.3)) <= 2 * dx
        assert abs(s["supp_A_hi"][0] - 0.3) <= 2 * dx

        # containment in the initial density support, one-cell slack
        assert np.all(s["supp_A_lo"] >= s["supp_rho_lo"][0] - dx)
        assert np.all(s["supp_A_hi"] <= s["supp_rho_hi"][0] + dx)

        # the area hull edges never retreat
        assert np.all(np.diff(s["supp_A_lo"]) <= 0), "area support lower edge retreated"
        assert np.all(np.diff(s["supp_A_hi"]) >= 0), "area support upper edge retreated"

        advance, _ = area_edge_motion(s)
        assert np.all(advance >= AREA_EDGE_ADVANCE), (
            f"area support edges advanced only {advance} outward, "
            f"expected at least {AREA_EDGE_ADVANCE}"
        )


def test_criterion_4_expansion_under_refinement(fig2):
    with criterion(4, "area support expansion under refinement"):
        cfg = fig2["config"]
        dx = 2.0 * cfg.grid.L / cfg.grid.N
        fine = xdiff.run(preset_with_overrides("fig2-support", {"grid.N": str(2 * cfg.grid.N)}))
        assert fine.halt_reason is xdiff.HaltReason.REACHED_T_END

        fine_advance, fine_gap = area_edge_motion(run_hulls(fine))
        advance, gap = area_edge_motion(fig2["series"])
        # the gap left at t_end is a physical distance, not a number of cells
        assert np.all(np.abs(fine_advance - advance) <= dx), (fine_advance, advance)
        assert np.all(np.abs(fine_gap - gap) <= dx), (fine_gap, gap)


def test_criteria_3_and_4_agree_between_steppers(fig2, rk4_run_loop):
    # RK4 at the same N gives the same advance and zero set
    with criterion(4, "area support expansion, RK4 against RKC"):
        cfg = fig2["config"]
        dx = 2.0 * cfg.grid.L / cfg.grid.N
        rk4 = xdiff.run(preset("fig2-support"))
        assert rk4.halt_reason is xdiff.HaltReason.REACHED_T_END
        rk4_advance, _ = area_edge_motion(run_hulls(rk4))
        advance, _ = area_edge_motion(fig2["series"])
        assert np.all(np.abs(rk4_advance - advance) <= dx), (rk4_advance, advance)
        assert max(rec.zero_set_max_rho for rec in rk4.series) <= 1e-10
        assert float(fig2["outcome"]["max_rho_on_initial_zero_set"]) <= 1e-10


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="RKC's N = 2048 area advance, 0.0674, is two cells short of RK4's",
)
def test_area_advance_agrees_with_rk4_at_n2048():
    # the N = 1024 comparison above, one grid finer, against the pinned RK4 value
    out = xdiff.run(preset_with_overrides("fig2-support", {"grid.N": "2048"}))
    assert out.halt_reason is xdiff.HaltReason.REACHED_T_END
    dx = 2.0 * out.final_state.grid.L / 2048
    advance, _ = area_edge_motion(run_hulls(out))
    assert np.all(np.abs(advance - RK4_AREA_EDGE_ADVANCE_2048) <= dx), advance


def test_criterion_4_no_retreat_at_any_rkc_step():
    # the preset records every 10th of its 9 steps; recording each one
    # checks the hull at every step
    with criterion(4, "area hull never retreats at any RKC step"):
        out = xdiff.run(preset_with_overrides("fig2-support", {"run.record_every": "1"}))
        assert out.halt_reason is xdiff.HaltReason.REACHED_T_END
        assert len(out.series) == out.steps + 1
        hulls = run_hulls(out)
        assert np.all(np.diff(hulls["supp_A_lo"]) <= 0), "area support lower edge retreated"
        assert np.all(np.diff(hulls["supp_A_hi"]) >= 0), "area support upper edge retreated"


@pytest.mark.parametrize("which", ["fig1", "fig2"])
def test_criterion_5_density_sup_envelope(which, request):
    data = request.getfixturevalue(which)
    with criterion(5, f"density sup envelope [{which}]"):
        max_rho = data["series"]["max_rho"]
        cap = max(max_rho[0], RHO_SUP_BOUND) * 1.01
        assert np.all(max_rho <= cap)
        above = max_rho[:-1] > RHO_SUP_BOUND
        climbs = max_rho[1:] > max_rho[:-1] * (1 + 1e-12)
        assert not np.any(above & climbs), (
            "running maximum must not grow while above the analytic bound"
        )


@pytest.mark.parametrize("which", ["fig1", "fig2"])
def test_criterion_6_positivity_and_clip_budget(which, request):
    data = request.getfixturevalue(which)
    with criterion(6, f"positivity and clipped mass [{which}]"):
        assert np.all(data["series"]["min_rho"] >= 0.0)
        assert np.all(data["series"]["min_A"] >= 0.0)
        clipped = float(data["outcome"]["clipped_mass_rho"]) + float(
            data["outcome"]["clipped_mass_A"]
        )
        initial = float(data["outcome"]["initial_mass_rho"]) + float(
            data["outcome"]["initial_mass_A"]
        )
        assert clipped <= 1e-8 * initial
        assert float(data["outcome"]["clipped_mass_A"]) <= AREA_CLIP_FRACTION * initial


def test_criterion_7_consistency_suite():
    with criterion(7, "evolution-form consistency"):
        p = reference_params()
        g = Grid(1.0, 128)
        ones = Field(g, np.ones(g.N))

        s = State(t=0.0, A=ones, rho=Field(g, 1.0 + 0.1 * np.cos(np.pi * g.x)))
        da0, dr0 = rhs(s, p)
        da_reg, dr_reg = rhs(s, p, RunMode("regularized", eps=0.0))
        assert np.max(np.abs(da_reg.values - da0.values)) <= 1e-9
        assert np.max(np.abs(dr_reg.values - dr0.values)) <= 1e-9

        eta = Field(g, np.sqrt(s.rho.values))
        _, de = rhs(State(t=0.0, A=s.A, rho=Field(g, eta.values**2)), p, RunMode("sqrt"))
        residual = 2.0 * eta.values * de.values - dr0.values
        assert np.max(np.abs(residual)) <= 1e-6 * np.max(np.abs(dr0.values))

        da_c, dr_c = rhs(State(t=0.0, A=ones, rho=ones), p)
        assert np.max(np.abs(da_c.values - 0.05)) <= 1e-12
        assert np.max(np.abs(dr_c.values + 0.55)) <= 1e-12


def test_evolution_forms_converge_along_the_fig2_trajectory(monkeypatch):
    # criterion 7 compares the forms' right sides at one state; this compares
    # the final states of whole fig2-support runs.  The mollified form is
    # first order in its width eps at any N, and the sqrt form's density
    # converges to the original under refinement.
    import xdiff.integrator as integrator

    def final(n, **mode):
        overrides = {"grid.N": str(n), **{f"mode.{k}": str(v) for k, v in mode.items()}}
        out = xdiff.run(preset_with_overrides("fig2-support", overrides))
        assert out.halt_reason is xdiff.HaltReason.REACHED_T_END, out.fault_detail
        return out.final_state.rho.values, out.final_state.A.values

    original = {n: final(n) for n in (512, 1024)}

    def gaps(n, **mode):
        return [float(np.max(np.abs(x - y))) for x, y in zip(final(n, **mode), original[n])]

    mollified = [gaps(1024, kind="regularized", eps=eps) for eps in (1e-5, 1e-6, 1e-7)]
    sqrt = [gaps(n, kind="sqrt") for n in (512, 1024)]
    assert min(mollified[-1] + sqrt[-1]) > 0.0
    for wide, narrow in zip(mollified, mollified[1:]):
        assert all(w >= 9.0 * m for w, m in zip(wide, narrow)), mollified
    assert sqrt[0][0] >= 4.0 * sqrt[1][0], sqrt
    # both forms step the same area face flux, so the area gap is the
    # difference of RKC's temporal errors in rho and in eta, the same at
    # every N: steps about 12 times shorter cut it about 20-fold.  At fixed
    # steps that difference grows as the stage count falls: steps of 1e-5,
    # 7 stages each, cut it only 2.4-fold, and forcing 10 stages on them
    # cut it 8-fold
    monkeypatch.setattr(integrator, "DT_MAX", 3e-6)
    original[1024] = final(1024)
    short = gaps(1024, kind="sqrt")
    assert sqrt[1][1] >= 4.0 * short[1], (sqrt, short)


def test_sqrt_form_gap_closes_inside_the_uniqueness_class(tmp_path):
    # the paper proves uniqueness for sqrt(rho0) in H^2.  fig1's density is
    # about c x^2 at the centre (c = 31.25), so sqrt(rho0) has a kink there,
    # outside that class, and the sqrt form halts about 10% before the
    # original at every N.  Shifted by delta = 1e-3 (the area is not),
    # sqrt(rho0) is smooth, with a transition width sqrt(delta / c) = 5.7e-3
    # of about 3 cells at N = 1024, and the gap closes as the grid resolves
    # it: -1.37% at N = 1024, -0.06% at N = 2048
    def gap(n, delta):
        cfg = preset("fig1-blowup")
        grid = Grid(cfg.grid.L, n)
        path = tmp_path / f"rho0-{n}.csv"
        values = cfg.rho0.sample(grid).values + delta
        path.write_text("".join(f"{x!r},{v!r}\n" for x, v in zip(grid.x.tolist(), values.tolist())))
        shifted = dataclasses.replace(cfg, grid=grid, rho0=CsvData(str(path)), snapshot_times=())
        halts = []
        for kind in ("original", "sqrt"):
            out = xdiff.run(dataclasses.replace(shifted, mode=RunMode(kind)))
            assert out.halt_reason is xdiff.HaltReason.BLOWUP_DETECTED, (n, kind, out.fault_detail)
            halts.append(out.final_state.t)
        return abs(halts[1] - halts[0]) / halts[0]

    coarse, fine = gap(1024, 1e-3), gap(2048, 1e-3)
    assert coarse >= 4.0 * fine, (coarse, fine)


def test_criterion_8_numerical_quality():
    with criterion(8, "numerical quality"):
        # exact spectral differentiation of a resolved mode
        g = Grid(1.0, 128)
        d = derivative(g, np.sin(3 * np.pi * g.x), 1)
        assert np.max(np.abs(d - 3 * np.pi * np.cos(3 * np.pi * g.x))) <= 1e-10

        # temporal self-convergence of the stepper on the smooth positive run
        p = reference_params()
        g16 = Grid(1.0, 16)

        def advance(dt, n_steps):
            s = State(
                t=0.0,
                A=Field(g16, np.ones(16)),
                rho=Field(g16, 1.0 + 0.1 * np.cos(np.pi * g16.x)),
            )
            for _ in range(n_steps):
                s = step(s, p, dt)
            return s

        sols = [advance(5e-4 / 2**i, 2 * 2**i) for i in range(3)]
        e1 = np.max(np.abs(sols[0].rho.values - sols[1].rho.values))
        e2 = np.max(np.abs(sols[1].rho.values - sols[2].rho.values))
        assert math.log2(e1 / e2) >= 3.5

        # heat-semigroup composition law
        rng = np.random.default_rng(5)
        h = rng.normal(size=g.N)
        left = smooth(smooth(h, heat_multiplier(g, 0.02)), heat_multiplier(g, 0.03))
        right = smooth(h, heat_multiplier(g, 0.05))
        assert np.max(np.abs(left - right)) <= 1e-10

        # closed-form blow-up time against an independent integration
        y0, theta = CURVATURE_AT_CENTER, 0.075
        y, t = y0, 0.0
        while y < 1e7:
            dt = 1e-3 / y
            k1 = y * y - theta * y
            y2 = y + 0.5 * dt * k1
            k2 = y2 * y2 - theta * y2
            y3 = y + 0.5 * dt * k2
            k3 = y3 * y3 - theta * y3
            y4 = y + dt * k3
            k4 = y4 * y4 - theta * y4
            y += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        t_hat = t + 1.0 / y
        assert abs(t_hat - t_star(y0, theta)) <= 0.01 * t_star(y0, theta)


def test_criterion_9_determinism_and_round_trip(fig2, tmp_path):
    with criterion(9, "determinism and config round-trip"):
        rerun = tmp_path / "fig2-again"
        code = main(["preset", "fig2-support", "--out", str(rerun)])
        assert code == fig2["code"]
        first = (fig2["out_dir"] / "series.csv").read_bytes()
        second = (rerun / "series.csv").read_bytes()
        assert first == second, "repeated runs must produce byte-identical series"

        for name in ("fig1-blowup", "fig2-support"):
            cfg = preset(name)
            assert parse_config(render_config(cfg)) == cfg
