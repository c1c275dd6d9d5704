import numpy as np
import pytest

from xdiff.config import Constant, Cosine, PolyBump, RunConfig
from xdiff.grid import Field, make_grid
from xdiff.integrator import (
    HaltReason,
    RunMode,
    StepControl,
    cfl_dt,
    run,
    step,
)
from xdiff.kernel import BoxKernel
from xdiff.model import ModelParams, NumericalFault, State

REFERENCE = dict(alpha=1.0, mu=0.5, beta=0.75, beta_tilde=0.5, K=1.0, K_tilde=0.5)


@pytest.fixture
def params():
    return ModelParams(kernel=BoxKernel(0.05), **REFERENCE)


def state_of(grid, a, r, t=0.0):
    return State(t=t, A=Field(grid, a), rho=Field(grid, r))


def smooth_config(params, n=64, t_end=1e-3, mode=RunMode(), **kw):
    defaults = dict(
        grid_L=1.0,
        grid_N=n,
        params=params,
        rho0=Cosine(1.0, 0.1, 1),
        A0=Constant(1.0),
        mode=mode,
        ctrl=StepControl(),
        t_end=t_end,
        record_every=5,
        snapshot_times=(),
        output_dir="unused",
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestStepControlValidation:
    def test_defaults_are_valid(self):
        ctrl = StepControl()
        assert ctrl.cfl_safety == 0.25
        assert ctrl.dt_min == 1e-14

    def test_rejections(self):
        with pytest.raises(ValueError):
            StepControl(cfl_safety=0.0)
        with pytest.raises(ValueError):
            StepControl(cfl_safety=1.5)
        with pytest.raises(ValueError):
            StepControl(dt_min=1e-2, dt_max=1e-3)
        with pytest.raises(ValueError):
            StepControl(positivity_tol=-1.0)
        with pytest.raises(ValueError):
            StepControl(clip_policy="freeze")
        with pytest.raises(ValueError):
            StepControl(curvature_growth_factor=1.0)


class TestRunModeValidation:
    def test_kinds(self):
        assert RunMode().kind == "original"
        assert RunMode("regularized", eps=0.1, delta=0.01).eps == 0.1
        with pytest.raises(ValueError):
            RunMode("implicit")
        with pytest.raises(ValueError):
            RunMode("regularized", eps=-1.0)
        with pytest.raises(ValueError):
            RunMode("original", eps=0.1)


class TestCflDt:
    def test_reference_arithmetic(self, params):
        g = make_grid(1.0, 1024)
        s = state_of(g, np.ones(1024), np.ones(1024))
        dt = cfl_dt(s, StepControl())
        assert dt == 0.25 * g.dx**2
        assert dt == pytest.approx(9.5367e-7, rel=1e-4)

    def test_zero_density_uses_dt_max(self, params):
        g = make_grid(1.0, 1024)
        s = state_of(g, np.ones(1024), np.zeros(1024))
        assert cfl_dt(s, StepControl()) == StepControl().dt_max

    def test_reference_peak_density(self, params):
        # the steepest reference experiment peak; the resulting step sits
        # within an order of magnitude of the reported frame time scale
        g = make_grid(1.0, 1024)
        s = state_of(g, np.ones(1024), np.full(1024, 2.1875))
        assert cfl_dt(s, StepControl()) == pytest.approx(4.3597e-7, rel=1e-4)

    def test_clamped_to_window(self, params):
        g = make_grid(1.0, 16)
        s = state_of(g, np.ones(16), np.full(16, 1e9))
        ctrl = StepControl(dt_min=1e-6, dt_max=1e-3)
        assert cfl_dt(s, ctrl) == 1e-6


class TestStep:
    def test_zero_state_unchanged(self, params):
        g = make_grid(1.0, 64)
        s = state_of(g, np.zeros(64), np.zeros(64))
        out = step(s, params, 0.5, StepControl())
        assert out.t == 0.5
        assert np.all(out.A.values == 0.0)
        assert np.all(out.rho.values == 0.0)

    def test_constant_state_matches_scalar_rk4(self, params):
        # spatially constant states follow the scalar reaction system; one
        # step must agree with a plain scalar RK4 for the same two equations
        def scalar_rhs(a, r):
            avg = 0.1 * r
            da = a * (1.0 * r - 0.5 * (r - avg)) + 0.5 * a * (1 - r * a / 0.5)
            dr = 0.75 * r * (1 - a * r) - r * r + 0.5 * r * (r - avg)
            return da, dr

        a, r, dt = 1.0, 1.0, 1e-4
        k1 = scalar_rhs(a, r)
        k2 = scalar_rhs(a + 0.5 * dt * k1[0], r + 0.5 * dt * k1[1])
        k3 = scalar_rhs(a + 0.5 * dt * k2[0], r + 0.5 * dt * k2[1])
        k4 = scalar_rhs(a + dt * k3[0], r + dt * k3[1])
        a_next = a + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        r_next = r + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])

        g = make_grid(1.0, 64)
        out = step(state_of(g, np.ones(64), np.ones(64)), params, dt, StepControl())
        assert np.max(np.abs(out.A.values - a_next)) <= 1e-14
        assert np.max(np.abs(out.rho.values - r_next)) <= 1e-14
        assert np.ptp(out.rho.values) == 0.0  # stays uniform in x
        # linearized slope prediction, accurate to O(dt^2)
        assert out.rho.values[0] == pytest.approx(1 - 0.55e-4, abs=1e-8)

    def test_subtolerance_negative_entry_clipped(self, params):
        g = make_grid(1.0, 64)
        r = np.full(64, 1e-8)
        r[10] = -5e-13
        out = step(state_of(g, np.zeros(64), r), params, 1e-8, StepControl())
        assert out.rho.values[10] == 0.0
        assert np.min(out.rho.values) >= 0.0

    def test_reject_policy_raises_below_tolerance(self, params):
        g = make_grid(1.0, 64)
        r = np.full(64, 1e-8)
        r[10] = -1e-9
        ctrl = StepControl(clip_policy="reject")
        with pytest.raises(NumericalFault):
            step(state_of(g, np.zeros(64), r), params, 1e-8, ctrl)

    def test_nonpositive_dt_rejected(self, params):
        g = make_grid(1.0, 64)
        with pytest.raises(ValueError):
            step(state_of(g, np.ones(64), np.ones(64)), params, 0.0, StepControl())

    def test_rk4_self_convergence_order(self, params):
        # smooth strictly positive run at fixed dt; Richardson order from the
        # dt, dt/2, dt/4 triple must be essentially four
        g = make_grid(1.0, 16)
        ctrl = StepControl()

        def advance(dt, n_steps):
            s = state_of(g, np.ones(16), 1.0 + 0.1 * np.cos(np.pi * g.x))
            for _ in range(n_steps):
                s = step(s, params, dt, ctrl)
            assert s.t == pytest.approx(1e-3)
            return s

        sols = [advance(5e-4 / 2**i, 2 * 2**i) for i in range(3)]
        err = [
            max(
                np.max(np.abs(sols[i].rho.values - sols[i + 1].rho.values)),
                np.max(np.abs(sols[i].A.values - sols[i + 1].A.values)),
            )
            for i in range(2)
        ]
        order = np.log2(err[0] / err[1])
        assert order >= 3.5


class TestRun:
    def test_zero_t_end_returns_immediately(self, params):
        out = run(smooth_config(params, t_end=0.0))
        assert out.halt_reason is HaltReason.REACHED_T_END
        assert out.steps == 0
        assert len(out.series) == 1
        assert out.series[0].t == 0.0

    def test_reaches_t_end_with_increasing_records(self, params):
        out = run(smooth_config(params))
        assert out.halt_reason is HaltReason.REACHED_T_END
        assert out.final_state.t == pytest.approx(1e-3, abs=0)
        ts = [rec.t for rec in out.series]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_determinism_bitwise(self, params):
        cfg = smooth_config(params)
        out1, out2 = run(cfg), run(cfg)
        assert len(out1.series) == len(out2.series)
        for r1, r2 in zip(out1.series, out2.series):
            assert r1 == r2
        assert np.array_equal(out1.final_state.rho.values, out2.final_state.rho.values)

    def test_positivity_under_clipping(self, params):
        cfg = smooth_config(
            params,
            rho0=PolyBump(-140.0, -0.5, 0.5, 3, 0, 3),
            A0=PolyBump(-2000.0, -0.3, 0.3, 3, 0, 3),
            n=512,
            t_end=2e-4,
        )
        out = run(cfg)
        assert out.halt_reason is HaltReason.REACHED_T_END
        assert out.clipped_mass_rho + out.clipped_mass_A > 0.0  # clipping did occur
        assert all(rec.min_rho >= 0.0 for rec in out.series)
        assert all(rec.min_A >= 0.0 for rec in out.series)

    def test_dt_underflow_halt(self, params):
        cfg = smooth_config(
            params,
            rho0=Constant(10.0),
            ctrl=StepControl(dt_min=1e-3, dt_max=2e-3),
            n=16,
            t_end=1.0,
        )
        out = run(cfg)
        assert out.halt_reason is HaltReason.DT_UNDERFLOW
        assert out.steps == 1

    @pytest.mark.parametrize(
        "mode, rho0, term",
        [
            (RunMode(), 1e160, "density reaction terms"),
            (RunMode("regularized", eps=1e-3), 1e160, "density reaction terms"),
            (RunMode("sqrt"), 1e220, "eta reaction terms"),
            # eta = 1e80 passes the first stage; eta^2 overflows in the second
            (RunMode("sqrt"), 1e160, "area reaction terms (sqrt form)"),
        ],
        ids=["original", "regularized", "sqrt", "sqrt-second-stage"],
    )
    def test_numerical_fault_on_overflow(self, params, mode, rho0, term):
        cfg = smooth_config(params, rho0=Constant(rho0), n=16, t_end=1.0, mode=mode)
        out = run(cfg)
        assert out.halt_reason is HaltReason.NUMERICAL_FAULT
        assert out.fault_detail == f"non-finite values in {term}"

    def test_snapshots_taken_at_crossing_times(self, params):
        cfg = smooth_config(params, snapshot_times=(0.0, 5e-4, 1e-3))
        out = run(cfg)
        assert len(out.snapshots) == 3
        assert out.snapshots[0].t == 0.0
        assert out.snapshots[1].t >= 5e-4
        assert out.snapshots[2].t == pytest.approx(1e-3, abs=0)

    def test_negative_initial_data_rejected(self, params):
        cfg = smooth_config(params, rho0=Constant(-1.0))
        with pytest.raises(ValueError):
            run(cfg)

    def test_sqrt_mode_matches_original_on_smooth_state(self, params):
        out_orig = run(smooth_config(params))
        out_sqrt = run(smooth_config(params, mode=RunMode("sqrt")))
        assert out_sqrt.halt_reason is HaltReason.REACHED_T_END
        r1 = out_orig.final_state.rho.values
        r2 = out_sqrt.final_state.rho.values
        assert np.max(np.abs(r1 - r2)) <= 1e-8 * np.max(np.abs(r1))

    def test_regularized_mode_shifts_and_smooths_initial_data(self, params):
        cfg = smooth_config(
            params,
            rho0=PolyBump(-140.0, -0.5, 0.5, 3, 0, 3),
            A0=Constant(1.0),
            mode=RunMode("regularized", eps=1e-3, delta=0.01),
            t_end=1e-4,
        )
        out = run(cfg)
        assert out.halt_reason is HaltReason.REACHED_T_END
        # the delta shift keeps the density strictly positive
        assert all(rec.min_rho > 0.0 for rec in out.series)

    def test_records_agree_with_public_diagnostics(self, params):
        # the run's internal record assembly must match what the public
        # operators compute on the final state
        from xdiff.diagnostics import second_derivative_at_center, support, symmetry_defect
        from xdiff.grid import integrate
        from xdiff.model import energy

        out = run(smooth_config(params, record_every=1))
        last = out.series[-1]
        st = out.final_state
        assert last.t == st.t
        assert last.rho_xx_at_0 == second_derivative_at_center(st)
        assert last.supp_rho == tuple(support(st.rho))
        assert last.supp_A == tuple(support(st.A))
        assert last.mass_rho == integrate(st.rho)
        assert last.symmetry_defect_rho == symmetry_defect(st.rho)
        report = energy(st)
        assert last.e_tilde == report.e_tilde
        assert last.e_sqrt == report.e_sqrt

    def test_clip_budget_flags_numerical_fault(self, params):
        # a severely under-resolved compact bump clips far more mass than the
        # budget allows and must be reported as a fault, not silently eaten
        cfg = smooth_config(
            params,
            rho0=PolyBump(-(10.0**9), -0.2, 0.2, 3, 2, 3),
            A0=Constant(0.0),
            n=16,
            t_end=1.0,
        )
        out = run(cfg)
        assert out.halt_reason is HaltReason.NUMERICAL_FAULT
        assert "clipped mass" in out.fault_detail
