import dataclasses
import math
import os
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xdiff.config import (
    Constant,
    Cosine,
    CsvData,
    PolyBump,
    RunConfig,
    preset,
    preset_with_overrides,
)
from xdiff.grid import Field, Grid, InvalidValue
from xdiff.integrator import (
    BLOWUP_CAP,
    CURVATURE_FRACTION,
    CURVATURE_GROWTH,
    DAMPING,
    DT_MAX,
    DT_MIN,
    RISE_WINDOW,
    S_CAP,
    STABILITY_SHARE,
    HaltReason,
    RunMode,
    _blowup_detected,
    _error_ratio,
    _euler_unit,
    _record,
    _rkc,
    _rkc_table,
    _step_arrays,
    _step_size,
    _Stepper,
    cfl_dt,
    run,
    stability_interval,
)
from xdiff.kernel import BoxKernel, heat_multiplier, smooth
from xdiff.model import ModelParams, NumericalFault, State, _energy_spectra, _unchecked

from reference import rk4, step

REFERENCE = dict(alpha=1.0, mu=0.5, beta=0.75, beta_tilde=0.5, K=1.0, K_tilde=0.5)


@pytest.fixture
def params():
    return ModelParams(kernel=BoxKernel(0.05), **REFERENCE)


def state_of(grid, a, r, t=0.0):
    return State(t=t, A=Field(grid, a), rho=Field(grid, r))


def smooth_config(params, n=64, t_end=1e-3, mode=RunMode(), **kw):
    defaults = dict(
        grid=Grid(1.0, n),
        params=params,
        rho0=Cosine(1.0, 0.1, 1),
        A0=Constant(1.0),
        mode=mode,
        t_end=t_end,
        record_every=5,
        snapshot_times=(),
        output_dir="unused",
    )
    defaults.update(kw)
    return RunConfig(**defaults)


RK4_REAL_STABILITY = 2.7853  # classical RK4 is stable on [-2.7853, 0] of the real axis

# finite data with a finite mass on the grid, whose t = 0 record overflows in
# the central curvature (N = 16) or meets inf - inf there (N = 64)
HUGE_DATA = [(Cosine(1e307, 1e307, 1), 16), (Cosine(1e306, 1e306, 3), 64)]


class TestRunModeValidation:
    def test_kinds(self):
        assert RunMode().kind == "original"
        assert RunMode("regularized", eps=0.1).eps == 0.1
        with pytest.raises(ValueError):
            RunMode("implicit")
        with pytest.raises(ValueError):
            RunMode("regularized", eps=-1.0)
        with pytest.raises(ValueError):
            RunMode("original", eps=0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_width_rejected(self, value):
        with pytest.raises(InvalidValue, match="eps must be nonnegative and finite"):
            RunMode("regularized", eps=value)


class TestCflDt:
    def test_reference_arithmetic(self, params):
        # the forward-Euler unit, the share 0.25 pi^2 / 2.7853 (RK4's real
        # interval) over the flux bound max(rho) (2/dx)^2, times
        # beta(40) = 1044.76 for damped RKC at the s = 40 cap: 375.10 RK4 steps
        g = Grid(1.0, 1024)
        dt = cfl_dt(g.dx, 1.0)
        assert stability_interval(S_CAP) / RK4_REAL_STABILITY == pytest.approx(375.10, abs=5e-3)
        k = 2.0 / g.dx
        assert STABILITY_SHARE == 0.25 * np.pi**2 / RK4_REAL_STABILITY
        assert dt == 0.25 * np.pi**2 / RK4_REAL_STABILITY / (1.0 * k * k) * stability_interval(S_CAP)
        assert dt == pytest.approx(8.8264e-4, rel=1e-4)

    @pytest.mark.parametrize("kind", ["original", "sqrt"])
    @pytest.mark.parametrize("name", ["fig1-blowup", "fig2-support"])
    def test_the_unit_keeps_its_share_of_the_spectral_radius(self, name, kind):
        # power iteration on the central-difference Jacobian of the right side
        # at the preset's initial state: the unit times the largest eigenvalue
        # magnitude stays within the design share 0.25 pi^2 / 2.7853 = 0.886,
        # and reaches most of it, so the bound is the wall that binds
        cfg = preset_with_overrides(name, {"grid.N": "512", "mode.kind": kind})
        grid = cfg.grid
        u = np.stack((cfg.A0.sample(grid).values, cfg.rho0.sample(grid).values))
        stepper = _Stepper(grid, cfg.params, cfg.mode)
        v = stepper.stepped(u)
        x, h = np.random.default_rng(0).standard_normal(v.shape), 1e-7
        with _unchecked():
            for _ in range(200):
                x /= np.linalg.norm(x)
                x = (stepper.f(v + h * x) - stepper.f(v - h * x)) / (2.0 * h)
        share = _euler_unit(grid.dx, float(u[1].max())) * float(np.linalg.norm(x))
        assert 0.85 <= share <= 0.886

    def test_zero_density_uses_dt_max(self, params):
        # a density that vanishes everywhere couples no node to another, so
        # its forward-Euler unit is inf on any mesh, and a step of DT_MAX
        # takes 2 stages; -0.0 is the maximum of a row of -0.0
        for g in (Grid(1.0, 1024), Grid(1e-4, 2048)):
            v, f_v = np.ones((2, g.N)), np.zeros((2, g.N))
            for rho_max in (0.0, -0.0):
                assert _euler_unit(g.dx, rho_max) == math.inf
                assert cfl_dt(g.dx, rho_max) == DT_MAX
                step_rule = _step_size(g.dx, v, f_v, rho_max, 0.0, 0.0, 1.0, None)
                assert step_rule == (DT_MAX, 2, False)

    def test_reference_peak_density(self, params):
        # the steepest reference experiment peak; the resulting step sits
        # within an order of magnitude of the reported frame time scale
        g = Grid(1.0, 1024)
        dt = cfl_dt(g.dx, 2.1875)
        assert dt == pytest.approx(4.0349e-4, rel=1e-4)

    def test_the_step_rule_floors_a_bound_below_dt_min(self, params):
        # cfl_dt does not floor; the step rule's one floor raises its bound
        # to DT_MIN and reports it for the underflow halt
        g = Grid(1.0, 16)
        v, f_v = np.ones((2, 16)), np.zeros((2, 16))
        assert cfl_dt(g.dx, 1e15) < DT_MIN
        dt, stages, at_floor = _step_size(g.dx, v, f_v, 1e15, 0.0, 0.0, 1.0, None)
        assert (dt, at_floor) == (DT_MIN, True)
        assert stages == S_CAP


def names_read(code):
    """The global and attribute names a code object reads, nested code included."""
    nested = (names_read(c) for c in code.co_consts if isinstance(c, types.CodeType))
    return set(code.co_names).union(*nested)


class TestStepRuleConstants:
    def test_the_readme_table_lists_every_constant_a_run_reads(self):
        # the "Time stepping" constants table names exactly the module
        # constants that the step rule's functions, the run loop and the
        # blow-up detector read
        import xdiff.integrator as integrator

        readers = (
            _step_size, cfl_dt, _euler_unit, _error_ratio, _rkc_table.__wrapped__, run,
            _blowup_detected,
        )
        read = {
            name
            for fn in readers
            for name in names_read(fn.__code__)
            if name.isupper() and hasattr(integrator, name)
        }
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        section = text[text.index("### Time stepping\n") :]
        section = section[: section.index("\n#")]
        table = section[section.index("| constant ") :].split("\n\n")[0]
        documented = {row.split("|")[1].strip().strip("`") for row in table.splitlines()[2:]}
        assert read == documented


class TestStep:
    def test_zero_state_unchanged(self, params):
        g = Grid(1.0, 64)
        s = state_of(g, np.zeros(64), np.zeros(64))
        out = step(s, params, 0.5)
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

        g = Grid(1.0, 64)
        out = step(state_of(g, np.ones(64), np.ones(64)), params, dt)
        assert np.max(np.abs(out.A.values - a_next)) <= 1e-14
        assert np.max(np.abs(out.rho.values - r_next)) <= 1e-14
        assert np.ptp(out.rho.values) == 0.0  # stays uniform in x
        # linearized slope prediction, accurate to O(dt^2)
        assert out.rho.values[0] == pytest.approx(1 - 0.55e-4, abs=1e-8)

    def test_subtolerance_negative_entry_clipped(self, params):
        g = Grid(1.0, 64)
        r = np.full(64, 1e-8)
        r[10] = -5e-13
        out = step(state_of(g, np.zeros(64), r), params, 1e-8)
        assert out.rho.values[10] == 0.0
        assert np.min(out.rho.values) >= 0.0

    def test_rk4_self_convergence_order(self, params):
        # smooth strictly positive run at fixed dt; Richardson order from the
        # dt, dt/2, dt/4 triple must be essentially four
        g = Grid(1.0, 16)

        def advance(dt, n_steps):
            s = state_of(g, np.ones(16), 1.0 + 0.1 * np.cos(np.pi * g.x))
            for _ in range(n_steps):
                s = step(s, params, dt)
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


def rkc_polynomial(z, stages=S_CAP):
    """R(z) of one RKC step on y' = z y with dt = 1, through the coefficient table."""
    z = np.asarray(z, dtype=float)
    u, f = np.ones_like(z), lambda w: z * w
    return _rkc(u, 1.0, f, f(u), stages)


def rkc_closed_form(stages):
    """(w0, w1, a_s, b_s, T_s) of damped RKC from the Chebyshev polynomial T_s."""
    t_s = np.polynomial.Chebyshev.basis(stages)
    w0 = 1.0 + DAMPING / stages**2
    d1, d2 = t_s.deriv(1)(w0), t_s.deriv(2)(w0)
    b_s = d2 / d1**2
    return w0, d1 / d2, 1.0 - b_s * t_s(w0), b_s, t_s


def rkc_interval_closed_form(stages):
    """beta(s) = (w0 + 1) T_s''(w0) / T_s'(w0), with T_s(cosh th) = cosh(s th)."""
    w0 = 1.0 + DAMPING / stages**2
    th = math.acosh(w0)
    d1 = stages * math.sinh(stages * th) / math.sinh(th)
    d2 = stages * (
        stages * math.cosh(stages * th) * math.sinh(th) - math.sinh(stages * th) * math.cosh(th)
    ) / math.sinh(th) ** 3
    return (w0 + 1.0) * d2 / d1


class TestRkc:
    def test_stable_on_its_real_interval(self):
        # beta(40) = 1044.76 for s = 40, the cap
        beta = stability_interval(S_CAP)
        assert beta == pytest.approx(rkc_interval_closed_form(S_CAP), rel=1e-14)
        assert beta == pytest.approx(1044.76, abs=5e-3)
        z = np.linspace(-beta, 0.0, 1044761)
        r = rkc_polynomial(z)
        assert np.max(np.abs(r)) <= 1.0 + 1e-12
        # just past the interval T_s leaves [-1, 1] and |R| passes 1 (1.56)
        assert abs(float(rkc_polynomial(-beta - 0.5))) > 1.0

    @settings(max_examples=200, deadline=None)
    @given(stages=st.integers(2, S_CAP), share=st.floats(0.0, 1.0))
    def test_every_stage_count_is_stable_on_its_interval(self, stages, share):
        # the step rule may pick any s in 2..S_CAP
        z = -share * stability_interval(stages)
        assert abs(float(rkc_polynomial(z, stages))) <= 1.0 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(stages=st.integers(2, S_CAP), share=st.floats(0.0, 1.0))
    def test_table_reproduces_the_chebyshev_polynomial(self, stages, share):
        # the three-term recurrence of the table is a_s + b_s T_s(w0 + w1 z)
        z = -share * stability_interval(stages)
        w0, w1, a_s, b_s, t_s = rkc_closed_form(stages)
        assert float(rkc_polynomial(z, stages)) == pytest.approx(
            a_s + b_s * t_s(w0 + w1 * z), abs=1e-10
        )

    def test_second_order_taylor_agreement(self):
        for h in (1e-2, 1e-3):
            z = np.array([-h, h])
            defect = rkc_polynomial(z) - (1.0 + z + 0.5 * z * z)
            assert np.all(np.abs(defect) <= 0.2 * h**3)

    def test_rkc_self_convergence_order(self, params):
        # criterion 8's smooth strictly positive problem at N = 16, fixed dt
        g = Grid(1.0, 16)
        stepper = _Stepper(g, params, RunMode())

        def solve(dt, n_steps):
            u = np.stack((np.ones(16), 1.0 + 0.1 * np.cos(np.pi * g.x)))
            for _ in range(n_steps):
                u = _rkc(u, dt, stepper.f, stepper.f(u), S_CAP)
            return u

        sols = [solve(5e-3 / 2**i, 2 * 2**i) for i in range(3)]
        err = [np.max(np.abs(sols[i] - sols[i + 1])) for i in range(2)]
        assert np.log2(err[0] / err[1]) >= 1.9

    @pytest.mark.parametrize(
        "f",
        [lambda w: w, lambda w: w[...], lambda w: np.cos(w)],
        ids=["returns-argument", "returns-view", "fresh"],
    )
    def test_in_place_increments_match_the_plain_increment_form(self, f):
        # the stage input and the product buffer are work arrays; a right
        # side that hands its argument back must not see them overwritten
        u, dt = np.array([1.0, 0.5, 2.0, 5e-324]), 1e-2
        u_before = u.copy()
        g = dt * f(u)
        _, mu1, rows = _rkc_table(S_CAP)
        d_old, d = 0.0, mu1 * g
        for mu, nu, mu_t, gamma_t in rows:
            d_old, d = d, mu * d + nu * d_old + mu_t * dt * f(u + d) + gamma_t * g
        expected = u + d
        assert _rkc(u, dt, f, f(u), S_CAP).tobytes() == expected.tobytes()
        assert u.tobytes() == u_before.tobytes()

    @pytest.mark.parametrize(
        "scheme, stages", [(_rkc, 2), (_rkc, S_CAP), (rk4, 4)], ids=["rkc-2", "rkc-cap", "rk4"]
    )
    def test_a_step_writes_none_of_its_inputs(self, params, scheme, stages):
        # a run keeps the stepped state and its first stage for the next
        # step's error estimate, so the step must leave both as they were
        g = Grid(1.0, 32)
        stepper = _Stepper(g, params, RunMode())
        u = np.stack((np.ones(32), 1.0 + 0.1 * np.cos(np.pi * g.x)))
        f_u = stepper.f(u)
        before = u.tobytes(), f_u.tobytes()
        scheme(u, 1e-4, stepper.f, f_u, stages)
        assert (u.tobytes(), f_u.tobytes()) == before


class TestErrorEstimate:
    @pytest.mark.parametrize("stages", [2, 10, S_CAP])
    def test_the_estimate_of_an_rkc_step_scales_as_dt_cubed(self, stages):
        # y' = lam y: one RKC step's estimate is O(dt^3), so halving dt
        # divides the weighted error by 8
        lam = -50.0
        f = lambda w: lam * w
        v = np.array([[1.0, 0.5, 0.25], [2.0, 1.0, 0.5]])
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            v_next = _rkc(v, dt, f, f(v), stages)
            sizes = np.abs(v_next).max(axis=1)
            errs.append(_error_ratio((v, f(v), dt), v_next, f(v_next), sizes))
        orders = [math.log2(coarse / fine) for coarse, fine in zip(errs, errs[1:])]
        assert orders == pytest.approx([3.0, 3.0], abs=0.1)

    def test_the_estimate_writes_none_of_its_inputs(self):
        v_last, f_last = np.array([[1.0, 0.5], [2.0, 1.0]]), np.array([[-3.0, 1.0], [0.5, -2.0]])
        v, f_v = 0.9 * v_last, 1.1 * f_last
        arrays = (v_last, f_last, v, f_v)
        before = [a.tobytes() for a in arrays]
        _error_ratio((v_last, f_last, 1e-3), v, f_v, np.abs(v).max(axis=1))
        assert [a.tobytes() for a in arrays] == before

    @settings(max_examples=300, deadline=None)
    @given(
        v=arrays(np.float64, (2, 16), elements=st.floats(0.0, 1e3)),
        f_v=arrays(np.float64, (2, 16), elements=st.floats(-1e4, 1e4)),
        v_last=arrays(np.float64, (2, 16), elements=st.floats(0.0, 1e3)),
        f_last=arrays(np.float64, (2, 16), elements=st.floats(-1e4, 1e4)),
        dt_last=st.floats(1e-12, 1e-2),
        y=st.floats(-1e3, 1e6),
        remaining=st.floats(1e-12, 1.0),
    )
    # an error of 3e-10, whose factor 0.8 err^(-1/3) is clamped to 10
    @example(
        v=np.ones((2, 16)),
        f_v=np.ones((2, 16)),
        v_last=np.full((2, 16), 1.0 + 1e-12),
        f_last=-np.ones((2, 16)),
        dt_last=6e-4,
        y=-1.0,
        remaining=1.0,
    )
    def test_the_estimate_only_lengthens_a_step_by_at_most_ten(
        self, v, f_v, v_last, f_last, dt_last, y, remaining
    ):
        # without a previous step the rule is the change rule alone; with one,
        # the step is at least that, at most ten times the previous one or
        # that, and within every cap
        dx, rho_max, y0 = 2.0 / 16, float(v[1].max()), 62.5
        with _unchecked():
            base, _, _ = _step_size(dx, v, f_v, rho_max, y0, y, remaining, None)
            last = (v_last, f_last, dt_last)
            dt, _, _ = _step_size(dx, v, f_v, rho_max, y0, y, remaining, last)
        assert base <= dt <= max(base, 10.0 * dt_last)
        assert dt <= min(cfl_dt(dx, rho_max), remaining)
        if y > 0.0:
            assert dt <= max(CURVATURE_FRACTION / y, DT_MIN)

    def test_the_estimate_adds_no_evaluation(self, monkeypatch):
        # the estimate reads the next step's first stage, so a run's right
        # sides are exactly the stages its steps took
        import xdiff.integrator as integrator

        taken = []
        step_size = integrator._step_size

        def recorded(*args):
            taken.append(step_size(*args))
            return taken[-1]

        monkeypatch.setattr(integrator, "_step_size", recorded)
        out = run(preset_with_overrides("fig1-blowup", {"grid.N": "512"}))
        assert out.halt_reason is HaltReason.BLOWUP_DETECTED
        assert len(taken) == out.steps
        assert out.rhs_evals == sum(stages for _, stages, _ in taken)


class TestRun:
    @pytest.mark.parametrize(
        "mode",
        [RunMode(), RunMode("regularized", eps=1e-3), RunMode("sqrt")],
        ids=["original", "regularized", "sqrt"],
    )
    def test_runs_on_the_numpy_1_fft_signatures(self, params, monkeypatch, mode):
        # np.fft takes out= only from numpy 2; the package supports numpy 1.24
        cfg = smooth_config(params, mode=mode)
        expected = run(cfg)
        rfft, irfft = np.fft.rfft, np.fft.irfft
        monkeypatch.setattr(
            np.fft, "rfft", lambda a, n=None, axis=-1, norm=None: rfft(a, n, axis, norm)
        )
        monkeypatch.setattr(
            np.fft, "irfft", lambda a, n=None, axis=-1, norm=None: irfft(a, n, axis, norm)
        )
        out = run(cfg)
        assert out.series == expected.series
        assert np.array_equal(out.final_state.rho.values, expected.final_state.rho.values)

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
        first = out.series[0]
        assert (out.initial_mass_rho, out.initial_mass_A) == (first.mass_rho, first.mass_A)

    def test_determinism_bitwise(self, params):
        cfg = smooth_config(params)
        out1, out2 = run(cfg), run(cfg)
        assert len(out1.series) == len(out2.series)
        for r1, r2 in zip(out1.series, out2.series):
            assert r1 == r2
        assert np.array_equal(out1.final_state.rho.values, out2.final_state.rho.values)

    def test_positivity_under_clipping(self, params):
        # the original and sqrt forms clip (next to) nothing on these data; the
        # mollifier's heat multiplier is not a positive operator, so the
        # mollified form undershoots both zero sets at t = 0 and in every step
        cfg = smooth_config(
            params,
            rho0=PolyBump(-140.0, -0.5, 0.5, 3, 0, 3),
            A0=PolyBump(-2000.0, -0.3, 0.3, 3, 0, 3),
            n=512,
            t_end=2e-4,
            mode=RunMode("regularized", eps=1e-6),
        )
        out = run(cfg)
        assert out.halt_reason is HaltReason.REACHED_T_END
        assert out.clipped_mass_rho + out.clipped_mass_A > 0.0  # clipping did occur
        assert all(rec.min_rho >= 0.0 for rec in out.series)
        assert all(rec.min_A >= 0.0 for rec in out.series)

    def test_dt_underflow_halt(self, params):
        cfg = smooth_config(
            params,
            rho0=Constant(1e15),
            n=16,
            t_end=1.0,
        )
        out = run(cfg)
        assert out.halt_reason is HaltReason.DT_UNDERFLOW
        assert out.steps == 1

    @pytest.mark.parametrize("mode", [RunMode(), RunMode("sqrt")], ids=["original", "sqrt"])
    def test_a_negative_zero_row_steps_as_a_zero_row(self, params, mode):
        # the step rule takes each row's maximum without abs, since every
        # stepped state is clipped nonnegative; an all -0.0 area row has
        # maximum -0.0 and no rate, and must step exactly as +0.0 does
        neg, pos = (
            run(smooth_config(params, A0=Constant(c), mode=mode, t_end=0.05, record_every=1))
            for c in (-0.0, 0.0)
        )
        assert (neg.steps, neg.rhs_evals) == (pos.steps, pos.rhs_evals)
        assert pos.steps > 2
        # the t = 0 record differs only in the sign of the zero minimum it reports
        assert math.copysign(1.0, neg.series[0].min_A) == -1.0
        assert neg.series[0] == pos.series[0]
        assert [repr(r) for r in neg.series[1:]] == [repr(r) for r in pos.series[1:]]

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

    def test_a_run_without_density_does_not_depend_on_the_mesh(self, params):
        # with no density there is no spatial coupling: every step is DT_MAX
        # at 2 stages, and the area grows by its reaction alone, bit for bit
        # the same on a fine and a coarse mesh
        outs = [
            run(smooth_config(
                dataclasses.replace(params, kernel=BoxKernel(width)),
                grid=grid, rho0=Constant(0.0), t_end=0.05,
            ))
            for grid, width in ((Grid(1e-4, 2048), 5e-6), (Grid(1.0, 1024), 0.05))
        ]
        for out in outs:
            assert out.halt_reason is HaltReason.REACHED_T_END
            assert (out.steps, out.rhs_evals) == (5, 10)
        fine, coarse = (set(out.final_state.A.values.tolist()) for out in outs)
        assert fine == coarse and len(fine) == 1

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="no guard tells an unstable step from a blow-up; the curvature cap halts it",
    )
    @pytest.mark.parametrize("kind", ["original", "sqrt"])
    def test_an_unstable_step_is_a_numerical_fault(self, kind, monkeypatch):
        # a share above RKC's stability interval grows grid noise; fig2's
        # curvature is negative at t = 0, so only a fault names this halt truly
        import xdiff.integrator as integrator

        monkeypatch.setattr(integrator, "STABILITY_SHARE", 1.1)
        out = run(preset_with_overrides("fig2-support", {"grid.N": "2048", "mode.kind": kind}))
        assert out.halt_reason is HaltReason.NUMERICAL_FAULT

    def test_snapshots_taken_at_crossing_times(self, params):
        cfg = smooth_config(params, snapshot_times=(0.0, 5e-4, 1e-3))
        out = run(cfg)
        assert len(out.snapshots) == 3
        assert out.snapshots[0].t == 0.0
        assert out.snapshots[1].t == 5e-4
        assert out.snapshots[2].t == 1e-3

    def test_a_step_shortened_to_a_snapshot_takes_fewer_stages(self, params, monkeypatch):
        # each step takes the fewest stages stable at its size, so a step cut
        # short to land on a snapshot time costs fewer right sides
        import xdiff.integrator as integrator

        taken = []
        step_arrays = integrator._step_arrays

        def recorded(stepper, v, f_v, dt, stages):
            taken.append((dt, stages))
            return step_arrays(stepper, v, f_v, dt, stages)

        monkeypatch.setattr(integrator, "_step_arrays", recorded)
        full = run(smooth_config(params, n=128))
        assert full.rhs_evals == sum(s for _, s in taken)
        (dt, stages), *_ = taken
        taken.clear()
        short = run(smooth_config(params, n=128, snapshot_times=(0.25 * dt,)))
        assert short.rhs_evals == sum(s for _, s in taken)
        assert short.snapshots[0].t == taken[0][0] == 0.25 * dt
        assert 2 <= taken[0][1] < stages

    def test_the_detector_wins_over_the_end_time_on_one_step(self):
        # fig1 at N = 512 halts on the detector at this time; with the end time
        # set to it, the last step lands on both, and the detector is read first
        t_halt = 0.004951605144497184
        cfg = preset_with_overrides("fig1-blowup", {"grid.N": "512", "run.t_end": repr(t_halt)})
        out = run(cfg)
        assert out.halt_reason is HaltReason.BLOWUP_DETECTED
        assert out.final_state.t == t_halt
        assert (out.steps, len(out.series)) == (60, 61)

    def test_snapshots_land_on_their_times(self):
        # steps are shortened to end on each snapshot time, so a snapshot
        # holds the state at its configured time, not at the end of the
        # first step past it
        for name, n in (("fig2-support", 512), ("fig2-support", 1024), ("fig1-blowup", 512)):
            cfg = preset_with_overrides(name, {"grid.N": str(n)})
            out = run(cfg)
            assert [s.t for s in out.snapshots] == list(cfg.snapshot_times), (name, n)

    @pytest.mark.parametrize("dt_max", [5e-5, 3e-5])
    def test_a_bound_a_rounding_error_short_of_a_snapshot_lands_on_it(self, dt_max, monkeypatch):
        # under these caps the bound falls a few ulps short of the time left to
        # the snapshot at 0.0045; stopping there would leave a sliver step of
        # about 1e-18, whose roundoff change of the curvature the detector
        # reads as a dip, moving the halt 6% later
        import xdiff.integrator as integrator

        monkeypatch.setattr(integrator, "DT_MAX", dt_max)
        out = run(preset("fig1-blowup"))
        assert out.halt_reason is HaltReason.BLOWUP_DETECTED
        # the preset records every step
        times = [rec.t for rec in out.series]
        assert len(times) == out.steps + 1
        assert min(np.diff(times)) >= DT_MIN
        assert out.final_state.t == pytest.approx(0.0048626, rel=0.01)

    def test_steps_summing_a_rounding_error_short_of_a_snapshot_land_on_it(self):
        # ten steps of DT_MAX = 0.01 sum to 0.09999999999999999; the tenth
        # lands on the snapshot instead of leaving a sliver step to it
        cfg = dataclasses.replace(
            preset("fig2-support"),
            rho0=Constant(0.0),
            grid=Grid(1.0, 64),
            t_end=1.0,
            snapshot_times=(0.1,),
        )
        out = run(cfg)
        assert out.halt_reason is HaltReason.REACHED_T_END
        assert not [rec.t for rec in out.series if 0.0999 < rec.t < 0.1]
        assert [s.t for s in out.snapshots] == [0.1]

    def test_negative_initial_data_rejected(self, params):
        cfg = smooth_config(params, rho0=Constant(-1.0))
        with pytest.raises(ValueError):
            run(cfg)

    @pytest.mark.parametrize(
        "key, mode",
        [
            ("rho0", RunMode()),
            ("rho0", RunMode("sqrt")),
            ("rho0", RunMode("regularized", eps=1e-3)),
            ("A0", RunMode()),
        ],
    )
    def test_initial_data_whose_mass_overflows_fail_by_name(self, params, key, mode):
        # 16 nodes of 1e308 sum to inf: rejected before smoothing and before
        # the t = 0 record, with no numpy warning on the way
        cfg = smooth_config(params, n=16, mode=mode, **{key: Constant(1e308)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{key} is too large: its mass on the grid"):
                run(cfg)

    @pytest.mark.parametrize("rho0, n", HUGE_DATA)
    def test_initial_density_whose_curvature_overflows_fails_by_name(self, params, rho0, n):
        cfg = smooth_config(params, n=n, rho0=rho0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match="^rho0 is too large: its central curvature on the grid overflows$"
            ):
                run(cfg)

    @pytest.mark.parametrize("a0, n", HUGE_DATA)
    def test_huge_area_data_record_and_then_fault_by_name(self, params, a0, n):
        # the area feeds no curvature: its energies are +inf at t = 0, and its
        # reaction overflows in the first step
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run(smooth_config(params, n=n, A0=a0))
        assert out.halt_reason is HaltReason.NUMERICAL_FAULT
        assert out.fault_detail == "non-finite values in area reaction terms"
        assert out.series[0].e_tilde == np.inf

    @pytest.mark.parametrize("record_every", [1, 1000], ids=["recorded", "per-step"])
    def test_a_finite_step_whose_curvature_overflows_faults_by_name(
        self, params, monkeypatch, record_every
    ):
        # a finite stepped density whose Nyquist mode overflows the central
        # curvature: the step's error state holds the curvature too, so the
        # run faults by name with no numpy warning
        import xdiff.integrator as integrator

        huge = np.stack((np.ones(16), np.where(np.arange(16) % 2, 1e307, 0.0)))
        monkeypatch.setattr(integrator, "_rkc", lambda u, dt, f, f_u, stages: huge.copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run(smooth_config(params, n=16, record_every=record_every))
        assert out.halt_reason is HaltReason.NUMERICAL_FAULT
        assert out.fault_detail == "non-finite central curvature after step"
        assert out.steps == 1
        assert out.series[-1].t == out.final_state.t
        assert not math.isfinite(out.series[-1].rho_xx_at_0)

    def test_non_finite_samples_fail_by_name(self, params, tmp_path):
        g = Grid(1.0, 16)
        values = np.ones(16)
        values[5] = np.inf
        path = tmp_path / "a0.csv"
        path.write_text("".join(f"{x!r},{v!r}\n" for x, v in zip(g.x.tolist(), values.tolist())))
        with pytest.raises(ValueError, match="^A0: field values must all be finite$"):
            run(smooth_config(params, n=16, A0=CsvData(str(path))))

    def test_mollified_compact_data_clip_only_roundoff(self, params):
        # eps = 1e-6 smooths these compact bumps with the 3-point Laplacian's
        # semigroup, a positive operator: the t = 0 state and the run clip
        # no more than the transforms' roundoff on the zero sets
        cfg = smooth_config(
            params,
            rho0=PolyBump(-140.0, -0.5, 0.5, 3, 0, 3),
            A0=PolyBump(-2000.0, -0.3, 0.3, 3, 0, 3),
            mode=RunMode("regularized", eps=1e-6),
            n=256,
            t_end=1e-4,
        )
        out = run(cfg)
        assert out.halt_reason is HaltReason.REACHED_T_END
        assert out.series[0].min_rho == 0.0 and out.series[0].min_A == 0.0
        initial = out.initial_mass_A + out.initial_mass_rho
        assert out.clipped_mass_A + out.clipped_mass_rho <= 1e-15 * initial

    def test_negative_data_rejected_before_mollifying(self, params):
        # the check reads the samples, not the smoothed data
        cfg = smooth_config(
            params,
            rho0=PolyBump(140.0, -0.5, 0.5, 3, 0, 3),
            mode=RunMode("regularized", eps=1e-6),
        )
        with pytest.raises(ValueError, match="rho0 must be nonnegative"):
            run(cfg)

    def test_field_count_does_not_grow_with_the_run(self, params, monkeypatch):
        # Fields are built for the initial data, the snapshots and the final
        # state only, never per step or per record
        built = []
        post_init = Field.__post_init__

        def counted(field):
            built.append(field)
            post_init(field)

        monkeypatch.setattr(Field, "__post_init__", counted)
        runs = []
        for t_end in (1e-4, 0.1):
            built.clear()
            cfg = smooth_config(
                params, n=128, t_end=t_end, record_every=1, snapshot_times=(0.0, 1e-4)
            )
            out = run(cfg)
            runs.append((len(built), len(out.series)))
        (short_fields, short_records), (long_fields, long_records) = runs
        assert long_records > 5 * short_records
        assert long_fields == short_fields

    def test_sqrt_mode_matches_original_on_smooth_state(self, params):
        out_orig = run(smooth_config(params))
        out_sqrt = run(smooth_config(params, mode=RunMode("sqrt")))
        assert out_sqrt.halt_reason is HaltReason.REACHED_T_END
        r1 = out_orig.final_state.rho.values
        r2 = out_sqrt.final_state.rho.values
        assert np.max(np.abs(r1 - r2)) <= 1e-8 * np.max(np.abs(r1))

    def test_regularized_mode_smooths_initial_data(self, params):
        rho0 = PolyBump(-140.0, -0.5, 0.5, 3, 0, 3)
        cfg = smooth_config(
            params,
            rho0=rho0,
            A0=Constant(1.0),
            mode=RunMode("regularized", eps=1e-3),
            t_end=1e-4,
        )
        out = run(cfg)
        assert out.halt_reason is HaltReason.REACHED_T_END
        # the t = 0 record reads the mollified data, not the samples
        samples = rho0.sample(Grid(1.0, 64))
        peak = float(smooth(samples.values, heat_multiplier(samples.grid, 1e-3)).max())
        assert out.series[0].max_rho == peak < float(samples.values.max())

    @pytest.mark.parametrize("eps, built", [(1e-3, [1e-3]), (0.0, [])])
    def test_a_mollified_run_builds_its_heat_multiplier_once(self, params, monkeypatch, eps, built):
        # one multiplier serves the stages and the initial data; at eps = 0
        # there is none, and the run is the original form's bit for bit
        import xdiff.integrator as integrator

        calls, real = [], integrator.heat_multiplier
        monkeypatch.setattr(
            integrator, "heat_multiplier", lambda grid, e: calls.append(e) or real(grid, e)
        )
        out = run(smooth_config(params, mode=RunMode("regularized", eps=eps), t_end=1e-4))
        assert out.halt_reason is HaltReason.REACHED_T_END and out.steps > 0
        assert calls == built
        if not eps:
            assert out.series == run(smooth_config(params, t_end=1e-4)).series

    def test_records_agree_with_public_diagnostics(self, params):
        # the run's internal record assembly must match what the public
        # operators compute on the final state
        from xdiff.diagnostics import hull, second_derivative_at_center, support, symmetry_defect
        from xdiff.model import energy

        out = run(smooth_config(params, record_every=1))
        last = out.series[-1]
        st = out.final_state
        assert last.t == st.t
        assert last.rho_xx_at_0 == second_derivative_at_center(st.grid, st.rho.values)
        assert (last.supp_rho_lo, last.supp_rho_hi) == hull(support(st.grid, st.rho.values))
        assert (last.supp_A_lo, last.supp_A_hi) == hull(support(st.grid, st.A.values))
        assert last.mass_rho == float(np.sum(st.rho.values) * st.grid.dx)
        assert last.symmetry_defect_rho == symmetry_defect(st.rho.values)
        spectra = _energy_spectra(st.A.values, st.rho.values)
        assert (last.e_tilde, last.e_sqrt) == energy(st.grid, spectra)

    def test_a_record_makes_one_fft_call(self, params, monkeypatch):
        # one rfft of the stacked (rho, A, sqrt(rho)) feeds both the energies,
        # by Parseval, and the central curvature, which are still called by
        # their names in this module, so a wrapper installed there sees each call
        import xdiff.integrator as integrator

        g = Grid(1.0, 64)
        a, r = np.ones(64), 1.0 + 0.1 * np.cos(np.pi * g.x)
        expected = _record(g, 0.0, a, r, np.empty(0, dtype=int))
        calls = []
        for module, name in (
            (np.fft, "rfft"),
            (np.fft, "irfft"),
            (integrator, "energy"),
            (integrator, "second_derivative_at_center"),
        ):

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        record = _record(g, 0.0, a, r, np.empty(0, dtype=int))
        assert record == expected
        assert [c for c in calls if "fft" in c] == ["rfft"]
        assert calls.count("energy") == calls.count("second_derivative_at_center") == 1

    def test_clip_budget_flags_numerical_fault(self, params, monkeypatch):
        # a step that leaves more negative mass than the budget allows must be
        # reported as a fault, not silently eaten.  Both fluxes keep their
        # zero sets and the mollifier is a positive operator, so no natural
        # data overrun the budget; a wrapped step leaves one negative entry,
        # 1.25e-7 of mass against the budget of 1e-8 of about 4
        import xdiff.integrator as integrator

        rkc = integrator._rkc

        def undershooting(u, dt, f, f_u, stages):
            out = rkc(u, dt, f, f_u, stages)
            out[0, 3] = -1e-6
            return out

        monkeypatch.setattr(integrator, "_rkc", undershooting)
        out = run(smooth_config(params, n=16, t_end=1.0))
        assert out.halt_reason is HaltReason.NUMERICAL_FAULT
        assert "clipped mass" in out.fault_detail
        assert out.steps == 1

    def test_an_initial_dip_within_tolerance_is_clipped_and_charged(self, params):
        # the t = 0 clip is charged like a step's: data that dip below zero
        # within POSITIVITY_TOL are accepted, clipped to zero and counted, and
        # the clip counts against the budget of the run's first step
        dip, dx = 5e-13, 2.0 / 16
        data = dict(n=16, rho0=Cosine(1e-6 - dip, 1e-6, 1), A0=Constant(0.0))  # min at x = -1
        out = run(smooth_config(params, t_end=0.0, **data))
        assert out.halt_reason is HaltReason.REACHED_T_END
        assert out.series[0].min_rho == 0.0
        assert out.clipped_mass_rho == pytest.approx(dip * dx, rel=1e-6)
        # that clip alone is over 1e-8 of this small initial mass, about 2e-6
        out = run(smooth_config(params, t_end=1e-3, **data))
        assert out.halt_reason is HaltReason.NUMERICAL_FAULT
        assert "clipped mass" in out.fault_detail
        assert out.steps == 1


# ---------------------------------------------------------------------------
# the blow-up detector on synthetic curvature histories
# ---------------------------------------------------------------------------


def first_halt(ts, ys):
    """Index of the first entry after t = 0 at which the detector fires, fed as a run feeds it."""
    y0 = y = float(ys[0])
    last_dip = -math.inf
    for i in range(1, len(ts)):
        t, curvature = float(ts[i]), float(ys[i])
        if curvature <= y:
            last_dip = t
        y = curvature
        if _blowup_detected(t, y, y0, last_dip):
            return i
    return None


def history_detector(ts, ys):
    """The detector as a backward scan of the whole history, the oracle of ``_blowup_detected``:
    the curvature has risen at every entry since the last one at least RISE_WINDOW/y0 back,
    and the entries span that window."""
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


def first_halt_of_history(ts, ys):
    """``first_halt`` through the oracle, fed each prefix of the history."""
    return next((i for i in range(1, len(ts)) if history_detector(ts[: i + 1], ys[: i + 1])), None)


@st.composite
def curvature_history(draw):
    """Times and central curvatures from t = 0: initial curvatures of both signs,
    steps that are tiny, exact fractions of the window or anything up to it, and
    rises, plateaus, dips, landings on the growth threshold and jumps over the cap."""
    y0 = draw(st.one_of(st.floats(1e-3, 1e4), st.just(0.0), st.floats(-1e4, -1e-3)))
    window = RISE_WINDOW / abs(y0) if y0 else RISE_WINDOW
    scale = max(abs(y0), 1.0)
    ts, ys = [0.0], [y0]
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(["tiny", "fraction", "any"]))
        if kind == "tiny":
            dt = draw(st.floats(0.0, 1e-12)) * window
        elif kind == "fraction":
            dt = window / draw(st.integers(1, 8))
        else:
            dt = draw(st.floats(0.0, 1.0)) * window
        move = draw(st.sampled_from(["rise", "plateau", "dip", "threshold", "jump"]))
        y = ys[-1]
        if move == "rise":
            y += draw(st.floats(0.0, 5.0, exclude_min=True)) * scale
        elif move == "dip":
            y -= draw(st.floats(0.0, 5.0)) * scale
        elif move == "threshold":
            y = CURVATURE_GROWTH * y0
        elif move == "jump":
            y = draw(st.floats(BLOWUP_CAP, 2.0 * BLOWUP_CAP))
        ts.append(ts[-1] + dt)
        ys.append(y)
    return ts, ys


def comparison_history(y0, cadence):
    """Records of y(t) = 1/(1/y0 - t), which solves y' = y^2 and passes 10*y0 at
    t = 0.9/y0, every ``cadence / y0`` up to t = 0.98/y0 (y = 50*y0)."""
    ts = np.arange(int(0.98 / cadence)) * (cadence / y0)
    return ts, 1.0 / (1.0 / y0 - ts)


CADENCES = [1e-4, 1e-2]  # record intervals in units of 1/y0, 100x apart


def quarter_steps(ys):
    """``ys`` at steps of a quarter window of y0 = ys[0], summed as a run sums them."""
    ts = [0.0]
    for _ in ys[1:]:
        ts.append(ts[-1] + RISE_WINDOW / ys[0] / 4)
    return ts, ys


class TestBlowupDetector:
    @pytest.mark.parametrize("cadence", CADENCES)
    @pytest.mark.parametrize("y0", [0.5, 62.5, 1e4])
    def test_fires_at_the_first_record_past_ten_y0(self, y0, cadence):
        ts, ys = comparison_history(y0, cadence)
        assert first_halt(ts, ys) == int(np.argmax(ys > 10.0 * y0))

    @pytest.mark.parametrize("cadence", CADENCES)
    def test_one_dip_holds_it_until_the_dip_leaves_the_window(self, cadence):
        y0 = 62.5
        ts, ys = comparison_history(y0, cadence)
        past = int(np.argmax(ys > 10.0 * y0))
        dip = past - 1
        ys[dip] = ys[dip - 2]
        # the window is 0.04/y0: the first record whose window starts at or after the dip
        clear = next(i for i in range(past, len(ts)) if ts[dip] <= ts[i] - 0.04 / y0)
        assert first_halt(ts, ys) == clear > past

    def test_window_counts_only_once_records_span_it(self):
        y0 = 62.5
        ts = np.array([0.0, 0.01, 0.03, 0.05]) / y0
        assert first_halt(ts, [y0, 20 * y0, 30 * y0, 40 * y0]) == 3

    @pytest.mark.parametrize("y0", [0.0, -1.0])
    def test_nonpositive_initial_curvature_never_arms_growth(self, y0):
        ts, ys = comparison_history(62.5, 1e-3)
        assert first_halt(ts, ys - ys[0] + y0) is None
        assert first_halt([0.0, 1.0], [y0, 9e5]) is None

    @pytest.mark.parametrize("y0", [-1.0, 0.0, 62.5])
    def test_cap_fires_for_any_initial_curvature(self, y0):
        assert first_halt([0.0, 1e-9], [y0, 1.0000001e6]) == 1
        assert first_halt([0.0, 1e-9], [y0, 1e6]) is None

    @settings(max_examples=200, deadline=None)
    @given(history=curvature_history())
    # the window's start lands on t = 0 exactly at the fourth step; with a
    # plateau at the first step, it passes that step only at the sixth
    @example(history=quarter_steps([62.5, 63.0, 700.0, 800.0, 900.0, 1e3, 1.1e3]))
    @example(history=quarter_steps([62.5, 62.5, 700.0, 800.0, 900.0, 1e3, 1.1e3]))
    def test_the_latest_dip_decides_as_the_history_scan_does(self, history):
        # the run keeps only y0, the latest curvature and the latest dip time;
        # a scan back through every entry fires at the same index
        ts, ys = history
        assert first_halt(ts, ys) == first_halt_of_history(ts, ys)


# ---------------------------------------------------------------------------
# properties over whole runs, in all three forms
# ---------------------------------------------------------------------------

PARAMS = ModelParams(kernel=BoxKernel(0.05), **REFERENCE)  # fixtures do not reset between examples


@st.composite
def even_data(draw):
    """Even nonnegative data mean + amp*cos(m*pi*x); mean = |amp| touches zero."""
    amp = draw(st.floats(-1.0, 1.0))
    lift = 0.0 if draw(st.booleans()) else draw(st.floats(0.0, 1.0))
    return Cosine(abs(amp) + lift, amp, draw(st.integers(0, 4)))


@st.composite
def run_mode(draw):
    kind = draw(st.sampled_from(["original", "regularized", "sqrt"]))
    if kind != "regularized":
        return RunMode(kind)
    return RunMode(kind, eps=draw(st.floats(0.0, 1e-2)))


class TestRunProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        rho0=even_data(),
        a0=even_data(),
        mode=run_mode(),
        n=st.sampled_from([32, 64]),
    )
    # a subnormal area on a zero density: initial mass and clip budget are
    # subnormal too, so one rounding below zero faults the run
    @example(rho0=Cosine(0.0, 0.0, 0), a0=Cosine(5e-324, 0.0, 0), mode=RunMode(), n=32)
    def test_even_nonnegative_data_stays_even_and_nonnegative(self, rho0, a0, mode, n):
        cfg = smooth_config(
            PARAMS,
            n=n,
            rho0=rho0,
            A0=a0,
            mode=mode,
            t_end=2e-3,
            record_every=1,
        )
        out = run(cfg)
        assert out.halt_reason is HaltReason.REACHED_T_END, out.fault_detail
        for rec in out.series:
            assert rec.min_rho >= 0.0 and rec.min_A >= 0.0
            assert rec.symmetry_defect_rho <= 1e-12 * max(rec.max_rho, 1.0)


class TestErrorState:
    @pytest.mark.parametrize("kind", ["original", "regularized", "sqrt"])
    def test_a_run_enters_one_error_state_and_its_records_none(self, params, kind, monkeypatch):
        # entering np.errstate costs microseconds, so a run holds one scope
        # from its first record to its last, and the energies share it
        import xdiff.integrator as integrator

        entered = {"record": 0, "run": 0}
        in_record = []
        errstate, record = np.errstate, integrator._record

        def counted_errstate(*args, **kwargs):
            entered["record" if in_record else "run"] += 1
            return errstate(*args, **kwargs)

        def counted_record(*args):
            in_record.append(True)
            try:
                return record(*args)
            finally:
                in_record.pop()

        monkeypatch.setattr(np, "errstate", counted_errstate)
        monkeypatch.setattr(integrator, "_record", counted_record)
        mode = RunMode(kind, eps=1e-3) if kind == "regularized" else RunMode(kind)
        # the snapshots split the run into several steps
        out = run(smooth_config(params, mode=mode, snapshot_times=(2.5e-4, 5e-4, 7.5e-4)))
        assert out.halt_reason is HaltReason.REACHED_T_END
        assert out.rhs_evals > out.steps >= 4
        assert len(out.series) > 1
        assert entered == {"record": 0, "run": 1}

    def test_a_stepped_state_whose_sum_overflows_is_not_a_fault(self, params, monkeypatch):
        # one reduction checks the stepped state; when its sum overflows, the
        # entries decide
        import xdiff.integrator as integrator

        g = Grid(1.0, 32)
        big = np.full((2, 32), 1e307)
        # the scheme ignores its first stage, and f(big) would overflow
        keep, unused = lambda v, dt, f, f_v, stages: v.copy(), np.zeros_like(big)
        monkeypatch.setattr(integrator, "_rkc", keep)
        stepper = _Stepper(g, params, RunMode())
        with _unchecked():
            assert np.sum(big) == np.inf
            u, clipped_a, clipped_rho = _step_arrays(stepper, big, unused, 1e-6, 4)
        assert u.tobytes() == big.tobytes()
        assert clipped_a == clipped_rho == 0.0
        big[1, 5] = np.inf
        with _unchecked(), pytest.raises(NumericalFault, match="^non-finite state after step$"):
            _step_arrays(stepper, big, unused, 1e-6, 4)
