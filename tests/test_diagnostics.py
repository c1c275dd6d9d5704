import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xdiff.diagnostics import second_derivative_at_center, support, symmetry_defect, t_star
from xdiff.grid import Grid


class TestSecondDerivativeAtCenter:
    def test_blowup_datum_curvature(self):
        # -2000(x+1/2)^3 x^2 (x-1/2)^3 = 31.25 x^2 + O(x^4) near the center
        g = Grid(1.0, 1024)
        vals = np.where(
            np.abs(g.x) <= 0.5, -2000.0 * (g.x**2) * (g.x**2 - 0.25) ** 3, 0.0
        )
        assert second_derivative_at_center(g, vals) == pytest.approx(62.5, rel=0.01)

    def test_smooth_parabola_like_profile(self):
        # (2L/pi)^2 sin^2(pi x / 2L) equals x^2 + O(x^4) at the center and is
        # exactly periodic, so the spectral curvature there is exactly 2
        g = Grid(1.0, 64)
        b = np.pi / (2 * g.half_length)
        rho = (np.sin(b * g.x) / b) ** 2
        assert second_derivative_at_center(g, rho) == pytest.approx(2.0, abs=1e-6)

    def test_constant_has_zero_curvature(self):
        g = Grid(1.0, 64)
        assert abs(second_derivative_at_center(g, np.full(64, 3.0))) < 1e-12

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_one_transform_matches_the_full_inverse(self, n, monkeypatch):
        # the x = 0 node of the inverse transform, summed from one rfft
        calls = []

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        g = Grid(1.0, n)
        rho = np.random.default_rng(n).normal(size=n)  # every mode, Nyquist included
        value = second_derivative_at_center(g, rho)
        assert calls == ["rfft"]
        monkeypatch.undo()
        full = g.deriv_values(rho, 2)
        assert value == pytest.approx(full[g.n_points // 2], abs=1e-14 * np.max(np.abs(full)))


class TestSupport:
    def test_compact_bump_single_interval(self):
        g = Grid(1.0, 1024)
        vals = np.where(np.abs(g.x) <= 0.5, -140.0 * (g.x**2 - 0.25) ** 3, 0.0)
        intervals = support(g, vals)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert abs(lo - (-0.5)) <= 2 * g.dx
        assert abs(hi - 0.5) <= 2 * g.dx

    def test_zero_field_has_empty_support(self):
        g = Grid(1.0, 64)
        assert support(g, np.zeros(64)) == []

    def test_positive_constant_covers_the_circle(self):
        g = Grid(1.0, 64)
        assert support(g, np.ones(64)) == [(-1.0, 1.0)]

    def test_two_bumps_give_two_intervals(self):
        g = Grid(1.0, 256)
        vals = np.zeros(256)
        vals[(g.x > -0.8) & (g.x < -0.6)] = 1.0
        vals[(g.x > 0.2) & (g.x < 0.5)] = 1.0
        intervals = support(g, vals)
        assert len(intervals) == 2
        assert intervals[0][1] < intervals[1][0]

    def test_seam_crossing_support_reports_clamped_pieces(self):
        g = Grid(1.0, 256)
        vals = np.where(np.abs(g.x) >= 0.9, 1.0, 0.0)
        intervals = support(g, vals)
        assert len(intervals) == 2
        assert intervals[0][0] == -1.0
        assert intervals[1][1] == 1.0

    def test_relative_default_threshold(self):
        g = Grid(1.0, 64)
        vals = np.zeros(64)
        vals[10] = 1.0
        vals[40] = 1e-11  # below 1e-9 * max(f, 1)
        intervals = support(g, vals)
        assert len(intervals) == 1

    def test_explicit_threshold(self):
        g = Grid(1.0, 64)
        vals = np.zeros(64)
        vals[10] = 1.0
        vals[40] = 0.5
        assert len(support(g, vals, threshold=0.75)) == 1
        with pytest.raises(ValueError):
            support(g, vals, threshold=0.0)


class TestSymmetryDefect:
    def test_even_field_has_zero_defect(self):
        g = Grid(1.0, 64)
        assert symmetry_defect(np.cos(np.pi * g.x)) == 0.0

    def test_odd_field_defect_is_twice_the_sup(self):
        g = Grid(1.0, 64)
        assert symmetry_defect(np.sin(np.pi * g.x)) == pytest.approx(2.0)

    def test_matches_bruteforce_reflection_scan(self):
        # every length, odd ones and the self-paired single node included
        rng = np.random.default_rng(3)
        for n in range(1, 65):
            vals = rng.normal(size=n)
            brute = max(abs(vals[j] - vals[(n - j) % n]) for j in range(n))
            assert symmetry_defect(vals) == brute, n


class TestComparisonOde:
    def test_reference_blowup_time(self):
        assert t_star(62.5, 0.075) == pytest.approx(1.6009e-2, rel=1e-4)

    def test_equilibrium_start_never_blows_up(self):
        assert t_star(0.075, 0.075) == math.inf
        assert t_star(0.05, 0.075) == math.inf
        assert t_star(-3.0, 0.075) == math.inf

    def test_vanishing_damping_limit(self):
        y0 = 62.5
        assert t_star(y0, 0.0) == 1.0 / y0
        assert t_star(y0, 1e-9) == pytest.approx(1.0 / y0, rel=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(y0=st.floats(1e-2, 1e4), ratio=st.floats(0.0, 0.99))
    @example(y0=62.5, ratio=0.075 / 62.5)
    def test_solution_formula_against_numerical_integration(self, y0, ratio):
        # independent check for supercritical data y0 > theta: RK4 on
        # y' = y^2 - theta*y with a step shrinking as 1/y, integrated until y
        # is huge; the crossing time plus the remaining-tail estimate must
        # land on the closed form
        theta = ratio * y0
        target = t_star(y0, theta)

        def f(y):
            return y * y - theta * y

        y, t = y0, 0.0
        while y < 1e6 * y0:
            dt = 1e-3 / y
            k1 = f(y)
            k2 = f(y + 0.5 * dt * k1)
            k3 = f(y + 0.5 * dt * k2)
            k4 = f(y + dt * k3)
            y += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        t_hat = t + 1.0 / y  # remaining time to infinity for y' ~ y^2
        assert t_hat == pytest.approx(target, rel=1e-6)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            t_star(1.0, -0.1)

