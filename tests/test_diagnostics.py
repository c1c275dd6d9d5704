import math

import numpy as np
import pytest

from xdiff.diagnostics import second_derivative_at_center, support, symmetry_defect, t_star
from xdiff.grid import Field, make_grid
from xdiff.model import State


class TestSecondDerivativeAtCenter:
    def test_blowup_datum_curvature(self):
        # -2000(x+1/2)^3 x^2 (x-1/2)^3 = 31.25 x^2 + O(x^4) near the center
        g = make_grid(1.0, 1024)
        vals = np.where(
            np.abs(g.x) <= 0.5, -2000.0 * (g.x**2) * (g.x**2 - 0.25) ** 3, 0.0
        )
        s = State(t=0.0, A=Field(g, np.zeros(1024)), rho=Field(g, vals))
        assert second_derivative_at_center(s) == pytest.approx(62.5, rel=0.01)

    def test_smooth_parabola_like_profile(self):
        # (2L/pi)^2 sin^2(pi x / 2L) equals x^2 + O(x^4) at the center and is
        # exactly periodic, so the spectral curvature there is exactly 2
        g = make_grid(1.0, 64)
        b = np.pi / (2 * g.half_length)
        s = State(
            t=0.0,
            A=Field(g, np.zeros(64)),
            rho=Field(g, (np.sin(b * g.x) / b) ** 2),
        )
        assert second_derivative_at_center(s) == pytest.approx(2.0, abs=1e-6)

    def test_constant_has_zero_curvature(self):
        g = make_grid(1.0, 64)
        s = State(t=0.0, A=Field(g, np.zeros(64)), rho=Field(g, np.full(64, 3.0)))
        assert abs(second_derivative_at_center(s)) < 1e-12


class TestSupport:
    def test_compact_bump_single_interval(self):
        g = make_grid(1.0, 1024)
        vals = np.where(np.abs(g.x) <= 0.5, -140.0 * (g.x**2 - 0.25) ** 3, 0.0)
        intervals = support(Field(g, vals))
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert abs(lo - (-0.5)) <= 2 * g.dx
        assert abs(hi - 0.5) <= 2 * g.dx

    def test_zero_field_has_empty_support(self):
        g = make_grid(1.0, 64)
        assert support(Field(g, np.zeros(64))) == []

    def test_positive_constant_covers_the_circle(self):
        g = make_grid(1.0, 64)
        assert support(Field(g, np.ones(64))) == [(-1.0, 1.0)]

    def test_two_bumps_give_two_intervals(self):
        g = make_grid(1.0, 256)
        vals = np.zeros(256)
        vals[(g.x > -0.8) & (g.x < -0.6)] = 1.0
        vals[(g.x > 0.2) & (g.x < 0.5)] = 1.0
        intervals = support(Field(g, vals))
        assert len(intervals) == 2
        assert intervals[0][1] < intervals[1][0]

    def test_seam_crossing_support_reports_clamped_pieces(self):
        g = make_grid(1.0, 256)
        vals = np.where(np.abs(g.x) >= 0.9, 1.0, 0.0)
        intervals = support(Field(g, vals))
        assert len(intervals) == 2
        assert intervals[0][0] == -1.0
        assert intervals[1][1] == 1.0

    def test_relative_default_threshold(self):
        g = make_grid(1.0, 64)
        vals = np.zeros(64)
        vals[10] = 1.0
        vals[40] = 1e-11  # below 1e-9 * max(f, 1)
        intervals = support(Field(g, vals))
        assert len(intervals) == 1

    def test_explicit_threshold(self):
        g = make_grid(1.0, 64)
        vals = np.zeros(64)
        vals[10] = 1.0
        vals[40] = 0.5
        assert len(support(Field(g, vals), threshold=0.75)) == 1
        with pytest.raises(ValueError):
            support(Field(g, vals), threshold=0.0)


class TestSymmetryDefect:
    def test_even_field_has_zero_defect(self):
        g = make_grid(1.0, 64)
        assert symmetry_defect(Field(g, np.cos(np.pi * g.x))) == 0.0

    def test_odd_field_defect_is_twice_the_sup(self):
        g = make_grid(1.0, 64)
        assert symmetry_defect(Field(g, np.sin(np.pi * g.x))) == pytest.approx(2.0)

    def test_matches_bruteforce_reflection_scan(self):
        g = make_grid(1.0, 64)
        vals = np.random.default_rng(3).normal(size=64)
        f = Field(g, vals)
        brute = max(
            abs(vals[j] - vals[(g.n_points - j) % g.n_points])
            for j in range(g.n_points)
        )
        assert symmetry_defect(f) == brute


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

    def test_solution_formula_against_numerical_integration(self):
        # independent check: RK4 on y' = y^2 - theta*y with a step shrinking
        # as 1/y, integrated until y is huge; the crossing time plus the
        # remaining-tail estimate must land within 1% of the closed form
        y0, theta = 62.5, 0.075
        target = t_star(y0, theta)

        def f(y):
            return y * y - theta * y

        y, t = y0, 0.0
        while y < 1e7:
            dt = 1e-3 / y
            k1 = f(y)
            k2 = f(y + 0.5 * dt * k1)
            k3 = f(y + 0.5 * dt * k2)
            k4 = f(y + dt * k3)
            y += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        t_hat = t + 1.0 / y  # remaining time to infinity for y' ~ y^2
        assert t_hat == pytest.approx(target, rel=0.01)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            t_star(1.0, -0.1)

