import numpy as np
import pytest

from xdiff.grid import Field, deriv, integrate, make_grid, norms


def band_limited(grid, rng, n_modes=6, offset=0.0):
    """Random smooth periodic field with a few low modes."""
    vals = np.full(grid.n_points, offset)
    for m in range(1, n_modes + 1):
        vals += rng.normal() * np.cos(m * np.pi * grid.x / grid.half_length)
        vals += rng.normal() * np.sin(m * np.pi * grid.x / grid.half_length)
    return Field(grid, vals)


class TestMakeGrid:
    def test_basic_layout(self):
        g = make_grid(1.0, 16)
        assert g.dx == 0.125
        assert g.x[0] == -1.0
        assert np.all(np.diff(g.x) > 0)
        assert g.x[g.index_of_zero()] == 0.0

    def test_large_grid_spacing(self):
        g = make_grid(1.0, 1024)
        assert g.dx == pytest.approx(1.953125e-3, rel=0, abs=0)
        assert g.dx * g.n_points == pytest.approx(2.0, rel=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 4)
        with pytest.raises(ValueError):
            make_grid(1.0, 15)
        with pytest.raises(ValueError):
            make_grid(1.0, 17)
        with pytest.raises(ValueError):
            make_grid(0.0, 16)
        with pytest.raises(ValueError):
            make_grid(-2.0, 16)

    def test_grid_equality_is_by_value(self):
        assert make_grid(1.0, 64) == make_grid(1.0, 64)
        assert make_grid(1.0, 64) != make_grid(2.0, 64)


class TestField:
    def test_length_mismatch_rejected(self):
        g = make_grid(1.0, 16)
        with pytest.raises(ValueError):
            Field(g, np.zeros(17))

    def test_nonfinite_rejected(self):
        g = make_grid(1.0, 16)
        bad = np.zeros(16)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(g, bad)

    def test_values_are_locked_copies(self):
        g = make_grid(1.0, 16)
        src = np.ones(16)
        f = Field(g, src)
        src[0] = 7.0
        assert f.values[0] == 1.0
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestDeriv:
    def test_constant_derivative_is_zero(self):
        g = make_grid(1.0, 64)
        d = deriv(Field(g, np.full(64, 3.7)), 1)
        assert np.max(np.abs(d.values)) < 1e-14

    def test_first_derivative_of_resolved_mode(self):
        g = make_grid(1.0, 64)
        f = Field(g, np.sin(np.pi * g.x))
        d = deriv(f, 1)
        assert np.max(np.abs(d.values - np.pi * np.cos(np.pi * g.x))) <= 1e-10

    def test_second_derivative_of_mode_three(self):
        g = make_grid(1.0, 128)
        f = Field(g, np.sin(3 * np.pi * g.x))
        d = deriv(f, 2)
        expected = -((3 * np.pi) ** 2) * np.sin(3 * np.pi * g.x)
        assert np.max(np.abs(d.values - expected)) <= 1e-10

    def test_invalid_order_rejected(self):
        g = make_grid(1.0, 16)
        with pytest.raises(ValueError):
            deriv(Field(g, np.ones(16)), 5)
        with pytest.raises(ValueError):
            deriv(Field(g, np.ones(16)), 0)

    def test_linearity(self):
        g = make_grid(1.0, 128)
        rng = np.random.default_rng(7)
        f, h = band_limited(g, rng), band_limited(g, rng)
        a, b = 2.5, -1.25
        lhs = deriv(Field(g, a * f.values + b * h.values), 1).values
        rhs = a * deriv(f, 1).values + b * deriv(h, 1).values
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_composition_matches_second_order(self):
        g = make_grid(1.0, 128)
        f = band_limited(g, np.random.default_rng(11))
        twice = deriv(deriv(f, 1), 1).values
        second = deriv(f, 2).values
        scale = np.max(np.abs(second))
        assert np.max(np.abs(twice - second)) <= 1e-8 * scale

    def test_derivative_integrates_to_zero(self):
        g = make_grid(1.0, 128)
        rng = np.random.default_rng(3)
        f = Field(g, rng.normal(size=128))  # arbitrary rough field
        assert abs(integrate(deriv(f, 1))) <= 1e-10

    def test_even_field_maps_to_odd_then_even(self):
        g = make_grid(1.0, 128)
        rng = np.random.default_rng(5)
        vals = np.zeros(128)
        for m in range(1, 9):
            vals += rng.normal() * np.cos(m * np.pi * g.x)
        f = Field(g, vals)
        refl = lambda v: v[(-np.arange(g.n_points)) % g.n_points]
        d1 = deriv(f, 1).values
        d2 = deriv(f, 2).values
        assert np.max(np.abs(d1 + refl(d1))) <= 1e-10  # odd
        assert np.max(np.abs(d2 - refl(d2))) <= 1e-10  # even


class TestIntegrateAndNorms:
    def test_constant_measures_domain(self):
        g = make_grid(1.0, 64)
        assert integrate(Field(g, np.ones(64))) == pytest.approx(2.0, abs=1e-14)
        g_half = make_grid(0.5, 64)
        assert integrate(Field(g_half, np.ones(64))) == pytest.approx(1.0, abs=1e-14)

    def test_odd_function_integrates_to_zero(self):
        g = make_grid(1.0, 64)
        assert abs(integrate(Field(g, np.sin(np.pi * g.x)))) <= 1e-12

    def test_norms_of_constant(self):
        g = make_grid(1.0, 64)
        n = norms(Field(g, np.ones(64)))
        assert n.l2 == pytest.approx(np.sqrt(2.0), rel=1e-14)
        assert n.linf == 1.0
        assert n.min == 1.0

    def test_l2_of_sine(self):
        # integral of sin^2 over a full period is half the domain length
        g = make_grid(1.0, 128)
        n = norms(Field(g, np.sin(np.pi * g.x)))
        assert n.l2 == pytest.approx(1.0, abs=1e-10)

    def test_zero_field(self):
        g = make_grid(1.0, 16)
        n = norms(Field(g, np.zeros(16)))
        assert (n.l2, n.linf, n.min) == (0.0, 0.0, 0.0)

