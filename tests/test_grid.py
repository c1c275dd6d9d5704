import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xdiff.diagnostics import symmetry_defect
from xdiff.grid import Field, Grid, InvalidValue, all_finite, mirror
from xdiff.kernel import EVENNESS_TOL, SampledKernel

from spectral import derivative


def band_limited(grid, rng, n_modes=6, offset=0.0):
    """Random smooth periodic field with a few low modes."""
    vals = np.full(grid.n_points, offset)
    for m in range(1, n_modes + 1):
        vals += rng.normal() * np.cos(m * np.pi * grid.x / grid.half_length)
        vals += rng.normal() * np.sin(m * np.pi * grid.x / grid.half_length)
    return Field(grid, vals)


class TestMakeGrid:
    def test_basic_layout(self):
        g = Grid(1.0, 16)
        assert g.dx == 0.125
        assert g.x[0] == -1.0
        assert np.all(np.diff(g.x) > 0)
        assert g.x[g.n_points // 2] == 0.0

    def test_large_grid_spacing(self):
        g = Grid(1.0, 1024)
        assert g.dx == pytest.approx(1.953125e-3, rel=0, abs=0)
        assert g.dx * g.n_points == pytest.approx(2.0, rel=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            Grid(1.0, 4)
        with pytest.raises(ValueError):
            Grid(1.0, 15)
        with pytest.raises(ValueError):
            Grid(1.0, 17)
        with pytest.raises(ValueError):
            Grid(0.0, 16)
        with pytest.raises(ValueError):
            Grid(-2.0, 16)

    @pytest.mark.parametrize("half_length", [1e308, 1e-310])
    def test_rejects_a_half_length_that_overflows_the_layout(self, half_length):
        # finite and positive, but 2L/N is inf at 1e308 and pi*m/L is inf or
        # nan at 1e-310
        with pytest.raises(InvalidValue) as exc:
            Grid(half_length, 16)
        assert exc.value.field == "half_length"
        assert exc.value.problem == (
            f"gives a non-finite spacing or wavenumbers on 16 points, got {half_length}"
        )

    def test_grid_equality_is_by_value(self):
        assert Grid(1.0, 64) == Grid(1.0, 64)
        assert Grid(1.0, 64) != Grid(2.0, 64)


class TestField:
    def test_length_mismatch_rejected(self):
        g = Grid(1.0, 16)
        with pytest.raises(ValueError):
            Field(g, np.zeros(17))

    def test_nonfinite_rejected(self):
        g = Grid(1.0, 16)
        bad = np.zeros(16)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(g, bad)

    @settings(max_examples=200, deadline=None)
    @given(
        values=arrays(
            np.float64,
            st.tuples(st.integers(1, 2), st.integers(1, 64)),
            elements=st.one_of(st.floats(allow_nan=True), st.sampled_from([1e308, -1e308, 1e155])),
        )
    )
    def test_all_finite_is_the_entrywise_test(self, values):
        # huge finite entries overflow the one-product fast path and are
        # decided entry by entry, with no floating-point warning
        assert all_finite(values) == bool(np.isfinite(values).all())

    def test_values_are_locked_copies(self):
        g = Grid(1.0, 16)
        src = np.ones(16)
        f = Field(g, src)
        src[0] = 7.0
        assert f.values[0] == 1.0
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestDeriv:
    def test_constant_derivative_is_zero(self):
        g = Grid(1.0, 64)
        d = derivative(g, np.full(64, 3.7), g.ik)
        assert np.max(np.abs(d)) < 1e-14

    def test_first_derivative_of_resolved_mode(self):
        g = Grid(1.0, 64)
        d = derivative(g, np.sin(np.pi * g.x), g.ik)
        assert np.max(np.abs(d - np.pi * np.cos(np.pi * g.x))) <= 1e-10

    def test_second_derivative_of_mode_three(self):
        g = Grid(1.0, 128)
        d = derivative(g, np.sin(3 * np.pi * g.x), g.d2)
        expected = -((3 * np.pi) ** 2) * np.sin(3 * np.pi * g.x)
        assert np.max(np.abs(d - expected)) <= 1e-10

    def test_linearity(self):
        g = Grid(1.0, 128)
        rng = np.random.default_rng(7)
        f, h = band_limited(g, rng), band_limited(g, rng)
        a, b = 2.5, -1.25
        lhs = derivative(g, a * f.values + b * h.values, g.ik)
        rhs = a * derivative(g, f.values, g.ik) + b * derivative(g, h.values, g.ik)
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_composition_matches_second_order(self):
        g = Grid(1.0, 128)
        f = band_limited(g, np.random.default_rng(11))
        twice = derivative(g, derivative(g, f.values, g.ik), g.ik)
        second = derivative(g, f.values, g.d2)
        scale = np.max(np.abs(second))
        assert np.max(np.abs(twice - second)) <= 1e-8 * scale

    def test_derivative_integrates_to_zero(self):
        g = Grid(1.0, 128)
        rng = np.random.default_rng(3)
        f = rng.normal(size=128)  # arbitrary rough field
        assert abs(np.sum(derivative(g, f, g.ik)) * g.dx) <= 1e-10

    def test_even_field_maps_to_odd_then_even(self):
        g = Grid(1.0, 128)
        rng = np.random.default_rng(5)
        vals = np.zeros(128)
        for m in range(1, 9):
            vals += rng.normal() * np.cos(m * np.pi * g.x)
        refl = lambda v: v[(-np.arange(g.n_points)) % g.n_points]
        d1 = derivative(g, vals, g.ik)
        d2 = derivative(g, vals, g.d2)
        assert np.max(np.abs(d1 + refl(d1))) <= 1e-10  # odd
        assert np.max(np.abs(d2 - refl(d2))) <= 1e-10  # even


def l2(g, v):
    return float(np.sqrt(np.sum(v**2) * g.dx))


class TestIntegrateAndNorms:
    """The rectangle-rule quadrature ``np.sum(v) * dx`` the package uses for
    masses and energies, and the norms built on it."""

    def test_constant_measures_domain(self):
        g = Grid(1.0, 64)
        assert np.sum(np.ones(64)) * g.dx == pytest.approx(2.0, abs=1e-14)
        g_half = Grid(0.5, 64)
        assert np.sum(np.ones(64)) * g_half.dx == pytest.approx(1.0, abs=1e-14)

    def test_odd_function_integrates_to_zero(self):
        g = Grid(1.0, 64)
        assert abs(np.sum(np.sin(np.pi * g.x)) * g.dx) <= 1e-12

    def test_norms_of_constant(self):
        g = Grid(1.0, 64)
        v = np.ones(64)
        assert l2(g, v) == pytest.approx(np.sqrt(2.0), rel=1e-14)
        assert np.max(np.abs(v)) == 1.0
        assert np.min(v) == 1.0

    def test_l2_of_sine(self):
        # integral of sin^2 over a full period is half the domain length
        g = Grid(1.0, 128)
        assert l2(g, np.sin(np.pi * g.x)) == pytest.approx(1.0, abs=1e-10)

    def test_zero_field(self):
        g = Grid(1.0, 16)
        v = np.zeros(16)
        assert (l2(g, v), np.max(np.abs(v)), np.min(v)) == (0.0, 0.0, 0.0)



LAYOUT_ARRAYS = ("x", "k", "k2", "phase", "ik", "d2", "d3", "d2_phase", "energy_weights")


@st.composite
def grids(draw):
    """A grid over a random half length L > 0 and a random even N >= 16."""
    half_length = draw(st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False))
    return Grid(half_length, 2 * draw(st.integers(8, 1024)))


class TestLayoutProperties:
    """The layout every module reads from the grid: the x = 0 node, the
    multipliers and the phase, and the mirror."""

    @given(grids())
    @settings(max_examples=200, deadline=None)
    def test_node_half_n_sits_at_x_zero(self, g):
        assert abs(g.x[g.n_points // 2]) <= 2 * np.spacing(g.half_length)

    @given(grids())
    @settings(max_examples=50, deadline=None)
    def test_multipliers_equal_the_per_call_expressions_bit_for_bit(self, g):
        k = g.k
        ik = 1j * k
        ik[-1] = 0.0
        expected = {
            "ik": ik,
            "k2": k**2,
            "d2": -k**2,
            "d3": -ik * k**2,
            "phase": (-1.0) ** np.arange(k.size),
        }
        for name, want in expected.items():
            got = getattr(g, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    @given(grids())
    @settings(max_examples=50, deadline=None)
    def test_energy_weights_are_the_parseval_weights(self, g):
        # w_m (1 + |d_m|^2) for d = d3, d2, d2, each repeated for a mode's real
        # and imaginary part; at least 1, so no overflowing square meets a 0
        w = np.where((g.k == 0) | (g.k == g.k[-1]), 1.0, 2.0)
        rows = [w * (1.0 + np.abs(d) ** 2) for d in (g.d3, g.d2, g.d2)]
        assert np.allclose(g.energy_weights[:, 0::2], rows, rtol=1e-15, atol=0.0)
        assert g.energy_weights[:, 0::2].tobytes() == g.energy_weights[:, 1::2].tobytes()
        assert np.all(g.energy_weights >= 1.0)

    @given(grids())
    @settings(max_examples=20, deadline=None)
    def test_layout_arrays_are_read_only(self, g):
        for name in LAYOUT_ARRAYS:
            arr = getattr(g, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @given(grids(), st.integers(0, 2**32 - 1), st.floats(-17.0, -9.0))
    @settings(max_examples=50, deadline=None)
    def test_sampled_kernel_reports_the_reflection_defect(self, g, seed, log_scale):
        n = g.n_points
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.5, 1.5, n)
        vals = base + base[(-np.arange(n)) % n] + 10.0**log_scale * rng.uniform(0.0, 1.0, n)
        reflected = vals[(-np.arange(n)) % n]
        defect = float(np.max(np.abs(vals - reflected)))
        assert mirror(vals).tobytes() == reflected.tobytes()
        assert symmetry_defect(vals) == defect
        if defect > EVENNESS_TOL:
            with pytest.raises(ValueError, match=f"defect {defect:.3e}"):
                SampledKernel(Field(g, vals))
        else:
            SampledKernel(Field(g, vals))
