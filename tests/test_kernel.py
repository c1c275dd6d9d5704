import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdiff.grid import Field, Grid, GridMismatchError
from xdiff.kernel import (
    BoxKernel,
    SampledKernel,
    heat_multiplier,
    load_sampled_kernel,
    mollify,
    smooth,
)

from spectral import derivative


def convolve(k, f):
    """Periodic convolution k * f through the kernel's Fourier symbol, as the model takes it."""
    return np.fft.irfft(np.fft.rfft(f.values) * k.symbol(f.grid), n=f.grid.n_points)


def l2(grid, v):
    return float(np.sqrt(np.sum(v**2) * grid.dx))


@pytest.fixture
def grid():
    return Grid(1.0, 128)


class TestBoxKernel:
    def test_l1_norm_is_twice_half_width(self):
        assert BoxKernel(0.05).l1_norm() == 0.1
        assert BoxKernel(0.5).l1_norm() == 1.0

    def test_rejects_nonpositive_half_width(self):
        with pytest.raises(ValueError):
            BoxKernel(0.0)
        with pytest.raises(ValueError):
            BoxKernel(-0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        half_length=st.floats(0.1, 10.0),
        n=st.sampled_from([16, 64, 256]),
        fraction=st.floats(1e-3, 0.999),
    )
    def test_symbol_matches_quadrature_of_the_indicator(self, half_length, n, fraction):
        # int_{-eps}^{eps} cos(k x) dx by composite Gauss-Legendre, panels of
        # phase width at most 2 at the largest wavenumber
        g = Grid(half_length, n)
        eps = fraction * half_length
        panels = max(1, int(np.ceil(np.max(g.k) * eps)))
        nodes, weights = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(-eps, eps, panels + 1)
        mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
        x = (mid[:, None] + half[:, None] * nodes).ravel()
        w = (half[:, None] * weights).ravel()
        quad = np.cos(np.outer(g.k, x)) @ w
        assert np.max(np.abs(BoxKernel(eps).symbol(g) - quad)) <= 1e-12 * 2 * eps

    def test_constant_scales_by_kernel_mass(self, grid):
        f = Field(grid, np.full(grid.n_points, 3.0))
        out = convolve(BoxKernel(0.05), f)
        assert np.max(np.abs(out - 0.3)) < 1e-13

    def test_cosine_mode_uses_exact_symbol(self, grid):
        eps = 0.17
        f = Field(grid, np.cos(np.pi * grid.x))
        out = convolve(BoxKernel(eps), f)
        expected = (2.0 * np.sin(np.pi * eps) / np.pi) * np.cos(np.pi * grid.x)
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_zero_field_maps_to_zero(self, grid):
        out = convolve(BoxKernel(0.05), Field(grid, np.zeros(grid.n_points)))
        assert np.max(np.abs(out)) == 0.0

    def test_half_width_must_fit_in_domain(self, grid):
        with pytest.raises(ValueError):
            convolve(BoxKernel(1.5), Field(grid, np.ones(grid.n_points)))

    def test_preserves_evenness(self, grid):
        rng = np.random.default_rng(2)
        vals = sum(rng.normal() * np.cos(m * np.pi * grid.x) for m in range(1, 10))
        out = convolve(BoxKernel(0.05), Field(grid, vals))
        refl = out[(-np.arange(grid.n_points)) % grid.n_points]
        assert np.max(np.abs(out - refl)) <= 1e-10

    def test_sup_bound_by_kernel_mass(self, grid):
        rng = np.random.default_rng(9)
        f = Field(grid, rng.normal(size=grid.n_points))
        out = convolve(BoxKernel(0.3), f)
        bound = BoxKernel(0.3).l1_norm() * np.max(np.abs(f.values))
        assert np.max(np.abs(out)) <= bound + 1e-12


class TestSampledKernel:
    def test_zero_kernel_has_zero_mass(self, grid):
        k = SampledKernel(Field(grid, np.zeros(grid.n_points)))
        assert k.l1_norm() == 0.0

    def test_rejects_negative_values(self, grid):
        vals = np.zeros(grid.n_points)
        vals[5] = -1.0
        with pytest.raises(ValueError):
            SampledKernel(Field(grid, vals))

    def test_rejects_asymmetric_values(self, grid):
        vals = np.zeros(grid.n_points)
        vals[5] = 1.0  # no matching value at the reflected node
        with pytest.raises(ValueError):
            SampledKernel(Field(grid, vals))

    def test_constant_input_scales_by_mass(self, grid):
        gauss = np.exp(-(grid.x**2) / 0.01)
        k = SampledKernel(Field(grid, gauss))
        f = Field(grid, np.full(grid.n_points, 2.0))
        out = convolve(k, f)
        assert np.max(np.abs(out - 2.0 * k.l1_norm())) < 1e-12

    def test_grid_mismatch_rejected(self, grid):
        k = SampledKernel(Field(grid, np.exp(-(grid.x**2))))
        other = Grid(1.0, 64)
        with pytest.raises(GridMismatchError):
            convolve(k, Field(other, np.ones(64)))

    def test_csv_roundtrip_and_symmetrization(self, grid, tmp_path):
        rng = np.random.default_rng(4)
        base = np.exp(-(grid.x**2) / 0.02)
        noisy = base * (1.0 + 1e-13 * rng.normal(size=grid.n_points))  # asymmetric rounding
        path = tmp_path / "kernel.csv"
        lines = ["x,gamma"] + [f"{float(x)!r},{float(v)!r}" for x, v in zip(grid.x, noisy)]
        path.write_text("\n".join(lines) + "\n")
        k = load_sampled_kernel(str(path), grid)
        refl = k.samples.values[(-np.arange(grid.n_points)) % grid.n_points]
        assert np.max(np.abs(k.samples.values - refl)) == 0.0
        assert k.l1_norm() == pytest.approx(np.sum(base) * grid.dx, rel=1e-10)

    def test_csv_grid_mismatch_rejected(self, grid, tmp_path):
        path = tmp_path / "kernel.csv"
        path.write_text("x,gamma\n0.0,1.0\n")
        with pytest.raises(ValueError):
            load_sampled_kernel(str(path), grid)


class TestSmooth:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([16, 64, 1024, 2048]),
        rows=st.integers(1, 3),
        eps=st.one_of(st.just(0.0), st.floats(1e-12, 1e-2)),
        scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_stack_smooths_as_its_rows_and_keeps_each_mean(self, n, rows, eps, scale, seed):
        # a run smooths the mollified form's stacked (A, rho) in one call,
        # bit for bit as the rows one by one
        g = Grid(1.0, n)
        u = 10.0**scale * np.random.default_rng(seed).random((rows, n))
        damp = heat_multiplier(g, eps)
        out = smooth(u, damp)
        assert out.shape == u.shape
        for row, got in zip(u, out):
            assert got.tobytes() == smooth(row, damp).tobytes()
            assert got.mean() == pytest.approx(row.mean(), rel=1e-13)


class TestMollify:
    def test_constant_unchanged(self, grid):
        f = Field(grid, np.full(grid.n_points, 4.2))
        out = mollify(f, 0.37)
        assert np.max(np.abs(out.values - 4.2)) < 1e-13

    def test_cosine_is_eigenfunction(self, grid):
        # the eigenvalue is the 3-point Laplacian's semigroup at time eps, which
        # tends to the heat semigroup's exp(-eps k^2) on resolved modes
        m = 5
        k = m * np.pi
        f = Field(grid, np.cos(k * grid.x))
        out = mollify(f, 0.003)
        symbol = (2.0 / grid.dx * np.sin(k * grid.dx / 2.0)) ** 2
        expected = np.exp(-0.003 * symbol) * np.cos(k * grid.x)
        assert np.max(np.abs(out.values - expected)) < 1e-13
        assert np.exp(-0.003 * symbol) == pytest.approx(np.exp(-0.003 * k**2), rel=5e-3)

    def test_zero_width_is_exact_identity(self, grid):
        f = Field(grid, np.random.default_rng(1).normal(size=grid.n_points))
        assert np.array_equal(mollify(f, 0.0).values, f.values)

    def test_negative_width_rejected(self, grid):
        with pytest.raises(ValueError):
            mollify(Field(grid, np.ones(grid.n_points)), -1e-3)

    def test_semigroup_identity(self, grid):
        rng = np.random.default_rng(6)
        f = Field(grid, rng.normal(size=grid.n_points))
        for a, b in [(0.01, 0.02), (0.05, 0.1), (0.003, 0.0007)]:
            left = mollify(mollify(f, a), b).values
            right = mollify(f, a + b).values
            assert np.max(np.abs(left - right)) <= 1e-10

    def test_mean_preserved(self, grid):
        f = Field(grid, np.random.default_rng(8).normal(size=grid.n_points))
        mass = np.sum(mollify(f, 0.02).values) * grid.dx
        assert mass == pytest.approx(np.sum(f.values) * grid.dx, abs=1e-12)

    def test_nonnegativity_preserved_on_resolved_widths(self, grid):
        # dense O(1) nonnegative data at a resolved width undershoot by no
        # more than an absolute roundoff
        rng = np.random.default_rng(12)
        f = Field(grid, np.abs(rng.normal(size=grid.n_points)))
        assert np.min(mollify(f, 0.01).values) >= -1e-15

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([16, 128, 1024]),
        eps=st.one_of(st.floats(0.0, 1e-2), st.floats(1e-12, 1e-6)),
        data=st.data(),
    )
    def test_nonnegativity_preserved_at_every_width(self, n, eps, data):
        # the 3-point Laplacian's semigroup is a positive operator, so
        # compact nonnegative data never undershoot by more than roundoff,
        # however narrow the mollifier (a truncated exp(-eps k^2) does)
        g = Grid(1.0, n)
        lo = data.draw(st.integers(0, n - 1))
        width = data.draw(st.integers(1, n - lo))
        values = np.zeros(n)
        values[lo : lo + width] = data.draw(
            st.lists(st.floats(0.0, 1e3), min_size=width, max_size=width)
        )
        out = mollify(Field(g, values), eps).values
        assert out.min() >= -1e-14 * max(values.max(), 1e-300)

    def test_first_order_approximation_with_stable_constant(self, grid):
        f = Field(grid, np.exp(np.cos(np.pi * grid.x)))
        fxx = l2(grid, derivative(grid, f.values, grid.d2))
        constants = []
        for eps in (4e-3, 2e-3, 1e-3, 5e-4):
            err = l2(grid, mollify(f, eps).values - f.values)
            constants.append(err / (eps * fxx))
        # |exp(-x) - 1| <= x gives C <= 1; C climbs toward 1 as eps shrinks
        assert all(c <= 1.0 + 1e-12 for c in constants)
        assert all(b >= a for a, b in zip(constants, constants[1:]))
        assert constants[-1] == pytest.approx(constants[-2], rel=0.05)
