import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdiff.grid import Field, Grid
from xdiff.integrator import RunMode, _apply_positivity, step
from xdiff.kernel import BoxKernel, heat_multiplier, mollify
from xdiff.model import (
    ModelParams,
    State,
    Workspace,
    _rhs_core,
    _rhs_regularized_core,
    _rhs_sqrt_core,
    blowup_threshold,
    energy,
    rhs,
    rhs_regularized,
    rhs_sqrt,
)

# parameters shared by the reference experiments: the nonlocal average of
# a constant c is 0.1*c for the 0.05 box kernel, giving the hand values below
REFERENCE = dict(alpha=1.0, mu=0.5, beta=0.75, beta_tilde=0.5, K=1.0, K_tilde=0.5)


@pytest.fixture
def params():
    return ModelParams(kernel=BoxKernel(0.05), **REFERENCE)


@pytest.fixture
def grid():
    return Grid(1.0, 128)


def constant_state(grid, a=1.0, r=1.0):
    return State(
        t=0.0,
        A=Field(grid, np.full(grid.n_points, a)),
        rho=Field(grid, np.full(grid.n_points, r)),
    )


def even_state(grid, seed=0):
    rng = np.random.default_rng(seed)
    a = 0.5 + 0.05 * sum(rng.normal() * np.cos(m * np.pi * grid.x) for m in range(1, 7))
    r = 1.0 + 0.05 * sum(rng.normal() * np.cos(m * np.pi * grid.x) for m in range(1, 7))
    return State(t=0.0, A=Field(grid, a), rho=Field(grid, r))


def counting(calls, name, fn):
    """``fn`` that appends ``name`` to ``calls`` on every call."""

    def wrapped(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapped


def reflect(values):
    return values[(-np.arange(values.size)) % values.size]


def convolve(kernel, grid, values):
    """Periodic convolution of node values with the kernel, through its symbol."""
    return np.fft.irfft(np.fft.rfft(values) * kernel.symbol(grid), n=grid.n_points)


def area_reaction(p, a, r, avg):
    """The area reaction, written out independently of the model's assembly."""
    return a * (p.alpha * r - p.mu * p.alpha * (r - avg)) + p.beta_tilde * a * (
        1 - r * a / p.K_tilde
    )


class TestModelParams:
    def test_mu_range_enforced(self):
        with pytest.raises(ValueError):
            ModelParams(alpha=1, mu=1.0, beta=1, beta_tilde=0, K=1, K_tilde=1,
                        kernel=BoxKernel(0.05))
        with pytest.raises(ValueError):
            ModelParams(alpha=1, mu=-0.1, beta=1, beta_tilde=0, K=1, K_tilde=1,
                        kernel=BoxKernel(0.05))

    def test_positive_rates_enforced(self):
        for bad in (dict(alpha=0), dict(beta=-1), dict(K=0), dict(K_tilde=0),
                    dict(beta_tilde=-0.5)):
            kw = dict(alpha=1, mu=0.5, beta=1, beta_tilde=0, K=1, K_tilde=1)
            kw.update(bad)
            with pytest.raises(ValueError):
                ModelParams(kernel=BoxKernel(0.05), **kw)

    def test_mu_zero_allowed(self):
        p = ModelParams(alpha=1, mu=0.0, beta=1, beta_tilde=0, K=1, K_tilde=1,
                        kernel=BoxKernel(0.05))
        assert p.mu == 0.0


class TestRhs:
    def test_zero_state_is_equilibrium(self, grid, params):
        z = constant_state(grid, 0.0, 0.0)
        da, dr = rhs(z, params)
        assert np.all(da.values == 0.0)
        assert np.all(dr.values == 0.0)

    def test_constant_state_hand_values(self, grid, params):
        da, dr = rhs(constant_state(grid), params)
        assert np.max(np.abs(da.values - 0.05)) <= 1e-12
        assert np.max(np.abs(dr.values + 0.55)) <= 1e-12

    def test_even_inputs_give_even_outputs(self, grid, params):
        s = even_state(grid)
        da, dr = rhs(s, params)
        assert np.max(np.abs(da.values - reflect(da.values))) <= 1e-10
        assert np.max(np.abs(dr.values - reflect(dr.values))) <= 1e-10

    def test_vanishing_density_freezes_density_exactly(self, grid, params):
        s = State(
            t=0.0,
            A=Field(grid, 0.5 + 0.3 * np.cos(np.pi * grid.x)),
            rho=Field(grid, np.zeros(grid.n_points)),
        )
        _, dr = rhs(s, params)
        assert np.all(dr.values == 0.0)

    def test_flux_terms_carry_no_mass(self, grid, params):
        s = even_state(grid, seed=3)
        da, dr = rhs(s, params)
        avg = convolve(params.kernel, grid, s.rho.values)
        a, r = s.A.values, s.rho.values
        da_reaction = area_reaction(params, a, r, avg)
        dr_reaction = (
            params.beta * r * (1 - a * r / params.K)
            - params.alpha * r * r
            + params.mu * params.alpha * r * (r - avg)
        )
        dx = grid.dx
        assert abs(np.sum(da.values) * dx - np.sum(da_reaction) * dx) <= 1e-10
        assert abs(np.sum(dr.values) * dx - np.sum(dr_reaction) * dx) <= 1e-10


class TestRhsRegularized:
    def test_zero_width_matches_original(self, grid, params):
        s = even_state(grid, seed=1)
        da0, dr0 = rhs(s, params)
        da, dr = rhs_regularized(s, params, 0.0)
        assert np.max(np.abs(da.values - da0.values)) <= 1e-9
        assert np.max(np.abs(dr.values - dr0.values)) <= 1e-9

    def test_constants_are_fixed_points_of_smoothing(self, grid, params):
        for eps in (0.001, 0.05, 1.0):
            da, dr = rhs_regularized(constant_state(grid), params, eps)
            assert np.max(np.abs(da.values - 0.05)) <= 1e-12
            assert np.max(np.abs(dr.values + 0.55)) <= 1e-12

    def test_outer_smoothing_contracts_sup_norm(self, grid, params):
        rng = np.random.default_rng(42)
        rough = State(
            t=0.0,
            A=Field(grid, np.abs(rng.normal(1.0, 0.4, grid.n_points))),
            rho=Field(grid, np.abs(rng.normal(1.0, 0.4, grid.n_points))),
        )
        eps = 0.01
        _, dr_reg = rhs_regularized(rough, params, eps)
        smoothed = State(
            t=0.0, A=mollify(rough.A, eps), rho=mollify(rough.rho, eps)
        )
        _, dr_inner = rhs(smoothed, params)
        assert np.max(np.abs(dr_reg.values)) <= np.max(np.abs(dr_inner.values)) + 1e-12

    def test_negative_width_rejected(self, grid, params):
        with pytest.raises(ValueError):
            rhs_regularized(constant_state(grid), params, -0.01)


class TestRhsSqrt:
    def test_zero_state_is_equilibrium(self, grid, params):
        zero = Field(grid, np.zeros(grid.n_points))
        da, de = rhs_sqrt(zero, zero, params)
        assert np.all(da.values == 0.0)
        assert np.all(de.values == 0.0)

    def test_constant_state_hand_values(self, grid, params):
        ones = Field(grid, np.ones(grid.n_points))
        da, de = rhs_sqrt(ones, ones, params)
        assert np.max(np.abs(da.values - 0.05)) <= 1e-12
        assert np.max(np.abs(de.values + 0.275)) <= 1e-12

    def test_even_inputs_give_even_outputs(self, grid, params):
        s = even_state(grid, seed=2)
        eta = Field(grid, np.sqrt(s.rho.values))
        da, de = rhs_sqrt(s.A, eta, params)
        assert np.max(np.abs(da.values - reflect(da.values))) <= 1e-10
        assert np.max(np.abs(de.values - reflect(de.values))) <= 1e-10

    def test_chain_rule_consistency_with_original(self, grid, params):
        rho = Field(grid, 1.0 + 0.1 * np.cos(np.pi * grid.x))
        a = Field(grid, np.ones(grid.n_points))
        eta = Field(grid, np.sqrt(rho.values))
        _, dr = rhs(State(t=0.0, A=a, rho=rho), params)
        da_s, de = rhs_sqrt(a, eta, params)
        lhs = 2.0 * eta.values * de.values
        assert np.max(np.abs(lhs - dr.values)) <= 1e-6 * np.max(np.abs(dr.values))

    def test_negative_eta_rejected(self, grid, params):
        bad = Field(grid, -np.ones(grid.n_points))
        with pytest.raises(ValueError):
            rhs_sqrt(bad, bad, params)


class TestEnergy:
    def test_constant_state_values(self):
        g = Grid(1.0, 64)
        s = constant_state(g)
        report = energy(g, s.A.values, s.rho.values)
        assert report.e_tilde == pytest.approx(5.0, abs=1e-12)
        assert report.e_sqrt == pytest.approx(3.0, abs=1e-12)

    def test_one_spectral_pass(self, grid, monkeypatch):
        # one rfft of the stacked (rho, A, sqrt(rho)), one irfft of the three
        # derivative spectra, and the same energies as one derivative at a time
        calls = []
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counting(calls, name, getattr(np.fft, name)))
        s = even_state(grid)
        a, r = s.A.values, s.rho.values
        report = energy(grid, a, r)
        assert calls == ["rfft", "irfft"]
        monkeypatch.undo()

        dx = grid.dx
        r3, a2 = grid.deriv_values(r, 3), grid.deriv_values(a, 2)
        root = np.sqrt(r)
        e_tilde = 1 + dx * (np.sum(r3**2) + np.sum(r**2) + np.sum(a**2) + np.sum(a2**2))
        e_sqrt = 1 + dx * (np.sum(root**2) + np.sum(grid.deriv_values(root, 2) ** 2))
        assert report.e_tilde == pytest.approx(e_tilde, rel=1e-13)
        assert report.e_sqrt == pytest.approx(e_sqrt, rel=1e-13)


class TestThresholdsAndBounds:
    def test_reference_threshold_value(self, params):
        thr = blowup_threshold(params)
        # pure float arithmetic of the formula; one ulp off the decimal 0.075
        # because 0.1 is not exactly representable
        assert thr == params.mu * params.beta * 0.1 / (1 - params.mu)
        assert thr == pytest.approx(0.075, rel=1e-15)

    def test_threshold_vanishes_without_nonlocal_term(self):
        p = ModelParams(alpha=1, mu=0.0, beta=1, beta_tilde=0, K=1, K_tilde=1,
                        kernel=BoxKernel(0.05))
        assert blowup_threshold(p) == 0.0

    def test_threshold_near_singular_coupling(self):
        p = ModelParams(alpha=1, mu=0.999, beta=1.0, beta_tilde=0, K=1, K_tilde=1,
                        kernel=BoxKernel(0.5))
        assert blowup_threshold(p) == pytest.approx(999.0, rel=1e-12)

    def test_threshold_monotone_in_coupling_and_kernel_mass(self):
        values = {}
        for mu in (0.0, 0.3, 0.6, 0.9):
            for hw in (0.01, 0.05, 0.2):
                p = ModelParams(alpha=1, mu=mu, beta=0.75, beta_tilde=0, K=1,
                                K_tilde=1, kernel=BoxKernel(hw))
                values[(mu, hw)] = blowup_threshold(p)
        for hw in (0.01, 0.05, 0.2):
            col = [values[(mu, hw)] for mu in (0.0, 0.3, 0.6, 0.9)]
            assert all(b > a for a, b in zip(col, col[1:]))
        for mu in (0.3, 0.6, 0.9):
            row = [values[(mu, hw)] for hw in (0.01, 0.05, 0.2)]
            assert all(b > a for a, b in zip(row, row[1:]))



# ---------------------------------------------------------------------------
# properties of the shared assembly, in all three forms
# ---------------------------------------------------------------------------

PARAMS = ModelParams(kernel=BoxKernel(0.05), **REFERENCE)  # fixtures do not reset between examples
MODES = 3  # highest Fourier mode of the drawn data


@st.composite
def band_limited(draw, grid, even):
    """A nonnegative trigonometric polynomial of degree MODES on the grid.

    The offset is at least the sum of the amplitudes, so the data may touch
    zero; the clip only removes roundoff below it.
    """
    amp = st.floats(-1.0, 1.0, allow_nan=False)
    cos = draw(st.lists(amp, min_size=MODES, max_size=MODES))
    sin = [0.0] * MODES if even else draw(st.lists(amp, min_size=MODES, max_size=MODES))
    f = sum(
        c * np.cos(m * np.pi * grid.x) + s * np.sin(m * np.pi * grid.x)
        for m, (c, s) in enumerate(zip(cos, sin), start=1)
    )
    offset = (sum(map(abs, cos)) + sum(map(abs, sin))) * draw(st.floats(1.0, 2.0))
    return np.clip(offset + f, 0.0, None)


@st.composite
def draw_state(draw, even=False):
    """(grid, A, eta): eta and rho = eta^2 are both band-limited well below
    the grid's Nyquist mode, so spectral derivatives of rho*eta_x and
    rho*rho_x are exact up to roundoff."""
    grid = Grid(1.0, draw(st.sampled_from([64, 128])))
    return grid, draw(band_limited(grid, even)), draw(band_limited(grid, even))


def derivatives(form, grid, a, eta, p, eps):
    """(dA, d(second field)) in one form; the sqrt form takes eta, the others rho = eta^2."""
    A, rho = Field(grid, a), Field(grid, eta * eta)
    if form == "original":
        da, dw = rhs(State(t=0.0, A=A, rho=rho), p)
    elif form == "regularized":
        da, dw = rhs_regularized(State(t=0.0, A=A, rho=rho), p, eps)
    else:
        da, dw = rhs_sqrt(A, Field(grid, eta), p)
    return da.values, dw.values


FORMS = ["original", "regularized", "sqrt"]
EPS = st.floats(1e-4, 1e-2)


class TestAssemblyProperties:
    @pytest.mark.parametrize("form", FORMS)
    @settings(max_examples=40, deadline=None)
    @given(data=draw_state(), eps=EPS)
    def test_area_flux_is_mass_neutral(self, form, data, eps):
        grid, a, eta = data
        rho = eta * eta
        if form == "regularized":  # the outer smoothing keeps the mean exactly
            a = mollify(Field(grid, a), eps).values
            rho = mollify(Field(grid, rho), eps).values
        da, _ = derivatives(form, *data, PARAMS, eps)
        reaction = area_reaction(PARAMS, a, rho, convolve(PARAMS.kernel, grid, rho))
        scale = 1.0 + np.max(np.abs(da)) + np.max(np.abs(reaction))
        flux_mass = np.sum(da) * grid.dx - np.sum(reaction) * grid.dx
        assert abs(flux_mass) <= 1e-14 * scale

    @pytest.mark.parametrize("form", FORMS)
    @settings(max_examples=40, deadline=None)
    @given(data=draw_state(even=True), eps=EPS)
    def test_even_data_gives_even_right_side(self, form, data, eps):
        for d in derivatives(form, *data, PARAMS, eps):
            assert np.max(np.abs(d - reflect(d))) <= 1e-12 * (1.0 + np.max(np.abs(d)))

    @settings(max_examples=40, deadline=None)
    @given(data=draw_state())
    def test_sqrt_form_follows_the_density_by_the_chain_rule(self, data):
        grid, a, eta = data
        _, drho = derivatives("original", grid, a, eta, PARAMS, 0.0)
        _, deta = derivatives("sqrt", grid, a, eta, PARAMS, 0.0)
        positive = eta > 0
        residual = 2.0 * eta * deta - drho
        worst = np.max(np.abs(residual[positive]), initial=0.0)
        assert worst <= 1e-11 * (1.0 + np.max(np.abs(drho)))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([16, 64, 128]),
        cos=st.lists(st.floats(-1.0, 1.0), min_size=MODES, max_size=MODES),
        lift=st.floats(-0.5, 0.5),
        a_data=st.data(),
    )
    def test_density_right_side_is_nonnegative_on_its_zero_set(self, n, cos, lift, a_data):
        # where rho = 0 the density right side reduces to rho_x^2, so a clipped
        # cosine series, however steep its kink at the zero set, gains no
        # negative mass there
        grid = Grid(1.0, n)
        wave = sum(c * np.cos(m * np.pi * grid.x) for m, c in enumerate(cos, start=1))
        rho = np.clip(lift * sum(map(abs, cos)) + wave, 0.0, None)
        a = a_data.draw(band_limited(grid, even=False))
        _, drho = rhs(State(t=0.0, A=Field(grid, a), rho=Field(grid, rho)), PARAMS)
        assert np.all(drho.values[rho == 0.0] >= 0.0)


# ---------------------------------------------------------------------------
# the workspace assembly against a straight-line oracle
# ---------------------------------------------------------------------------


def oracle_assemble(grid, u, p, conv_sym, sqrt):
    """The right side as straight-line numpy expressions on fresh arrays, in
    the operation order the workspace assembly must keep bit for bit."""
    n, ik = grid.n_points, grid.ik
    a, w = u
    rho = w * w if sqrt else w
    uh = np.fft.rfft(np.stack((a, w, rho)) if sqrt else u)
    rh = uh[-1]
    extra = (rh * conv_sym, rh * ik) if sqrt else (rh * conv_sym,)
    d = np.fft.irfft(np.vstack((uh[:2] * ik, uh[:2] * (ik * ik), *extra)), n=n)
    ux, uxx, avg = d[0:2], d[2:4], d[4]
    rx = d[5] if sqrt else ux[1]
    area_flux, w_flux = rho * uxx + rx * ux
    local_push = rho - avg
    area = a * (p.alpha * rho - p.mu * p.alpha * local_push) + p.beta_tilde * a * (
        1.0 - rho * a / p.K_tilde
    )
    g = p.beta * (1.0 - a * rho / p.K) - p.alpha * rho + p.mu * p.alpha * local_push
    if sqrt:
        dw = 0.5 * w * g + (w * ux[1] * ux[1] + w_flux)
    else:
        dw = w * g + w_flux
    return np.stack((area + area_flux, dw))


def oracle_regularized(grid, u, p, conv_sym, damp):
    n = grid.n_points
    smoothed = np.fft.irfft(np.fft.rfft(u) * damp, n=n)
    return np.fft.irfft(np.fft.rfft(oracle_assemble(grid, smoothed, p, conv_sym, False)) * damp, n=n)


def oracle_step(grid, u, p, dt, mode):
    """Classical RK4 on the oracle right side, then the positivity clip."""
    conv_sym = p.kernel.symbol(grid)
    if mode.kind == "regularized":
        damp = heat_multiplier(grid, mode.eps)
        f = lambda w: oracle_regularized(grid, w, p, conv_sym, damp)
    else:
        f = lambda w: oracle_assemble(grid, w, p, conv_sym, mode.kind == "sqrt")
    if mode.kind == "sqrt":
        u = np.stack((u[0], np.sqrt(np.clip(u[1], 0.0, None))))
    k1 = f(u)
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    v = u + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    if mode.kind == "sqrt":
        v[1] *= v[1]
    return _apply_positivity(v, grid.dx)[0]


def same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@st.composite
def nonnegative_state(draw):
    """(grid, u): random nonnegative node values, some of them exactly zero."""
    n = draw(st.sampled_from([16, 64, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 2.0), min_size=2, max_size=2)))
    u = scales[:, None] * rng.random((2, n))
    u[rng.random((2, n)) < draw(st.floats(0.0, 0.5))] = 0.0
    return Grid(1.0, n), u


class TestAssemblyOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=nonnegative_state(), eps=EPS)
    def test_every_form_matches_the_oracle_bit_for_bit(self, data, eps):
        grid, u = data
        conv_sym = PARAMS.kernel.symbol(grid)
        damp = heat_multiplier(grid, eps)
        ws = Workspace(grid, PARAMS, conv_sym)
        # one workspace serves every form, in any order
        for _ in range(2):
            got = _rhs_core(ws, u)
            assert same_bits(got, oracle_assemble(grid, u, PARAMS, conv_sym, False))
            got = _rhs_sqrt_core(ws, u)
            assert same_bits(got, oracle_assemble(grid, u, PARAMS, conv_sym, True))
            got = _rhs_regularized_core(ws, u, damp)
            assert same_bits(got, oracle_regularized(grid, u, PARAMS, conv_sym, damp))

    @settings(max_examples=20, deadline=None)
    @given(data=nonnegative_state())
    def test_successive_calls_return_distinct_arrays(self, data):
        # RK4 holds k1..k4 at once, so no call may hand out or overwrite a work array
        grid, u = data
        conv_sym = PARAMS.kernel.symbol(grid)
        ws = Workspace(grid, PARAMS, conv_sym)
        damp = heat_multiplier(grid, 1e-3)
        regularized = lambda ws, v: _rhs_regularized_core(ws, v, damp)
        for core in (_rhs_core, _rhs_sqrt_core, regularized):
            first = core(ws, u)
            expected = first.copy()
            second = core(ws, 0.5 * u)
            assert not np.shares_memory(first, second)
            assert same_bits(first, expected)

    @settings(max_examples=20, deadline=None)
    @given(data=nonnegative_state(), kind=st.sampled_from(["original", "regularized", "sqrt"]))
    def test_step_matches_rk4_on_the_oracle(self, data, kind):
        grid, u = data
        mode = RunMode(kind, eps=1e-3) if kind == "regularized" else RunMode(kind)
        dt = 0.1 * grid.dx**2 / max(1.0, float(np.max(u)))
        s = State(t=0.0, A=Field(grid, u[0]), rho=Field(grid, u[1]))
        got = step(s, PARAMS, dt, mode)
        expected = oracle_step(grid, u, PARAMS, dt, mode)
        assert same_bits(np.stack((got.A.values, got.rho.values)), expected)
