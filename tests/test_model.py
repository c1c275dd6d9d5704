import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdiff.grid import Field, Grid, GridMismatchError, mirror
from xdiff.integrator import RunMode, _apply_positivity
from xdiff.kernel import BoxKernel, heat_multiplier, smooth
from xdiff.model import (
    ModelParams,
    NumericalFault,
    State,
    Workspace,
    _energy_spectra,
    _rhs_core,
    _rhs_regularized_core,
    _rhs_sqrt_core,
    _unchecked,
    blowup_threshold,
    energy,
)

from reference import rhs, step
from spectral import derivative

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
        A=Field(grid, np.full(grid.N, a)),
        rho=Field(grid, np.full(grid.N, r)),
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
    return np.fft.irfft(np.fft.rfft(values) * kernel.symbol(grid), n=grid.N)


def area_reaction(p, a, r, avg):
    """The area reaction, written out independently of the model's assembly."""
    return a * (p.alpha * r - p.mu * p.alpha * (r - avg)) + p.beta_tilde * a * (
        1 - r * a / p.K_tilde
    )


class TestState:
    def test_fields_on_two_grids_are_rejected(self):
        a, b = Grid(1.0, 16), Grid(2.0, 16)
        with pytest.raises(GridMismatchError, match="^A and rho must share one grid$"):
            State(t=0.0, A=Field(a, np.ones(16)), rho=Field(b, np.ones(16)))


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
            rho=Field(grid, np.zeros(grid.N)),
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
        da, dr = rhs(s, params, RunMode("regularized", eps=0.0))
        # no smoothing pass at all: the same right side bit for bit
        assert np.array_equal(da.values, da0.values)
        assert np.array_equal(dr.values, dr0.values)

    def test_constants_are_fixed_points_of_smoothing(self, grid, params):
        for eps in (0.001, 0.05, 1.0):
            da, dr = rhs(constant_state(grid), params, RunMode("regularized", eps=eps))
            assert np.max(np.abs(da.values - 0.05)) <= 1e-12
            assert np.max(np.abs(dr.values + 0.55)) <= 1e-12

    def test_outer_smoothing_contracts_sup_norm(self, grid, params):
        rng = np.random.default_rng(42)
        rough = State(
            t=0.0,
            A=Field(grid, np.abs(rng.normal(1.0, 0.4, grid.N))),
            rho=Field(grid, np.abs(rng.normal(1.0, 0.4, grid.N))),
        )
        eps = 0.01
        _, dr_reg = rhs(rough, params, RunMode("regularized", eps=eps))
        damp = heat_multiplier(grid, eps)
        smoothed = State(
            t=0.0,
            A=Field(grid, smooth(rough.A.values, damp)),
            rho=Field(grid, smooth(rough.rho.values, damp)),
        )
        _, dr_inner = rhs(smoothed, params)
        assert np.max(np.abs(dr_reg.values)) <= np.max(np.abs(dr_inner.values)) + 1e-12

    def test_negative_width_rejected(self, grid, params):
        with pytest.raises(ValueError):
            rhs(constant_state(grid), params, RunMode("regularized", eps=-0.01))


class TestRhsSqrt:
    def test_zero_state_is_equilibrium(self, grid, params):
        zero = Field(grid, np.zeros(grid.N))
        da, de = rhs(State(t=0.0, A=zero, rho=zero), params, RunMode("sqrt"))
        assert np.all(da.values == 0.0)
        assert np.all(de.values == 0.0)

    def test_constant_state_hand_values(self, grid, params):
        ones = Field(grid, np.ones(grid.N))
        da, de = rhs(State(t=0.0, A=ones, rho=ones), params, RunMode("sqrt"))
        assert np.max(np.abs(da.values - 0.05)) <= 1e-12
        assert np.max(np.abs(de.values + 0.275)) <= 1e-12

    def test_even_inputs_give_even_outputs(self, grid, params):
        s = even_state(grid, seed=2)
        eta = Field(grid, np.sqrt(s.rho.values))
        rho = Field(grid, eta.values**2)
        da, de = rhs(State(t=0.0, A=s.A, rho=rho), params, RunMode("sqrt"))
        assert np.max(np.abs(da.values - reflect(da.values))) <= 1e-10
        assert np.max(np.abs(de.values - reflect(de.values))) <= 1e-10

    def test_chain_rule_consistency_with_original(self, grid, params):
        rho = Field(grid, 1.0 + 0.1 * np.cos(np.pi * grid.x))
        a = Field(grid, np.ones(grid.N))
        eta = Field(grid, np.sqrt(rho.values))
        _, dr = rhs(State(t=0.0, A=a, rho=rho), params)
        da_s, de = rhs(State(t=0.0, A=a, rho=Field(grid, eta.values**2)), params, RunMode("sqrt"))
        lhs = 2.0 * eta.values * de.values
        assert np.max(np.abs(lhs - dr.values)) <= 1e-6 * np.max(np.abs(dr.values))


class TestEnergy:
    def test_constant_state_values(self):
        g = Grid(1.0, 64)
        s = constant_state(g)
        e_tilde, e_sqrt = energy(g, _energy_spectra(s.A.values, s.rho.values))
        assert e_tilde == pytest.approx(5.0, abs=1e-12)
        assert e_sqrt == pytest.approx(3.0, abs=1e-12)

    def test_one_spectral_pass(self, grid, monkeypatch):
        # one rfft of the stacked (rho, A, sqrt(rho)), summed by Parseval, and
        # the same energies as one derivative at a time in node space
        calls = []
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counting(calls, name, getattr(np.fft, name)))
        s = even_state(grid)
        a, r = s.A.values, s.rho.values
        energies = energy(grid, _energy_spectra(a, r))
        assert calls == ["rfft"]
        monkeypatch.undo()

        dx = grid.dx
        r3, a2 = derivative(grid, r, 3), derivative(grid, a, 2)
        root = np.sqrt(r)
        e_tilde = 1 + dx * (np.sum(r3**2) + np.sum(r**2) + np.sum(a**2) + np.sum(a2**2))
        e_sqrt = 1 + dx * (np.sum(root**2) + np.sum(derivative(grid, root, 2) ** 2))
        assert energies == pytest.approx((e_tilde, e_sqrt), rel=1e-13)

    def test_an_overflowing_square_makes_the_energy_infinite(self):
        # the squares of rho = 1e160 overflow, those of sqrt(rho) = 1e80 do
        # not; scaled before squaring and weighted by at least 1, the sums give
        # +inf and the finite value the node sums give, with no warning inside
        # a run's error state
        grid = Grid(1.0, 16)
        s = constant_state(grid, r=1e160)
        with warnings.catch_warnings(), _unchecked():
            warnings.simplefilter("error")
            e_tilde, e_sqrt = energy(grid, _energy_spectra(s.A.values, s.rho.values))
        assert e_tilde == np.inf
        assert e_sqrt == pytest.approx(2e160, rel=1e-15)


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
    """(dA, d(second field)) in one form at rho = eta^2; the sqrt form steps eta."""
    A, rho = Field(grid, a), Field(grid, eta * eta)
    if form == "original":
        da, dw = rhs(State(t=0.0, A=A, rho=rho), p)
    elif form == "regularized":
        da, dw = rhs(State(t=0.0, A=A, rho=rho), p, RunMode("regularized", eps=eps))
    else:
        da, dw = rhs(State(t=0.0, A=A, rho=rho), p, RunMode("sqrt"))
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
            a = smooth(a, heat_multiplier(grid, eps))
            rho = smooth(rho, heat_multiplier(grid, eps))
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
# the workspace assembly against straight-line oracles: the regrouped
# operation order bit for bit, and the plain expressions within roundoff
# ---------------------------------------------------------------------------


def oracle_transforms(grid, u, avg_sym, sqrt):
    """(a, w, rho, w_x, w_xx, avg, rho_x) of the stacked ``u = (A, w)`` from one
    rfft of w (of w and rho in the sqrt form) and one irfft, with avg the
    inverse transform of rho's spectrum times ``avg_sym``.  The derivatives
    take the flux's multiplier D = i min(k, 2/dx), Nyquist zeroed."""
    n = grid.N
    ik = 1j * np.minimum(grid.k, 2.0 / grid.dx)
    ik[-1] = 0.0
    a, w = u
    rho = w * w if sqrt else w
    wh = np.fft.rfft(np.stack((w, rho)) if sqrt else w)
    wh, rh = (wh[0], wh[1]) if sqrt else (wh, wh)
    extra = (rh * ik,) if sqrt else ()
    d = np.fft.irfft(np.vstack((wh * ik, wh * (ik * ik), rh * avg_sym, *extra)), n=n)
    return a, w, rho, d[0], d[1], d[2], d[3] if sqrt else d[0]


def oracle_face_flux(grid, a, rho):
    """The area flux on cell faces, (F[j+1/2] - F[j-1/2])/dx with
    F[j+1/2] = (rho[j] + rho[j+1])/2 * (a[j+1] - a[j])/dx, by periodic rolls."""
    face = (rho + np.roll(rho, -1)) * (np.roll(a, -1) - a)
    return (face - np.roll(face, 1)) * (0.5 / (grid.dx * grid.dx))


def oracle_terms(grid, u, p, conv_sym, sqrt, regrouped=True):
    """(area reaction, area flux, w reaction, w transport) as straight-line
    numpy expressions on fresh arrays.

    ``regrouped`` gives the operation order the workspace assembly must keep
    bit for bit: the reactions around the pressure
    P = alpha*(1 - mu)*rho + mu*alpha*(Gamma*rho), the inverse transform of
    the density spectrum times the symbol alpha*(1 - mu) + mu*alpha*Gamma^.
    Otherwise the reactions are the model's plain expressions, the second
    reference."""
    avg_sym = p.alpha * (1.0 - p.mu) + p.mu * p.alpha * conv_sym if regrouped else conv_sym
    a, w, rho, wx, wxx, avg, rx = oracle_transforms(grid, u, avg_sym, sqrt)
    area_flux = oracle_face_flux(grid, a, rho)
    w_flux = rho * wxx + rx * wx
    if regrouped:
        pressure = avg
        area = a * (p.beta_tilde + pressure - p.beta_tilde / p.K_tilde * (rho * a))
        g = p.beta - pressure - p.beta / p.K * (rho * a)
    else:
        local_push = rho - avg
        area = a * (p.alpha * rho - p.mu * p.alpha * local_push) + p.beta_tilde * a * (
            1.0 - rho * a / p.K_tilde
        )
        g = p.beta * (1.0 - a * rho / p.K) - p.alpha * rho + p.mu * p.alpha * local_push
    if sqrt:
        return area, area_flux, 0.5 * w * g, w * wx * wx + w_flux
    return area, area_flux, w * g, w_flux


def oracle_assemble(grid, u, p, conv_sym, sqrt):
    area, area_flux, w_reaction, w_transport = oracle_terms(grid, u, p, conv_sym, sqrt)
    return np.stack((area + area_flux, w_reaction + w_transport))


def oracle_regularized(grid, u, p, conv_sym, damp):
    n = grid.N
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


ULP = np.finfo(float).eps


def reaction_magnitudes(grid, u, p, conv_sym, sqrt):
    """Max-norm bounds of the parts the plain reactions add up, one for the
    area reaction and one for the w reaction: the scales in which their
    roundoff is measured."""
    a, w = u
    rho = w * w if sqrt else w
    avg = np.fft.irfft(np.fft.rfft(rho) * conv_sym, n=grid.N)
    na, nw, nr, navg = (np.max(np.abs(x)) for x in (a, w, rho, avg))
    coupling = p.alpha * nr + p.mu * p.alpha * (nr + navg)
    area = na * coupling + p.beta_tilde * na * (1.0 + nr * na / p.K_tilde)
    density = (0.5 if sqrt else 1.0) * nw * (p.beta * (1.0 + na * nr / p.K) + coupling)
    return area, density


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
        ws = Workspace(grid, PARAMS)
        # one workspace serves every form, in any order
        for _ in range(2):
            got = _rhs_core(ws, u)
            assert same_bits(got, oracle_assemble(grid, u, PARAMS, conv_sym, False))
            got = _rhs_sqrt_core(ws, u)
            assert same_bits(got, oracle_assemble(grid, u, PARAMS, conv_sym, True))
            got = _rhs_regularized_core(ws, u, damp)
            assert same_bits(got, oracle_regularized(grid, u, PARAMS, conv_sym, damp))
        # so does each form through a run's stepper; the sqrt form steps eta = sqrt(rho)
        s = State(t=0.0, A=Field(grid, u[0]), rho=Field(grid, u[1]))
        v = np.stack((u[0], np.sqrt(u[1])))
        expected = {
            RunMode(): oracle_assemble(grid, u, PARAMS, conv_sym, False),
            RunMode("sqrt"): oracle_assemble(grid, v, PARAMS, conv_sym, True),
            RunMode("regularized", eps=eps): oracle_regularized(grid, u, PARAMS, conv_sym, damp),
        }
        for mode, want in expected.items():
            da, dw = rhs(s, PARAMS, mode)
            assert same_bits(np.stack((da.values, dw.values)), want)

    @pytest.mark.parametrize("form", FORMS)
    @settings(max_examples=60, deadline=None)
    @given(data=nonnegative_state(), eps=EPS)
    def test_regrouped_reactions_are_the_plain_expressions(self, form, data, eps):
        # the regrouping is the same model: term by term, the regrouped order
        # stays within a few ulps of the terms' magnitudes
        grid, u = data
        conv_sym = PARAMS.kernel.symbol(grid)
        if form == "regularized":  # the assembly sees the smoothed state
            u = np.fft.irfft(np.fft.rfft(u) * heat_multiplier(grid, eps), n=grid.N)
        sqrt = form == "sqrt"
        regrouped = oracle_terms(grid, u, PARAMS, conv_sym, sqrt)
        plain = oracle_terms(grid, u, PARAMS, conv_sym, sqrt, regrouped=False)
        # the fluxes are not regrouped
        assert same_bits(regrouped[1], plain[1])
        assert same_bits(regrouped[3], plain[3])
        for k, scale in zip((0, 2), reaction_magnitudes(grid, u, PARAMS, conv_sym, sqrt)):
            assert np.max(np.abs(regrouped[k] - plain[k])) <= 4 * ULP * scale

    @settings(max_examples=20, deadline=None)
    @given(data=nonnegative_state())
    def test_successive_calls_return_distinct_arrays(self, data):
        # RK4 holds k1..k4 at once, so no call may hand out or overwrite a work array
        grid, u = data
        ws = Workspace(grid, PARAMS)
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


# ---------------------------------------------------------------------------
# the area row's face flux, as one evaluation leaves it in its workspace
# ---------------------------------------------------------------------------


def assembled_area_flux(grid, u, sqrt):
    """The area flux that one original-form (or sqrt-form) evaluation of
    ``u`` assembles."""
    ws = Workspace(grid, PARAMS)
    (_rhs_sqrt_core if sqrt else _rhs_core)(ws, u)
    return ws.area_flux.copy()


class TestAreaFaceFlux:
    @pytest.mark.parametrize("sqrt", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(data=nonnegative_state())
    def test_telescopes_to_zero_mass(self, sqrt, data):
        # the faces cancel in pairs; what is left is the rounding of each
        # entry's difference and product and of the sum
        grid, u = data
        flux = assembled_area_flux(grid, u, sqrt)
        assert abs(np.sum(flux)) <= (grid.N + 2) * ULP * np.sum(np.abs(flux))

    @pytest.mark.parametrize("sqrt", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(data=nonnegative_state())
    def test_nonnegative_where_the_area_vanishes(self, sqrt, data):
        # the drawn A and rho are >= 0 with some nodes exactly 0: where A = 0
        # the flux is a sum of products of nonnegative factors
        grid, u = data
        flux = assembled_area_flux(grid, u, sqrt)
        assert np.all(flux[u[0] == 0.0] >= 0.0)

    @pytest.mark.parametrize("sqrt", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(data=nonnegative_state())
    def test_even_data_give_a_bitwise_even_flux(self, sqrt, data):
        grid, u = data
        even = np.stack([np.maximum(row, mirror(row)) for row in u])
        flux = assembled_area_flux(grid, even, sqrt)
        assert same_bits(flux, mirror(flux))


# ---------------------------------------------------------------------------
# the density row's spectral flux rho*D(D rho) + (D rho)^2 under the capped
# derivative D = i min(k, 2/dx), as one evaluation leaves it in its workspace
# ---------------------------------------------------------------------------


def assembled_density_flux(grid, rho):
    """The density flux that one original-form evaluation of (1, rho) assembles."""
    ws = Workspace(grid, PARAMS)
    _rhs_core(ws, np.stack((np.ones(grid.N), rho)))
    return ws.w_flux.copy()


class TestDensityFlux:
    @settings(max_examples=60, deadline=None)
    @given(data=nonnegative_state())
    def test_mass_neutral_and_nonnegative_on_the_zero_set(self, data):
        # D is antisymmetric, so sum(rho D(D rho)) = -sum((D rho)^2) up to the
        # transforms' rounding (at most 1.7e-16 of the scale in 3,000 draws);
        # where rho = 0 the flux is (D rho)^2 itself
        grid, u = data
        rho = u[1]
        flux = assembled_density_flux(grid, rho)
        d = np.fft.irfft(np.fft.rfft(rho) * (1j * np.minimum(grid.k, 2.0 / grid.dx)), n=grid.N)
        scale = np.sum(d * d) + np.sum(np.abs(flux))
        assert abs(np.sum(flux)) <= 1e-14 * scale
        assert np.all(flux[rho == 0.0] >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([16, 64, 256]),
        coefficients=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
        data=st.data(),
    )
    def test_exact_on_the_modes_up_to_the_cap(self, n, coefficients, data):
        # rho = c + a cos(k x) + b sin(k x) with k = pi m <= 2/dx: the flux is
        # d/dx(rho drho/dx) = rho rho'' + rho'^2 at the nodes
        grid = Grid(1.0, n)
        m = data.draw(st.integers(1, int(n / np.pi)))
        c = data.draw(st.floats(-2.0, 2.0))
        a, b = coefficients
        k, x = np.pi * m, grid.x
        rho = c + a * np.cos(k * x) + b * np.sin(k * x)
        rx = k * (b * np.cos(k * x) - a * np.sin(k * x))
        rxx = -k * k * (rho - c)
        exact = rho * rxx + rx * rx
        flux = assembled_density_flux(grid, rho)
        assert np.max(np.abs(flux - exact)) <= 1e-10 * (1.0 + np.max(np.abs(exact)))

    def test_the_cap_bounds_the_multiplier(self):
        # exact up to 2/dx, the lower 64% of the modes; capped above, and the
        # Nyquist mode dropped as for any odd order
        grid = Grid(1.0, 256)
        ws = Workspace(grid, PARAMS)
        exact = grid.k <= 2.0 / grid.dx
        assert np.array_equal(ws.ik[exact], 1j * grid.k[exact])
        assert np.all(ws.ik[~exact][:-1] == 2j / grid.dx)
        assert ws.ik[-1] == 0.0
        assert np.array_equal(ws.ik2, ws.ik * ws.ik)
        assert exact.sum() / grid.k.size == pytest.approx(2.0 / np.pi, abs=0.01)


# ---------------------------------------------------------------------------
# finiteness: a caller such as a run owns numpy's error state, and one
# reduction decides only when the output's sum is finite
# ---------------------------------------------------------------------------


OVERFLOWING_ENTRIES = {
    "rhs": (lambda g: rhs(constant_state(g, r=1e160), PARAMS), "density reaction terms"),
    "rhs_regularized": (
        lambda g: rhs(constant_state(g, r=1e160), PARAMS, RunMode("regularized", eps=1e-3)),
        "density reaction terms",
    ),
    # the assembled side is finite (about -1.3e308) and overflows when smoothed
    "rhs_regularized-smoothed": (
        lambda g: rhs(constant_state(g, r=1e154), PARAMS, RunMode("regularized", eps=1e-3)),
        "smoothed right-hand side",
    ),
    # eta g / 2 overflows while the area reaction, in rho = eta^2, does not
    "rhs_sqrt": (
        lambda g: rhs(constant_state(g, r=1e220), PARAMS, RunMode("sqrt")),
        "eta reaction terms",
    ),
    "step": (lambda g: step(constant_state(g, r=1e160), PARAMS, 1e-6), "density reaction terms"),
    "step-regularized": (
        lambda g: step(constant_state(g, r=1e160), PARAMS, 1e-6, RunMode("regularized", eps=1e-3)),
        "density reaction terms",
    ),
    "step-regularized-smoothed": (
        lambda g: step(constant_state(g, r=1e154), PARAMS, 1e-6, RunMode("regularized", eps=1e-3)),
        "smoothed right-hand side",
    ),
    "step-sqrt": (
        lambda g: step(constant_state(g, r=1e220), PARAMS, 1e-6, RunMode("sqrt")),
        "eta reaction terms",
    ),
    # eta = 1e80 passes the first stage; eta^2 overflows in the second
    "step-sqrt-second-stage": (
        lambda g: step(constant_state(g, r=1e160), PARAMS, 1e-6, RunMode("sqrt")),
        "area reaction terms (sqrt form)",
    ),
}


class TestFiniteness:
    @pytest.mark.parametrize("entry", list(OVERFLOWING_ENTRIES))
    def test_every_entry_fails_by_name_on_overflow(self, entry):
        # no evaluation enters an error state of its own; in the one a run,
        # or the reference rhs and step, holds, an overflow must surface as
        # the named fault, never as a RuntimeWarning
        call, term = OVERFLOWING_ENTRIES[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalFault, match=f"^non-finite values in {re.escape(term)}$"):
                call(Grid(1.0, 16))

    def test_finite_terms_whose_sum_overflows_are_not_a_fault(self):
        # on the constant state rho = 1e154 the density row is about -1.3e308
        # at every node: finite, though the row's sum is -inf
        grid = Grid(1.0, 16)
        s = constant_state(grid, r=1e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, drho = rhs(s, PARAMS)
        assert np.all(np.isfinite(drho.values)) and np.all(drho.values < -1e308)
        with np.errstate(over="ignore"):
            assert np.sum(drho.values) == -np.inf

    @pytest.mark.parametrize(
        "a, r, term",
        [(1.0, 1e155, "density reaction terms"), (1e155, 1.0, "area reaction terms")],
    )
    def test_a_single_non_finite_term_is_named(self, a, r, term):
        # one term overflows and the others stay finite
        grid = Grid(1.0, 16)
        with pytest.raises(NumericalFault, match=f"^non-finite values in {term}$"):
            rhs(constant_state(grid, a=a, r=r), PARAMS)

    def test_evaluations_enter_no_error_state(self, monkeypatch):
        entered = []
        monkeypatch.setattr(np, "errstate", counting(entered, "errstate", np.errstate))
        grid = Grid(1.0, 64)
        u = np.stack((np.ones(64), 1.0 + 0.1 * np.cos(np.pi * grid.x)))
        ws = Workspace(grid, PARAMS)
        damp = heat_multiplier(grid, 1e-3)
        _rhs_core(ws, u)
        _rhs_sqrt_core(ws, u)
        _rhs_regularized_core(ws, u, damp)
        assert entered == []
