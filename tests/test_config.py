import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdiff.config import (
    ConfigError,
    Constant,
    Cosine,
    CsvData,
    PolyBump,
    RunConfig,
    parse_config,
    preset,
    preset_with_overrides,
    render_config,
)
from xdiff.grid import Grid, InvalidValue
from xdiff.integrator import RunMode, StepControl
from xdiff.kernel import BoxKernel, load_sampled_kernel
from xdiff.model import ModelParams

MINIMAL = """
grid.L = 1.0
grid.N = 64
params.alpha = 1.0
params.mu = 0.5
params.beta = 0.75
params.beta_tilde = 0.5
params.K = 1.0
params.K_tilde = 0.5
params.kernel.kind = box
params.kernel.half_width = 0.05
rho0.kind = constant
rho0.c = 1.0
A0.kind = constant
A0.c = 1.0
run.t_end = 0.001
"""


class TestParse:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid_N == 64
        assert cfg.params.kernel == BoxKernel(0.05)
        assert cfg.mode.kind == "original"
        assert cfg.ctrl.cfl_safety == 0.25
        assert cfg.record_every == 10
        assert cfg.snapshot_times == ()

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# leading comment\n\n" + MINIMAL + "\n# trailing\n")
        assert cfg.t_end == 0.001

    def test_odd_grid_rejected_with_line_number(self):
        text = MINIMAL.replace("grid.N = 64", "grid.N = 15")
        with pytest.raises(ConfigError, match=r"line 3: grid.N must be even"):
            parse_config(text)

    def test_mu_out_of_range_rejected(self):
        text = MINIMAL.replace("params.mu = 0.5", "params.mu = 1.0")
        with pytest.raises(ConfigError, match=r"mu must satisfy 0 <= mu < 1"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown key 'params.gamma'"):
            parse_config(MINIMAL + "params.gamma = 2.0\n")

    @pytest.mark.parametrize(
        "key", ["positivity_tol", "clip_policy", "blowup_cap", "curvature_growth_factor"]
    )
    def test_fixed_halt_and_positivity_rules_take_no_key(self, key):
        # the blow-up and positivity rules are fixed; no key sets them
        lineno = MINIMAL.count("\n") + 1
        with pytest.raises(ConfigError, match=rf"line {lineno}: unknown key 'ctrl.{key}'"):
            parse_config(MINIMAL + f"ctrl.{key} = 1.0\n")

    def test_kind_specific_keys_fail_closed(self):
        # a poly_bump key together with kind = constant must be rejected
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "rho0.amp = 3.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(MINIMAL + "grid.L = 2.0\n")

    def test_missing_required_key(self):
        text = MINIMAL.replace("run.t_end = 0.001", "")
        with pytest.raises(ConfigError, match="missing required key 'run.t_end'"):
            parse_config(text)

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config(MINIMAL + "this is not a config line\n")

    def test_bad_number_reports_line(self):
        text = MINIMAL.replace("run.t_end = 0.001", "run.t_end = soon")
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config(text)

    def test_snapshot_times_validated_against_t_end(self):
        with pytest.raises(ConfigError, match="snapshot time"):
            parse_config(MINIMAL + "run.snapshot_times = 0.5\n")

    def test_record_every_must_be_positive(self):
        with pytest.raises(ConfigError, match="record_every"):
            parse_config(MINIMAL + "run.record_every = 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "section, key, problem",
        [
            ("mode.kind = regularized\nmode.eps = 0.01\nmode.delta = 0.001", "mode.eps",
             "must be nonnegative and finite"),
            ("mode.kind = regularized\nmode.eps = 0.01\nmode.delta = 0.001", "mode.delta",
             "must be nonnegative and finite"),
            ("rho0.kind = poly_bump\nrho0.amp = -140.0\nrho0.a = -0.5\nrho0.b = 0.5\n"
             "rho0.p = 3\nrho0.q = 0\nrho0.r = 3", "rho0.amp", "must be finite"),
            ("rho0.kind = poly_bump\nrho0.amp = -140.0\nrho0.a = -0.5\nrho0.b = 0.5\n"
             "rho0.p = 3\nrho0.q = 0\nrho0.r = 3", "rho0.a", "must be finite"),
            ("rho0.kind = constant\nrho0.c = 1.0", "rho0.c", "must be finite"),
            ("rho0.kind = cosine\nrho0.mean = 1.0\nrho0.amp = 0.1\nrho0.mode = 1",
             "rho0.mean", "must be finite"),
            ("rho0.kind = cosine\nrho0.mean = 1.0\nrho0.amp = 0.1\nrho0.mode = 1",
             "rho0.amp", "must be finite"),
        ],
    )
    def test_nonfinite_number_rejected_with_its_key(self, section, key, problem, value):
        base = MINIMAL
        if section.startswith("rho0."):
            base = MINIMAL.replace("rho0.kind = constant\nrho0.c = 1.0\n", "")
        lines = (base + section).splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key} ="))
        lines[lineno - 1] = f"{key} = {value}"
        with pytest.raises(ConfigError, match=rf"^line {lineno}: {key} {problem}, got"):
            parse_config("\n".join(lines) + "\n")

    def test_poly_bump_and_mode_sections(self):
        text = MINIMAL.replace(
            "rho0.kind = constant\nrho0.c = 1.0",
            "rho0.kind = poly_bump\nrho0.amp = -140.0\nrho0.a = -0.5\n"
            "rho0.b = 0.5\nrho0.p = 3\nrho0.q = 0\nrho0.r = 3",
        )
        text += "mode.kind = regularized\nmode.eps = 0.01\nmode.delta = 0.001\n"
        cfg = parse_config(text)
        assert cfg.rho0 == PolyBump(-140.0, -0.5, 0.5, 3, 0, 3)
        assert cfg.mode.eps == 0.01

    def test_cosine_initial_data(self):
        text = MINIMAL.replace(
            "rho0.kind = constant\nrho0.c = 1.0",
            "rho0.kind = cosine\nrho0.mean = 1.0\nrho0.amp = 0.1\nrho0.mode = 1",
        )
        cfg = parse_config(text)
        g = Grid(1.0, 64)
        sampled = cfg.rho0.sample(g)
        assert sampled.values[g.n_points // 2] == pytest.approx(1.1)

    def test_csv_initial_data_resolved_and_loaded(self, tmp_path):
        g = Grid(1.0, 64)
        lines = ["x,value"] + [f"{float(x)!r},{1.0 + 0.1 * float(np.cos(np.pi * x))!r}" for x in g.x]
        (tmp_path / "rho.csv").write_text("\n".join(lines) + "\n")
        text = MINIMAL.replace(
            "rho0.kind = constant\nrho0.c = 1.0",
            "rho0.kind = csv\nrho0.path = rho.csv",
        )
        cfg = parse_config(text, base_dir=str(tmp_path))
        assert cfg.rho0.path == str(tmp_path / "rho.csv")
        sampled = cfg.rho0.sample(g)
        assert sampled.values[g.n_points // 2] == pytest.approx(1.1)

    def test_csv_node_mismatch_rejected(self, tmp_path):
        (tmp_path / "rho.csv").write_text("x,value\n0.0,1.0\n")
        text = MINIMAL.replace(
            "rho0.kind = constant\nrho0.c = 1.0",
            "rho0.kind = csv\nrho0.path = rho.csv",
        )
        cfg = parse_config(text, base_dir=str(tmp_path))
        with pytest.raises(ValueError, match="does not match"):
            cfg.rho0.sample(Grid(1.0, 64))


class TestInitialDataSpecs:
    def test_poly_bump_validation(self):
        with pytest.raises(ValueError):
            PolyBump(1.0, 0.5, -0.5, 3, 0, 3)
        with pytest.raises(ValueError):
            PolyBump(1.0, -0.5, 0.5, 3, -1, 3)

    def test_poly_bump_vanishes_outside_window(self):
        g = Grid(1.0, 256)
        f = PolyBump(-140.0, -0.5, 0.5, 3, 0, 3).sample(g)
        outside = np.abs(g.x) > 0.5
        assert np.all(f.values[outside] == 0.0)
        assert np.all(f.values[~outside] >= 0.0)

    def test_cosine_mode_must_be_integer(self):
        with pytest.raises(ValueError):
            Cosine(1.0, 0.1, -2)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda v: PolyBump(v, -0.5, 0.5, 3, 0, 3), "amp"),
            (lambda v: PolyBump(1.0, v, 0.5, 3, 0, 3), "a"),
            (lambda v: PolyBump(1.0, -0.5, v, 3, 0, 3), "b"),
            (lambda v: Constant(v), "c"),
            (lambda v: Cosine(v, 0.1, 1), "mean"),
            (lambda v: Cosine(1.0, v, 1), "amp"),
        ],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_numbers_rejected(self, build, field, value):
        with pytest.raises(InvalidValue, match=f"^{field} must be finite") as exc:
            build(value)
        assert exc.value.field == field


class TestPresets:
    def test_blowup_preset_center_values(self):
        cfg = preset("fig1-blowup")
        g = Grid(cfg.grid_L, cfg.grid_N)
        rho0 = cfg.rho0.sample(g)
        assert rho0.values[g.n_points // 2] == 0.0
        assert cfg.grid_N == 1024
        assert cfg.params.mu == 0.5

    def test_support_preset_center_value(self):
        cfg = preset("fig2-support")
        g = Grid(cfg.grid_L, cfg.grid_N)
        rho0 = cfg.rho0.sample(g)
        assert rho0.values[g.n_points // 2] == pytest.approx(2.1875, abs=1e-12)

    def test_support_preset_area_sits_inside_density(self):
        from xdiff.diagnostics import support

        cfg = preset("fig2-support")
        g = Grid(cfg.grid_L, cfg.grid_N)
        a0 = support(g, cfg.A0.sample(g).values)
        r0 = support(g, cfg.rho0.sample(g).values)
        assert len(a0) == 1 and len(r0) == 1
        assert abs(a0[0][0] - (-0.3)) <= 2 * g.dx and abs(a0[0][1] - 0.3) <= 2 * g.dx
        assert r0[0][0] < a0[0][0] and a0[0][1] < r0[0][1]

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("fig3")


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["fig1-blowup", "fig2-support"])
    def test_presets_round_trip_exactly(self, name):
        cfg = preset(name)
        assert parse_config(render_config(cfg)) == cfg

    def test_minimal_round_trips(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(render_config(cfg)) == cfg

    def test_overrides_applied_through_config_format(self):
        cfg = preset_with_overrides(
            "fig2-support",
            {"run.t_end": "0.0001", "grid.N": "256", "run.snapshot_times": "0.0, 5e-5"},
        )
        assert cfg.t_end == 0.0001
        assert cfg.grid_N == 256
        assert cfg.snapshot_times == (0.0, 5e-5)

    def test_override_must_respect_validation(self):
        # shrinking t_end below the preset snapshots is caught
        with pytest.raises(ConfigError, match="snapshot time"):
            preset_with_overrides("fig2-support", {"run.t_end": "0.0001"})

    def test_override_of_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            preset_with_overrides("fig1-blowup", {"grid.M": "12"})


def finite(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def poly_bumps(draw):
    a = draw(finite(-1.0, 1.0))
    b = draw(finite(a, 2.0, exclude_min=True))
    p, q, r = (draw(st.integers(0, 6)) for _ in range(3))
    return PolyBump(draw(finite(-1e4, 1e4)), a, b, p, q, r)


INITIAL_DATA = st.one_of(
    poly_bumps(),
    st.builds(Constant, finite(0.0, 10.0)),
    st.builds(Cosine, finite(0.0, 10.0), finite(-1.0, 1.0), st.integers(0, 50)),
    st.builds(CsvData, st.from_regex(r"/[a-z0-9_]{1,12}/[a-z0-9_]{1,12}\.csv", fullmatch=True)),
)
MODES = st.one_of(
    st.just(RunMode()),
    st.just(RunMode("sqrt")),
    st.builds(RunMode, st.just("regularized"), finite(0.0, 1.0), finite(0.0, 1.0)),
)


@st.composite
def step_controls(draw):
    dt_min = draw(finite(1e-16, 1e-3))
    return StepControl(
        cfl_safety=draw(finite(0.0, 1.0, exclude_min=True)),
        dt_min=dt_min,
        dt_max=draw(finite(dt_min, 1.0, exclude_min=True)),
    )


def write_kernel_csv(directory, grid, width):
    """A Gaussian sampled kernel for ``grid``, as a file the config can name."""
    path = os.path.join(directory, f"kernel-{grid.n_points}-{grid.half_length!r}-{width!r}.csv")
    rows = [f"{float(x)!r},{float(np.exp(-(x**2) / width))!r}" for x in grid.x]
    with open(path, "w") as fh:
        fh.write("x,gamma\n" + "\n".join(rows) + "\n")
    return path


@st.composite
def run_configs(draw, kernel_dir=None, initial=INITIAL_DATA):
    """Random valid configurations; sampled kernels only when ``kernel_dir`` is given."""
    grid = Grid(draw(finite(0.1, 10.0)), 2 * draw(st.integers(8, 64)))
    if kernel_dir is not None and draw(st.booleans()):
        kernel = load_sampled_kernel(
            write_kernel_csv(kernel_dir, grid, draw(finite(1e-3, 1.0))), grid
        )
    else:
        kernel = BoxKernel(draw(finite(1e-6, 10.0)))
    params = ModelParams(
        alpha=draw(finite(1e-6, 1e3)),
        mu=draw(finite(0.0, 1.0, exclude_max=True)),
        beta=draw(finite(1e-6, 1e3)),
        beta_tilde=draw(finite(0.0, 1e3)),
        K=draw(finite(1e-6, 1e3)),
        K_tilde=draw(finite(1e-6, 1e3)),
        kernel=kernel,
    )
    t_end = draw(finite(0.0, 10.0))
    return RunConfig(
        grid_L=grid.half_length,
        grid_N=grid.n_points,
        params=params,
        rho0=draw(initial),
        A0=draw(initial),
        mode=draw(MODES),
        ctrl=draw(step_controls()),
        t_end=t_end,
        record_every=draw(st.integers(1, 1000)),
        snapshot_times=tuple(draw(st.lists(finite(0.0, t_end), max_size=4))),
        output_dir=draw(st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)),
    )


@pytest.fixture(scope="module")
def kernel_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("kernels"))


def rendered_pairs(cfg):
    return dict(line.split(" = ", 1) for line in render_config(cfg).splitlines())


class TestKeyTableProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_render_parse_round_trip(self, kernel_dir, data):
        cfg = data.draw(run_configs(kernel_dir))
        assert parse_config(render_config(cfg)) == cfg

    @pytest.mark.parametrize("name", ["fig1-blowup", "fig2-support"])
    def test_overriding_each_key_with_its_own_value_is_identity(self, name):
        for key, value in rendered_pairs(preset(name)).items():
            assert preset_with_overrides(name, {key: value}) == preset(name), key

    @settings(max_examples=60, deadline=None)
    @given(cfg=run_configs(initial=poly_bumps()))
    def test_overrides_reach_every_key(self, cfg):
        # same kinds as the preset, so every rendered key of cfg is a preset key
        assert preset_with_overrides("fig1-blowup", rendered_pairs(cfg)) == cfg
