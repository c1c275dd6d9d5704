"""Every per-layer hook of the benchmark must find its target in the package
and see every call a run makes into it.

``bench/hooks.py`` looks its targets up by name and marks a missing one as an
absent layer instead of failing, so a rename would silently blank a metric; a
name bound before the hooks are installed would blank it the same way.
"""

import importlib.util
from pathlib import Path

import pytest

HOOKS_PATH = Path(__file__).resolve().parents[1] / "bench" / "hooks.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("bench_hooks", HOOKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hooks = load_hooks()
TARGETS = hooks.SPAN_HOOKS + hooks.COUNT_HOOKS


@pytest.mark.parametrize(
    "layer, module, path", TARGETS, ids=[f"{module}.{path}" for _, module, path in TARGETS]
)
def test_hook_target_resolves(layer, module, path):
    assert hooks._resolve(module, path) is not None, f"layer {layer}: {module}.{path} is missing"


# FFT calls per right-side evaluation: one rfft of the stacked fields and one
# irfft of the stacked spectra; the mollified form adds a smoothing pair on
# each side.
FFTS_PER_RHS = {"original": 2, "regularized": 6, "sqrt": 2}


def traced_run(tracer, run_id, mode, t_end):
    from xdiff.config import Constant, Cosine, RunConfig
    from xdiff.integrator import StepControl, run
    from xdiff.kernel import BoxKernel
    from xdiff.model import ModelParams

    params = ModelParams(
        alpha=1.0, mu=0.5, beta=0.75, beta_tilde=0.5, K=1.0, K_tilde=0.5, kernel=BoxKernel(0.05)
    )
    cfg = RunConfig(
        grid_L=1.0,
        grid_N=32,
        params=params,
        rho0=Cosine(1.0, 0.1, 1),
        A0=Constant(1.0),
        mode=mode,
        ctrl=StepControl(dt_max=1e-4),
        t_end=t_end,
        record_every=10**6,  # only the initial and the final record
        snapshot_times=(),
        output_dir="unused",
    )
    tracer.begin_run(run_id)
    with tracer.installed():
        outcome = run(cfg)
    layers = tracer.layer_times(run_id)
    return outcome, layers, tracer.counts["grid.fft"]


@pytest.mark.parametrize("kind", sorted(FFTS_PER_RHS))
def test_hooks_see_every_stage_of_a_run(kind):
    from xdiff.integrator import RunMode

    mode = RunMode(kind, eps=1e-3) if kind == "regularized" else RunMode(kind)
    tracer = hooks.Tracer()
    short, short_layers, short_ffts = traced_run(tracer, 0, mode, 3e-4)
    long, long_layers, long_ffts = traced_run(tracer, 1, mode, 6e-4)
    assert tracer.absent == []
    for outcome, layers in ((short, short_layers), (long, long_layers)):
        assert outcome.steps > 0
        assert layers["integrator.step"]["calls"] == outcome.steps
        assert layers["model.rhs"]["calls"] == 4 * outcome.steps
        assert layers["diagnostics.record"]["calls"] == 2
    # both runs make the same set-up and record FFTs, so the difference is the stages'
    extra_rhs = long_layers["model.rhs"]["calls"] - short_layers["model.rhs"]["calls"]
    assert extra_rhs > 0
    assert long_ffts - short_ffts == FFTS_PER_RHS[kind] * extra_rhs
