"""Every per-layer hook of the benchmark must find its target in the package.

``bench/hooks.py`` looks its targets up by name and marks a missing one as an
absent layer instead of failing, so a rename would silently blank a metric.
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
