"""Pseudo-spectral simulator for a coupled occupied-area / population-density
cross-diffusion system on a periodic interval, with runtime diagnostics for
positivity, density sup bounds, curvature blow-up, and support dynamics.

The package root holds the entry points; everything else is imported from
its submodule.
"""

from .config import (
    ConfigError,
    RunConfig,
    parse_config,
    preset,
    preset_with_overrides,
    render_config,
)
from .diagnostics import t_star
from .integrator import HaltReason, run
from .model import blowup_threshold

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "HaltReason",
    "RunConfig",
    "blowup_threshold",
    "parse_config",
    "preset",
    "preset_with_overrides",
    "render_config",
    "run",
    "t_star",
]
