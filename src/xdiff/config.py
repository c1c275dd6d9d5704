"""Run configuration: flat ``section.key = value`` parsing, rendering, presets,
and initial-data sampling.  One key table, read off the dataclass fields,
drives parse, render and overrides; the objects own every value check."""

from __future__ import annotations

import dataclasses
import functools
import os
import typing
from dataclasses import dataclass
from typing import Union

import numpy as np

from .grid import Field, Grid, InvalidValue, read_node_csv
from .integrator import RunMode, StepControl
from .kernel import BoxKernel, SampledKernel, load_sampled_kernel
from .model import ModelParams


class ConfigError(ValueError):
    """Configuration rejection with a human-readable location."""


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def _require_finite(spec, *names: str) -> None:
    for name in names:
        value = getattr(spec, name)
        if not np.isfinite(value):
            raise InvalidValue(name, f"must be finite, got {value}")


@dataclass(frozen=True)
class PolyBump:
    """amp * (x - a)^p * x^q * (x - b)^r on [a, b], zero outside.

    The closed-form polynomial is evaluated at the nodes and zeroed outside
    the bump; the contact kink at the endpoints is left unmollified.
    """

    amp: float
    a: float
    b: float
    p: int
    q: int
    r: int

    def __post_init__(self) -> None:
        _require_finite(self, "amp", "a", "b")
        if not self.a < self.b:
            raise InvalidValue("b", f"must exceed a = {self.a}, got {self.b}")
        for name in ("p", "q", "r"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 0):
                raise InvalidValue(name, f"must be a nonnegative integer, got {v!r}")

    def sample(self, grid: Grid) -> Field:
        x = grid.x
        values = self.amp * (x - self.a) ** self.p * x**self.q * (x - self.b) ** self.r
        return Field(grid, np.where((x >= self.a) & (x <= self.b), values, 0.0))


@dataclass(frozen=True)
class Constant:
    c: float

    def __post_init__(self) -> None:
        _require_finite(self, "c")

    def sample(self, grid: Grid) -> Field:
        return Field(grid, np.full(grid.n_points, self.c))


@dataclass(frozen=True)
class Cosine:
    """mean + amp * cos(mode * pi * x / L) for an integer mode number."""

    mean: float
    amp: float
    mode: int

    def __post_init__(self) -> None:
        _require_finite(self, "mean", "amp")
        if not (isinstance(self.mode, (int, np.integer)) and self.mode >= 0):
            raise InvalidValue("mode", f"must be a nonnegative integer, got {self.mode!r}")

    def sample(self, grid: Grid) -> Field:
        return Field(
            grid,
            self.mean + self.amp * np.cos(self.mode * np.pi * grid.x / grid.half_length),
        )


@dataclass(frozen=True)
class CsvData:
    """Node samples from a two-column ``x,value`` file matched to the grid."""

    path: str

    def sample(self, grid: Grid) -> Field:
        return Field(grid, read_node_csv(self.path, grid))


InitialDataSpec = Union[PolyBump, Constant, Cosine, CsvData]


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    grid_L: float
    grid_N: int
    params: ModelParams
    rho0: InitialDataSpec
    A0: InitialDataSpec
    mode: RunMode
    ctrl: StepControl
    t_end: float
    record_every: int = 10
    snapshot_times: tuple[float, ...] = ()
    output_dir: str = "xdiff-out"

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise InvalidValue("t_end", f"must be a nonnegative finite time, got {self.t_end}")
        if not (isinstance(self.record_every, (int, np.integer)) and self.record_every >= 1):
            raise InvalidValue(
                "record_every", f"must be a positive integer, got {self.record_every}"
            )
        for ts in self.snapshot_times:
            if not (0.0 <= ts <= self.t_end):
                raise InvalidValue(
                    "snapshot_times", f"holds snapshot time {ts} outside [0, {self.t_end}]"
                )
        object.__setattr__(self, "snapshot_times", tuple(sorted(self.snapshot_times)))


# ---------------------------------------------------------------------------
# the key table and the flat key = value format
# ---------------------------------------------------------------------------

# name of each class a ``<section>.kind`` key can select
_KIND_NAMES = {
    BoxKernel: "box",
    SampledKernel: "sampled",
    PolyBump: "poly_bump",
    Constant: "constant",
    Cosine: "cosine",
    CsvData: "csv",
}

# scalar field type -> (parse, render, what the text must be)
_SCALARS = {
    float: (float, repr, "a number"),
    int: (int, str, "an integer"),
    str: (str, str, "text"),
    tuple[float, ...]: (
        lambda text: tuple(float(part) for part in text.split(",")) if text else (),
        lambda ts: ", ".join(repr(t) for t in ts),
        "a comma-separated list of numbers",
    ),
}


@functools.cache
def _key_table(cls: type) -> tuple[tuple[str, str, object, object], ...]:
    """``(field, key, type, default)`` for each field of ``cls``.

    Keys are relative to the section the object sits in.  A dataclass field
    opens a section named after its key; a Union field adds a ``kind`` key
    that picks the class.  RunConfig's own scalars sit under ``run.``, except
    ``grid.L`` and ``grid.N``.  A field without a default is a required key.
    """
    if cls is SampledKernel:  # the one special key: samples come from the file it names
        return (("source_path", "csv", str, dataclasses.MISSING),)
    hints = typing.get_type_hints(cls)
    rows = []
    for f in dataclasses.fields(cls):
        key, typ = f.name, hints[f.name]
        if cls is RunConfig and typ in _SCALARS:
            key = key.replace("grid_", "grid.") if key.startswith("grid_") else f"run.{key}"
        rows.append((f.name, key, typ, f.default))
    return tuple(rows)


def _split_entries(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)
    return entries


class _Reader:
    """Builds configuration objects from raw ``key -> (text, line)`` entries.

    Entries are consumed as the key table reads them, so whatever is left once
    every object is built is an unknown key.  Line 0 marks an entry with no
    source line.
    """

    def __init__(self, entries: dict[str, tuple[str, int]], base_dir: str):
        self.entries = dict(entries)
        self.lines = {key: line for key, (_, line) in entries.items()}
        self.base_dir = base_dir
        self.values: dict[str, object] = {}

    def error(self, key: str, problem: str) -> ConfigError:
        line = self.lines.get(key, 0)
        return ConfigError(f"{f'line {line}: ' if line else ''}{key} {problem}")

    def take(self, key: str, typ) -> object:
        if key not in self.entries:
            raise ConfigError(f"missing required key {key!r}")
        text, _ = self.entries.pop(key)
        parse, _, what = _SCALARS[typ]
        try:
            self.values[key] = parse(text)
        except ValueError:
            raise self.error(key, f"must be {what}, got {text!r}") from None
        return self.values[key]

    def kind(self, key: str, union) -> type:
        kinds = {_KIND_NAMES[cls]: cls for cls in typing.get_args(union)}
        name = self.take(f"{key}.kind", str)
        if name not in kinds:
            raise self.error(f"{key}.kind", f"must be one of {', '.join(kinds)}, got {name!r}")
        return kinds[name]

    def path(self, path: str) -> str:
        """Resolve a relative file path against the config file's directory."""
        return path if os.path.isabs(path) else os.path.normpath(os.path.join(self.base_dir, path))

    def grid(self) -> Grid:
        """The run's mesh; Grid owns its checks, reported here against grid.L/grid.N."""
        try:
            return Grid(self.values["grid.L"], self.values["grid.N"])
        except InvalidValue as exc:
            key = {"half_length": "grid.L", "n_points": "grid.N"}[exc.field]
            raise self.error(key, exc.problem) from None

    def read(self, cls: type, prefix: str = ""):
        """Build ``cls`` from the keys of its table under ``prefix``."""
        rows = _key_table(cls)
        kwargs = {}
        for field, key, typ, default in rows:
            key = prefix + key
            if dataclasses.is_dataclass(typ):
                kwargs[field] = self.read(typ, f"{key}.")
            elif typing.get_origin(typ) is Union:
                kwargs[field] = self.read(self.kind(key, typ), f"{key}.")
            elif key in self.entries or default is dataclasses.MISSING:
                kwargs[field] = self.take(key, typ)

        if cls is SampledKernel:
            grid = self.grid()
            try:
                return load_sampled_kernel(self.path(kwargs["source_path"]), grid)
            except (ValueError, OSError) as exc:
                raise self.error(f"{prefix}csv", f"cannot be loaded: {exc}") from None
        if cls is CsvData:
            kwargs["path"] = self.path(kwargs["path"])
        if cls is RunConfig:
            self.grid()
            if self.entries:
                key = min(self.entries, key=lambda k: self.lines[k])
                raise ConfigError(f"line {self.lines[key]}: unknown key {key!r}")
        try:
            return cls(**kwargs)
        except InvalidValue as exc:
            key = next(key for field, key, _, _ in rows if field == exc.field)
            raise self.error(prefix + key, exc.problem) from None


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse the flat ``section.key = value`` format (comments with '#').

    Unknown keys are rejected with their line number; relative csv paths are
    resolved against ``base_dir``.
    """
    return _Reader(_split_entries(text), base_dir).read(RunConfig)


def _render(obj, prefix: str = "") -> list[tuple[str, str]]:
    """``(key, text)`` for every key of ``obj``, in key table order."""
    pairs = []
    for field, key, typ, _ in _key_table(type(obj)):
        key, value = prefix + key, getattr(obj, field)
        if typing.get_origin(typ) is Union:
            pairs.append((f"{key}.kind", _KIND_NAMES[type(value)]))
        if dataclasses.is_dataclass(value):
            pairs += _render(value, f"{key}.")
        else:
            pairs.append((key, _SCALARS[typ][1](value)))
    return pairs


def render_config(config: RunConfig) -> str:
    """Serialize a configuration to the flat format (parse round-trips exactly)."""
    kernel = config.params.kernel
    if isinstance(kernel, SampledKernel) and not kernel.source_path:
        raise ValueError("sampled kernel without a source path cannot be rendered")
    return "".join(f"{key} = {text}\n" for key, text in _render(config))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# what differs between the presets; both share the grid, parameters and controls
_PRESETS = {
    "fig1-blowup": dict(
        rho0=PolyBump(amp=-2000.0, a=-0.5, b=0.5, p=3, q=2, r=3),
        A0=PolyBump(amp=-6000.0, a=-0.3, b=0.3, p=3, q=2, r=3),
        t_end=0.05,
        record_every=1,
        snapshot_times=(0.0, 0.0015, 0.003, 0.0045),
    ),
    "fig2-support": dict(
        rho0=PolyBump(amp=-140.0, a=-0.5, b=0.5, p=3, q=0, r=3),
        A0=PolyBump(amp=-2000.0, a=-0.3, b=0.3, p=3, q=0, r=3),
        t_end=0.00035,
        snapshot_times=(0.0, 0.0001, 0.0002, 0.00035),
    ),
}


def preset(name: str) -> RunConfig:
    """Built-in experiment configurations.

    ``fig1-blowup`` starts from an even density bump vanishing quadratically
    at the center with supercritical curvature there, and runs until the
    curvature detector halts.  The detector reads the curvature after every
    step whatever the record cadence; the preset records every step so that
    criterion 1 can check that the last 50 records rise.  ``fig2-support``
    starts from a strictly positive-at-center density bump with the area
    supported strictly inside it, exercising support invariance and
    area-support expansion.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r} (available: {', '.join(_PRESETS)})")
    return RunConfig(
        grid_L=1.0,
        grid_N=1024,
        params=ModelParams(alpha=1.0, mu=0.5, beta=0.75, beta_tilde=0.5, K=1.0, K_tilde=0.5,
                           kernel=BoxKernel(0.05)),
        mode=RunMode(),
        ctrl=StepControl(),
        output_dir=f"{name}-out",
        **_PRESETS[name],
    )


def preset_with_overrides(name: str, overrides: dict[str, str]) -> RunConfig:
    """Preset with ``key = value`` overrides applied through the config format."""
    entries = {key: (text, 0) for key, text in _render(preset(name))}
    for key, value in overrides.items():
        if key not in entries:
            raise ConfigError(f"override targets unknown key {key!r}")
        entries[key] = (value, 0)
    return _Reader(entries, ".").read(RunConfig)
