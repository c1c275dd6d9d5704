"""Uniform periodic mesh with Fourier pseudo-spectral differentiation, node-value
fields, and the reader for node-sampled CSV files."""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

MIN_POINTS = 16


class GridMismatchError(ValueError):
    """Raised when two fields (or a kernel and a field) live on different grids."""


class InvalidValue(ValueError):
    """A constructor argument outside its domain; ``field`` names the argument.

    The message reads ``"<field> <problem>"``, so a caller that knows where the
    argument came from (a config key and line) can report ``problem`` there.
    """

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field = field
        self.problem = problem


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, not a bool, that a float
    can hold: ``True`` would render as text that no integer key parses back,
    and every integer key meets float arithmetic (the mesh, a power, a mode)."""
    return (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max
    )


@dataclass(frozen=True)
class Grid:
    """Uniform mesh of ``N`` nodes on the periodic interval [-L, L].

    The fields ``L`` and ``N`` are the config keys ``grid.L`` and ``grid.N``,
    and a bad value raises ``InvalidValue("L" or "N", ...)``.  Nodes are
    x_j = -L + j*dx with dx = 2L/N; the right endpoint x = L is identified
    with x = -L.  So x = 0 is node N/2, where rfft mode m carries
    ``phase[m] = (-1)^m``, and the mirror x -> -x pairs node j with node
    (N - j) mod N (:func:`mirror`).  The read-only arrays are built once per
    grid: the nodes ``x``, the wavenumbers ``k``, ``phase``, ``d2_phase``
    (the x = 0 node's weights of the second derivative, -k^2 times ``phase``)
    and ``energy_weights`` (the energies' Parseval weights, see
    :func:`xdiff.model.energy`).
    """

    L: float
    N: int

    def __post_init__(self) -> None:
        L, n = self.L, self.N
        if not is_integer(n):
            raise InvalidValue("N", f"must be an integer, got {n!r}")
        if n % 2 != 0:
            raise InvalidValue("N", f"must be even, got {n}")
        if n < MIN_POINTS:
            raise InvalidValue("N", f"must be >= {MIN_POINTS}, got {n}")
        # numpy sizes no array of more bytes than its index type holds; the
        # largest here, the energy weights, holds 3 rows of N + 2 floats
        if 24 * (int(n) + 2) > np.iinfo(np.intp).max:
            raise InvalidValue("N", f"is too large for an array, got {n}")
        if not (np.isfinite(L) and L > 0):
            raise InvalidValue("L", f"must be positive and finite, got {L}")
        object.__setattr__(self, "L", float(L))
        object.__setattr__(self, "N", int(n))

        dx = 2.0 * self.L / self.N
        k_top = np.pi / self.L * (self.N // 2)  # the largest wavenumber
        # a finite L can still overflow the spacing (L near the float maximum), or
        # the energy weights, twice the wavenumbers' sixth power (a tiny L);
        # Python floats overflow to inf without a warning
        k_cube = k_top * k_top * k_top
        if not (np.isfinite(dx) and np.isfinite(2.0 * (1.0 + k_cube * k_cube))):
            raise InvalidValue(
                "L", f"gives a non-finite spacing or wavenumbers on {n} points, got {L}"
            )
        x = -self.L + dx * np.arange(self.N, dtype=np.float64)
        # Angular wavenumbers pi*m/L for the rfft modes m = 0..N/2.
        k = (np.pi / self.L) * np.arange(self.N // 2 + 1, dtype=np.float64)
        k2 = k * k
        # |D^3|^2 = (k^3)^2 with the Nyquist mode dropped, as for an odd order
        k3 = k * k2
        k3[-1] = 0.0
        # the real-FFT weights w_m, 1 at m = 0 and at Nyquist and 2 elsewhere
        w = np.full(k.size, 2.0)
        w[[0, -1]] = 1.0
        # w_m (1 + |d_m|^2) for the energies' rows with d of order 3, 2, 2, once
        # for a mode's real and once for its imaginary part
        rows = w * (1.0 + np.stack((k3 * k3, k2 * k2, k2 * k2)))
        phase = (-1.0) ** np.arange(k.size)
        arrays = dict(
            x=x, k=k, phase=phase, d2_phase=-k2 * phase, energy_weights=np.repeat(rows, 2, axis=1)
        )
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "dx", dx)


def mirror(values: np.ndarray) -> np.ndarray:
    """Node values at -x: entry j is ``values[(N - j) % N]`` for N nodes."""
    return np.concatenate((values[:1], values[:0:-1]))


def all_finite(values: np.ndarray) -> bool:
    """Whether every entry of ``values`` is finite, the package's one array test:
    a finite sum of squares has only finite terms, so one warning-free dot product
    decides for finite entries, and a scan of the entries decides when it overflows."""
    return math.isfinite(np.vdot(values, values)) or bool(np.isfinite(values).all())


@dataclass(frozen=True, eq=False)
class Field:
    """Real samples of a function at the nodes of a :class:`Grid`.

    The value array is copied and locked at construction.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        if vals.size != self.grid.N:
            raise ValueError(f"field has {vals.size} samples but grid has {self.grid.N} nodes")
        if not all_finite(vals):
            raise ValueError("field values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def read_node_csv(path: str, grid: Grid) -> np.ndarray:
    """Value column of a two-column ``x,value`` CSV of node samples.

    Blank lines, ``#`` comments and a header row starting with ``x`` are
    skipped; the x column must match the grid nodes.
    """
    xs, vs = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().startswith("#") or row[0].strip().lower() == "x":
                continue
            try:
                if len(row) != 2:
                    raise ValueError(f"expected two columns 'x,value', got {row!r}")
                xs.append(float(row[0]))
                vs.append(float(row[1]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(xs) != grid.N or not np.allclose(xs, grid.x, rtol=0.0, atol=1e-9 * grid.L):
        raise ValueError(f"{path}: x column does not match the {grid.N}-node grid")
    return np.asarray(vs)
