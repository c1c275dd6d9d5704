"""Uniform periodic mesh with Fourier pseudo-spectral differentiation, node-value
fields, and the reader for node-sampled CSV files."""

from __future__ import annotations

import csv
import math
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


@dataclass(frozen=True)
class Grid:
    """Uniform mesh of ``n_points`` nodes on the periodic interval [-L, L].

    Nodes are x_j = -L + j*dx with dx = 2L/n_points; the right endpoint x = L
    is identified with x = -L.  So x = 0 is node N/2, where rfft mode m carries
    ``phase[m] = (-1)^m``, and the mirror x -> -x pairs node j with node
    (N - j) mod N (:func:`mirror`).  The read-only real-FFT multipliers are built once per
    grid: ``ik`` (the Nyquist-zeroed D), ``k2``, ``d2`` and ``d3`` (the
    derivatives of order 2 and 3), ``d2_phase`` (``d2`` times ``phase``) and
    ``energy_weights`` (the energies' Parseval weights, see
    :func:`xdiff.model.energy`).
    """

    half_length: float
    n_points: int

    def __post_init__(self) -> None:
        L, n = self.half_length, self.n_points
        if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool)):
            raise InvalidValue("n_points", f"must be an integer, got {n!r}")
        if n % 2 != 0:
            raise InvalidValue("n_points", f"must be even, got {n}")
        if n < MIN_POINTS:
            raise InvalidValue("n_points", f"must be >= {MIN_POINTS}, got {n}")
        if not (np.isfinite(L) and L > 0):
            raise InvalidValue("half_length", f"must be positive and finite, got {L}")
        object.__setattr__(self, "half_length", float(L))
        object.__setattr__(self, "n_points", int(n))

        dx = 2.0 * self.half_length / self.n_points
        k_top = np.pi / self.half_length * (self.n_points // 2)  # the largest wavenumber
        # a finite L can still overflow the spacing (L near the float maximum), or
        # the energy weights, twice the wavenumbers' sixth power (a tiny L);
        # Python floats overflow to inf without a warning
        k_cube = k_top * k_top * k_top
        if not (np.isfinite(dx) and np.isfinite(2.0 * (1.0 + k_cube * k_cube))):
            raise InvalidValue(
                "half_length", f"gives a non-finite spacing or wavenumbers on {n} points, got {L}"
            )
        x = -self.half_length + dx * np.arange(self.n_points, dtype=np.float64)
        # Angular wavenumbers pi*m/L for the rfft modes m = 0..N/2.
        k = (np.pi / self.half_length) * np.arange(self.n_points // 2 + 1, dtype=np.float64)
        ik = 1j * k
        ik[-1] = 0.0  # Nyquist mode dropped for odd-order derivatives on even N
        k2 = k**2
        arrays = dict(x=x, k=k, k2=k2, phase=(-1.0) ** np.arange(k.size))
        # multipliers of D and of the derivatives of order 2 and 3
        arrays.update(ik=ik, d2=-k2, d3=-ik * k2)
        # the real-FFT weights w_m, 1 at m = 0 and at Nyquist and 2 elsewhere
        w = np.full(k.size, 2.0)
        w[[0, -1]] = 1.0
        # the x = 0 node's weights of d2 (the per-row product bit for bit), and
        # w_m (1 + |d_m|^2) for the energies' rows with d = d3, d2, d2, once for
        # a mode's real and once for its imaginary part
        rows = w * (1.0 + np.stack((np.abs(arrays["d3"]) ** 2, k2 * k2, k2 * k2)))
        arrays.update(
            d2_phase=arrays["d2"] * arrays["phase"], energy_weights=np.repeat(rows, 2, axis=1)
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
        if vals.size != self.grid.n_points:
            raise ValueError(
                f"field has {vals.size} samples but grid has {self.grid.n_points} nodes"
            )
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
    if len(xs) != grid.n_points or not np.allclose(
        xs, grid.x, rtol=0.0, atol=1e-9 * grid.half_length
    ):
        raise ValueError(f"{path}: x column does not match the {grid.n_points}-node grid")
    return np.asarray(vs)
