"""Uniform periodic mesh with Fourier pseudo-spectral differentiation, quadrature,
and the reader for node-sampled CSV files."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

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
    is identified with x = -L.  Spectral multipliers for the real FFT layout
    are precomputed once and shared by all operations on the grid.
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
        x = -self.half_length + dx * np.arange(self.n_points, dtype=np.float64)
        # Angular wavenumbers pi*m/L for the rfft modes m = 0..N/2.
        k = (np.pi / self.half_length) * np.arange(self.n_points // 2 + 1, dtype=np.float64)
        ik = 1j * k
        ik[-1] = 0.0  # Nyquist mode dropped for odd-order derivatives on even N
        # High-order exponential roll-off (~1 below 3/4 of the band, ~2e-16 at
        # the Nyquist mode): tames aliased top-octave content of pointwise
        # products without the ringing a sharp cutoff adds at steep fronts.
        rel = np.arange(k.size, dtype=np.float64) / (self.n_points // 2)
        flux_filter = np.exp(-36.0 * rel**36)

        for name, arr in (
            ("x", x),
            ("k", k),
            ("_ik", ik),
            ("_flux_filter", flux_filter),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "dx", dx)

    # -- array-level spectral helpers (hot path; Field wrappers below) --

    def deriv_values(self, values: np.ndarray, order: int) -> np.ndarray:
        if order not in (1, 2, 3, 4):
            raise ValueError(f"derivative order must be 1..4, got {order}")
        fh = np.fft.rfft(values)
        mult = {1: self._ik, 2: -self.k**2, 3: -self._ik * self.k**2, 4: self.k**4}[order]
        return np.fft.irfft(fh * mult, n=self.n_points)

    def index_of_zero(self) -> int:
        """Node index of x = 0 (always n_points // 2 with this layout)."""
        return self.n_points // 2


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
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


class Norms(NamedTuple):
    l2: float
    linf: float
    min: float


def make_grid(half_length: float, n_points: int) -> Grid:
    """Build the uniform periodic mesh on [-half_length, half_length]."""
    return Grid(half_length, n_points)


def deriv(f: Field, order: int) -> Field:
    """Fourier pseudo-spectral derivative of the given order (1..4).

    Exact for modes resolved by the grid; the Nyquist coefficient is zeroed
    for odd orders so the result of a real input stays real-symmetric.
    """
    return Field(f.grid, f.grid.deriv_values(f.values, order))


def integrate(f: Field) -> float:
    """Rectangle-rule quadrature, exact for trigonometric polynomials below Nyquist."""
    return float(np.sum(f.values) * f.grid.dx)


def norms(f: Field) -> Norms:
    """L2 norm (via the grid quadrature), max-abs and pointwise minimum."""
    l2 = float(np.sqrt(np.sum(f.values**2) * f.grid.dx))
    return Norms(l2=l2, linf=float(np.max(np.abs(f.values))), min=float(np.min(f.values)))


def read_node_csv(path: str, grid: Grid) -> np.ndarray:
    """Value column of a two-column ``x,value`` CSV of node samples.

    Blank lines, ``#`` comments and a header row starting with ``x`` are
    skipped; the x column must match the grid nodes.
    """
    xs, vs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#") or row[0].strip().lower() == "x":
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: expected two columns 'x,value', got {row!r}")
            xs.append(float(row[0]))
            vs.append(float(row[1]))
    if len(xs) != grid.n_points or not np.allclose(
        xs, grid.x, rtol=0.0, atol=1e-9 * grid.half_length
    ):
        raise ValueError(f"{path}: x column does not match the {grid.n_points}-node grid")
    return np.asarray(vs)
