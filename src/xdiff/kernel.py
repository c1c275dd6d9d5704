"""Nonlocal operators: even-kernel periodic convolution and heat-semigroup smoothing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .diagnostics import symmetry_defect
from .grid import Field, Grid, GridMismatchError, InvalidValue, mirror, read_node_csv

EVENNESS_TOL = 1e-12


@dataclass(frozen=True)
class BoxKernel:
    """Indicator kernel on [-half_width, half_width], handled through its exact
    Fourier symbol 2*sin(k*half_width)/k (value 2*half_width at k = 0).

    Using the analytic symbol instead of node samples keeps the kernel mass,
    and hence the blow-up threshold it feeds, free of O(dx) quadrature error.
    """

    half_width: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise InvalidValue("half_width", f"must be positive, got {self.half_width}")

    def l1_norm(self) -> float:
        return 2.0 * self.half_width

    def symbol(self, grid: Grid) -> np.ndarray:
        if self.half_width >= grid.half_length:
            raise ValueError(
                f"box kernel half_width {self.half_width} must be smaller than the "
                f"domain half length {grid.half_length}"
            )
        # 2*eps*sinc(k*eps/pi) = 2*sin(k*eps)/k with the k=0 limit built in
        return 2.0 * self.half_width * np.sinc(grid.k * self.half_width / np.pi)


@dataclass(frozen=True, eq=False)
class SampledKernel:
    """Even, nonnegative kernel given by node samples on a specific grid."""

    samples: Field
    source_path: str = ""

    def __post_init__(self) -> None:
        vals = self.samples.values
        if np.min(vals) < 0.0:
            raise ValueError("sampled kernel values must be nonnegative")
        defect = symmetry_defect(vals)
        if defect > EVENNESS_TOL:
            raise ValueError(f"sampled kernel is not even (defect {defect:.3e})")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SampledKernel)
            and self.samples.grid == other.samples.grid
            and np.array_equal(self.samples.values, other.samples.values)
        )

    def l1_norm(self) -> float:
        return float(np.sum(self.samples.values) * self.samples.grid.dx)

    def symbol(self, grid: Grid) -> np.ndarray:
        if grid != self.samples.grid:
            raise GridMismatchError("sampled kernel lives on a different grid")
        # Nodes start at -L, so the transform picks up the grid's phase (-1)^m.
        # The result is real for even kernels; roundoff imaginary parts dropped.
        sym = grid.dx * np.fft.rfft(self.samples.values)
        sym *= grid.phase
        return sym.real


KernelSpec = Union[BoxKernel, SampledKernel]


def heat_multiplier(grid: Grid, eps: float) -> np.ndarray:
    """Fourier multiplier exp(-eps*(2/dx*sin(k*dx/2))^2) of the 3-point Laplacian's
    heat semigroup at time eps.

    That generator has nonnegative off-diagonal entries and zero row sums, so
    the semigroup is a positive operator and keeps the mass, for every eps.
    """
    if eps < 0:
        raise ValueError(f"mollifier width eps must be nonnegative, got {eps}")
    return np.exp(-eps * (2.0 / grid.dx * np.sin(grid.k * grid.dx / 2.0)) ** 2)


def smooth(values: np.ndarray, damp: np.ndarray) -> np.ndarray:
    """Node arrays of any leading shape, each mode along the last axis times
    ``damp``: the package's one spectral smoothing.  Rows are transformed
    independently, so a stack smooths bit for bit as its rows one by one."""
    spectrum = np.fft.rfft(values)
    spectrum *= damp
    return np.fft.irfft(spectrum, n=values.shape[-1])


def mollify(f: Field, eps: float) -> Field:
    """Heat-semigroup smoothing: ``smooth`` by ``heat_multiplier``.

    eps = 0 returns the field unchanged.  The mean is preserved exactly, and
    nonnegative data stay nonnegative up to the transforms' roundoff.
    """
    return Field(f.grid, smooth(f.values, heat_multiplier(f.grid, eps)) if eps else f.values)


def load_sampled_kernel(path: str, grid: Grid) -> SampledKernel:
    """Read a two-column ``x,gamma`` CSV of node samples and symmetrize it.

    The x column must match the grid nodes; loaded values are replaced by
    their even part (g(x) + g(-x))/2 to absorb asymmetric rounding in the file.
    """
    gs = read_node_csv(path, grid)
    even = 0.5 * (gs + mirror(gs))
    return SampledKernel(Field(grid, even), source_path=path)
