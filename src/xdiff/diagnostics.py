"""Trajectory diagnostics: central curvature, supports, symmetry, and the
blow-up time of the scalar comparison equation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Field
from .model import State

SUPPORT_THRESHOLD_SCALE = 1e-9

Interval = tuple[float, float]


@dataclass(frozen=True)
class DiagnosticRecord:
    """One recorded instant of a run.

    Supports are interval lists in physical coordinates.  Energies may be
    +inf; everything else is finite.  ``zero_set_max_rho`` is the largest
    density value over the nodes where the initial density vanished, one
    boundary cell excluded on each side.
    """

    t: float
    max_rho: float
    min_rho: float
    min_A: float
    rho_xx_at_0: float
    supp_rho: tuple[Interval, ...]
    supp_A: tuple[Interval, ...]
    mass_rho: float
    mass_A: float
    e_tilde: float
    e_sqrt: float
    symmetry_defect_rho: float
    zero_set_max_rho: Optional[float] = None


def second_derivative_at_center(s: State) -> float:
    """Spectral second derivative of the density at the x = 0 node."""
    grid = s.grid
    j = grid.index_of_zero()
    if abs(grid.x[j]) > 1e-12 * grid.half_length:
        raise ValueError("grid has no node at x = 0")
    return float(grid.deriv_values(s.rho.values, 2)[j])


def support(f: Field, threshold: Optional[float] = None) -> list[Interval]:
    """Maximal runs of nodes above ``threshold`` as closed intervals.

    Each run of consecutive nodes with f > threshold becomes the interval
    [x_first - dx/2, x_last + dx/2], clamped to the periodic cell.  The
    default threshold is relative because spectral representations of
    compactly supported data carry roundoff-level ripples outside the true
    support.  A run crossing the periodic seam is reported as its two pieces
    inside [-L, L]; a field above threshold everywhere yields [-L, L].
    """
    grid = f.grid
    if threshold is None:
        threshold = SUPPORT_THRESHOLD_SCALE * max(float(np.max(f.values)), 1.0)
    if threshold <= 0:
        raise ValueError(f"support threshold must be positive, got {threshold}")
    above = f.values > threshold
    if not above.any():
        return []
    if above.all():
        return [(-grid.half_length, grid.half_length)]

    idx = np.nonzero(above)[0]
    splits = np.nonzero(np.diff(idx) > 1)[0]
    starts = np.concatenate(([idx[0]], idx[splits + 1]))
    ends = np.concatenate((idx[splits], [idx[-1]]))
    wraps = above[0] and above[-1]  # one run continues through the seam

    half = 0.5 * grid.dx
    intervals = []
    for j0, j1 in zip(starts, ends):
        lo = max(grid.x[j0] - half, -grid.half_length)
        hi = grid.x[j1] + half
        if wraps and j1 == grid.n_points - 1:
            hi = grid.half_length
        intervals.append((float(lo), float(min(hi, grid.half_length))))
    return intervals


def symmetry_defect(f: Field) -> float:
    """Largest deviation from evenness about x = 0: max |f_j - f_{(N-j) mod N}|."""
    n = f.grid.n_points
    reflected = f.values[(-np.arange(n)) % n]
    return float(np.max(np.abs(f.values - reflected)))


def t_star(y0: float, theta: float) -> float:
    """Blow-up time (1/theta) * ln(y0 / (y0 - theta)); +inf when y0 <= theta."""
    if theta < 0:
        raise ValueError(f"theta must be nonnegative, got {theta}")
    if y0 <= theta:
        return math.inf
    if theta == 0.0:
        return 1.0 / y0
    # log1p form stays accurate in the vanishing-damping limit theta -> 0
    return math.log1p(theta / (y0 - theta)) / theta
