"""Trajectory diagnostics on node-value arrays: central curvature, supports,
symmetry, and the blow-up time of the scalar comparison equation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Grid, mirror

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


def second_derivative_at_center(
    grid: Grid, rho: np.ndarray, rho_hat: Optional[np.ndarray] = None
) -> float:
    """Spectral second derivative of the density node values at the x = 0 node.

    Only that node of the inverse transform is summed: mode m carries the
    grid's phase (-1)^m there, and the real-FFT weights are 1 at m = 0 and at
    Nyquist and 2 elsewhere.  A caller that holds ``rfft(rho)`` already
    passes it as ``rho_hat``.
    """
    if rho_hat is None:
        rho_hat = np.fft.rfft(rho)
    terms = grid.d2 * rho_hat.real * grid.phase
    return float((2.0 * np.sum(terms) - terms[0] - terms[-1]) / grid.n_points)


def support(grid: Grid, values: np.ndarray, threshold: Optional[float] = None) -> list[Interval]:
    """Maximal runs of nodes above ``threshold`` as closed intervals.

    Each run of consecutive nodes with values > threshold becomes the interval
    [x_first - dx/2, x_last + dx/2], clamped to the periodic cell.  The
    default threshold is relative because spectral representations of
    compactly supported data carry roundoff-level ripples outside the true
    support.  A run crossing the periodic seam is reported as its two pieces
    inside [-L, L]; a field above threshold everywhere yields [-L, L].
    """
    if threshold is None:
        threshold = SUPPORT_THRESHOLD_SCALE * max(float(np.max(values)), 1.0)
    if threshold <= 0:
        raise ValueError(f"support threshold must be positive, got {threshold}")
    above = values > threshold
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


def symmetry_defect(values: np.ndarray) -> float:
    """Largest deviation from evenness about x = 0: max |f - f(-x)| over the nodes."""
    return float(np.max(np.abs(values - mirror(values)), initial=0.0))


def t_star(y0: float, theta: float) -> float:
    """Blow-up time (1/theta) * ln(y0 / (y0 - theta)); +inf when y0 <= theta."""
    if theta < 0:
        raise ValueError(f"theta must be nonnegative, got {theta}")
    if y0 <= theta:
        return math.inf
    # as log1p(x) / x / (y0 - theta) with x = theta / (y0 - theta): the ratio
    # tends to 1 as theta -> 0 and stays exact for subnormal x, where dividing
    # log1p(x) by theta would lose all precision
    x = theta / (y0 - theta)
    return (math.log1p(x) / x if x else 1.0) / (y0 - theta)
