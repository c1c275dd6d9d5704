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
    """One recorded instant of a run: the values of a ``series.csv`` row, in
    column order, and the zero-set maximum that ``outcome.txt`` reports.

    A support is held as its hull edges (``hull``) in physical coordinates,
    both nan when the support is empty.  Energies may be +inf; everything
    else is finite.  ``zero_set_max_rho`` is the largest density value over
    the nodes where the initial density vanished, one boundary cell excluded
    on each side.
    """

    t: float
    max_rho: float
    min_rho: float
    min_A: float
    rho_xx_at_0: float
    supp_rho_lo: float
    supp_rho_hi: float
    supp_A_lo: float
    supp_A_hi: float
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
    terms = grid.d2_phase * rho_hat.real
    return float((2.0 * np.sum(terms) - terms[0] - terms[-1]) / grid.N)


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
        threshold = SUPPORT_THRESHOLD_SCALE * max(float(values.max()), 1.0)
    if threshold <= 0:
        raise ValueError(f"support threshold must be positive, got {threshold}")
    # the run edges in one scan: with a node below threshold padded on each
    # side, run k covers the nodes edges[2k] to edges[2k + 1] - 1
    n = values.size
    above = np.zeros(n + 2, dtype=bool)
    np.greater(values, threshold, out=above[1:-1])
    edges = (above[1:] != above[:-1]).nonzero()[0]
    if edges.size == 0:
        return []
    half, L = 0.5 * grid.dx, grid.L
    lo = (grid.x[edges[0::2]] - half).tolist()
    hi = (grid.x[edges[1::2] - 1] + half).tolist()
    # nodes increase from x_0 = -L to x_{N-1} = L - dx, so only a run from
    # node 0 reaches past -L, and only a run to node N - 1 can meet L; such a
    # run continues through the seam when the first node is above too
    lo[0] = max(lo[0], -L)
    hi[-1] = L if edges[0] == 0 and edges[-1] == n else min(hi[-1], L)
    return list(zip(lo, hi))


def hull(intervals: list[Interval]) -> Interval:
    """The outer ends of ``support``'s intervals; (nan, nan) when there are none."""
    return (intervals[0][0], intervals[-1][1]) if intervals else (math.nan, math.nan)


def symmetry_defect(values: np.ndarray) -> float:
    """Largest deviation from evenness about x = 0: max |f - f(-x)| over the nodes."""
    return float(np.max(np.abs(values - mirror(values))))


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
