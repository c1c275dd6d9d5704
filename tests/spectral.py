"""Spectral derivatives of node values through a grid's own multiplier rows."""

import numpy as np


def derivative(grid, values, row):
    """``irfft(rfft(values) * row)``, with ``row`` one of ``grid.ik``, ``d2``, ``d3``."""
    return np.fft.irfft(np.fft.rfft(values) * row, n=grid.N)
