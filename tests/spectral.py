"""Exact spectral derivatives of node values, built from a grid's wavenumbers
alone, so they check the program's rows without sharing them."""

import numpy as np


def derivative(grid, values, order):
    """``irfft(rfft(values) * (ik)**order)``, with the Nyquist mode dropped for
    odd orders: a real field on an even grid holds no odd derivative of it."""
    ik = 1j * grid.k
    if order % 2:
        ik[-1] = 0.0
    return np.fft.irfft(np.fft.rfft(values) * ik**order, n=grid.N)
