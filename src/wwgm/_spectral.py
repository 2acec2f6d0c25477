"""Fourier building blocks shared by the grid modules.

All grid functions are smooth and either boundary-decayed (Gaussian class)
or genuinely periodic (plane waves), so trigonometric interpolation is
exact to machine precision and these helpers inherit that accuracy.
"""

from __future__ import annotations

import numpy as np


def derivative(values: np.ndarray, freqs: np.ndarray, axis: int) -> np.ndarray:
    """Spectral ∂/∂(axis coordinate)."""
    shape = [1] * values.ndim
    shape[axis] = len(freqs)
    mult = (1j * freqs).reshape(shape)
    return np.fft.ifft(mult * np.fft.fft(values, axis=axis), axis=axis)


def shift(values: np.ndarray, freqs: np.ndarray, axis: int, amount: float) -> np.ndarray:
    """Band-limited translate: result(t) = values(t − amount)."""
    shape = [1] * values.ndim
    shape[axis] = len(freqs)
    ramp = np.exp(-1j * freqs * amount).reshape(shape)
    return np.fft.ifft(ramp * np.fft.fft(values, axis=axis), axis=axis)
