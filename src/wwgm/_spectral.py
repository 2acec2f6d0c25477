"""Fourier building blocks shared by the grid modules.

All grid functions are smooth and either boundary-decayed (Gaussian class)
or genuinely periodic (plane waves), so trigonometric interpolation is
exact to machine precision and these helpers inherit that accuracy.
Derivatives, translations and the mixed-space star multipliers are all
Fourier multipliers, applied by `_apply`.
"""

from __future__ import annotations

import numpy as np


def _apply(values: np.ndarray, mult: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Fourier multiplier: ifftn(mult · fftn(values)) over `axes`; `mult` is
    indexed by DFT frequency along those axes and broadcasts over the rest."""
    return np.fft.ifftn(mult * np.fft.fftn(values, axes=axes), axes=axes)


def derivative(values: np.ndarray, grid, axis: int) -> np.ndarray:
    """Spectral ∂/∂(axis coordinate) on `grid`."""
    return _apply(values, 1j * grid.freq_fields[axis], (axis,))
