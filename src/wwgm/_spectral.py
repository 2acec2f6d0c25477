"""Fourier building blocks shared by the grid modules.

All grid functions are smooth and either boundary-decayed (Gaussian class)
or genuinely periodic (plane waves), so trigonometric interpolation is
exact to machine precision and these helpers inherit that accuracy.
Derivatives, translations and the mixed-space star multipliers are all
Fourier multipliers, applied by `_apply`, which can write into a caller's
buffer so that a time stepper allocates no full-grid array per step.
"""

from __future__ import annotations

import numpy as np


def _apply(values: np.ndarray, mult: np.ndarray, axes: tuple[int, ...],
           out: np.ndarray | None = None) -> np.ndarray:
    """Fourier multiplier: ifftn(mult · fftn(values)) over `axes`; `mult` is
    indexed by DFT frequency along those axes and broadcasts over the rest.
    The transforms and the product run in place in `out` (complex, the shape
    of `values`), a new array if none is given."""
    if out is None:
        out = np.empty(np.shape(values), dtype=np.complex128)
    np.fft.fftn(values, axes=axes, out=out)
    np.multiply(mult, out, out=out)
    return np.fft.ifftn(out, axes=axes, out=out)


def derivative(values: np.ndarray, grid, axis: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """Spectral ∂/∂(axis coordinate) on `grid`, into `out` if given."""
    return _apply(values, 1j * grid.freq_fields[axis], (axis,), out)
