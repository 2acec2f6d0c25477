"""Moyal star product, brackets, Wigner densities and the trace pairing.

In ħ = 2 units the product of two phase-space symbols is

    (α ⋆ β)(p, x) = α exp[ −i c ( ←∂_p →∂_x − ←∂_x →∂_p ) ] β,

with c = 1/k² carrying the contraction parameter: k = 1 is the full
quantum product (x⋆p − p⋆x = 2i) and k → ∞ the commutative limit
(x⋆p − p⋆x = 2i/k² → 0). Equivalently c = ħ_eff/2 with ħ_eff = 2/k².
The kernel normalization is pinned by the calibration identities
1 ⋆ α = α and x ⋆ p − p ⋆ x = 2i/k² rather than taken from any formula.

Three evaluation strategies share this definition:

* exact coefficient arithmetic when both factors are polynomial (the
  bidifferential series terminates),
* a terminated series with analytic derivatives on the polynomial side
  and spectral derivatives on the grid side when one factor is polynomial,
* for two grid functions, either the truncated series (order M, with
  divergence monitoring) or the spectral kernel: a mode sum over the
  first factor's Fourier modes, each acting on the second factor as a
  phase ramp times a band-limited shift. The spectral route is exact for
  band-limited, boundary-decayed inputs.

Twisted convolution maps the frequency supports B_α, B_β into B_α + B_β,
so the spectral kernel runs on the coarsest grid of the same box that
holds that sum. Per axis, a factor's reach is the smallest |DFT index| K
beyond which its spectrum keeps at most BOUNDARY_DECAY_TOL of its ℓ1
mass; the kernel grid has the fewest points M (a power of two ≥ 16,
at most N) with M/2 > reach_α + reach_β on every axis. Both spectra are
cropped to M, and the product is zero-padded back to N. A cropped product
lay within 1.2e-14 (relative) of the kernel on the full grid for every ⋆
of the benchmark's Wigner and self-check pass; when the sum does not fit,
M = N and the result is the full-grid kernel's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from itertools import product as iter_product
from operator import itemgetter

import numpy as np

from ._poly import PhasePolynomial, _moyal_terms, bracket_poly, star_poly
from ._spectral import _symbol
from .errors import AccuracyError, ValidationError
from .heisenberg_group import _coerce_k
from .phase_space import BOUNDARY_DECAY_TOL, DENSITY_IMAG_TOL, PhaseFunction, PhaseGrid, inner

HBAR = 2.0


@dataclass(frozen=True)
class StarMethod:
    """Strategy for two grid factors: truncated series of order M, or spectral
    kernel. A polynomial factor ends the series at its degree instead."""

    variant: str = "spectral"
    order: int = 8

    def __post_init__(self):
        if self.variant not in ("series", "spectral"):
            raise ValidationError(f"unknown star method {self.variant!r}")
        if self.order < 1:
            raise ValidationError("series order must be >= 1")


SERIES = StarMethod("series")
SPECTRAL = StarMethod("spectral")


# ---------------------------------------------------------------------------
# derivative providers (cache mixed partials per factor)
# ---------------------------------------------------------------------------

_SPECTRUM_FLOOR = 1e-14  # relative; modes below this are roundoff, not signal


class _Derivs:
    """Mixed partials ∂_p^r ∂_x^s of one factor, cached by order tuple.

    Grid factors are differentiated from a noise-filtered spectrum: modes
    below the roundoff floor carry no signal for the smooth decayed inputs
    this code handles, but high derivative orders would amplify them by
    λ^m and swamp the series.
    """

    def __init__(self, f: PhaseFunction):
        self.f = f
        self.grid = f.grid
        self._grid_cache: dict[tuple[int, ...], np.ndarray] = {(0,) * (2 * f.grid.n): f.values}
        self._poly_cache: dict[tuple[int, ...], PhasePolynomial] = {}
        self._spectrum: np.ndarray | None = None
        if f.poly is not None:
            self._poly_cache[(0,) * (2 * f.grid.n)] = f.poly

    def get(self, orders: tuple[int, ...]) -> np.ndarray:
        if self.f.poly is not None:
            return self._poly_deriv(orders).evaluate(self.grid.fields)
        return self._grid_deriv(orders)

    def vanishes(self, orders: tuple[int, ...]) -> bool:
        if self.f.poly is not None:
            return self._poly_deriv(orders).is_zero
        return False

    def _poly_deriv(self, orders: tuple[int, ...]) -> PhasePolynomial:
        if orders in self._poly_cache:
            return self._poly_cache[orders]
        var = next(i for i, o in enumerate(orders) if o > 0)
        lower = list(orders)
        lower[var] -= 1
        poly = self._poly_deriv(tuple(lower)).diff(var)
        self._poly_cache[orders] = poly
        return poly

    def _grid_deriv(self, orders: tuple[int, ...]) -> np.ndarray:
        if orders in self._grid_cache:
            return self._grid_cache[orders]
        if self._spectrum is None:
            spec = np.fft.fftn(self.f.values)
            mags = np.abs(spec)
            spec[mags < _SPECTRUM_FLOOR * mags.max()] = 0.0
            self._spectrum = spec
        vals = np.fft.ifftn(_symbol(self.grid, orders) * self._spectrum)
        self._grid_cache[orders] = vals
        return vals


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def _series_terms(alpha: PhaseFunction, beta: PhaseFunction, c: float, max_order: int):
    """Yield (m, term_values) of the bidifferential expansion through max_order."""
    da, db = _Derivs(alpha), _Derivs(beta)
    for m, group in groupby(_moyal_terms(alpha.grid.n, max_order, c), key=itemgetter(0)):
        term = np.zeros(alpha.grid.shape, dtype=np.complex128)
        for _m, coef, r, s in group:
            oa = r + s            # ∂_p^r ∂_x^s on alpha
            ob = s + r            # ∂_p^s ∂_x^r on beta
            if da.vanishes(oa) or db.vanishes(ob):
                continue
            term += coef * da.get(oa) * db.get(ob)
        yield m, term


def _star_series(alpha: PhaseFunction, beta: PhaseFunction, c: float,
                 order: int) -> tuple[np.ndarray, list[float]]:
    """Truncated series; returns (values, per-order sup norms). A polynomial
    factor terminates the series at its degree, whatever `order` says."""
    degrees = [f.poly.total_degree for f in (alpha, beta) if f.poly is not None]
    terminates = bool(degrees)
    max_order = min(degrees) if terminates else order
    out = np.zeros(alpha.grid.shape, dtype=np.complex128)
    norms: list[float] = []
    for _m, term in _series_terms(alpha, beta, c, max_order):
        out += term
        norms.append(float(np.max(np.abs(term))))
    if not terminates:
        _check_series_convergence(norms, order)
    return out, norms


def _check_series_convergence(norms: list[float], order: int) -> None:
    # near-symmetric inputs suppress alternate orders, so genuine decay can
    # look non-monotone; require stagnation against both neighbors to flag
    floor = 1e-14 * max(norms) if norms else 0.0
    for m in range(order // 2 + 1, len(norms)):
        if norms[m] > floor and norms[m] >= norms[m - 1] \
                and norms[m] >= 0.5 * norms[m - 2]:
            raise AccuracyError(
                "star series diverges: term norms non-decreasing past order "
                f"{order // 2} (|t_{m - 2}|={norms[m - 2]:.3e}, |t_{m}|={norms[m]:.3e})",
                term_norms=norms)


@dataclass(frozen=True)
class SeriesReport:
    """Per-order sup norms of the series terms and the truncation estimate."""

    term_norms: tuple[float, ...]

    @property
    def tail_estimate(self) -> float:
        return self.term_norms[-1] if self.term_norms else 0.0


def star_series_report(alpha: PhaseFunction, beta: PhaseFunction,
                       method: StarMethod = SERIES, k=1.0) -> SeriesReport:
    """Run the series evaluation and report the term-norm history."""
    _validate_pair(alpha, beta)
    _, norms = _star_series(alpha, beta, 1.0 / _coerce_k(k) ** 2, method.order)
    return SeriesReport(tuple(norms))


# ---------------------------------------------------------------------------
# spectral evaluation (mode sum over the first factor)
# ---------------------------------------------------------------------------

# Relative mode-amplitude cutoff of the mode sum. The roundoff floor of a
# double-precision spectrum (1e-16 to 1e-13, more with edge values the
# decay guard admits) lies far above it, so it never skips a mode of a real
# state; it skips the exact zeros of sparse inputs (constants, plane waves).
_NEGLIGIBLE = 1e-18


def _reach(spec: np.ndarray) -> list[int]:
    """Per axis, the smallest K with the ℓ1 spectral mass beyond DFT index
    |j| = K at most BOUNDARY_DECAY_TOL of the total: a factor that passes
    the decay guard carries that much edge mass already."""
    mags = np.abs(spec)
    N = spec.shape[0]
    absj = np.abs(np.fft.fftfreq(N, 1.0 / N)).astype(int)
    reach = []
    for ax in range(spec.ndim):
        profile = mags.sum(axis=tuple(a for a in range(spec.ndim) if a != ax))
        by_abs = np.bincount(absj, weights=profile, minlength=N // 2 + 1)
        beyond = np.append(np.cumsum(by_abs[::-1])[::-1][1:], 0.0)  # mass at |j| > K
        reach.append(int(np.argmax(beyond <= BOUNDARY_DECAY_TOL * by_abs.sum())))
    return reach


def _band_size(A: np.ndarray, B: np.ndarray, N: int) -> int:
    """Smallest power of two M ≥ 16 with M/2 > reach_α + reach_β on every
    axis, capped at N: the ⋆ product's band is the sum of the factors'."""
    need = max(ra + rb for ra, rb in zip(_reach(A), _reach(B)))
    M = 16
    while M // 2 <= need and M < N:
        M *= 2
    return M


def _band(spec: np.ndarray, M: int) -> np.ndarray:
    """The DFT on M points per axis of the same box whose trigonometric
    interpolant is that of `spec`: the band |j| < min(M, N)/2 is kept and
    the rest cropped or zero-padded. The identity when M = N."""
    N = spec.shape[0]
    if M == N:
        return spec
    half = min(M, N) // 2
    band = np.ix_(*[np.r_[0:half, -half:0]] * spec.ndim)
    out = np.zeros((M,) * spec.ndim, dtype=np.complex128)
    out[band] = spec[band]
    out *= (M / N) ** spec.ndim
    return out


def _resample(values: np.ndarray, M: int, spec: np.ndarray | None = None) -> np.ndarray:
    """`values` (DFT `spec`, if already taken) on M points per axis through
    `_band`; the identity when M is the present size."""
    if M == values.shape[0]:
        return values
    return np.fft.ifftn(_band(np.fft.fftn(values) if spec is None else spec, M))


def _star_spectral(alpha: np.ndarray, beta: np.ndarray, grid: PhaseGrid,
                   c: float) -> np.ndarray:
    """Band-cropped mode sum. α ⋆ β has the band B_α + B_β, so the kernel
    runs on the coarsest grid of the same box that holds that sum, and its
    result is zero-padded back to N; when the sum does not fit, M = N and
    both steps are the identity."""
    A, B = np.fft.fftn(alpha), np.fft.fftn(beta)
    M = _band_size(A, B, grid.N)
    out = _mode_sum(_band(A, M), _resample(beta, M, B), PhaseGrid(grid.n, M, grid.L), c)
    return _resample(out, grid.N)


def _mode_sum(Ahat: np.ndarray, beta: np.ndarray, grid: PhaseGrid,
              c: float) -> np.ndarray:
    """Mode sum over the first factor's x-modes; `Ahat` is its DFT. Each mode
    acts on the second factor as a phase ramp times a band-limited shift.
    A mode at most `_NEGLIGIBLE` of the largest is skipped: that happens
    only for exactly sparse inputs, never for the noise floor of a state."""
    n, N = grid.n, grid.N
    freqs, mu = grid.freqs, grid.freq_fields
    p_axes, x_axes = grid.p_axes(), grid.x_axes()

    A = Ahat / N ** (2 * n)
    bhat_p = np.fft.fftn(beta, axes=p_axes)

    # chirp couplers e^{i c λ_{p_i} μ_{x_i}}, broadcast over (axis i, axis n+i)
    chirps = [np.exp(1j * c * (mu[i] * mu[n + i])) for i in range(n)]

    cutoff = _NEGLIGIBLE * float(np.max(np.abs(A))) if A.size else 0.0
    out = np.zeros(grid.shape, dtype=np.complex128)
    p_slice = (slice(None),) * n

    for jx in iter_product(range(N), repeat=n):
        a_slice = A[p_slice + jx]
        if float(np.max(np.abs(a_slice))) <= cutoff:
            continue
        lx = freqs[list(jx)]
        # second factor shifted in every p axis by c·λ_x
        ramp = np.zeros((), dtype=np.complex128)
        for i in range(n):
            ramp = ramp + (-1j * c * lx[i]) * mu[i]
        bs = np.fft.ifftn(bhat_p * np.exp(ramp), axes=p_axes)
        B = np.fft.fftn(bs, axes=x_axes)
        # C(p, μ_x) = Σ_{λ_p} A e^{i c λ_p μ_x} e^{i λ_p (p+L)}, built per axis
        C = a_slice.reshape((N,) * n + (1,) * n)
        for i in range(n):
            C = np.fft.ifft(C * chirps[i], axis=i) * N
        T = np.fft.ifftn(C * B, axes=x_axes)
        phase = np.zeros((), dtype=np.complex128)
        for i in range(n):
            phase = phase + 1j * lx[i] * (grid.fields[n + i] + grid.L)
        out += np.exp(phase) * T
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _validate_pair(alpha: PhaseFunction, beta: PhaseFunction) -> None:
    if alpha.grid != beta.grid:
        raise ValidationError("grid mismatch")
    for f in (alpha, beta):
        if f.poly is None and f.role in ("wavefunction", "density") \
                and not f.is_boundary_decayed():
            raise ValidationError(
                f"{f.role} factor is neither boundary-decayed nor polynomial-tagged")


def star(alpha: PhaseFunction, beta: PhaseFunction,
         method: StarMethod | None = None, k=1.0) -> PhaseFunction:
    """α ⋆ β with contraction parameter k (c = 1/k²).

    Polynomial factors terminate the series, so both method variants give
    the exact finite result for them; the variant only matters for a pair
    of grid functions. Roles: the product of symbols is an observable.
    """
    _validate_pair(alpha, beta)
    kval = _coerce_k(k)
    c = 1.0 / kval ** 2
    grid = alpha.grid

    if alpha.poly is not None and beta.poly is not None:
        poly = star_poly(alpha.poly, beta.poly, c)
        return PhaseFunction.from_poly(grid, poly)

    if method is None:
        method = SPECTRAL
    if alpha.poly is not None or beta.poly is not None or method.variant == "series":
        values, _ = _star_series(alpha, beta, c, method.order)
    else:
        values = _star_spectral(alpha.values, beta.values, grid, c)
    return PhaseFunction(grid, values, role="observable", _checked=True)


def moyal_bracket(alpha: PhaseFunction, beta: PhaseFunction,
                  method: StarMethod | None = None, k=1.0) -> PhaseFunction:
    """α ⋆ β − β ⋆ α."""
    return star(alpha, beta, method, k) - star(beta, alpha, method, k)


def scaled_moyal_bracket(alpha: PhaseFunction, beta: PhaseFunction,
                         method: StarMethod | None = None, k=1.0) -> PhaseFunction:
    """(k²/2i)(α ⋆ β − β ⋆ α).

    Normalized so k = 1 reproduces the quantum evolution generator
    (1/2i)[α, β]_⋆ and k → ∞ converges to the Poisson bracket; for
    symbols of total degree ≤ 2 the two agree identically.
    """
    kval = _coerce_k(k)
    return moyal_bracket(alpha, beta, method, kval) * (kval ** 2 / 2j)


def poisson_bracket(alpha: PhaseFunction, beta: PhaseFunction) -> PhaseFunction:
    """{α, β} = Σᵢ ∂α/∂xᵢ ∂β/∂pᵢ − ∂α/∂pᵢ ∂β/∂xᵢ. The grid form is written
    out, not taken from the bracket terms, so it checks the flows."""
    if alpha.grid != beta.grid:
        raise ValidationError("grid mismatch")
    grid = alpha.grid
    if alpha.poly is not None and beta.poly is not None:
        return PhaseFunction.from_poly(grid, bracket_poly(alpha.poly, beta.poly, 0.0))
    da, db = _Derivs(alpha), _Derivs(beta)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for i in range(grid.n):
        ox = tuple(1 if v == grid.n + i else 0 for v in range(2 * grid.n))
        op = tuple(1 if v == i else 0 for v in range(2 * grid.n))
        out += da.get(ox) * db.get(op) - da.get(op) * db.get(ox)
    return PhaseFunction(grid, out, role="observable", _checked=True)


def wigner(phi: PhaseFunction, method: StarMethod | None = None) -> PhaseFunction:
    """Phase-space density of the projector onto φ: ρ_φ = 2^{2n} φ ⋆ φ̄.

    For a coherent state this is the real unit-trace Gaussian centered at
    the expectation values (2p_a, 2x_a), twice the label coordinates.
    """
    nrm = inner(phi, phi)
    if abs(nrm - 1.0) > 1e-6:
        raise ValidationError(f"state not normalized: <phi|phi> = {nrm:.8g}")
    n = phi.grid.n
    rho = star(phi, phi.conj(), method) * (2.0 ** (2 * n))
    worst_imag = float(np.max(np.abs(rho.values.imag)))
    if worst_imag > DENSITY_IMAG_TOL * rho.max_abs():
        raise AccuracyError(
            f"density came out non-real: max imag {worst_imag:.3e}", max_imag=worst_imag)
    return rho.with_role("density")


def trace_pair(alpha: PhaseFunction, rho: PhaseFunction) -> complex:
    """Tr[α ⋆ ρ] = (1/2^{2n}) (1/πⁿ) Σ α·ρ·h^(2n)."""
    if alpha.grid != rho.grid:
        raise ValidationError("grid mismatch")
    if rho.role != "density":
        raise ValidationError("second argument must have role 'density'")
    g = alpha.grid
    total = np.sum(alpha.values * rho.values) * g.weight
    return complex(total / (2.0 ** (2 * g.n) * np.pi ** g.n))
