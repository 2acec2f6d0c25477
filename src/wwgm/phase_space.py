"""Discretized phase-space functions and the coherent-state toolkit.

Everything lives on a uniform periodic box [−L, L)^{2n} in the variables
(p₁..pₙ, x₁..xₙ), in ħ = 2 units. The canonical coherent state labelled
by a = (p_a, x_a) has wavefunction

    φ_a(p, x) = exp(i(p_a·x − x_a·p)) · exp(−½[(p−p_a)² + (x−x_a)²]),

a unit-width Gaussian riding a linear phase; the labels are half the
expectation values of the position and momentum operators. The inner
product carries the measure dp dx / πⁿ, under which φ_a is normalized.

Left-regular operators act as X^L = x + i∂_p and P^L = p − i∂_x, giving
the commutator [X^L, P^L] = 2i. Derivatives and translations are
spectral, so Gaussian-class states are handled at machine precision.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._poly import PhasePolynomial
from ._spectral import _apply, derivative
from .errors import ValidationError

ROLES = ("wavefunction", "observable", "density")

#: minimum clearance between a coherent label and the box edge, in widths of
#: the state itself (1/k for a contracted state); 7 widths put the edge value
#: at e^(-24.5), below the 1e-10 boundary-decay requirement (6 would not)
LABEL_MARGIN = 7.0

#: wavefunction boundary decay requirement: edge magnitude / max magnitude
BOUNDARY_DECAY_TOL = 1e-10

#: density construction requirement: max imaginary part / max magnitude
DENSITY_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform 2n-dimensional grid: N points per axis on [−L, L)."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValidationError(f"grid dimension n={self.n} outside supported range 1..2")
        if self.N < 16 or (self.N & (self.N - 1)) != 0:
            raise ValidationError(f"N={self.N} must be a power of two >= 16")
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValidationError(f"half-width L={self.L} must be finite and positive")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * (2 * self.n)

    @cached_property
    def axis(self) -> np.ndarray:
        """Coordinate values along any single axis: −L + j·h."""
        return -self.L + self.h * np.arange(self.N)

    @cached_property
    def freqs(self) -> np.ndarray:
        """Angular frequencies matching `axis` under the DFT."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h)

    @cached_property
    def fields(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate fields in axis order (p₁..pₙ, x₁..xₙ)."""
        return tuple(np.meshgrid(*([self.axis] * 2 * self.n), indexing="ij", sparse=True))

    @cached_property
    def freq_fields(self) -> tuple[np.ndarray, ...]:
        """Broadcastable frequency fields in axis order, the spectral twin of `fields`."""
        return tuple(np.meshgrid(*([self.freqs] * 2 * self.n), indexing="ij", sparse=True))

    def p_field(self, i: int = 0) -> np.ndarray:
        return self.fields[i]

    def x_field(self, i: int = 0) -> np.ndarray:
        return self.fields[self.n + i]

    def p_axes(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    def x_axes(self) -> tuple[int, ...]:
        return tuple(range(self.n, 2 * self.n))

    @property
    def weight(self) -> float:
        """Quadrature weight h^(2n) of the plain Riemann sum."""
        return self.h ** (2 * self.n)


@dataclass(frozen=True)
class CoherentLabel:
    """Label (p_a, x_a) of a canonical coherent state; components are half
    the expectation values of the corresponding operators."""

    p: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, dtype=float)))
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        if self.p.shape != self.x.shape or self.p.ndim != 1:
            raise ValidationError("label components p, x must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(self.p)) and np.all(np.isfinite(self.x))):
            raise ValidationError(
                f"coherent label (p={self.p.tolist()}, x={self.x.tolist()}) "
                "has non-finite components")

    @property
    def n(self) -> int:
        return len(self.p)


class PhaseFunction:
    """Complex field on a PhaseGrid; a wavefunction, observable or density
    depending on role. Values are immutable; every operation returns a
    fresh instance, so instances may be shared freely across threads.

    `poly` optionally carries an exact polynomial representation, which the
    star-product and bracket code uses to bypass grid differentiation.
    """

    __slots__ = ("grid", "values", "role", "poly")

    def __init__(self, grid: PhaseGrid, values: np.ndarray, role: str = "observable",
                 poly: PhasePolynomial | None = None, _checked: bool = False):
        if role not in ROLES:
            raise ValidationError(f"unknown role {role!r}")
        values = np.ascontiguousarray(values, dtype=np.complex128)
        if values.shape != grid.shape:
            raise ValidationError(
                f"values shape {values.shape} does not match grid shape {grid.shape}")
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.role = role
        self.poly = poly
        if not _checked and role == "wavefunction":
            _require_boundary_decay(self)

    # ------------------------------------------------------------- factories
    @classmethod
    def from_poly(cls, grid: PhaseGrid, poly: PhasePolynomial,
                  role: str = "observable") -> "PhaseFunction":
        if poly.n != grid.n:
            raise ValidationError("polynomial dimension does not match grid")
        return cls(grid, poly.evaluate(grid.fields), role=role, poly=poly, _checked=True)

    # ------------------------------------------------------------- algebra
    def _binary(self, other, op):
        if isinstance(other, PhaseFunction):
            if other.grid != self.grid:
                raise ValidationError("grid mismatch")
            poly = None
            if self.poly is not None and other.poly is not None:
                poly = op(self.poly, other.poly)
            return PhaseFunction(self.grid, op(self.values, other.values),
                                 role="observable", poly=poly, _checked=True)
        poly = None
        if self.poly is not None and np.isscalar(other):
            poly = op(self.poly, PhasePolynomial.constant(self.poly.n, complex(other)))
        return PhaseFunction(self.grid, op(self.values, other),
                             role=self.role, poly=poly, _checked=True)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other):
        if isinstance(other, PhaseFunction):
            return self._binary(other, lambda a, b: a * b)
        poly = None if self.poly is None else self.poly * other
        return PhaseFunction(self.grid, self.values * other, role=self.role,
                             poly=poly, _checked=True)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def conj(self) -> "PhaseFunction":
        poly = None if self.poly is None else self.poly.conjugate()
        return PhaseFunction(self.grid, np.conj(self.values), role=self.role,
                             poly=poly, _checked=True)

    def with_role(self, role: str) -> "PhaseFunction":
        return PhaseFunction(self.grid, self.values, role=role, poly=self.poly)

    # ------------------------------------------------------------- queries
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def boundary_max(self) -> float:
        """Largest magnitude over the faces of the box (both ends per axis)."""
        worst = 0.0
        for ax in range(self.values.ndim):
            for face in (0, -1):
                sl = [slice(None)] * self.values.ndim
                sl[ax] = face
                worst = max(worst, float(np.max(np.abs(self.values[tuple(sl)]))))
        return worst

    def is_boundary_decayed(self, tol: float = BOUNDARY_DECAY_TOL) -> bool:
        m = self.max_abs()
        return m == 0.0 or self.boundary_max() <= tol * m

    def peak(self, refine: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Location (p, x) of the maximum of |values|.

        With `refine`, a per-axis log-parabolic fit sharpens the estimate;
        this is exact for Gaussian profiles with axis-aligned covariance.
        """
        mag = np.abs(self.values)
        idx = np.unravel_index(int(np.argmax(mag)), mag.shape)
        coords = []
        for ax, j in enumerate(idx):
            c = self.grid.axis[j]
            if refine and 0 < j < self.grid.N - 1:
                sl = list(idx)
                sl[ax] = slice(j - 1, j + 2)
                tri = mag[tuple(sl)]
                if np.all(tri > 0):
                    lm, l0, lp = np.log(tri)
                    denom = lm - 2 * l0 + lp
                    if denom < 0:
                        c += 0.5 * self.grid.h * (lm - lp) / denom
            coords.append(c)
        coords = np.asarray(coords)
        return coords[: self.grid.n], coords[self.grid.n:]

    def __repr__(self) -> str:
        g = self.grid
        return f"PhaseFunction(role={self.role!r}, n={g.n}, N={g.N}, L={g.L})"


def _require_boundary_decay(f: PhaseFunction) -> None:
    m = f.max_abs()
    if m > 0 and f.boundary_max() > BOUNDARY_DECAY_TOL * m:
        raise ValidationError(
            "wavefunction does not decay at the box boundary "
            f"(edge/max = {f.boundary_max() / m:.2e} > {BOUNDARY_DECAY_TOL:.0e})")


# ---------------------------------------------------------------------------
# coherent states and the inner product
# ---------------------------------------------------------------------------

def _coherent_gaussian(label: CoherentLabel, grid: PhaseGrid, k: float) -> PhaseFunction:
    """Coherent Gaussian of width 1/k at `label`, with phases scaled by k²,

        exp(i k²(p_a·x − x_a·p)) exp(−(k²/2)[(p−p_a)² + (x−x_a)²]),

    built as a product of 2n broadcast 1-D factors, after checking that the
    label keeps LABEL_MARGIN widths 1/k of clearance."""
    if label.n != grid.n:
        raise ValidationError("label dimension does not match grid")
    worst = max(float(np.max(np.abs(label.p))), float(np.max(np.abs(label.x))))
    if worst + LABEL_MARGIN / k > grid.L:
        raise ValidationError(
            f"label magnitude {worst:g} leaves less than {LABEL_MARGIN:g} state widths "
            f"({LABEL_MARGIN / k:g}) of clearance inside the box (L={grid.L:g})")
    k2 = k * k
    factors = []
    for i in range(grid.n):
        P, X = grid.p_field(i), grid.x_field(i)
        factors.append(np.exp(1j * k2 * label.p[i] * X - 0.5 * k2 * (X - label.x[i]) ** 2))
        factors.append(np.exp(-1j * k2 * label.x[i] * P - 0.5 * k2 * (P - label.p[i]) ** 2))
    return PhaseFunction(grid, math.prod(factors), role="wavefunction")


def coherent_state(label: CoherentLabel, grid: PhaseGrid) -> PhaseFunction:
    """Unit-width coherent Gaussian at `label`, normalized under inner()."""
    return _coherent_gaussian(label, grid, 1.0)


def inner(phi: PhaseFunction, psi: PhaseFunction) -> complex:
    """⟨φ|ψ⟩ = (1/πⁿ) Σ conj(φ)·ψ · h^(2n)."""
    if phi.grid != psi.grid:
        raise ValidationError("grid mismatch")
    g = phi.grid
    return complex(np.sum(np.conj(phi.values) * psi.values) * g.weight / np.pi ** g.n)


# ---------------------------------------------------------------------------
# left-regular operators and the shift action
# ---------------------------------------------------------------------------

def apply_XL(phi: PhaseFunction, axis: int = 0) -> PhaseFunction:
    """X^L φ = (x + i ∂_p) φ along the given spatial axis."""
    g = phi.grid
    vals = g.x_field(axis) * phi.values \
        + 1j * derivative(phi.values, g, axis=axis)
    return PhaseFunction(g, vals, role=phi.role, _checked=True)


def apply_PL(phi: PhaseFunction, axis: int = 0) -> PhaseFunction:
    """P^L φ = (p − i ∂_x) φ along the given spatial axis."""
    g = phi.grid
    vals = g.p_field(axis) * phi.values \
        - 1j * derivative(phi.values, g, axis=g.n + axis)
    return PhaseFunction(g, vals, role=phi.role, _checked=True)


def translate(phi: PhaseFunction, p, x) -> PhaseFunction:
    """Coherent shift: result(p′,x′) = φ(p′−p, x′−x) · exp(i(p·x′ − x·p′)).

    The translation is spectral, so off-grid shift amounts are exact for
    band-limited states. Composing two translates reproduces the group
    twist: T(g1) T(g2) = exp(i(p₁·x₂ − x₁·p₂)) T(g1+g2).
    """
    g = phi.grid
    p = np.atleast_1d(np.asarray(p, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(p) != g.n or len(x) != g.n:
        raise ValidationError("shift vector dimension does not match grid")
    shift = math.prod(np.exp(-1j * mu * a) for mu, a in zip(g.freq_fields, np.concatenate([p, x])))
    vals = _apply(phi.values, shift, tuple(range(2 * g.n)))
    ramp = np.zeros((), dtype=np.complex128)
    for i in range(g.n):
        ramp = ramp + 1j * (p[i] * g.x_field(i) - x[i] * g.p_field(i))
    out = PhaseFunction(g, np.exp(ramp) * vals, role=phi.role, _checked=True)
    if phi.role == "wavefunction" and not out.is_boundary_decayed():
        raise ValidationError("translated state spills over the box boundary")
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<IId")  # n, N, L


def save_phase_function(phi: PhaseFunction, path) -> None:
    """Binary layout: header (n:u32, N:u32, L:f64, little endian) followed by
    N^(2n) complex doubles in row-major order (p axes outer, x axes inner)."""
    g = phi.grid
    with open(path, "wb") as f:
        f.write(_HEADER.pack(g.n, g.N, g.L))
        f.write(np.ascontiguousarray(phi.values).astype("<c16").tobytes())


def load_phase_function(path, role: str = "observable") -> PhaseFunction:
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValidationError(f"{path}: truncated header")
        n, N, L = _HEADER.unpack(header)
        grid = PhaseGrid(n=n, N=N, L=L)
        raw = f.read()
    expected = N ** (2 * n) * 16
    if len(raw) != expected:
        raise ValidationError(
            f"{path}: payload holds {len(raw)} bytes, header implies {expected}")
    values = np.frombuffer(raw, dtype="<c16").reshape(grid.shape)
    return PhaseFunction(grid, values.astype(np.complex128), role=role)


def _write_csv(path, header: str, rows) -> None:
    """Header line, then one line of comma-separated %.17g values per row."""
    fmt = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(fmt % tuple(row) for row in rows)


def export_csv(phi: PhaseFunction, path) -> None:
    """Plot-ready dump: one row per grid point, columns (p…, x…, re, im)."""
    g = phi.grid
    if g.n == 1:
        header = "p,x,re,im"
    else:
        header = ",".join([f"p{i + 1}" for i in range(g.n)]
                          + [f"x{i + 1}" for i in range(g.n)]) + ",re,im"
    grids = np.meshgrid(*([g.axis] * 2 * g.n), indexing="ij")
    cols = [m.ravel() for m in grids] + [phi.values.real.ravel(), phi.values.imag.ravel()]
    _write_csv(path, header, zip(*cols))
