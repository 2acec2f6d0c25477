"""Exact polynomial algebra on phase space.

Observables like x, p, x²p are polynomials in the 2n variables
(p₁..pₙ, x₁..xₙ). Keeping them in coefficient form (instead of sampled
grids) makes derivatives, the finite Moyal series and its odd part, the
bracket (whose c = 0 term is the Poisson bracket), exact, which the grid
Fourier transform cannot do for non-periodic monomials.

Exponent keys are tuples of length 2n: p-powers first, then x-powers.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np


class PhasePolynomial:
    """Sparse complex polynomial in (p₁..pₙ, x₁..xₙ)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[tuple[int, ...], complex] | None = None):
        self.n = n
        self.coeffs: dict[tuple[int, ...], complex] = {}
        if coeffs:
            for expo, c in coeffs.items():
                if len(expo) != 2 * n:
                    raise ValueError(f"exponent tuple {expo} does not match n={n}")
                if c != 0:
                    self.coeffs[tuple(int(e) for e in expo)] = complex(c)

    # ------------------------------------------------------------------ build
    @classmethod
    def constant(cls, n: int, value: complex) -> "PhasePolynomial":
        return cls(n, {(0,) * (2 * n): value})

    @classmethod
    def p_var(cls, n: int, axis: int = 0) -> "PhasePolynomial":
        e = [0] * (2 * n)
        e[axis] = 1
        return cls(n, {tuple(e): 1.0})

    @classmethod
    def x_var(cls, n: int, axis: int = 0) -> "PhasePolynomial":
        e = [0] * (2 * n)
        e[n + axis] = 1
        return cls(n, {tuple(e): 1.0})

    @classmethod
    def monomial(cls, n: int, p_exp: tuple[int, ...], x_exp: tuple[int, ...],
                 coef: complex = 1.0) -> "PhasePolynomial":
        return cls(n, {tuple(p_exp) + tuple(x_exp): coef})

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0.0) + c
        return PhasePolynomial(self.n, out)

    def __sub__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, PhasePolynomial):
            self._check(other)
            out: dict[tuple[int, ...], complex] = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0.0) + c1 * c2
            return PhasePolynomial(self.n, out)
        return PhasePolynomial(self.n, {e: c * other for e, c in self.coeffs.items()})

    __rmul__ = __mul__

    def conjugate(self) -> "PhasePolynomial":
        return PhasePolynomial(self.n, {e: c.conjugate() for e, c in self.coeffs.items()})

    # ------------------------------------------------------------ calculus
    def diff(self, var: int) -> "PhasePolynomial":
        """d/d(variable var), var indexes (p₁..pₙ, x₁..xₙ)."""
        out: dict[tuple[int, ...], complex] = {}
        for e, c in self.coeffs.items():
            if e[var] == 0:
                continue
            ne = list(e)
            ne[var] -= 1
            out[tuple(ne)] = out.get(tuple(ne), 0.0) + c * e[var]
        return PhasePolynomial(self.n, out)

    def diff_multi(self, p_orders: tuple[int, ...], x_orders: tuple[int, ...]) -> "PhasePolynomial":
        """∂_p^p_orders ∂_x^x_orders, orders per axis."""
        out = self
        for var, m in enumerate(tuple(p_orders) + tuple(x_orders)):
            for _ in range(m):
                out = out.diff(var)
        return out

    # ------------------------------------------------------------ queries
    @property
    def total_degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def max_imag_coeff(self) -> float:
        return max((abs(c.imag) for c in self.coeffs.values()), default=0.0)

    def depends_only_on_p(self) -> bool:
        return all(all(e[self.n + i] == 0 for i in range(self.n)) for e in self.coeffs)

    def depends_only_on_x(self) -> bool:
        return all(all(e[i] == 0 for i in range(self.n)) for e in self.coeffs)

    def evaluate(self, fields) -> np.ndarray:
        """Evaluate on broadcastable coordinate fields (p₁..pₙ, x₁..xₙ)."""
        shape = np.broadcast_shapes(*(np.shape(f) for f in fields))
        out = np.zeros(shape, dtype=np.complex128)
        for e, c in self.coeffs.items():
            term = c
            for f, k in zip(fields, e):
                if k:
                    term = term * f ** k
            out += term
        return out

    def __repr__(self) -> str:
        return f"PhasePolynomial(n={self.n}, terms={len(self.coeffs)})"

    def _check(self, other: "PhasePolynomial") -> None:
        if self.n != other.n:
            raise ValueError("polynomial dimension mismatch")


def _multi_indices(n: int, total: int) -> Iterator[tuple[int, ...]]:
    """All n-tuples of nonnegative ints summing to `total`."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _multi_indices(n - 1, total - first):
            yield (first,) + rest


def _moyal_terms(n: int, max_order: int, c: float):
    """Yield (m, coef, r, s) for every term of the Moyal expansion through
    order max_order: coef · (∂_p^r ∂_x^s a)(∂_x^r ∂_p^s b), |r| + |s| = m."""
    for m in range(max_order + 1):
        pref = (-1j * c) ** m
        for rtot in range(m + 1):
            stot = m - rtot
            for r in _multi_indices(n, rtot):
                for s in _multi_indices(n, stot):
                    fact = math.prod(math.factorial(k) for k in r + s)
                    yield m, pref * (-1) ** stot / fact, r, s


def _bracket_terms(n: int, max_order: int, c: float):
    """Yield (coef, r, s) for the odd terms of the scaled Moyal bracket
    (1/2ic)(a ⋆ b − b ⋆ a) = Σ coef · (∂_p^r ∂_x^s a)(∂_x^r ∂_p^s b).

    The even terms cancel in the commutator and each odd one doubles, so
    coef = −i·coef₁·c^{m−1}, coef₁ the Moyal coefficient at c = 1. It is
    defined at c = 0, where only m = 1 survives: the Poisson bracket.
    """
    for m, coef, r, s in _moyal_terms(n, max_order if c else min(max_order, 1), 1.0):
        if m % 2:
            yield -1j * coef * c ** (m - 1), r, s


def _bidifferential(a: PhasePolynomial, b: PhasePolynomial, terms) -> PhasePolynomial:
    """Σ coef · (∂_p^r ∂_x^s a)(∂_x^r ∂_p^s b) over (coef, r, s) terms."""
    a._check(b)
    out = PhasePolynomial(a.n)
    for coef, r, s in terms:
        da = a.diff_multi(r, s)
        if da.is_zero:
            continue
        db = b.diff_multi(s, r)  # roles swap: ∂_x^r ∂_p^s b
        if db.is_zero:
            continue
        out = out + (da * db) * coef
    return out


def star_poly(a: PhasePolynomial, b: PhasePolynomial, c: float) -> PhasePolynomial:
    """Exact Moyal product of polynomials with bidifferential prefactor c.

    a ⋆ b = Σ_{r,s} (−ic)^{|r|+|s|} (−1)^{|s|} / (r! s!)
                (∂_p^r ∂_x^s a)(∂_x^r ∂_p^s b)

    The sum terminates: derivatives annihilate both factors beyond their
    total degree, so the result is exact (no truncation).
    """
    order = min(a.total_degree, b.total_degree)
    return _bidifferential(a, b, ((coef, r, s) for _m, coef, r, s in _moyal_terms(a.n, order, c)))


def bracket_poly(a: PhasePolynomial, b: PhasePolynomial, c: float) -> PhasePolynomial:
    """(1/2ic)(a ⋆ b − b ⋆ a), exact, from the odd Moyal terms alone; at
    c = 0 it is the Poisson bracket {a, b} = Σᵢ ∂a/∂xᵢ ∂b/∂pᵢ − ∂a/∂pᵢ ∂b/∂xᵢ."""
    return _bidifferential(a, b, _bracket_terms(a.n, min(a.total_degree, b.total_degree), c))
