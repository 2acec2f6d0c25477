"""Closed-form reference results used by the test suite.

Everything here is computed from formulas alone (combinatorics, Gaussian
integrals solved by hand, characteristics of quadratic flows) and never
calls into the grid or star-product code, so it can serve as an
independent oracle for those paths. Results carry no grid parameters.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

MAX_MONOMIAL_DEGREE = 6


def _vec(v) -> np.ndarray:
    return np.atleast_1d(np.asarray(v, dtype=float))


def oracle_coherent_overlap(a, b) -> complex:
    """⟨b|a⟩ for coherent labels a = (p_a, x_a), b = (p_b, x_b):

        exp(i(p_a·x_b − x_a·p_b)) · exp(−½[(p_b−p_a)² + (x_b−x_a)²])

    The magnitude depends only on the label difference.
    """
    pa, xa = _vec(a[0]), _vec(a[1])
    pb, xb = _vec(b[0]), _vec(b[1])
    phase = float(pa @ xb - xa @ pb)
    decay = -0.5 * float(np.sum((pb - pa) ** 2) + np.sum((xb - xa) ** 2))
    return cmath.exp(complex(decay, phase))


def oracle_contracted_overlap(a, b, k: float) -> complex:
    """Contracted-label overlap: the same form with labels scaled by k,
    i.e. exp(i k²(x_b·p_a − p_b·x_a) − (k²/2)Δ²)."""
    pa, xa = _vec(a[0]), _vec(a[1])
    pb, xb = _vec(b[0]), _vec(b[1])
    return oracle_coherent_overlap((k * pa, k * xa), (k * pb, k * xb))


def oracle_polynomial_star(mono_a, mono_b, c: float = 1.0) -> dict[tuple[int, int], complex]:
    """Exact Moyal product of two 1-d monomials, as {(p_exp, x_exp): coef}.

    Monomials are (coef, p_exp, x_exp) with degree ≤ 6 each. The series
    terminates, and every coefficient is an exact Gaussian-integer
    multiple of powers of c:

        a ⋆ b = Σ_{r,s} (−ic)^{r+s} (−1)^s C(i_a, r) C(j_a, s) r! s! ·
                 ... (falling-factorial pairing of matching derivatives)
    """
    ca, ia, ja = complex(mono_a[0]), int(mono_a[1]), int(mono_a[2])
    cb, ib, jb = complex(mono_b[0]), int(mono_b[1]), int(mono_b[2])
    for deg, who in ((ia + ja, "first"), (ib + jb, "second")):
        if deg > MAX_MONOMIAL_DEGREE:
            raise ValueError(f"{who} monomial degree {deg} exceeds {MAX_MONOMIAL_DEGREE}")
    out: dict[tuple[int, int], complex] = {}
    for r in range(min(ia, jb) + 1):
        for s in range(min(ja, ib) + 1):
            # term: ∂_p^r ∂_x^s (p^ia x^ja) · ∂_x^r ∂_p^s (p^ib x^jb)
            coef = ((-1j * c) ** (r + s)) * ((-1) ** s)
            coef *= math.comb(ia, r) * math.comb(ja, s) * math.comb(jb, r) * math.comb(ib, s)
            coef *= math.factorial(r) * math.factorial(s)
            key = (ia + ib - r - s, ja + jb - r - s)
            val = out.get(key, 0.0) + ca * cb * coef
            if val == 0:
                out.pop(key, None)
            else:
                out[key] = val
    return out


def oracle_quadratic_flow(name: str, x0: float, p0: float, t: float,
                          mass: float = 1.0) -> tuple[float, float]:
    """Label flow of the two closed-form generators, as (x(t), p(t)).

    harmonic (p² + x²): rotation at angular frequency 2,
        x(t) = cos(2t)·x₀ + sin(2t)·p₀,  p(t) = −sin(2t)·x₀ + cos(2t)·p₀
    free (p²/2m): straight characteristics, x(t) = x₀ + p₀ t/m.
    """
    if name == "harmonic":
        ct, st = math.cos(2 * t), math.sin(2 * t)
        return ct * x0 + st * p0, -st * x0 + ct * p0
    if name == "free":
        return x0 + p0 * t / mass, p0
    raise ValueError(f"no closed-form flow for generator {name!r}")


def oracle_wigner_gaussian(a, n: int = 1):
    """Projector density of the coherent state at label a: the real
    Gaussian 2ⁿ exp(−½[(p−2p_a)² + (x−2x_a)²]), centered at the
    expectation values (twice the label) with unit trace."""
    pa, xa = _vec(a[0]), _vec(a[1])

    def rho(p, x):
        p = _vec(p)
        x = _vec(x)
        return 2.0 ** n * np.exp(
            -0.5 * (np.sum((p - 2 * pa) ** 2) + np.sum((x - 2 * xa) ** 2)))

    return rho


def oracle_coherent_star(a, b):
    """Closed form of φ_a ⋆ conj(φ_b) for 1-d coherent states:

        ½ e^{i(p_a x − x_a p)} e^{i(x_b(p−p_a) − p_b(x−x_a))}
          e^{−½[(p−p_a−p_b)² + (x−x_a−x_b)²]}

    obtained by composing the displacement twists; the Gaussian sits at
    the label sum and at a = b this is half the displaced vacuum.
    """
    pa, xa = float(a[0]), float(a[1])
    pb, xb = float(b[0]), float(b[1])

    def val(p, x):
        p = np.asarray(p, dtype=float)
        x = np.asarray(x, dtype=float)
        phase = (pa * x - xa * p) + (xb * (p - pa) - pb * (x - xa))
        gauss = -0.5 * ((p - pa - pb) ** 2 + (x - xa - xb) ** 2)
        return 0.5 * np.exp(gauss) * np.exp(1j * phase)

    return val

