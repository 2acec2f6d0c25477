"""The closed-form reference layer, pinned against hand-derived values."""

import math

import numpy as np
import pytest

from wwgm.analytic_oracle import (
    oracle_coherent_overlap,
    oracle_coherent_star,
    oracle_contracted_overlap,
    oracle_polynomial_star,
    oracle_quadratic_flow,
    oracle_wigner_gaussian,
)


def test_overlap_same_label_is_one(rng):
    for _ in range(5):
        a = (rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
        assert oracle_coherent_overlap(a, a) == pytest.approx(1.0)


def test_overlap_reference_value():
    got = oracle_coherent_overlap(([1.0], [0.0]), ([0.0], [0.0]))
    assert got == pytest.approx(math.exp(-0.5))
    assert got.imag == pytest.approx(0.0)


def test_overlap_magnitude_depends_on_difference_only(rng):
    a = (rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
    b = (rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
    shift = (rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
    v0 = oracle_coherent_overlap(a, b)
    v1 = oracle_coherent_overlap((a[0] + shift[0], a[1] + shift[1]),
                                 (b[0] + shift[0], b[1] + shift[1]))
    assert abs(v1) == pytest.approx(abs(v0), abs=1e-14)


def test_contracted_overlap_scaling():
    a = ([0.0], [0.0])
    b = ([1.0], [0.0])
    v2 = oracle_contracted_overlap(a, b, 2.0)
    assert abs(v2) == pytest.approx(math.exp(-2.0))
    v4 = oracle_contracted_overlap(a, b, 4.0)
    assert abs(v4) == pytest.approx(abs(v2) ** 4, rel=1e-12)


def test_polynomial_star_canonical_pairs():
    # x * p = xp + i ;  p * x = xp - i
    assert oracle_polynomial_star((1, 0, 1), (1, 1, 0)) == {(1, 1): 1.0, (0, 0): 1j}
    assert oracle_polynomial_star((1, 1, 0), (1, 0, 1)) == {(1, 1): 1.0, (0, 0): -1j}


def test_polynomial_star_second_order():
    # x^2 * p^2 = x^2 p^2 + 4i xp - 2
    got = oracle_polynomial_star((1, 0, 2), (1, 2, 0))
    assert got == {(2, 2): 1.0, (1, 1): 4j, (0, 0): -2.0 + 0j}


def test_polynomial_star_degree_cap():
    with pytest.raises(ValueError):
        oracle_polynomial_star((1, 4, 3), (1, 0, 0))


def test_polynomial_star_contracted():
    got = oracle_polynomial_star((1, 0, 1), (1, 1, 0), c=0.25)
    assert got == {(1, 1): 1.0, (0, 0): 0.25j}


def test_quadratic_flow_harmonic():
    x, p = oracle_quadratic_flow("harmonic", 1.0, 0.0, math.pi / 4)
    assert x == pytest.approx(0.0, abs=1e-15)
    assert p == pytest.approx(-1.0)
    assert oracle_quadratic_flow("harmonic", 0.3, -0.9, 0.0) == (0.3, -0.9)


def test_quadratic_flow_free():
    assert oracle_quadratic_flow("free", 0.0, 1.0, 2.0, mass=1.0) == (2.0, 1.0)
    x, p = oracle_quadratic_flow("free", 1.0, 2.0, 3.0, mass=4.0)
    assert (x, p) == (1.0 + 2.0 * 3.0 / 4.0, 2.0)
    with pytest.raises(ValueError):
        oracle_quadratic_flow("cubic", 0.0, 0.0, 1.0)


def test_wigner_gaussian_center_and_trace():
    rho = oracle_wigner_gaussian(([0.5], [-0.25]))
    assert rho(1.0, -0.5) == pytest.approx(2.0)  # peak value 2^n at (2p_a, 2x_a)
    assert rho(1.0, 0.5) < 2.0
    # unit trace: (1/(2^2 pi)) integral = 1 for the n=1 form
    xs = np.linspace(-10, 10, 2001)
    vals = np.array([[float(rho(p, x)) for x in xs] for p in xs[::50]])
    # quick sanity only: positive and bounded by 2
    assert np.all(vals >= 0) and np.max(vals) <= 2.0 + 1e-12


def test_coherent_star_reduces_to_vacuum():
    f = oracle_coherent_star((0.0, 0.0), (0.0, 0.0))
    assert f(0.0, 0.0) == pytest.approx(0.5)
    assert f(1.0, 0.0) == pytest.approx(0.5 * math.exp(-0.5))


def test_oracle_values_have_no_grid_inputs():
    # same numbers regardless of any grid: the functions take none
    v1 = oracle_coherent_overlap(([0.3], [0.1]), ([0.0], [0.2]))
    v2 = oracle_coherent_overlap(([0.3], [0.1]), ([0.0], [0.2]))
    assert v1 == v2
