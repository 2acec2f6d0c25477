"""Group axioms hold exactly; coset flows match hand-substituted values."""

import numpy as np
import pytest

from wwgm import (
    ContractionParam,
    CosetAlgebraParams,
    GroupElement,
    ValidationError,
    compose,
    config_coset_flow,
    contract_coordinates,
    identity,
    inverse,
    phase_space_coset_flow,
)
from wwgm.heisenberg_group import twist


def dyadic(rng, n):
    """Random dyadic rationals: double arithmetic on them is exact."""
    return rng.integers(-64, 65, size=n) / 8.0


def random_element(rng, n):
    return GroupElement(dyadic(rng, n), dyadic(rng, n), float(dyadic(rng, 1)[0]))


def test_identity_left_right(rng):
    for n in (1, 2, 3):
        g = random_element(rng, n)
        e = identity(n)
        assert compose(g, e) == g
        assert compose(e, g) == g


def test_compose_twist_example():
    # n=1: theta picks up -(x1 p2 - p1 x2) = +1
    g = compose(GroupElement([1.0], [0.0], 0.0), GroupElement([0.0], [1.0], 0.0))
    assert g == GroupElement([1.0], [1.0], 1.0)


def test_inverse_trivials():
    assert inverse(identity(2)) == identity(2)
    g = GroupElement([1.0], [1.0], 1.0)
    assert inverse(g) == GroupElement([-1.0], [-1.0], -1.0)


def test_inverse_composes_to_identity_exactly(rng):
    for _ in range(200):
        n = int(rng.integers(1, 4))
        g = random_element(rng, n)
        assert compose(g, inverse(g)) == identity(n)
        assert compose(inverse(g), g) == identity(n)


def test_associativity_exact(rng):
    for _ in range(500):
        n = int(rng.integers(1, 4))
        a, b, c = (random_element(rng, n) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_twist_antisymmetric(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        a, b = random_element(rng, n), random_element(rng, n)
        assert twist(a, b) == -twist(b, a)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        compose(identity(1), identity(2))


def test_dimension_cap():
    with pytest.raises(ValidationError):
        GroupElement([1.0] * 4, [0.0] * 4, 0.0)


def test_contract_coordinates():
    g = GroupElement([1.0], [1.0], 0.0)
    assert contract_coordinates(g, ContractionParam(1.0)) == g
    assert contract_coordinates(g, ContractionParam(2.0)) == GroupElement([2.0], [2.0], 0.0)


def test_contract_round_trip(rng):
    g = random_element(rng, 2)
    for k in (2.0, 4.0):  # dyadic k: exact round trip
        back = contract_coordinates(contract_coordinates(g, ContractionParam(k)),
                                    ContractionParam(1.0 / k))
        assert back == g
    back = contract_coordinates(contract_coordinates(g, ContractionParam(3.7)),
                                ContractionParam(1.0 / 3.7))
    assert np.allclose(back.p, g.p, rtol=1e-15) and np.allclose(back.x, g.x, rtol=1e-15)


def test_contraction_param_guards():
    with pytest.raises(ValidationError):
        ContractionParam(0.0)
    with pytest.raises(ValidationError):
        ContractionParam(-1.0)


# --------------------------------------------------------------------- cosets

def test_phase_space_coset_flow_trivial():
    params = CosetAlgebraParams(np.zeros((1, 1)), [0.0], [0.0], 1.0)
    dp, dx, dth = phase_space_coset_flow(params, ([0.5], [2.5], 0.7), ContractionParam(5.0))
    assert dp == 0.0 and dx == 0.0 and dth == 1.0


def test_phase_space_coset_flow_example():
    # n=1, pbar=1, point (p=0, x=2): dtheta = pbar*x/k^2
    params = CosetAlgebraParams(np.zeros((1, 1)), [1.0], [0.0], 0.0)
    dp, dx, dth = phase_space_coset_flow(params, ([0.0], [2.0], 0.0), ContractionParam(1.0))
    assert dp[0] == 1.0 and dx[0] == 0.0 and dth == 2.0
    _, _, dth10 = phase_space_coset_flow(params, ([0.0], [2.0], 0.0), ContractionParam(10.0))
    assert dth10 == pytest.approx(0.02, abs=0.0)


def test_phase_space_coset_theta_scales_as_k_minus_2(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        w = np.zeros((n, n))
        if n > 1:
            w[0, 1], w[1, 0] = 0.25, -0.25
        params = CosetAlgebraParams(w, dyadic(rng, n), dyadic(rng, n), float(dyadic(rng, 1)[0]))
        point = (dyadic(rng, n), dyadic(rng, n), 0.0)
        _, _, d1 = phase_space_coset_flow(params, point, ContractionParam(1.0))
        for k in (2.0, 4.0, 8.0):
            _, _, dk = phase_space_coset_flow(params, point, ContractionParam(k))
            assert dk - params.thetabar == (d1 - params.thetabar) / k ** 2


def test_phase_space_coset_rotation_block():
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    params = CosetAlgebraParams(w, [0.0, 0.0], [0.0, 0.0], 0.0)
    dp, dx, dth = phase_space_coset_flow(params, ([1.0, 0.0], [0.0, 2.0], 0.0),
                                         ContractionParam(1.0))
    assert np.array_equal(dp, [0.0, -1.0])
    assert np.array_equal(dx, [2.0, 0.0])
    assert dth == 0.0


def test_config_coset_flow_examples():
    zero = CosetAlgebraParams(np.zeros((1, 1)), [0.0], [0.0], 0.0)
    dx, dth = config_coset_flow(zero, ([5.0], 3.0))
    assert dx[0] == 0.0 and dth == 0.0

    mom = CosetAlgebraParams(np.zeros((1, 1)), [1.0], [0.0], 0.0)
    dx, dth = config_coset_flow(mom, ([3.0], 0.0))
    assert dx[0] == 0.0 and dth == 3.0

    trans = CosetAlgebraParams(np.zeros((1, 1)), [0.0], [1.0], 0.0)
    dx, dth = config_coset_flow(trans, ([-2.0], 9.0))
    assert dx[0] == 1.0 and dth == 0.0


def test_config_coset_dtheta_ignores_theta(rng):
    params = CosetAlgebraParams(np.zeros((2, 2)), dyadic(rng, 2), dyadic(rng, 2), 0.5)
    x = dyadic(rng, 2)
    _, d1 = config_coset_flow(params, (x, 0.0))
    _, d2 = config_coset_flow(params, (x, 123.0))
    assert d1 == d2


def test_omega_antisymmetry_enforced():
    with pytest.raises(ValidationError):
        CosetAlgebraParams(np.array([[0.0, 1.0], [1.0, 0.0]]), [0, 0], [0, 0], 0.0)
