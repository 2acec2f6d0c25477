"""Evolution in the three pictures, classical flows, derivation generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwgm import (
    HBAR,
    CoherentLabel,
    EvolutionConfig,
    PhaseFunction,
    PhaseGrid,
    PhasePolynomial,
    ValidationError,
    classical_heisenberg_evolve,
    classical_liouville_evolve,
    coherent_state,
    free_generator,
    free_particle_tilde_generator,
    harmonic_generator,
    heisenberg_evolve,
    inner,
    liouville_evolve,
    oracle_quadratic_flow,
    poisson_bracket,
    scaled_moyal_bracket,
    schrodinger_evolve,
    star,
    tilde_apply,
    trace_pair,
    wigner,
)
from wwgm._spectral import _apply
from wwgm.dynamics import HamiltonianGenerator, _GridFlow, _rk4_step
from wwgm.catalog import make_observable

HARM = harmonic_generator()


def zero_generator():
    return HamiltonianGenerator("zero", PhasePolynomial(1))


def const_generator(c):
    return HamiltonianGenerator("const", PhasePolynomial.constant(1, c))


def poly_coeffs_close(poly, want, tol=1e-9):
    keys = set(poly.coeffs) | set(want)
    return all(abs(poly.coeffs.get(k, 0.0) - want.get(k, 0.0)) < tol for k in keys)


# ------------------------------------------------------------- wavefunctions

def test_schrodinger_zero_generator(grid):
    phi = coherent_state(CoherentLabel([0.5], [0.0]), grid)
    traj = schrodinger_evolve(phi, zero_generator(), EvolutionConfig(0.01, 10))
    assert np.max(np.abs(traj.final.values - phi.values)) == 0.0


def test_schrodinger_constant_generator_phase(grid):
    # G = c: phi(t) = exp(-i c t / 2) phi(0); at c = 2, t = pi the sign flips
    phi = coherent_state(CoherentLabel([0.0], [0.0]), grid)
    steps = 500
    traj = schrodinger_evolve(phi, const_generator(2.0),
                              EvolutionConfig(math.pi / steps, steps))
    assert np.max(np.abs(traj.final.values + phi.values)) < 1e-8


def test_schrodinger_harmonic_rotates_label(grid):
    t_end = 0.2
    steps = 200
    phi = coherent_state(CoherentLabel([0.0], [1.0]), grid)
    traj = schrodinger_evolve(phi, HARM, EvolutionConfig(t_end / steps, steps))
    x_t, p_t = oracle_quadratic_flow("harmonic", 1.0, 0.0, t_end)
    pk_p, pk_x = traj.final.peak()
    assert pk_x[0] == pytest.approx(x_t, abs=1e-5)
    assert pk_p[0] == pytest.approx(p_t, abs=1e-5)


def test_schrodinger_norm_and_energy_tracked(grid):
    phi = coherent_state(CoherentLabel([0.0], [1.0]), grid)
    traj = schrodinger_evolve(phi, HARM, EvolutionConfig(1e-3, 100), save_every=20)
    assert max(abs(n - traj.norms[0]) for n in traj.norms) < 1e-9
    assert max(abs(e - traj.energies[0]) for e in traj.energies) < 1e-8
    # <G> for a coherent state at |label|=1: 4|a|^2 + 2
    assert traj.energies[0] == pytest.approx(6.0, abs=1e-6)


def test_schrodinger_requires_normalized_state(grid):
    phi = coherent_state(CoherentLabel([0.0], [0.5]), grid) * 1.5
    with pytest.raises(ValidationError):
        schrodinger_evolve(phi, HARM, EvolutionConfig(1e-3, 10))


def test_stability_guard(grid):
    phi = coherent_state(CoherentLabel([0.0], [0.5]), grid)
    with pytest.raises(ValidationError):
        schrodinger_evolve(phi, HARM, EvolutionConfig(0.01, 10))  # dt*128 > 0.5


# --------------------------------------------------------------- observables

def test_heisenberg_conserves_generator(grid):
    traj = heisenberg_evolve(HARM.make(grid), HARM, EvolutionConfig(1e-3, 50))
    assert poly_coeffs_close(traj.final.poly, HARM.poly.coeffs, tol=1e-12)


def test_heisenberg_harmonic_closed_form(grid):
    t_end, steps = 0.3, 300
    traj = heisenberg_evolve(make_observable("x", grid), HARM,
                             EvolutionConfig(t_end / steps, steps))
    want = {(0, 1): complex(math.cos(2 * t_end)), (1, 0): complex(math.sin(2 * t_end))}
    assert poly_coeffs_close(traj.final.poly, want)


def test_heisenberg_grid_observable_is_classical_for_quadratic_generator(grid):
    # for quadratic generators the bracket has no higher corrections, so the
    # quantum flow of any smooth observable equals the classical advection
    t_end, steps = 0.2, 200
    cfg = EvolutionConfig(t_end / steps, steps)
    gauss = make_observable("gaussian", grid, {"p0": 0.5, "x0": -0.4, "sigma": 1.0})
    tq = heisenberg_evolve(gauss, HARM, cfg)
    tc = classical_heisenberg_evolve(gauss, HARM, cfg)
    assert np.max(np.abs(tq.final.values - tc.final.values)) < 1e-6


def test_picture_equivalence(grid):
    t_end, steps = 0.3, 300
    cfg = EvolutionConfig(t_end / steps, steps)
    a = CoherentLabel([0.0], [0.8])
    phi = coherent_state(a, grid)
    x = make_observable("x", grid)

    phi_t = schrodinger_evolve(phi, HARM, cfg).final
    state_side = trace_pair(x, wigner(phi_t))

    alpha_t = heisenberg_evolve(x, HARM, cfg).final
    obs_side = trace_pair(alpha_t, wigner(phi))
    assert abs(state_side - obs_side) < 1e-6


# ------------------------------------------------------------------ densities

def test_liouville_zero_generator(grid):
    rho = wigner(coherent_state(CoherentLabel([0.3], [0.1]), grid))
    traj = liouville_evolve(rho, zero_generator(), EvolutionConfig(0.01, 5))
    assert np.max(np.abs(traj.final.values - rho.values)) == 0.0


def test_liouville_matches_schrodinger(grid):
    t_end, steps = 0.2, 200
    cfg = EvolutionConfig(t_end / steps, steps)
    a = CoherentLabel([0.0], [0.7])
    phi = coherent_state(a, grid)
    rho_t = liouville_evolve(wigner(phi), HARM, cfg).final
    phi_t = schrodinger_evolve(phi, HARM, cfg).final
    assert np.max(np.abs(rho_t.values - wigner(phi_t).values)) < 1e-5


def test_liouville_full_period_returns(grid):
    # label rotation frequency is 2, so the density is periodic with period pi
    steps = 900
    cfg = EvolutionConfig(math.pi / steps, steps)
    rho0 = wigner(coherent_state(CoherentLabel([0.0], [0.5]), grid))
    traj = liouville_evolve(rho0, HARM, cfg)
    assert np.max(np.abs(traj.final.values - rho0.values)) < 1e-5


def test_classical_harmonic_rigid_rotation(grid):
    # G = (p^2+x^2)/2 rotates the density rigidly with period 2*pi
    G = HamiltonianGenerator("harmonic/2", harmonic_generator().poly * 0.5)
    steps = 785
    cfg = EvolutionConfig((math.pi / 2) / steps, steps)
    P, X = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    x0, p0 = 1.0, 0.0
    rho0 = PhaseFunction(grid, np.exp(-((P - p0) ** 2 + (X - x0) ** 2)).astype(complex),
                         role="density")
    traj = classical_liouville_evolve(rho0, G, cfg)
    # quarter turn: the blob at (x,p)=(1,0) moves to (0,-1)
    want = np.exp(-((P + 1.0) ** 2 + X ** 2))
    assert np.max(np.abs(traj.final.values - want)) < 1e-4


def test_classical_liouville_zero_generator(grid):
    P, X = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    rho0 = PhaseFunction(grid, np.exp(-(P ** 2 + X ** 2)).astype(complex), role="density")
    traj = classical_liouville_evolve(rho0, zero_generator(), EvolutionConfig(1e-2, 5))
    assert np.array_equal(traj.final.values, rho0.values)


def test_liouville_quadratic_flow_is_k_independent(grid):
    # for quadratic generators the scaled bracket has no higher corrections,
    # so the contracted evolution coincides with the k=1 flow exactly
    rho = wigner(coherent_state(CoherentLabel([0.2], [0.4]), grid))
    cfg = EvolutionConfig(1e-3, 20)
    base = liouville_evolve(rho, HARM, cfg, k=1.0).final
    contracted = liouville_evolve(rho, HARM, cfg, k=4.0).final
    assert np.max(np.abs(base.values - contracted.values)) < 1e-10


def test_liouville_trace_conserved(grid):
    rho = wigner(coherent_state(CoherentLabel([0.2], [0.5]), grid))
    traj = liouville_evolve(rho, HARM, EvolutionConfig(1e-3, 100), save_every=50)
    assert max(abs(n - 1.0) for n in traj.norms) < 1e-8
    assert traj.final.role == "density"


def test_liouville_requires_density(grid):
    phi = coherent_state(CoherentLabel([0.0], [0.0]), grid)
    with pytest.raises(ValidationError):
        liouville_evolve(phi, HARM, EvolutionConfig(1e-3, 5))


# ------------------------------------------------------------ classical flows

def test_classical_free_shear(grid256):
    g = grid256
    t_end, steps = 0.5, 250
    P, X = np.meshgrid(g.axis, g.axis, indexing="ij")
    rho0 = PhaseFunction(g, np.exp(-(P ** 2 + X ** 2)).astype(complex), role="density")
    traj = classical_liouville_evolve(rho0, free_generator(1.0),
                                      EvolutionConfig(t_end / steps, steps))
    want = np.exp(-(P ** 2 + (X - P * t_end) ** 2))
    assert np.max(np.abs(traj.final.values - want)) < 1e-5


def test_classical_liouville_mass_conserved(grid):
    P, X = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    rho0 = PhaseFunction(grid, np.exp(-(P ** 2 + X ** 2)).astype(complex), role="density")
    traj = classical_liouville_evolve(rho0, harmonic_generator(),
                                      EvolutionConfig(1e-3, 100), save_every=100)
    assert abs(traj.norms[-1] - traj.norms[0]) < 1e-8


def test_classical_liouville_rejects_signed_density(grid):
    P, X = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    signed = PhaseFunction(grid, (X * np.exp(-(P ** 2 + X ** 2))).astype(complex),
                           role="density")
    with pytest.raises(ValidationError):
        classical_liouville_evolve(signed, free_generator(1.0), EvolutionConfig(1e-3, 5))


def test_classical_heisenberg_free_transport(grid):
    t_end, steps = 0.4, 100
    traj = classical_heisenberg_evolve(make_observable("x", grid), free_generator(2.0),
                                       EvolutionConfig(t_end / steps, steps))
    want = {(0, 1): 1.0 + 0j, (1, 0): complex(t_end / 2.0)}  # x + p t/m
    assert poly_coeffs_close(traj.final.poly, want, tol=1e-12)


def test_classical_heisenberg_conserves_generator(grid):
    G = harmonic_generator()
    traj = classical_heisenberg_evolve(G.make(grid), G, EvolutionConfig(1e-3, 50))
    assert poly_coeffs_close(traj.final.poly, G.poly.coeffs, tol=1e-12)


def test_quantum_bracket_converges_to_classical_trajectory(grid):
    # cubic generator on a cubic observable: the first bracket correction is
    # the third-derivative term, so the trajectories approach each other as k^-4
    Gc = HamiltonianGenerator("cubic", PhasePolynomial(1, {(3, 0): 1.0 / 3.0}))
    alpha = make_observable("x^3", grid)
    cfg = EvolutionConfig(1e-3, 100)
    classical = classical_heisenberg_evolve(alpha, Gc, cfg).final.poly
    errs = []
    for k in (2.0, 4.0):
        quantum = heisenberg_evolve(alpha, Gc, cfg, k=k).final.poly
        diff = quantum - classical
        errs.append(max(abs(c) for c in diff.coeffs.values()))
    assert 10.0 < errs[0] / errs[1] < 20.0  # O(k^-4): nominal factor 16


# ------------------------------------------------------- derivation operators

def test_tilde_trivials(grid):
    p = make_observable("p", grid)
    x = make_observable("x", grid)
    assert tilde_apply("p", p).max_abs() < 1e-12
    out = tilde_apply("p", x)
    assert np.max(np.abs(out.values - 2j)) < 1e-10


def test_tilde_leibniz_over_star(grid):
    g1 = coherent_state(CoherentLabel([0.4], [0.2]), grid)
    g2 = coherent_state(CoherentLabel([-0.3], [0.5]), grid)
    prod = star(g1, g2)
    lhs = tilde_apply("p", prod)
    rhs = star(tilde_apply("p", g1), g2) + star(g1, tilde_apply("p", g2))
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-8 * prod.max_abs()


def test_free_tilde_generator_matches_poisson(grid):
    m = 1.7
    gen = free_particle_tilde_generator(m)
    rho = make_observable("gaussian", grid, {"p0": 0.4, "x0": -0.2, "sigma": 1.0})
    got = gen.flow(rho)
    want = poisson_bracket(free_generator(m).make(grid), rho)
    assert np.max(np.abs(got.values - want.values)) < 1e-8


def test_free_tilde_generator_linear_in_p(grid):
    # rho = p g(x): (1/2i) Gtilde rho = -(p/m) p g'(x)
    m = 2.0
    gen = free_particle_tilde_generator(m)
    P, X = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    gx = np.exp(-X ** 2)
    rho = PhaseFunction(grid, (P * gx).astype(complex))
    got = gen.flow(rho)
    want = -(P / m) * P * (-2 * X * gx)
    assert np.max(np.abs(got.values - want)) < 1e-8


def test_free_tilde_generator_vanishes_at_large_mass(grid):
    rho = make_observable("gaussian", grid, {"sigma": 1.0})
    out = free_particle_tilde_generator(1e12).apply(rho)
    assert out.max_abs() < 1e-11
    with pytest.raises(ValidationError):
        free_particle_tilde_generator(-1.0)


def test_generator_must_be_real():
    with pytest.raises(ValidationError):
        HamiltonianGenerator("bad", PhasePolynomial(1, {(1, 0): 1j}))
    with pytest.raises(ValidationError):
        HamiltonianGenerator("bad", PhasePolynomial(1, {(2, 0): 1.0}), mass=-1.0)


def test_evolution_config_validation():
    with pytest.raises(ValidationError):
        EvolutionConfig(0.0, 5)
    with pytest.raises(ValidationError):
        EvolutionConfig(1e-3, 0)
    with pytest.raises(ValidationError):
        EvolutionConfig(1e-3, 5, integrator="euler")


# ------------------------------------------------- allocation-free stepping

def _old_apply(v, mult, axes):
    """The allocating Fourier multiplier, mult · spectrum with mult first."""
    spectrum = np.fft.fftn(v, axes=axes)
    return np.fft.ifftn(mult * spectrum, axes=axes)


def _allocating(flow):
    """The allocating sum of a flow's multiplier parts that the in-place
    operator replaced."""
    def rhs(v):
        out = np.zeros(flow.grid.shape, dtype=np.complex128)
        for mult, axes in flow.parts:
            out += _old_apply(v, mult, axes)
        return out
    return rhs


def _reference_final(y0, rhs, cfg):
    y = y0
    for _ in range(cfg.steps):
        y = _rk4_step(y, rhs, cfg.dt)
    return y


_SMALL = PhaseGrid(n=1, N=64, L=8.0)
_CFG = EvolutionConfig(1e-3, 6)


def _grid_run(case):
    """(initial state, trajectory, right-hand side of the allocating path)."""
    g = _SMALL
    rho = wigner(coherent_state(CoherentLabel([0.25], [0.0]), g))
    gauss = make_observable("gaussian", g, {"p0": 0.3, "x0": -0.2, "sigma": 1.0})
    if case == "schrodinger":
        phi = coherent_state(CoherentLabel([0.25], [0.0]), g)
        return (phi, schrodinger_evolve(phi, HARM, _CFG),
                _allocating(_GridFlow(HARM, g, 1.0, "wavefunction")))
    if case.startswith("liouville"):
        k = float(case[-1])
        return (rho, liouville_evolve(rho, HARM, _CFG, k=k),
                _allocating(_GridFlow(HARM, g, 1.0 / k ** 2, "density")))
    if case == "heisenberg":
        return (gauss, heisenberg_evolve(gauss, HARM, _CFG, k=1.5),
                _allocating(_GridFlow(HARM, g, 1.0 / 1.5 ** 2, "observable")))
    if case == "classical-liouville":
        free = free_generator(2.0)
        return (rho, classical_liouville_evolve(rho, free, _CFG),
                _allocating(_GridFlow(free, g, 0.0, "density")))
    return (gauss, classical_heisenberg_evolve(gauss, HARM, _CFG),
            _allocating(_GridFlow(HARM, g, 0.0, "observable")))


@pytest.mark.parametrize("case", ["schrodinger", "liouville-k1", "liouville-k2", "heisenberg",
                                  "classical-liouville", "classical-heisenberg"])
def test_buffered_runner_is_bit_equal_to_the_allocating_step(case):
    state, traj, old_rhs = _grid_run(case)
    assert np.array_equal(traj.final.values, _reference_final(state.values, old_rhs, _CFG))


def test_input_state_is_not_written_to():
    phi = coherent_state(CoherentLabel([0.25], [0.0]), _SMALL)
    before = np.copy(phi.values)
    schrodinger_evolve(phi, HARM, _CFG)
    assert np.array_equal(phi.values, before)


def test_recorded_snapshots_are_distinct_arrays():
    phi = coherent_state(CoherentLabel([0.25], [0.0]), _SMALL)
    traj = schrodinger_evolve(phi, HARM, _CFG, save_every=2)
    values = [s.values for s in traj.states]
    assert len(values) == 4
    assert np.array_equal(values[0], phi.values)
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert not np.shares_memory(a, b)
            assert not np.array_equal(a, b)


@pytest.mark.parametrize("n, N, axes", [(1, 64, (0,)), (2, 16, (0, 1)), (2, 16, (1, 3))])
def test_apply_writes_the_allocating_multiplier_into_its_buffer(rng, n, N, axes):
    g = PhaseGrid(n=n, N=N, L=8.0)
    values = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    mult = sum(g.fields[a] * g.freq_fields[a] for a in axes) + 0.5j
    buf = np.empty(g.shape, dtype=np.complex128)
    assert _apply(values, mult, axes, out=buf) is buf
    assert np.array_equal(buf, _old_apply(values, mult, axes))
    assert np.array_equal(_apply(values.real, mult, axes), _old_apply(values.real, mult, axes))


def test_non_separable_generator_steps_through_the_star_fallback():
    # G = p·x has no K(p) + V(x) split, so the observable's flow goes through
    # `scaled_moyal_bracket` and is copied into the stage buffer
    g = _SMALL
    G = HamiltonianGenerator("px", PhasePolynomial.p_var(1, 0) * PhasePolynomial.x_var(1, 0))
    gauss = make_observable("gaussian", g, {"p0": 0.3, "x0": -0.2, "sigma": 1.0})
    cfg = EvolutionConfig(1e-3, 3)
    traj = heisenberg_evolve(gauss, G, cfg)
    G_field = G.make(g)
    rhs = lambda v: scaled_moyal_bracket(PhaseFunction(g, np.copy(v), _checked=True),
                                         G_field).values
    assert np.array_equal(traj.final.values, _reference_final(gauss.values, rhs, cfg))


# -------------------------------------------------- the sine-bracket flow

_QUARTIC = HamiltonianGenerator(
    "quartic", PhasePolynomial(1, {(2, 0): 1.0, (0, 2): 1.0, (0, 4): 0.01}))
_PX = HamiltonianGenerator("px", PhasePolynomial.p_var(1, 0) * PhasePolynomial.x_var(1, 0))
#: generator, K(p), V(x) (None where zero), ∂_x G, ∂_p G as plain NumPy
_SEPARABLE = {
    "harmonic": (HARM, lambda p: p ** 2, lambda x: x ** 2, lambda p, x: 2 * x,
                 lambda p, x: 2 * p),
    "free": (free_generator(2.0), lambda p: 0.25 * p ** 2, None, None, lambda p, x: 0.5 * p),
    "quartic": (_QUARTIC, lambda p: p ** 2, lambda x: x ** 2 + 0.01 * x ** 4,
                lambda p, x: 2 * x + 0.04 * x ** 3, lambda p, x: 2 * p),
}


def _left_mults(name, g, c):
    """The left multipliers K(p + cμ_x) and V(x − cμ_p), zeroed beyond ⅔ Nyquist."""
    _G, K, V, _dx, _dp = _SEPARABLE[name]
    P, X = g.fields
    mu_p, mu_x = g.freq_fields
    cut = (2.0 / 3.0) * float(np.max(np.abs(g.freqs)))
    mults = [(K(P + c * mu_x) * (np.abs(mu_x) <= cut), (1,))]
    if V is not None:
        mults.append((V(X - c * mu_p) * (np.abs(mu_p) <= cut), (0,)))
    return mults


def _left(name, g, k, v):
    """G ⋆ v through the left multipliers."""
    return sum(_old_apply(v, mult, axes) for mult, axes in _left_mults(name, g, 1.0 / k ** 2))


def _two_call_commutator(name, g, k, v):
    """(k²/2i)[G, v]_⋆ as two left calls and the conjugation v ⋆ G = conj(G ⋆ v̄)."""
    return (k ** 2 / 2j) * (_left(name, g, k, v) - np.conj(_left(name, g, k, np.conj(v))))


def _apply_parts(flow, v):
    return sum(_old_apply(v, mult, axes) for mult, axes in flow.parts)


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.fixture(scope="module")
def small_states():
    g = _SMALL
    return (wigner(coherent_state(CoherentLabel([0.3], [-0.4]), g)).values,
            make_observable("gaussian", g, {"p0": 0.3, "x0": -0.2, "sigma": 1.0}).values)


@pytest.mark.parametrize("name", ["harmonic", "free", "quartic"])
def test_bracket_parts_match_the_two_call_commutator(name, small_states):
    G = _SEPARABLE[name][0]
    for k in (1.0, 2.0):
        density = _GridFlow(G, _SMALL, 1.0 / k ** 2, "density")
        observable = _GridFlow(G, _SMALL, 1.0 / k ** 2, "observable")
        for v in small_states:
            want = _two_call_commutator(name, _SMALL, k, v)
            assert _rel(_apply_parts(density, v), want) <= 1e-12
            assert _rel(_apply_parts(observable, v), -want) <= 1e-12


@pytest.mark.parametrize("name", ["harmonic", "free", "quartic"])
def test_poisson_parts_match_the_field_derivative_sum(name, small_states):
    # {G, v} = ∂_x G·∂_p v − ∂_p G·∂_x v, each derivative one spectral call
    G, _K, _V, dx, dp = _SEPARABLE[name]
    P, X = _SMALL.fields
    deriv = lambda v, ax: _old_apply(v, 1j * _SMALL.freq_fields[ax], (ax,))
    for v in small_states:
        want = -dp(P, X) * deriv(v, 1)
        if dx is not None:
            want = want + dx(P, X) * deriv(v, 0)
        assert _rel(_apply_parts(_GridFlow(G, _SMALL, 0.0, "density"), v), want) <= 1e-14
        assert _rel(_apply_parts(_GridFlow(G, _SMALL, 0.0, "observable"), v), -want) <= 1e-14


def test_bracket_contracts_to_the_poisson_flow_as_k_to_the_minus_4(small_states):
    rho = small_states[0]
    cut = (2.0 / 3.0) * float(np.max(np.abs(_SMALL.freqs)))
    for name in ("harmonic", "free", "quartic"):
        G = _SEPARABLE[name][0]
        # the c = 0 parts, dealiased like the quantum ones
        classical = [(mult * (np.abs(_SMALL.freq_fields[axes[0]]) <= cut), axes)
                     for mult, axes in _GridFlow(G, _SMALL, 0.0, "density").parts]
        if name == "quartic":
            # only the c² term separates them: successive ratios 4⁴ = 256,
            # out to k = 1024, where a difference of shifts lost every digit
            want = sum(_old_apply(rho, mult, axes) for mult, axes in classical)
            errs = [_rel(_apply_parts(_GridFlow(G, _SMALL, 1.0 / k ** 2, "density"), rho), want)
                    for k in (4.0, 16.0, 64.0, 256.0, 1024.0)]
            assert all(abs(a / b / 256.0 - 1.0) <= 0.01 for a, b in zip(errs, errs[1:]))
        else:
            # quadratic G: the odd series stops at its first term, at every k
            for k in (1.0, 4.0, 64.0, 4096.0):
                parts = _GridFlow(G, _SMALL, 1.0 / k ** 2, "density").parts
                assert len(parts) == len(classical)
                assert all(np.array_equal(got[0], want[0]) and got[1] == want[1]
                           for got, want in zip(parts, classical))


@pytest.mark.parametrize("name", ["harmonic", "free", "quartic", "px"])
def test_rate_guard_is_fed_the_parent_rates(name):
    # the stepped operator changed; the rates fed to _rate_guard did not
    g = _SMALL
    P, X = g.fields
    kmax = float(np.max(np.abs(g.freqs)))
    if name == "px":
        quantum = {c: float(np.max(np.abs(P * X))) / HBAR for c in (1.0, 0.25)}
        classical = float(np.max(np.abs(P))) * kmax + float(np.max(np.abs(X))) * kmax
    else:
        quantum = {c: sum(float(np.max(np.abs(m))) for m, _ in _left_mults(name, g, c)) / HBAR
                   for c in (1.0, 0.25)}
        _G, _K, _V, dx, dp = _SEPARABLE[name]
        fields = [f(P, X) for f in (dx, dp) if f is not None]
        classical = 0.0
        for f in fields:
            classical += float(np.max(np.abs(f))) * kmax
    G = _PX if name == "px" else _SEPARABLE[name][0]
    assert _GridFlow(G, g, 1.0, "wavefunction").rate == quantum[1.0]
    for role in ("density", "observable"):
        assert _GridFlow(G, g, 0.25, role).rate == quantum[0.25]
        assert _GridFlow(G, g, 0.0, role).rate == classical


def test_non_separable_classical_flows_are_the_squeeze():
    # G = p·x: {G, ρ} = p ∂_p ρ − x ∂_x ρ, so ρ(t) = ρ₀(p·eᵗ, x·e⁻ᵗ), and an
    # observable moves the other way, α(t) = α₀(p·e⁻ᵗ, x·eᵗ)
    g = _SMALL
    P, X = g.fields
    blob = lambda p, x: np.exp(-(p - 0.3) ** 2 - (x + 0.2) ** 2)
    cfg = EvolutionConfig(1e-3, 100)
    t = cfg.dt * cfg.steps
    rho = PhaseFunction(g, blob(P, X).astype(complex), role="density")
    alpha = PhaseFunction(g, blob(P, X).astype(complex))
    rho_t = classical_liouville_evolve(rho, _PX, cfg).final.values
    alpha_t = classical_heisenberg_evolve(alpha, _PX, cfg).final.values
    assert np.max(np.abs(rho_t - blob(P * math.exp(t), X * math.exp(-t)))) <= 1e-10
    assert np.max(np.abs(alpha_t - blob(P * math.exp(-t), X * math.exp(t)))) <= 1e-10


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(p=st.floats(-0.75, 0.75), x=st.floats(-0.75, 0.75), k=st.floats(1.0, 4.0),
       name=st.sampled_from(["harmonic", "quartic"]))
def test_sine_bracket_is_the_two_call_commutator(p, x, k, name):
    # |p|, |x| <= 0.75 keeps the Wigner density inside the N=64 decay guard
    rho = wigner(coherent_state(CoherentLabel([p], [x]), _SMALL)).values
    flow = _GridFlow(_SEPARABLE[name][0], _SMALL, 1.0 / k ** 2, "density")
    got = flow(rho, np.empty(_SMALL.shape, dtype=np.complex128))
    # roundoff is set by the one-sided terms: a label near the origin makes
    # the harmonic bracket itself vanish
    scale = (k ** 2 / 2) * np.abs(_left(name, _SMALL, k, rho))
    assert np.max(np.abs(got - _two_call_commutator(name, _SMALL, k, rho))) \
        <= 1e-12 * np.max(scale)
    # the bracket annihilates the trace, so Liouville's trace check keeps its meaning
    assert abs(np.sum(got)) <= 1e-12 * np.sum(scale)
