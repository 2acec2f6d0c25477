"""Star products and brackets against closed forms and the coefficient oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwgm import (
    AccuracyError,
    CoherentLabel,
    PhaseFunction,
    PhaseGrid,
    PhasePolynomial,
    StarMethod,
    ValidationError,
    coherent_state,
    inner,
    moyal_bracket,
    poisson_bracket,
    scaled_moyal_bracket,
    star,
    star_series_report,
    trace_pair,
    wigner,
)
from wwgm._poly import bracket_poly, star_poly
from wwgm.analytic_oracle import oracle_coherent_star, oracle_polynomial_star
from wwgm.catalog import make_observable
from wwgm.star_algebra import _band_size, _mode_sum

SER = StarMethod("series", 10)
SPEC = StarMethod("spectral")


def mono(grid, p_exp, x_exp, coef=1.0):
    return PhaseFunction.from_poly(
        grid, PhasePolynomial.monomial(grid.n, (p_exp,), (x_exp,), coef))


def plane_wave(grid, jp, jx):
    lp, lx = grid.freqs[jp], grid.freqs[jx]
    vals = np.exp(1j * (lp * (grid.p_field() + grid.L) + lx * (grid.x_field() + grid.L)))
    return PhaseFunction(grid, vals), lp, lx


# ----------------------------------------------------------- exact poly layer

def test_star_x_p(grid):
    x, p = mono(grid, 0, 1), mono(grid, 1, 0)
    got = star(x, p)
    assert got.poly.coeffs == {(1, 1): 1.0 + 0j, (0, 0): 1j}
    comm = star(x, p) - star(p, x)
    assert comm.poly.coeffs == {(0, 0): 2j}
    assert np.max(np.abs(comm.values - 2j)) == 0.0


def test_star_with_contraction_parameter(grid):
    x, p = mono(grid, 0, 1), mono(grid, 1, 0)
    for k in (2.0, 4.0, 8.0):
        comm = star(x, p, k=k) - star(p, x, k=k)
        assert comm.poly.coeffs == {(0, 0): 2j / k ** 2}


def test_poly_star_matches_coefficient_oracle(grid, rng):
    for _ in range(12):
        ia, ja = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        ib, jb = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        got = star(mono(grid, ia, ja), mono(grid, ib, jb)).poly.coeffs
        want = oracle_polynomial_star((1, ia, ja), (1, ib, jb))
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-14)


def test_moyal_bracket_x_psquared(grid):
    x, p2 = mono(grid, 0, 1), mono(grid, 2, 0)
    got = moyal_bracket(x, p2)
    assert got.poly.coeffs == {(1, 0): 4j}
    assert moyal_bracket(x, x).poly.is_zero
    anti = moyal_bracket(p2, x) + got
    assert anti.poly.is_zero


def test_scaled_bracket_exact_for_cubics(grid):
    x3, p3 = mono(grid, 0, 3), mono(grid, 3, 0)
    for k in (1.0, 2.0, 4.0):
        sb = scaled_moyal_bracket(x3, p3, k=k)
        # (k^2/2i)[x^3, p^3]_k = 9 x^2 p^2 - 6/k^4
        assert sb.poly.coeffs == {(2, 2): 9.0 + 0j, (0, 0): -6.0 / k ** 4 + 0j}


def test_poisson_bracket_polynomials(grid):
    x, p = mono(grid, 0, 1), mono(grid, 1, 0)
    one = poisson_bracket(x, p)
    assert one.poly.coeffs == {(0, 0): 1.0 + 0j}
    assert poisson_bracket(x, mono(grid, 0, 2)).poly.is_zero


def test_poisson_bracket_grid_antisymmetry(grid, rng):
    f = coherent_state(CoherentLabel([0.4], [-0.3]), grid)
    assert poisson_bracket(f, f).max_abs() < 1e-12
    g = coherent_state(CoherentLabel([-0.2], [0.5]), grid)
    asym = poisson_bracket(f, g) + poisson_bracket(g, f)
    assert asym.max_abs() < 1e-12


# ------------------------------------------ the bracket as odd Moyal terms

#: 1-d polynomials of degree <= 4 with dyadic coefficients, keyed (p, x)
_EXPO = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: sum(e) <= 4)
_POLY = st.dictionaries(_EXPO, st.integers(-8, 8).map(lambda j: j / 4), min_size=1,
                        max_size=4).map(lambda d: PhasePolynomial(1, d))
#: c = 0 (the Poisson bracket) or c = 1/k² with k in [1, 8]
_C = st.one_of(st.just(0.0), st.floats(1.0, 8.0).map(lambda k: 1.0 / k ** 2))
_BRACKET_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None, database=None)


def _gap(got: dict, want: dict) -> float:
    """max |got − want| over the coefficients, relative to the largest of want."""
    keys = set(got) | set(want)
    diff = max((abs(got.get(e, 0) - want.get(e, 0)) for e in keys), default=0.0)
    return diff / (max((abs(v) for v in want.values()), default=0.0) or 1.0)


@_BRACKET_SETTINGS
@given(a=_POLY, b=_POLY, d=_POLY, c=_C)
def test_bracket_poly_is_the_scaled_commutator(a, b, d, c):
    ab = bracket_poly(a, b, c)
    if c:
        inline = (star_poly(a, b, c) - star_poly(b, a, c)) * (1 / (2j * c))
        assert _gap(ab.coeffs, inline.coeffs) <= 1e-14
    else:
        # {a, b} = ∂_x a ∂_p b − ∂_p a ∂_x b, variables indexed (p, x)
        assert ab.coeffs == (a.diff(1) * b.diff(0) - a.diff(0) * b.diff(1)).coeffs
    assert (ab + bracket_poly(b, a, c)).is_zero
    cyclic = [bracket_poly(u, bracket_poly(v, w, c), c) for u, v, w in ((a, b, d), (b, d, a),
                                                                         (d, a, b))]
    scale = max((abs(v) for t in cyclic for v in t.coeffs.values()), default=0.0)
    jacobi = cyclic[0] + cyclic[1] + cyclic[2]
    assert all(abs(v) <= 1e-12 * scale for v in jacobi.coeffs.values())


@_BRACKET_SETTINGS
@given(ea=_EXPO, eb=_EXPO, k=st.floats(1.0, 8.0))
def test_bracket_poly_matches_the_oracle_on_monomials(ea, eb, k):
    c = 1.0 / k ** 2
    ab, ba = (oracle_polynomial_star((1, *u), (1, *v), c) for u, v in ((ea, eb), (eb, ea)))
    want = {e: (ab.get(e, 0) - ba.get(e, 0)) / (2j * c) for e in set(ab) | set(ba)}
    mono_a, mono_b = (PhasePolynomial(1, {e: 1.0}) for e in (ea, eb))
    assert _gap(bracket_poly(mono_a, mono_b, c).coeffs, want) <= 1e-14


# ----------------------------------------------------- spectral grid product

def test_spectral_identity(grid):
    one = mono(grid, 0, 0)
    g = make_observable("gaussian", grid, {"sigma": 1.0})
    out = star(PhaseFunction(grid, np.ones(grid.shape, complex)), g, SPEC)
    assert np.max(np.abs(out.values - g.values)) < 1e-12
    out = star(g, PhaseFunction(grid, np.ones(grid.shape, complex)), SPEC)
    assert np.max(np.abs(out.values - g.values)) < 1e-12
    # poly-tagged constant short-circuits to the exact path
    assert star(one, g).values == pytest.approx(g.values)


def test_spectral_plane_wave_twist(grid, rng):
    # e^{i l z} * e^{i m z} = e^{i(l+m) z} e^{i c (l_p m_x - l_x m_p)}:
    # pins the kernel constant and sign of the spectral implementation
    for k in (1.0, 2.0):
        c = 1.0 / k ** 2
        w1, lp, lx = plane_wave(grid, 3, -5)
        w2, mp, mx = plane_wave(grid, 7, 2)
        got = star(w1, w2, SPEC, k=k)
        prod = PhaseFunction(grid, w1.values * w2.values)
        want = prod.values * np.exp(1j * c * (lp * mx - lx * mp))
        assert np.max(np.abs(got.values - want)) < 1e-12


def test_spectral_vacuum_projector(grid):
    phi0 = coherent_state(CoherentLabel([0.0], [0.0]), grid)
    out = star(phi0, phi0, SPEC)
    assert np.max(np.abs(out.values - 0.5 * phi0.values)) < 1e-12


def test_spectral_matches_coherent_star_oracle(grid):
    a, b = (0.9, 0.4), (-0.5, 0.25)
    fa = coherent_state(CoherentLabel([a[0]], [a[1]]), grid)
    fb = coherent_state(CoherentLabel([b[0]], [b[1]]), grid)
    got = star(fa, fb.conj(), SPEC)
    P, X = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    want = oracle_coherent_star(a, b)(P, X)
    assert np.max(np.abs(got.values - want)) < 1e-9


def test_spectral_associativity(grid):
    f = [coherent_state(CoherentLabel([p], [x]), grid)
         for p, x in ((0.3, 0.7), (-0.6, 0.1), (0.0, -0.9))]
    lhs = star(star(f[0], f[1], SPEC), f[2], SPEC)
    rhs = star(f[0], star(f[1], f[2], SPEC), SPEC)
    scale = max(lhs.max_abs(), rhs.max_abs())
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-6 * scale


def test_series_associativity_plane_waves(grid):
    waves = [plane_wave(grid, jp, jx)[0] for jp, jx in ((1, -1), (0, 1), (-1, 0))]
    lhs = star(star(waves[0], waves[1], SER), waves[2], SER)
    rhs = star(waves[0], star(waves[1], waves[2], SER), SER)
    scale = max(lhs.max_abs(), rhs.max_abs())
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-6 * scale


def test_conjugation_rule(grid):
    fa = coherent_state(CoherentLabel([0.5], [0.3]), grid)
    fb = coherent_state(CoherentLabel([-0.2], [0.6]), grid)
    lhs = star(fa, fb, SPEC).conj()
    rhs = star(fb.conj(), fa.conj(), SPEC)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-8
    x, p = mono(grid, 0, 1), mono(grid, 1, 0)
    assert star(x, p).conj().poly.coeffs == star(p, x).poly.coeffs


def test_integral_of_star_is_integral_of_product(grid):
    fa = coherent_state(CoherentLabel([0.5], [0.3]), grid)
    fb = coherent_state(CoherentLabel([-0.2], [0.6]), grid)
    s = star(fa, fb, SPEC)
    assert abs(np.sum(s.values) - np.sum(fa.values * fb.values)) * grid.weight < 1e-10


# --------------------------------------------------- band-cropped spectral ⋆

def _crop_size(a, b):
    return _band_size(np.fft.fftn(a.values), np.fft.fftn(b.values), a.grid.N)


def _full_kernel(a, b, c=1.0):
    return _mode_sum(np.fft.fftn(a.values), b.values, a.grid, c)


def test_cropped_star_matches_the_full_grid_kernel(grid256):
    phi = coherent_state(CoherentLabel([0.53125], [0.78125]), grid256)
    g1 = make_observable("gaussian", grid256, {"sigma": 1.0})
    g2 = make_observable("gaussian", grid256, {"p0": 0.5, "x0": -0.5, "sigma": 1.0})
    for a, b in ((phi, phi.conj()), (g1, g2)):
        assert _crop_size(a, b) < grid256.N
        want = _full_kernel(a, b)
        got = star(a, b, SPEC).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_star_falls_back_to_the_full_grid_bit_for_bit(grid):
    narrow = make_observable("gaussian", grid, {"sigma": 0.25})
    wide = make_observable("gaussian", grid, {"sigma": 1.0})
    assert _crop_size(narrow, wide) == grid.N
    assert np.array_equal(star(narrow, wide, SPEC).values, _full_kernel(narrow, wide))


_MODE = st.integers(-6, 6)
_WAVES = st.lists(st.tuples(_MODE, _MODE, st.floats(-1.0, 1.0)), min_size=2, max_size=3)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(first=_WAVES, second=_WAVES, k=st.floats(1.0, 4.0))
def test_cropped_star_is_the_bilinear_twist(first, second, k):
    # (Σ u_j w_j) ⋆ (Σ v_l w_l) = Σ u_j v_l w_j w_l e^{i c (λ_p μ_x − λ_x μ_p)}
    g64 = PhaseGrid(n=1, N=64, L=8.0)
    c = 1.0 / k ** 2
    fa, fb = ([(amp, *plane_wave(g64, jp, jx)) for jp, jx, amp in f] for f in (first, second))
    a, b = (PhaseFunction(g64, sum(amp * w.values for amp, w, _, _ in f)) for f in (fa, fb))
    want = sum(u * v * w.values * z.values * np.exp(1j * c * (lp * mx - lx * mp))
               for u, w, lp, lx in fa for v, z, mp, mx in fb)
    assert _crop_size(a, b) < g64.N
    assert np.max(np.abs(star(a, b, SPEC, k=k).values - want)) <= 1e-11


# ------------------------------------------------------------- series method

def test_series_terminates_on_polynomial_factor(grid):
    g = make_observable("gaussian", grid, {"sigma": 1.0})
    x = mono(grid, 0, 1)
    ser = star(x, g, SER)
    spec = star(x, g, SPEC)
    assert np.max(np.abs(ser.values - spec.values)) < 1e-6


def test_terminating_series_ignores_the_order():
    # a polynomial factor ends the series at its degree; `order` truncates
    # only a grid × grid series
    g64 = PhaseGrid(n=1, N=64, L=8.0)
    x2, g = make_observable("x^2", g64), make_observable("gaussian", g64)
    for method in (StarMethod("spectral", 1), StarMethod("series", 1)):
        assert np.array_equal(star(x2, g, method).values, star(x2, g).values)
        assert np.array_equal(star(g, x2, method).values, star(g, x2).values)


def test_series_vs_spectral_plane_waves(grid):
    # low modes keep the exponential twist series inside its factorial decay,
    # so the truncated series and the kernel evaluation must coincide
    w1, _, _ = plane_wave(grid, 1, -1)
    w2, _, _ = plane_wave(grid, 1, 1)
    ser = star(w1, w2, SER)
    spec = star(w1, w2, SPEC)
    assert np.max(np.abs(ser.values - spec.values)) < 1e-9


def test_series_vs_spectral_polynomial_times_gaussian(grid):
    g = make_observable("gaussian", grid, {"x0": 0.5, "sigma": 1.0})
    for name in ("x^2", "x*p", "p^3"):
        a = make_observable(name, grid)
        ser = star(a, g, SER)
        spec = star(a, g, SPEC)
        assert np.max(np.abs(ser.values - spec.values)) < 1e-6
        ser = star(g, a, SER)
        spec = star(g, a, SPEC)
        assert np.max(np.abs(ser.values - spec.values)) < 1e-6


def test_series_diverges_on_unit_width_pair(grid):
    # coherent-width gaussians sit on the series convergence boundary:
    # term norms oscillate without decay and must be reported, not ignored
    phi0 = coherent_state(CoherentLabel([0.0], [0.0]), grid)
    with pytest.raises(AccuracyError):
        star(phi0, phi0, SER)


def test_series_report_terms_decay(grid):
    w1, _, _ = plane_wave(grid, 1, -1)
    w2, _, _ = plane_wave(grid, 1, 1)
    rep = star_series_report(w1, w2, SER)
    assert len(rep.term_norms) == SER.order + 1
    assert rep.tail_estimate < 1e-6 * max(rep.term_norms)


# ------------------------------------------------------------ wigner & trace

def test_wigner_properties(grid, rng):
    a = CoherentLabel([0.6], [-0.45])
    rho = wigner(coherent_state(a, grid))
    assert rho.role == "density"
    assert np.max(np.abs(rho.values.imag)) <= 1e-8 * rho.max_abs()
    one = mono(grid, 0, 0)
    assert trace_pair(one, rho).real == pytest.approx(1.0, abs=1e-6)
    # peak sits at the expectation values (2 p_a, 2 x_a), twice the label
    pk_p, pk_x = rho.peak(refine=False)
    assert pk_p[0] == pytest.approx(2 * a.p[0], abs=grid.h / 2)
    assert pk_x[0] == pytest.approx(2 * a.x[0], abs=grid.h / 2)


def test_wigner_matches_closed_form(grid):
    a = CoherentLabel([0.5], [0.25])
    rho = wigner(coherent_state(a, grid))
    P, X = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    want = 2.0 * np.exp(-0.5 * ((P - 2 * a.p[0]) ** 2 + (X - 2 * a.x[0]) ** 2))
    interior = np.abs(rho.values - want)
    assert np.max(interior) < 1e-6


def test_wigner_requires_normalized_state(grid):
    phi = coherent_state(CoherentLabel([0.0], [0.0]), grid) * 2.0
    with pytest.raises(ValidationError):
        wigner(phi)


def test_wigner_is_star_idempotent(grid):
    rho = wigner(coherent_state(CoherentLabel([0.3], [0.2]), grid))
    sq = star(rho, rho, SPEC)
    assert np.max(np.abs(sq.values - rho.values)) < 1e-6


def test_trace_duality(grid):
    phi = coherent_state(CoherentLabel([0.5], [-0.6]), grid)
    rho = wigner(phi)
    for name in ("1", "x", "p", "x^2"):
        alpha = make_observable(name, grid)
        lhs = trace_pair(alpha, rho)
        rhs = inner(phi, star(alpha, phi))
        assert abs(lhs - rhs) < 1e-6


def test_trace_pair_expectations_are_twice_labels(grid):
    a = CoherentLabel([0.45], [-0.3])
    rho = wigner(coherent_state(a, grid))
    assert trace_pair(make_observable("x", grid), rho).real == pytest.approx(
        2 * a.x[0], abs=1e-6)
    assert trace_pair(make_observable("p", grid), rho).real == pytest.approx(
        2 * a.p[0], abs=1e-6)


def test_trace_pair_requires_density_role(grid):
    phi = coherent_state(CoherentLabel([0.0], [0.0]), grid)
    with pytest.raises(ValidationError):
        trace_pair(phi, phi)


def test_star_rejects_grid_mismatch(grid):
    other = PhaseGrid(1, 256, 8.0)
    with pytest.raises(ValidationError):
        star(mono(grid, 0, 1), mono(other, 1, 0))


def test_star_rejects_undecayed_wavefunction(grid):
    leaky = PhaseFunction(grid, np.ones(grid.shape, complex) * 0.5,
                          role="observable").with_role("density")
    g = make_observable("gaussian", grid, {"sigma": 1.0})
    with pytest.raises(ValidationError):
        star(leaky, g, SPEC)


# ---------------------------------------------------------------- 2d algebra

def test_two_dim_poly_star():
    g = PhaseGrid(2, 16, 8.0)
    x1 = PhaseFunction.from_poly(g, PhasePolynomial.x_var(2, 0))
    p1 = PhaseFunction.from_poly(g, PhasePolynomial.p_var(2, 0))
    p2 = PhaseFunction.from_poly(g, PhasePolynomial.p_var(2, 1))
    assert star(x1, p1).poly.coeffs == {(1, 0, 1, 0): 1.0 + 0j, (0, 0, 0, 0): 1j}
    assert star(x1, p2).poly.coeffs == {(0, 1, 1, 0): 1.0 + 0j}  # no cross twist


def test_two_dim_spectral_plane_waves():
    # the band of the product fits 16 points per axis: the kernel runs there
    g = PhaseGrid(2, 32, 8.0)
    freqs = g.freqs
    modes1 = (2, -3, 1, 4)
    modes2 = (-1, 2, 3, -2)

    def wave(modes):
        phase = np.zeros((), dtype=complex)
        for ax, j in enumerate(modes):
            shp = [1] * 4
            shp[ax] = g.N
            phase = phase + 1j * freqs[j] * (g.axis + g.L).reshape(shp)
        return PhaseFunction(g, np.exp(phase))

    w1, w2 = wave(modes1), wave(modes2)
    assert _crop_size(w1, w2) == 16
    got = star(w1, w2, SPEC)
    tw = sum(freqs[modes1[i]] * freqs[modes2[2 + i]]
             - freqs[modes1[2 + i]] * freqs[modes2[i]] for i in range(2))
    want = w1.values * w2.values * np.exp(1j * tw)
    assert np.max(np.abs(got.values - want)) < 1e-11
