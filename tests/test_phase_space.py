"""Coherent states, inner products, left-regular operators, translations."""

import math
import struct

import numpy as np
import pytest

from wwgm import (
    CoherentLabel,
    PhaseFunction,
    PhaseGrid,
    PhasePolynomial,
    ValidationError,
    apply_PL,
    apply_XL,
    coherent_state,
    export_csv,
    inner,
    load_phase_function,
    oracle_coherent_overlap,
    save_phase_function,
    translate,
)
from wwgm.phase_space import _coherent_gaussian


def random_label(rng, n=1, bound=0.95):
    return CoherentLabel(rng.uniform(-bound, bound, n), rng.uniform(-bound, bound, n))


def grid_value(f, grid, p, x):
    ip = int(round((p + grid.L) / grid.h))
    ix = int(round((x + grid.L) / grid.h))
    return f.values[ip, ix]


# ------------------------------------------------------------------ the grid

def test_grid_axis_layout(grid):
    assert grid.axis[0] == -grid.L
    assert grid.axis[1] - grid.axis[0] == grid.h
    assert len(grid.axis) == grid.N


def test_grid_validation():
    with pytest.raises(ValidationError):
        PhaseGrid(1, 100, 8.0)  # not a power of two
    with pytest.raises(ValidationError):
        PhaseGrid(1, 8, 8.0)  # too small
    with pytest.raises(ValidationError):
        PhaseGrid(3, 16, 8.0)  # numerics capped at n=2


@pytest.mark.parametrize("n", [1, 2])
def test_freq_fields_are_the_frequencies_on_their_own_axis(n):
    g = PhaseGrid(n, 16, 8.0)
    assert len(g.freq_fields) == 2 * n
    for ax, mu in enumerate(g.freq_fields):
        assert mu.shape == tuple(g.N if a == ax else 1 for a in range(2 * n))
        assert np.array_equal(mu.ravel(), g.freqs)


# ------------------------------------------------------------ coherent states

def test_vacuum_values(grid):
    phi0 = coherent_state(CoherentLabel([0.0], [0.0]), grid)
    assert grid_value(phi0, grid, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(phi0.values.imag)) == 0.0  # real symmetric gaussian
    assert grid_value(phi0, grid, 1.0, 0.0) == pytest.approx(math.exp(-0.5), abs=1e-14)


def test_peak_value_at_own_label(grid):
    phi = coherent_state(CoherentLabel([1.0], [0.0]), grid)
    assert grid_value(phi, grid, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_label_margin_enforced(grid):
    with pytest.raises(ValidationError):
        coherent_state(CoherentLabel([2.5], [0.0]), grid)  # 2.5 + margin > 8


@pytest.mark.parametrize("p, x", [([math.nan], [0.0]), ([0.0], [math.inf]),
                                  ([0.0, -math.inf], [0.0, 0.0])])
def test_label_rejects_non_finite_components(p, x):
    with pytest.raises(ValidationError, match="coherent label .* non-finite"):
        CoherentLabel(p, x)


def test_norm_is_one(grid, rng):
    for _ in range(5):
        phi = coherent_state(random_label(rng), grid)
        assert inner(phi, phi) == pytest.approx(1.0, abs=1e-8)


def test_overlap_matches_oracle(grid, rng):
    for _ in range(10):
        a, b = random_label(rng), random_label(rng)
        got = inner(coherent_state(b, grid), coherent_state(a, grid))
        want = oracle_coherent_overlap((a.p, a.x), (b.p, b.x))
        assert abs(got - want) < 1e-10


def test_inner_conjugate_symmetry(grid, rng):
    a, b = random_label(rng), random_label(rng)
    fa, fb = coherent_state(a, grid), coherent_state(b, grid)
    assert inner(fa, fb) == pytest.approx(np.conj(inner(fb, fa)), abs=1e-14)


def test_resolution_refinement():
    a = CoherentLabel([0.7], [-0.9])
    b = CoherentLabel([-0.4], [0.8])
    vals = []
    for N in (128, 256):
        g = PhaseGrid(1, N, 8.0)
        vals.append(inner(coherent_state(b, g), coherent_state(a, g)))
    assert abs(vals[0] - vals[1]) < 1e-10


# ------------------------------------------------------- left-regular action

def test_XL_on_vacuum_is_multiplication(grid):
    phi0 = coherent_state(CoherentLabel([0.0], [0.0]), grid)
    got = apply_XL(phi0)
    want = (grid.x_field() - 1j * grid.p_field()) * phi0.values
    assert np.max(np.abs(got.values - want)) < 1e-10


def test_expectation_is_twice_label(grid, rng):
    a = random_label(rng)
    phi = coherent_state(a, grid)
    assert inner(phi, apply_XL(phi)) == pytest.approx(2 * a.x[0], abs=1e-8)
    assert inner(phi, apply_PL(phi)) == pytest.approx(2 * a.p[0], abs=1e-8)


def test_commutator_is_2i(grid, rng):
    # random smooth state: superpose a few coherent states (labels kept small
    # so products like p*phi stay spectrally clean at the box edge)
    phi = coherent_state(random_label(rng, bound=0.7), grid)
    for _ in range(2):
        phi = phi + coherent_state(random_label(rng, bound=0.7), grid) * complex(*rng.uniform(-1, 1, 2))
    comm = apply_XL(apply_PL(phi)) - apply_PL(apply_XL(phi))
    resid = comm.values - 2j * phi.values
    assert np.max(np.abs(resid)) <= 1e-8 * np.max(np.abs(phi.values))


def test_self_adjointness(grid, rng):
    fa = coherent_state(random_label(rng), grid)
    fb = coherent_state(random_label(rng), grid)
    for op in (apply_XL, apply_PL):
        lhs = inner(fb, op(fa))
        rhs = np.conj(inner(fa, op(fb)))
        assert abs(lhs - rhs) < 1e-8


# ------------------------------------------------------------------- shifts

def test_translate_zero_is_identity(grid, rng):
    phi = coherent_state(random_label(rng), grid)
    out = translate(phi, [0.0], [0.0])
    assert np.max(np.abs(out.values - phi.values)) < 1e-12


def test_translate_vacuum_builds_coherent_state(grid):
    phi0 = coherent_state(CoherentLabel([0.0], [0.0]), grid)
    a = CoherentLabel([0.8], [-0.35])  # off-grid shift amounts
    got = translate(phi0, a.p, a.x)
    want = coherent_state(a, grid)
    assert np.max(np.abs(got.values - want.values)) < 1e-10


def test_translate_norm_preserved(grid, rng):
    phi = coherent_state(random_label(rng, bound=1.0), grid)
    out = translate(phi, [0.4], [-0.7])
    assert abs(inner(out, out) - inner(phi, phi)) < 1e-9


def test_translate_composition_twist(grid):
    phi0 = coherent_state(CoherentLabel([0.0], [0.0]), grid)
    p1, x1 = [0.5], [-0.25]
    p2, x2 = [-0.75], [0.5]
    lhs = translate(translate(phi0, p2, x2), p1, x1)
    tau = -(x1[0] * p2[0] - p1[0] * x2[0])
    rhs = translate(phi0, [p1[0] + p2[0]], [x1[0] + x2[0]]) * np.exp(1j * tau)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_translate_spill_rejected(grid):
    phi = coherent_state(CoherentLabel([0.9], [0.0]), grid)
    with pytest.raises(ValidationError):
        translate(phi, [4.5], [0.0])


def test_wavefunction_boundary_guard(grid):
    flat = np.ones(grid.shape, dtype=complex)
    with pytest.raises(ValidationError):
        PhaseFunction(grid, flat, role="wavefunction")


# ------------------------------------------------------------------ 2d grids

def test_two_dimensional_states():
    g = PhaseGrid(2, 32, 8.0)
    a = CoherentLabel([0.5, -0.25], [0.0, 0.5])
    b = CoherentLabel([0.0, 0.0], [0.25, -0.5])
    fa, fb = coherent_state(a, g), coherent_state(b, g)
    assert inner(fa, fa) == pytest.approx(1.0, abs=1e-6)
    want = oracle_coherent_overlap((a.p, a.x), (b.p, b.x))
    assert abs(inner(fb, fa) - want) < 1e-6


def test_two_dimensional_operators_act_per_axis():
    g = PhaseGrid(2, 32, 8.0)
    a = CoherentLabel([0.3, -0.2], [0.5, 0.5])
    phi = coherent_state(a, g)
    for axis in (0, 1):
        assert inner(phi, apply_XL(phi, axis)) == pytest.approx(2 * a.x[axis], abs=1e-6)
        assert inner(phi, apply_PL(phi, axis)) == pytest.approx(2 * a.p[axis], abs=1e-6)


def test_two_dimensional_translate_builds_coherent_state():
    # grid-aligned shifts: exact even at this resolution (N=32 leaves a
    # ~1e-9 interpolation tail for off-grid shifts, covered in 1d above)
    g = PhaseGrid(2, 32, 8.0)
    vac = coherent_state(CoherentLabel([0.0, 0.0], [0.0, 0.0]), g)
    a = CoherentLabel([0.5, -0.5], [0.5, 0.5])
    got = translate(vac, a.p, a.x)
    want = coherent_state(a, g)
    assert np.max(np.abs(got.values - want.values)) < 1e-10


def test_two_dimensional_contracted_gaussian_matches_closed_form():
    g, k = PhaseGrid(2, 32, 8.0), 2.0
    a = CoherentLabel([0.5, -1.0], [1.5, 0.25])
    P1, P2, X1, X2 = np.meshgrid(*([g.axis] * 4), indexing="ij")
    phase = 1j * k ** 2 * (a.p[0] * X1 + a.p[1] * X2 - a.x[0] * P1 - a.x[1] * P2)
    gauss = -0.5 * k ** 2 * ((P1 - a.p[0]) ** 2 + (P2 - a.p[1]) ** 2
                             + (X1 - a.x[0]) ** 2 + (X2 - a.x[1]) ** 2)
    got = _coherent_gaussian(a, g, k)
    assert np.max(np.abs(got.values - np.exp(phase + gauss))) < 1e-14


# -------------------------------------------------------------- serialization

def test_binary_round_trip(tmp_path, grid, rng):
    phi = coherent_state(random_label(rng), grid)
    path = tmp_path / "state.bin"
    save_phase_function(phi, path)
    back = load_phase_function(path, role="wavefunction")
    assert back.grid == grid
    assert np.array_equal(back.values, phi.values)


def test_binary_header_layout(tmp_path, grid, rng):
    phi = coherent_state(random_label(rng), grid)
    path = tmp_path / "state.bin"
    save_phase_function(phi, path)
    raw = path.read_bytes()
    n, N, L = struct.unpack("<IId", raw[:16])
    assert (n, N, L) == (grid.n, grid.N, grid.L)
    first = np.frombuffer(raw[16:32], dtype="<c16")[0]
    assert first == phi.values[0, 0]
    assert len(raw) == 16 + grid.N ** 2 * 16


def test_two_dimensional_serialization(tmp_path):
    g = PhaseGrid(2, 16, 8.0)
    phi = PhaseFunction.from_poly(g, PhasePolynomial.x_var(2, 1))
    path = tmp_path / "field.bin"
    save_phase_function(phi, path)
    back = load_phase_function(path)
    assert back.grid == g
    assert np.array_equal(back.values, phi.values)
    csv = tmp_path / "field.csv"
    export_csv(phi, csv)
    assert csv.read_text().splitlines()[0] == "p1,p2,x1,x2,re,im"


def test_load_rejects_truncated_file(tmp_path, grid, rng):
    phi = coherent_state(random_label(rng), grid)
    path = tmp_path / "state.bin"
    save_phase_function(phi, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValidationError):
        load_phase_function(path)


def test_csv_export(tmp_path, grid):
    phi = coherent_state(CoherentLabel([0.0], [0.0]), grid)
    path = tmp_path / "state.csv"
    export_csv(phi, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,x,re,im"
    assert len(lines) == 1 + grid.N ** 2
    p, x, re, im = (float(v) for v in lines[1].split(","))
    assert (p, x) == (-grid.L, -grid.L)
    assert re == pytest.approx(phi.values[0, 0].real)
