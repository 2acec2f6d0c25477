"""Classical-limit sweeps: overlap decay, operator limits, bracket limits."""

import math

import numpy as np
import pytest

from wwgm import (
    AccuracyError,
    CoherentLabel,
    CosetAlgebraParams,
    EvolutionConfig,
    PhaseFunction,
    PhaseGrid,
    SweepSpec,
    ValidationError,
    bracket_convergence,
    contracted_coherent_state,
    contracted_inner,
    contracted_overlap,
    contracted_overlap_numeric,
    fit_loglog,
    harmonic_generator,
    heisenberg_evolve,
    left_operator_limit,
    left_operator_sweep,
    liouville_evolve,
    overlap_decay_sweep,
    product_commutativization,
    theta_decoupling_scan,
)
from wwgm.catalog import make_observable

KS = (1.0, 2.0, 4.0, 8.0)


@pytest.fixture(scope="module")
def sweep_grid():
    return PhaseGrid(1, 1024, 8.0)


@pytest.fixture(scope="module")
def spec(sweep_grid):
    return SweepSpec(KS, sweep_grid)


def test_sweep_spec_validation(sweep_grid):
    with pytest.raises(ValidationError):
        SweepSpec((1.0, 2.0, 4.0), sweep_grid)  # too few
    with pytest.raises(ValidationError):
        SweepSpec((1.0, 2.0, 3.0, 4.0), sweep_grid)  # span < 8
    with pytest.raises(ValidationError):
        SweepSpec((1.0, 4.0, 2.0, 8.0), sweep_grid)  # not ascending


def test_contracted_overlap_same_label_is_one():
    a = CoherentLabel([0.37], [-0.21])
    for k in KS:
        assert contracted_overlap(a, a, k) == 1.0


def test_contracted_overlap_reference_values():
    a = CoherentLabel([0.0], [0.0])
    b = CoherentLabel([1.0], [0.0])
    v2 = contracted_overlap(a, b, 2.0)
    assert abs(v2) == pytest.approx(math.exp(-2.0), rel=1e-14)
    v4 = contracted_overlap(a, b, 4.0)
    assert abs(v4) == pytest.approx(abs(v2) ** 4, rel=1e-12)


def test_contracted_state_normalized(sweep_grid):
    a = CoherentLabel([0.5], [0.25])
    for k in KS:
        psi = contracted_coherent_state(a, k, sweep_grid)
        assert contracted_inner(psi, psi, k).real == pytest.approx(1.0, abs=1e-8)


def test_contracted_overlap_paths_agree(sweep_grid):
    a = CoherentLabel([0.2], [-0.4])
    b = CoherentLabel([-0.3], [0.1])
    for k in KS:
        closed = contracted_overlap(a, b, k)
        numeric = contracted_overlap_numeric(a, b, k, sweep_grid)
        assert abs(closed - numeric) < 1e-8


def test_resolution_guard(sweep_grid):
    a = CoherentLabel([0.0], [0.0])
    with pytest.raises(ValidationError):
        contracted_coherent_state(a, 16.0, sweep_grid)  # 4 points per width
    coarse = PhaseGrid(1, 128, 8.0)
    with pytest.raises(ValidationError):
        contracted_coherent_state(a, 2.0, coarse)


def test_contracted_margin_guard(sweep_grid):
    with pytest.raises(ValidationError):
        contracted_coherent_state(CoherentLabel([7.5], [0.0]), 8.0, sweep_grid)


def test_contracted_margin_is_seven_state_widths(sweep_grid):
    # 6.275 + 7/4 > 8: refused, though 6 widths (6.275 + 6/4 < 8) would pass
    with pytest.raises(ValidationError, match="7 state widths"):
        contracted_coherent_state(CoherentLabel([0.0], [6.275]), 4.0, sweep_grid)


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("entry", ["heisenberg_evolve", "liouville_evolve",
                                   "contracted_coherent_state", "SweepSpec",
                                   "contracted_overlap"])
def test_every_k_entry_rejects_bad_k(entry, k):
    grid = PhaseGrid(1, 64, 8.0)
    label = CoherentLabel([0.0], [0.0])
    ev = EvolutionConfig(dt=1e-3, steps=1)
    calls = {
        "heisenberg_evolve": lambda: heisenberg_evolve(
            make_observable("x", grid), harmonic_generator(), ev, k=k),
        "liouville_evolve": lambda: liouville_evolve(
            make_observable("gaussian", grid).with_role("density"),
            harmonic_generator(), ev, k=k),
        "contracted_coherent_state": lambda: contracted_coherent_state(label, k, grid),
        "SweepSpec": lambda: SweepSpec((1.0, 2.0, 4.0, 8.0, k), grid),
        "contracted_overlap": lambda: contracted_overlap(label, label, k),
    }
    with pytest.raises(ValidationError, match="contraction parameter"):
        calls[entry]()


def test_overlap_decay_sweep(spec):
    a = CoherentLabel([0.0], [0.0])
    b = CoherentLabel([1.0], [0.0])
    table = overlap_decay_sweep(a, b, spec)
    nums = table.column("numeric")
    assert np.all(np.diff(nums) < 0)  # monotone decreasing
    assert np.max(table.column("rel_err")) <= 1e-6
    # log|overlap| is linear in k^2 with slope -(delta^2)/2
    slope = np.polyfit(np.asarray(KS) ** 2, np.log(table.column("closed_form")), 1)[0]
    assert slope == pytest.approx(-0.5, rel=1e-10)


def test_overlap_sweep_equal_labels_gives_ones(spec):
    a = CoherentLabel([0.4], [0.3])
    table = overlap_decay_sweep(a, a, spec)
    assert np.allclose(table.column("numeric"), 1.0, atol=1e-9)


def test_left_operator_limit_values(sweep_grid):
    # vacuum-centered probe: residual is exactly sqrt(E[p^2]) = 1/(k sqrt(2))
    a = CoherentLabel([0.0], [0.0])
    for k in (1.0, 4.0):
        probe = contracted_coherent_state(a, k, sweep_grid)
        rep = left_operator_limit(k, probe)
        assert rep["residual_x"] == pytest.approx(1.0 / (k * math.sqrt(2)), rel=1e-10)
        assert rep["residual_p"] == pytest.approx(1.0 / (k * math.sqrt(2)), rel=1e-10)


def test_left_operator_constant_probe(sweep_grid):
    const = PhaseFunction(sweep_grid, np.ones(sweep_grid.shape, complex))
    rep = left_operator_limit(2.0, const)
    assert rep["residual_x"] == 0.0 and rep["residual_p"] == 0.0


def test_left_operator_sweep_slope(spec):
    table = left_operator_sweep(CoherentLabel([0.0], [0.0]), spec)
    fit = table.fit("residual_x")
    assert fit.slope == pytest.approx(-1.0, abs=1e-10)
    assert fit.slope_stderr < 1e-10


def test_product_commutativization_exact_columns(spec, sweep_grid):
    x = make_observable("x", sweep_grid)
    p = make_observable("p", sweep_grid)
    table = product_commutativization(x, p, spec)
    for k, dev, comm in zip(KS, table.column("product_deviation"),
                            table.column("commutator_norm")):
        assert dev == 1.0 / k ** 2
        assert comm == 2.0 / k ** 2
    assert table.fit("product_deviation").slope == pytest.approx(-2.0, abs=1e-12)


def test_product_commutativization_same_observable(spec, sweep_grid):
    x = make_observable("x", sweep_grid)
    table = product_commutativization(x, x, spec)
    assert np.all(table.column("commutator_norm") == 0.0)


def test_product_deviation_pointwise_quadratics(sweep_grid):
    from wwgm import star

    x2 = make_observable("x^2", sweep_grid)
    p2 = make_observable("p^2", sweep_grid)
    for k in (2.0, 4.0):
        got = star(x2, p2, k=k).poly.coeffs
        # x^2 p^2 + (4i/k^2) xp - 2/k^4: the pointwise deviation at each grid
        # point is 4|xp|/k^2 to leading order
        assert got[(1, 1)] == pytest.approx(4j / k ** 2)
        assert got[(0, 0)] == pytest.approx(-2.0 / k ** 4)


def test_product_commutativization_spectral_gaussians():
    # the contracted kernel itself (not just the polynomial path) must
    # commutativize as k^-2 on smooth decayed functions
    g = PhaseGrid(1, 128, 8.0)
    spec = SweepSpec((2.0, 4.0, 8.0, 16.0), g)
    g1 = make_observable("gaussian", g, {"p0": 0.5, "x0": -0.3, "sigma": 1.0})
    g2 = make_observable("gaussian", g, {"p0": -0.4, "x0": 0.6, "sigma": 1.0})
    table = product_commutativization(g1, g2, spec)
    fit = table.fit("commutator_norm")
    assert fit.slope == pytest.approx(-2.0, abs=0.1)


def test_bracket_convergence_zero_for_quadratics(spec, sweep_grid):
    x = make_observable("x", sweep_grid)
    p2 = make_observable("p^2", sweep_grid)
    table = bracket_convergence(x, p2, spec)
    assert np.all(table.column("bracket_error") == 0.0)


def test_bracket_convergence_cubic_slope(spec, sweep_grid):
    x3 = make_observable("x^3", sweep_grid)
    p3 = make_observable("p^3", sweep_grid)
    table = bracket_convergence(x3, p3, spec)
    assert np.allclose(table.column("bracket_error"), 6.0 / np.asarray(KS) ** 4)
    fit = table.fit("bracket_error")
    assert fit.slope == pytest.approx(-4.0, abs=1e-10)
    # swapping the arguments flips the bracket sign but not the error norm
    swapped = bracket_convergence(p3, x3, spec)
    assert np.array_equal(swapped.column("bracket_error"), table.column("bracket_error"))


def test_theta_decoupling(spec):
    params = CosetAlgebraParams(np.zeros((1, 1)), [1.0], [0.0], 0.0)
    point = ([0.0], [2.0], 0.0)
    table = theta_decoupling_scan(params, point, spec)
    rates = table.column("theta_rate")
    assert np.array_equal(rates, 2.0 / np.asarray(KS) ** 2)
    assert np.array_equal(rates, table.column("closed_form"))
    assert table.fit("theta_rate").slope == pytest.approx(-2.0, abs=1e-12)
    # doubling k quarters the rate
    assert rates[1] == rates[0] / 4


def test_theta_decoupling_trivial_params(spec):
    params = CosetAlgebraParams(np.zeros((1, 1)), [0.0], [0.0], 0.7)
    table = theta_decoupling_scan(params, ([1.0], [1.0], 0.0), spec)
    assert np.all(table.column("theta_rate") == 0.0)


def test_fit_loglog_rejects_zeros():
    with pytest.raises(ValidationError):
        fit_loglog([1, 2, 4, 8], [1.0, 0.5, 0.0, 0.1])


def test_sweep_table_csv_and_summary(tmp_path, spec, sweep_grid):
    x3 = make_observable("x^3", sweep_grid)
    p3 = make_observable("p^3", sweep_grid)
    table = bracket_convergence(x3, p3, spec)
    csv = tmp_path / "sweep.csv"
    table.to_csv(csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "k,bracket_error"
    assert len(lines) == 1 + len(KS)
    summary = table.summary(("bracket_error",))
    assert summary["fits"]["bracket_error"]["slope"] == pytest.approx(-4.0, abs=1e-9)
    assert summary["fits"]["bracket_error"]["slope_stderr"] <= 0.02
