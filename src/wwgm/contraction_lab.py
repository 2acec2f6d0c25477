"""k-parameterized diagnostics of the quantum → classical limit.

Contracted coherent states narrow as 1/k, their pairwise overlaps decay
as exp(−k²Δ²/2), the left-regular operators lose their derivative parts,
star products commutativize as k⁻², scaled Moyal brackets converge to
Poisson brackets, and the central coset coordinate decouples as k⁻².
Each sweep tabulates a numerical column next to its closed form and fits
log-log slopes by least squares.

Contracted-coordinate numerics run on the original grid with states
narrowed by k rather than on a rescaled grid; the resolution guard below
refuses any k whose width 1/k would be sampled by fewer than 8 points.
Sweep entries are independent of one another and may be computed
concurrently; tables are assembled in ascending k order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._spectral import derivative
from .errors import AccuracyError, ValidationError
from .heisenberg_group import ContractionParam, CosetAlgebraParams, phase_space_coset_flow
from .phase_space import CoherentLabel, PhaseFunction, PhaseGrid, inner
from .star_algebra import StarMethod, poisson_bracket, scaled_moyal_bracket, star

MIN_POINTS_PER_WIDTH = 8
MIN_K_COUNT = 4
MIN_K_SPAN = 8.0
CONTRACTED_MARGIN = 6.0  # in contracted widths 1/k


@dataclass(frozen=True)
class SweepSpec:
    """k-values and the grid a sweep runs on."""

    k_values: tuple[float, ...]
    grid: PhaseGrid

    def __post_init__(self):
        ks = tuple(float(k) for k in self.k_values)
        if len(ks) < MIN_K_COUNT:
            raise ValidationError(f"need at least {MIN_K_COUNT} k-values for slope fits")
        if any(k <= 0 for k in ks):
            raise ValidationError("k-values must be positive")
        if list(ks) != sorted(ks):
            raise ValidationError("k-values must be ascending")
        if ks[-1] / ks[0] < MIN_K_SPAN:
            raise ValidationError(
                f"k-values span a factor {ks[-1] / ks[0]:g}; "
                f"need >= {MIN_K_SPAN:g} for a meaningful slope fit")
        object.__setattr__(self, "k_values", ks)


def check_resolution(grid: PhaseGrid, k: float) -> None:
    """A contracted state has width 1/k; refuse fewer than 8 points per width."""
    points_per_width = grid.N / (2.0 * grid.L * k)
    if points_per_width < MIN_POINTS_PER_WIDTH:
        raise ValidationError(
            f"grid too coarse for k={k:g}: {points_per_width:.2f} points per "
            f"contracted width, need >= {MIN_POINTS_PER_WIDTH} "
            f"(N={grid.N}, L={grid.L:g})")


# ---------------------------------------------------------------------------
# slope fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    slope_stderr: float
    residual_se: float


def fit_loglog(xs, ys) -> FitResult:
    """Least-squares line through (log x, log y) with slope standard error."""
    t = np.log(np.asarray(xs, dtype=float))
    v = np.asarray(ys, dtype=float)
    if np.any(v <= 0):
        raise ValidationError("log-log fit needs strictly positive values")
    y = np.log(v)
    m = len(t)
    tbar = t.mean()
    sxx = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * tbar)
    resid = y - (intercept + slope * t)
    dof = max(m - 2, 1)
    s2 = float(np.sum(resid ** 2) / dof)
    return FitResult(slope, intercept, math.sqrt(s2 / sxx), math.sqrt(s2))


# ---------------------------------------------------------------------------
# sweep tables
# ---------------------------------------------------------------------------

@dataclass
class SweepTable:
    """Columns of a k-sweep, first column always k."""

    name: str
    columns: dict[str, list[float]]

    def column(self, key: str) -> np.ndarray:
        return np.asarray(self.columns[key], dtype=float)

    def fit(self, key: str) -> FitResult:
        return fit_loglog(self.columns["k"], self.columns[key])

    def to_csv(self, path) -> None:
        keys = list(self.columns)
        lines = [",".join(keys)]
        for row in zip(*(self.columns[k] for k in keys)):
            lines.append(",".join("%.17g" % v for v in row))
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")

    def summary(self, fit_keys: tuple[str, ...]) -> dict:
        out = {"sweep": self.name, "k_values": list(self.columns["k"]), "fits": {}}
        for key in fit_keys:
            try:
                fit = self.fit(key)
            except ValidationError:
                out["fits"][key] = None
                continue
            out["fits"][key] = {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "slope_stderr": fit.slope_stderr,
                "residual_se": fit.residual_se,
            }
        return out


# ---------------------------------------------------------------------------
# contracted coherent states and overlaps
# ---------------------------------------------------------------------------

def contracted_coherent_state(label: CoherentLabel, k: float,
                              grid: PhaseGrid) -> PhaseFunction:
    """Coherent state in contracted coordinates: width 1/k, phases scaled k².

        ψ(p, x) = exp(i k²(p_a·x − x_a·p)) exp(−(k²/2)[(p−p_a)² + (x−x_a)²])

    Normalized under contracted_inner at the same k.
    """
    check_resolution(grid, k)
    if label.n != grid.n:
        raise ValidationError("label dimension does not match grid")
    worst = max(float(np.max(np.abs(label.p))), float(np.max(np.abs(label.x))))
    if worst + CONTRACTED_MARGIN / k > grid.L:
        raise ValidationError(
            f"contracted label magnitude {worst:g} too close to the box edge")
    k2 = k * k
    phase = np.zeros((), dtype=np.complex128)
    gauss = np.zeros((), dtype=np.float64)
    for i in range(grid.n):
        P, X = grid.p_field(i), grid.x_field(i)
        phase = phase + 1j * k2 * (label.p[i] * X - label.x[i] * P)
        gauss = gauss - 0.5 * k2 * ((P - label.p[i]) ** 2 + (X - label.x[i]) ** 2)
    return PhaseFunction(grid, np.exp(phase + gauss), role="wavefunction")


def contracted_inner(phi: PhaseFunction, psi: PhaseFunction, k: float) -> complex:
    """Inner product with the contracted measure k^(2n) dp dx / πⁿ."""
    return complex(k ** (2 * phi.grid.n) * inner(phi, psi))


def contracted_overlap(a: CoherentLabel, b: CoherentLabel, k) -> complex:
    """Closed-form overlap of contracted coherent states a, b:

        exp[i k²(x_b·p_a − p_b·x_a)] · exp[−(k²/2)((x_b−x_a)² + (p_b−p_a)²)]

    Equals 1 at a = b for every k and vanishes for a ≠ b as k → ∞.
    """
    kval = float(getattr(k, "k", k))
    if kval <= 0:
        raise ValidationError(f"k={kval} must be positive")
    k2 = kval * kval
    phase = k2 * (float(np.dot(b.x, a.p)) - float(np.dot(b.p, a.x)))
    decay = -0.5 * k2 * (float(np.sum((b.x - a.x) ** 2)) + float(np.sum((b.p - a.p) ** 2)))
    return cmath.exp(complex(decay, phase))


def contracted_overlap_numeric(a: CoherentLabel, b: CoherentLabel, k: float,
                               grid: PhaseGrid) -> complex:
    """⟨b|a⟩ evaluated by quadrature on the contracted states."""
    sa = contracted_coherent_state(a, k, grid)
    sb = contracted_coherent_state(b, k, grid)
    return contracted_inner(sb, sa, k)


def overlap_decay_sweep(a: CoherentLabel, b: CoherentLabel,
                        spec: SweepSpec) -> SweepTable:
    """Tabulate |overlap| along k, numeric vs closed form.

    Raises AccuracyError if the two paths disagree beyond 1e-6 relative
    (1e-8 absolute near zero).
    """
    ks, nums, forms, rels = [], [], [], []
    for k in spec.k_values:
        closed = contracted_overlap(a, b, k)
        numeric = contracted_overlap_numeric(a, b, k, spec.grid)
        rel = abs(numeric - closed) / max(abs(closed), 1e-30)
        if rel > 1e-6 and abs(numeric - closed) > 1e-8:
            raise AccuracyError(
                f"overlap paths disagree at k={k:g}: rel={rel:.3e}",
                k=k, numeric=abs(numeric), closed_form=abs(closed))
        ks.append(k)
        nums.append(abs(numeric))
        forms.append(abs(closed))
        rels.append(rel)
    return SweepTable("overlap-decay", {
        "k": ks, "numeric": nums, "closed_form": forms, "rel_err": rels})


# ---------------------------------------------------------------------------
# operator limits
# ---------------------------------------------------------------------------

def left_operator_limit(k: float, probe: PhaseFunction, axis: int = 0) -> dict:
    """Residuals of the contracted left-regular operators against plain
    multiplication: ‖(X^{cL} − x·)φ‖/‖φ‖ with X^{cL} = x + (i/k²)∂_p, and
    the momentum analogue. O(k⁻¹) on contracted coherent probes centered
    at the origin (the derivative of a width-1/k Gaussian is O(k))."""
    g = probe.grid
    check_resolution(g, k)
    base = math.sqrt(float(np.sum(np.abs(probe.values) ** 2)))
    if base == 0:
        raise ValidationError("probe is identically zero")
    dx_res = (1.0 / k ** 2) * derivative(probe.values, g.freqs, axis=g.n + axis)
    dp_res = (1.0 / k ** 2) * derivative(probe.values, g.freqs, axis=axis)
    return {
        "k": k,
        "residual_x": math.sqrt(float(np.sum(np.abs(dp_res) ** 2))) / base,
        "residual_p": math.sqrt(float(np.sum(np.abs(dx_res) ** 2))) / base,
    }


def left_operator_sweep(label: CoherentLabel, spec: SweepSpec) -> SweepTable:
    ks, rx, rp = [], [], []
    for k in spec.k_values:
        probe = contracted_coherent_state(label, k, spec.grid)
        rep = left_operator_limit(k, probe)
        ks.append(k)
        rx.append(rep["residual_x"])
        rp.append(rep["residual_p"])
    return SweepTable("left-operator", {"k": ks, "residual_x": rx, "residual_p": rp})


# ---------------------------------------------------------------------------
# product and bracket limits
# ---------------------------------------------------------------------------

def product_commutativization(alpha: PhaseFunction, beta: PhaseFunction,
                              spec: SweepSpec,
                              method: StarMethod | None = None) -> SweepTable:
    """Decay of ‖α⋆_k β − αβ‖∞ and ‖α⋆_k β − β⋆_k α‖∞, both O(k⁻²)."""
    pointwise = (alpha * beta).values
    ks, dev, comm = [], [], []
    for k in spec.k_values:
        ab = star(alpha, beta, method, k)
        ba = star(beta, alpha, method, k)
        ks.append(k)
        dev.append(float(np.max(np.abs(ab.values - pointwise))))
        comm.append(float(np.max(np.abs(ab.values - ba.values))))
    return SweepTable("commutativization", {
        "k": ks, "product_deviation": dev, "commutator_norm": comm})


def bracket_convergence(alpha: PhaseFunction, beta: PhaseFunction,
                        spec: SweepSpec,
                        method: StarMethod | None = None) -> SweepTable:
    """‖(k²/2i)[α,β]_⋆ₖ − {α,β}‖∞ along k; zero for degree ≤ 2, O(k⁻⁴)
    with the third-derivative term as the first correction otherwise."""
    pb = poisson_bracket(alpha, beta).values
    ks, err = [], []
    for k in spec.k_values:
        sb = scaled_moyal_bracket(alpha, beta, method, k)
        ks.append(k)
        err.append(float(np.max(np.abs(sb.values - pb))))
    return SweepTable("bracket-convergence", {"k": ks, "bracket_error": err})


def theta_decoupling_scan(params: CosetAlgebraParams, point,
                          spec: SweepSpec) -> SweepTable:
    """|dθ(k) − θ̄| along k: equals |dθ(1) − θ̄|/k² identically."""
    ks, rate, closed = [], [], []
    _, _, dtheta1 = phase_space_coset_flow(params, point, ContractionParam(1.0))
    base = abs(dtheta1 - params.thetabar)
    for k in spec.k_values:
        _, _, dtheta = phase_space_coset_flow(params, point, ContractionParam(k))
        ks.append(k)
        rate.append(abs(dtheta - params.thetabar))
        closed.append(base / k ** 2)
    return SweepTable("theta-decoupling", {"k": ks, "theta_rate": rate,
                                           "closed_form": closed})
