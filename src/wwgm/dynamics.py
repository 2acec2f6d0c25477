"""Time evolution in the Schrödinger, Heisenberg and Liouville pictures,
their classical limits, and the derivation ("tilde") generators.

Equations of motion, in ħ = 2 units with a real generator G:

    wavefunctions   2i dφ/dt = G ⋆ φ
    observables     dα/ds = (k²/2i)(α ⋆ G − G ⋆ α)   (k = 1: quantum)
    densities       dρ/ds = (k²/2i)(G ⋆ ρ − ρ ⋆ G)
    classical       dρ/dt = {G, ρ},   dα/dt = {α, G}

The k-dependent forms use the contracted star and converge to the
Poisson-bracket flows as k → ∞; the wavefunction equation has no such
limit and is deliberately offered only at k = 1.

All five pictures are stepped by one fixed-step classical Runge-Kutta 4
runner (global error O(dt⁴)), guarded by dt·‖G‖∞ ≤ 0.5. Each picture
hands it a state (a grid array, or the coefficients of a polynomial
observable, which evolve exactly), a right-hand side, a snapshot recorder
and, where the picture has one, the invariant whose drift aborts the run.
A grid state is stepped in place, in the runner's preallocated buffers,
so a grid RK4 step allocates no full-grid array.

Every bracket flow, quantum or classical, polynomial or grid, is one odd
Moyal series at c = 1/k², whose c = 0 term is the Poisson bracket: in
coefficient form (bracket_poly) for polynomial observables, and for
separable G = K(p) + V(x) on the grid as one finite multiplier per part,
O(N log N) per axis and exact for band-limited states at every k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._poly import PhasePolynomial, _bracket_terms, bracket_poly
from ._spectral import _apply, _symbol, derivative
from .errors import AccuracyError, ValidationError
from .heisenberg_group import _coerce_k
from .phase_space import PhaseFunction, PhaseGrid, _write_csv, inner
from .star_algebra import HBAR, poisson_bracket, scaled_moyal_bracket, star

NORM_DRIFT_TOL = 1e-6
TRACE_DRIFT_TOL = 1e-8
MASS_DRIFT_TOL = 1e-8


@dataclass(frozen=True)
class HamiltonianGenerator:
    """Real polynomial generator G(p, x), optionally with a mass parameter."""

    name: str
    poly: PhasePolynomial
    mass: float | None = None

    def __post_init__(self):
        if self.poly.max_imag_coeff() != 0.0:
            raise ValidationError("generator must be real-valued")
        if self.mass is not None and not self.mass > 0:
            raise ValidationError(f"mass {self.mass} must be positive")

    def make(self, grid: PhaseGrid) -> PhaseFunction:
        return PhaseFunction.from_poly(grid, self.poly)

    def split_separable(self) -> tuple[PhasePolynomial, PhasePolynomial] | None:
        """(K(p), V(x)) if every monomial is pure-p or pure-x, else None."""
        n = self.poly.n
        K = PhasePolynomial(n)
        V = PhasePolynomial(n)
        for e, c in self.poly.coeffs.items():
            term = PhasePolynomial(n, {e: c})
            if term.depends_only_on_p():
                K = K + term
            elif term.depends_only_on_x():
                V = V + term
            else:
                return None
        return K, V


def harmonic_generator(n: int = 1) -> HamiltonianGenerator:
    """G = Σᵢ pᵢ² + xᵢ²; rotates coherent labels with angular frequency 2."""
    poly = PhasePolynomial(n)
    for i in range(n):
        poly = poly + PhasePolynomial.p_var(n, i) * PhasePolynomial.p_var(n, i)
        poly = poly + PhasePolynomial.x_var(n, i) * PhasePolynomial.x_var(n, i)
    return HamiltonianGenerator("harmonic", poly)


def free_generator(mass: float = 1.0, n: int = 1) -> HamiltonianGenerator:
    """G = Σᵢ pᵢ²/(2m); its contracted derivation generator is the
    classical free-particle advection, which fixes this form."""
    if not mass > 0:
        raise ValidationError("mass must be positive")
    poly = PhasePolynomial(n)
    for i in range(n):
        poly = poly + PhasePolynomial.p_var(n, i) * PhasePolynomial.p_var(n, i) * (0.5 / mass)
    return HamiltonianGenerator("free", poly, mass=mass)


@dataclass(frozen=True)
class EvolutionConfig:
    """Fixed-step RK4 run: `steps` steps of size `dt`."""

    dt: float
    steps: int
    integrator: str = "rk4"

    def __post_init__(self):
        if not self.dt > 0:
            raise ValidationError("dt must be positive")
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")
        if self.integrator != "rk4":
            raise ValidationError("only the fixed fourth-order one-step scheme is offered")


@dataclass
class Trajectory:
    """Snapshots and scalar diagnostics recorded along an evolution."""

    picture: str
    times: list[float] = field(default_factory=list)
    states: list[PhaseFunction] = field(default_factory=list)
    norms: list[float] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)
    peaks_p: list[np.ndarray] = field(default_factory=list)
    peaks_x: list[np.ndarray] = field(default_factory=list)

    @property
    def final(self) -> PhaseFunction:
        return self.states[-1]

    def record(self, t, state, norm_val, energy):
        pk_p, pk_x = state.peak()
        self.times.append(float(t))
        self.states.append(state)
        self.norms.append(float(norm_val))
        self.energies.append(float(energy))
        self.peaks_p.append(pk_p)
        self.peaks_x.append(pk_x)


def export_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per saved step: (t, norm, energy, peak_p…, peak_x…)."""
    n = traj.states[0].grid.n
    if n == 1:
        header = "t,norm,energy,peak_p,peak_x"
    else:
        header = "t,norm,energy," + ",".join(
            [f"peak_p{i + 1}" for i in range(n)] + [f"peak_x{i + 1}" for i in range(n)])
    rows = zip(traj.times, traj.norms, traj.energies, traj.peaks_p, traj.peaks_x)
    _write_csv(path, header, ((t, nrm, en, *pp, *px) for t, nrm, en, pp, px in rows))


# ---------------------------------------------------------------------------
# grid flows: the right-hand sides of the grid pictures
# ---------------------------------------------------------------------------

#: quantum multipliers are zeroed beyond this fraction of the Nyquist
#: frequency: resolved states carry no content there, while the corners
#: would otherwise dominate the spectral radius with roundoff-only modes
_DEALIAS_FRACTION = 2.0 / 3.0


def _shifted(poly: PhasePolynomial, grid: PhaseGrid, coords, freq_axes,
             shift: float) -> np.ndarray:
    """poly with coordinate field coords[i] replaced by coords[i] + shift·μ,
    μ the frequency along freq_axes[i]."""
    args = list(grid.fields)
    for coord, ax in zip(coords, freq_axes):
        args[coord] = grid.fields[coord] + shift * grid.freq_fields[ax]
    return poly.evaluate(args)


def _flow_parts(G: HamiltonianGenerator, grid: PhaseGrid, c: float, role: str):
    """(parts, rate): the right-hand side D(v) of a grid picture at c = 1/k²
    as (multiplier, axes) parts whose Fourier multipliers sum to it, and the
    rate fed to the RK4 guard. D(v) is (1/2i) G ⋆ v for a wavefunction,
    (1/2ic)[G, v]_⋆ for a density, (1/2ic)[v, G]_⋆ for an observable, and
    {G, v}, {v, G} at c = 0.

    For G = K(p) + V(x), G ⋆ v multiplies v by K(p + cμ_x) in (p, μ_x) space
    and by V(x − cμ_p) in (μ_p, x) space, μ the frequency conjugate to each
    coordinate. A bracket is the odd Moyal terms with each derivative of v
    replaced by its symbol (iμ)^order, so only Σ coef·∂_p^r K·(iμ_x)^r and
    Σ coef·∂_x^s V·(iμ_p)^s survive: Moyal's sine bracket as a finite sum,
    with no cancellation at large k, and the Poisson flow at c = 0. Quantum
    multipliers are dealiased; an observable's are negated. The parts are
    None if G is not separable. The rate is Σ max|left multiplier|/ħ, or
    max|G|/ħ if not separable, and kmax·Σ max|∂G| at c = 0.
    """
    split = G.split_separable()
    kmax = float(np.max(np.abs(grid.freqs)))
    rate = 0.0
    if c == 0:
        for i in range(grid.n):
            for var in (grid.n + i, i):
                rate += float(np.max(np.abs(G.poly.diff(var).evaluate(grid.fields)))) * kmax
    elif split is None:
        return None, float(np.max(np.abs(G.make(grid).values))) / HBAR
    if split is None:
        return None, rate
    sign = -1.0 if role == "observable" else 1.0
    cut = _DEALIAS_FRACTION * kmax if c else np.inf
    parts = []
    for poly, coords, axes, s in ((split[0], grid.p_axes(), grid.x_axes(), 1.0),
                                  (split[1], grid.x_axes(), grid.p_axes(), -1.0)):
        if poly.is_zero:
            continue
        mask = np.ones((), dtype=float)
        for ax in axes:
            mask = mask * (np.abs(grid.freq_fields[ax]) <= cut)
        if c:
            left = _shifted(poly, grid, coords, axes, s * c) * mask
            rate += float(np.max(np.abs(left)))
        if role == "wavefunction":
            parts.append((left * (1.0 / 2j), axes))
            continue
        mult = 0.0
        for coef, r, sx in _bracket_terms(grid.n, poly.total_degree, c):
            d = poly.diff_multi(r, sx)
            if not d.is_zero:
                mult = mult + (sign * coef) * d.evaluate(grid.fields) * _symbol(grid, sx + r)
        parts.append((mult * mask, axes))
    return parts, (rate / HBAR if c else rate)


class _GridFlow:
    """v ↦ D(v) of one grid picture (see _flow_parts) into a caller's buffer:
    the sum of the parts through one scratch array, or for a generator that
    is not separable star(G, ·)/2i, scaled_moyal_bracket or poisson_bracket.
    """

    def __init__(self, G: HamiltonianGenerator, grid: PhaseGrid, c: float, role: str):
        self.grid = grid
        self.parts, self.rate = _flow_parts(G, grid, c, role)
        if self.parts is not None:
            self._spec = np.empty(grid.shape, dtype=np.complex128)
            return
        G_field = G.make(grid)
        pair = (lambda f: (f, G_field)) if role == "observable" else (lambda f: (G_field, f))
        if role == "wavefunction":
            self._algebra = lambda f: star(G_field, f, k=c ** -0.5) * (1.0 / 2j)
        elif c == 0:
            self._algebra = lambda f: poisson_bracket(*pair(f))
        else:
            self._algebra = lambda f: scaled_moyal_bracket(*pair(f), k=c ** -0.5)

    def __call__(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        if self.parts is None:
            # PhaseFunction freezes the array it wraps, so hand it a copy
            f = PhaseFunction(self.grid, np.copy(values), _checked=True)
            np.copyto(out, self._algebra(f).values)
            return out
        out.fill(0)
        for mult, axes in self.parts:
            np.add(out, _apply(values, mult, axes, self._spec), out=out)
        return out


#: imaginary-axis stability limit of the RK4 scheme is 2*sqrt(2); stay inside
_RK4_RATE_LIMIT = 2.5


def _stability_guard(G: HamiltonianGenerator, grid: PhaseGrid, cfg: EvolutionConfig) -> None:
    sup = float(np.max(np.abs(G.make(grid).values)))
    if cfg.dt * sup > 0.5:
        raise ValidationError(
            f"stability guard failed: dt*||G||_inf = {cfg.dt * sup:.3g} > 0.5")


def _rate_guard(rate: float, cfg: EvolutionConfig) -> None:
    if cfg.dt * rate > _RK4_RATE_LIMIT:
        raise ValidationError(
            f"step size unstable on this grid: dt*rate = {cfg.dt * rate:.3g} "
            f"exceeds the RK4 limit {_RK4_RATE_LIMIT}")


def _rk4_step(y, rhs, dt):
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_step_into(y, rhs, dt, acc, stage, k):
    """_rk4_step on a grid array, in place: `rhs(v, out)` writes into `out`,
    and `acc`, `stage` and `k` hold the running sum, the stage input and the
    stage output. Every product and sum is _rk4_step's, with the same
    operands in the same order, so the two agree bit for bit."""
    rhs(y, k)
    np.copyto(acc, k)
    for i, h in enumerate((0.5 * dt, 0.5 * dt, dt)):
        np.add(y, np.multiply(h, k, out=stage), out=stage)
        if i:
            np.add(acc, np.multiply(2.0, k, out=k), out=acc)
        rhs(stage, k)
    np.add(acc, k, out=acc)
    return np.add(y, np.multiply(dt / 6.0, acc, out=acc), out=y)


def _run_evolution(y0, rhs, cfg, save_every, record, conserve=None):
    """March RK4 from y0, recording snapshots. A PhasePolynomial y0 is
    stepped by _rk4_step with rhs(q) -> q'. A grid array y0 is copied once
    and stepped in place by _rk4_step_into with rhs(v, out), and each
    snapshot gets a copy. `conserve` is (name, value0, tolerance, measure)
    for a picture with an invariant to police after every step, None
    otherwise."""
    record(0, y0)
    if isinstance(y0, PhasePolynomial):
        y, snapshot = y0, lambda y: y
        advance = lambda y: _rk4_step(y, rhs, cfg.dt)
    else:
        y, snapshot = np.array(y0, dtype=np.complex128), np.copy
        bufs = [np.empty_like(y) for _ in range(3)]
        advance = lambda y: _rk4_step_into(y, rhs, cfg.dt, *bufs)
    for step in range(1, cfg.steps + 1):
        y = advance(y)
        if conserve is not None:
            name, ref, tol, measure = conserve
            drift = abs(measure(y) - ref)
            if drift > tol:
                raise AccuracyError(
                    f"{name} drifted by {drift:.3e} (tolerance {tol:.0e}) at step {step}",
                    step=step, drift=drift)
        if (save_every and step % save_every == 0) or step == cfg.steps:
            record(step, snapshot(y))


def _recorder(traj, grid, dt, role, norm_of=None, energy_of=None):
    """Snapshot callback for _run_evolution. The norm column defaults to the
    sup-norm and the energy column to NaN when the picture defines none."""

    def record(step, y):
        if isinstance(y, PhasePolynomial):
            f = PhaseFunction.from_poly(grid, y, role=role)
        else:
            f = PhaseFunction(grid, y, role=role, _checked=True)
        norm_val = f.max_abs() if norm_of is None else norm_of(y)
        energy = float("nan") if energy_of is None else energy_of(y)
        traj.record(step * dt, f, norm_val, energy)

    return record


# ---------------------------------------------------------------------------
# quantum pictures
# ---------------------------------------------------------------------------

def schrodinger_evolve(phi: PhaseFunction, G: HamiltonianGenerator,
                       cfg: EvolutionConfig, save_every: int = 0) -> Trajectory:
    """Integrate 2i dφ/dt = G ⋆ φ. Unitary up to integrator error; the run
    aborts if the norm drifts by more than 1e-6."""
    grid = phi.grid
    nrm0 = inner(phi, phi).real
    if abs(nrm0 - 1.0) > 1e-6:
        raise ValidationError(f"state not normalized: <phi|phi> = {nrm0:.8g}")
    _stability_guard(G, grid, cfg)
    flow = _GridFlow(G, grid, 1.0, "wavefunction")
    _rate_guard(flow.rate, cfg)
    sq = np.empty(grid.shape)  # |v|² scratch of the per-step norm check
    measure = lambda v: float(np.sum(np.square(np.abs(v, out=sq), out=sq))) \
        * grid.weight / np.pi ** grid.n
    # <v|G ⋆ v>, with G ⋆ v = 2i·flow(v)
    energy = lambda v: float(np.real(2j * np.sum(np.conj(v) * flow(v, np.empty_like(v))))
                             * grid.weight / np.pi ** grid.n)
    traj = Trajectory("schrodinger")
    _run_evolution(phi.values, flow, cfg, save_every,
                   _recorder(traj, grid, cfg.dt, "wavefunction", measure, energy),
                   ("norm", nrm0, NORM_DRIFT_TOL, measure))
    return traj


def _observable_evolve(alpha: PhaseFunction, G: HamiltonianGenerator, cfg: EvolutionConfig,
                       c: float, save_every: int, picture: str) -> Trajectory:
    """Step dα/ds = (1/2ic)[α, G]_⋆, or {α, G} at c = 0. A polynomial
    observable evolves in exact coefficient arithmetic through bracket_poly
    (the quadratic algebra closes on itself); a grid observable through the
    bracket multipliers."""
    grid = alpha.grid
    _stability_guard(G, grid, cfg)
    if alpha.poly is not None:
        y0 = alpha.poly
        rhs = lambda q: bracket_poly(q, G.poly, c)
    else:
        rhs = _GridFlow(G, grid, c, "observable")
        _rate_guard(rhs.rate, cfg)
        y0 = alpha.values
    traj = Trajectory(picture)
    _run_evolution(y0, rhs, cfg, save_every, _recorder(traj, grid, cfg.dt, "observable"))
    return traj


def heisenberg_evolve(alpha: PhaseFunction, G: HamiltonianGenerator,
                      cfg: EvolutionConfig, k: float = 1.0,
                      save_every: int = 0) -> Trajectory:
    """Integrate dα/ds = (k²/2i)[α, G]_⋆ at contraction parameter k."""
    k = _coerce_k(k)
    return _observable_evolve(alpha, G, cfg, 1.0 / k ** 2, save_every, "heisenberg")


def liouville_evolve(rho: PhaseFunction, G: HamiltonianGenerator,
                     cfg: EvolutionConfig, k: float = 1.0,
                     save_every: int = 0) -> Trajectory:
    """Integrate dρ/ds = (k²/2i)[G, ρ]_⋆; the trace is conserved to 1e-8."""
    grid = rho.grid
    k = _coerce_k(k)
    if rho.role != "density":
        raise ValidationError("liouville_evolve expects a density")
    _stability_guard(G, grid, cfg)
    flow = _GridFlow(G, grid, 1.0 / k ** 2, "density")
    _rate_guard(flow.rate, cfg)
    trace_w = grid.weight / (2.0 ** (2 * grid.n) * np.pi ** grid.n)
    measure = lambda v: float(np.real(np.sum(v))) * trace_w
    G_vals = G.make(grid).values
    energy = lambda v: float(np.real(np.sum(G_vals * v)) * trace_w)
    tr0 = measure(rho.values)
    traj = Trajectory("liouville")
    _run_evolution(rho.values, flow, cfg, save_every,
                   _recorder(traj, grid, cfg.dt, "density", measure, energy),
                   ("trace", tr0, TRACE_DRIFT_TOL, measure))
    return traj


# ---------------------------------------------------------------------------
# classical flows
# ---------------------------------------------------------------------------

def classical_liouville_evolve(rho: PhaseFunction, G: HamiltonianGenerator,
                               cfg: EvolutionConfig, save_every: int = 0) -> Trajectory:
    """Advect a classical density: dρ/dt = {G, ρ}. Plain ∫ρ is conserved."""
    grid = rho.grid
    m = rho.max_abs()
    if float(np.max(np.abs(rho.values.imag))) > 1e-8 * m:
        raise ValidationError("classical density must be real")
    if float(np.min(rho.values.real)) < -1e-8 * m:
        raise ValidationError("classical density must be nonnegative")
    _stability_guard(G, grid, cfg)
    flow = _GridFlow(G, grid, 0.0, "density")
    _rate_guard(flow.rate, cfg)
    measure = lambda v: float(np.real(np.sum(v))) * grid.weight
    mass0 = measure(rho.values)
    G_vals = G.make(grid).values
    energy = lambda v: float(np.real(np.sum(G_vals * v)) * grid.weight)
    traj = Trajectory("classical-liouville")
    _run_evolution(rho.values, flow, cfg, save_every,
                   _recorder(traj, grid, cfg.dt, "density", measure, energy),
                   ("mass", mass0, MASS_DRIFT_TOL * max(1.0, abs(mass0)), measure))
    return traj


def classical_heisenberg_evolve(alpha: PhaseFunction, G: HamiltonianGenerator,
                                cfg: EvolutionConfig, save_every: int = 0) -> Trajectory:
    """Transport a classical observable: dα/dt = {α, G}."""
    return _observable_evolve(alpha, G, cfg, 0.0, save_every, "classical-heisenberg")


# ---------------------------------------------------------------------------
# derivation generators
# ---------------------------------------------------------------------------

def tilde_apply(which: str, alpha: PhaseFunction, axis: int = 0) -> PhaseFunction:
    """Apply a derivation generator: p̃ = 2i ∂_x, x̃ = 2i ∂_p.

    These act on observables and densities (not wavefunctions) and obey
    the Leibniz rule over the star product. Polynomial-tagged observables
    are differentiated in coefficient form.
    """
    if which not in ("p", "x"):
        raise ValidationError(f"which must be 'p' or 'x', got {which!r}")
    g = alpha.grid
    ax = g.n + axis if which == "p" else axis
    if alpha.poly is not None:
        return PhaseFunction.from_poly(g, alpha.poly.diff(ax) * 2j, role=alpha.role)
    vals = 2j * derivative(alpha.values, g, axis=ax)
    return PhaseFunction(g, vals, role=alpha.role, _checked=True)


@dataclass(frozen=True)
class FreeParticleTildeGenerator:
    """Contracted derivation generator of the free flow: G̃ = (−iħ/m) p·∂_x."""

    mass: float

    def __post_init__(self):
        if not self.mass > 0:
            raise ValidationError(f"mass {self.mass} must be positive")

    def apply(self, rho: PhaseFunction) -> PhaseFunction:
        return 2j * self.flow(rho)

    def flow(self, rho: PhaseFunction) -> PhaseFunction:
        """(1/2i) G̃ ρ = {p²/2m, ρ} = −(p/m)·∂_x ρ, the free advection field."""
        g = rho.grid
        vals = _GridFlow(free_generator(self.mass, g.n), g, 0.0, "density")(
            rho.values, np.empty(g.shape, dtype=np.complex128))
        return PhaseFunction(g, vals, role=rho.role, _checked=True)


def free_particle_tilde_generator(mass: float) -> FreeParticleTildeGenerator:
    return FreeParticleTildeGenerator(mass=mass)
