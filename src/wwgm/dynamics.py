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
A grid state is stepped in place: the runner preallocates its working
state and three stage buffers, each right-hand side writes into a buffer
it is given, and the star operators keep their own scratch arrays, so a
grid RK4 step allocates no full-grid array.
Separable generators G = K(p) + V(x) are applied through mixed-space
multipliers, K(p + cμ_x) and V(x − cμ_p), which star-multiply in
O(N log N) per axis and are exact for band-limited states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._poly import PhasePolynomial, poisson_poly, star_poly
from ._spectral import _apply, derivative
from .errors import AccuracyError, ValidationError
from .heisenberg_group import _coerce_k
from .phase_space import PhaseFunction, PhaseGrid, _write_csv, inner
from .star_algebra import HBAR, star

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
# star-multiplication operators used by the steppers
# ---------------------------------------------------------------------------

class _LeftStar:
    """v ↦ G ⋆ v for a polynomial generator, at contraction parameter k.

    Separable generators go through precomputed mixed-space multipliers;
    anything else falls back to the generic star product. The multipliers
    are zeroed beyond two thirds of the Nyquist frequency: resolved states
    carry no content there, while the coordinate-plus-frequency corners
    would otherwise dominate the operator's spectral radius with modes
    that only ever hold roundoff noise.
    """

    DEALIAS_FRACTION = 2.0 / 3.0

    def __init__(self, G: HamiltonianGenerator, grid: PhaseGrid, k: float = 1.0):
        self.grid = grid
        self.c = 1.0 / _coerce_k(k) ** 2
        self.G_field = G.make(grid)
        split = G.split_separable()
        #: (multiplier, axes it acts on in frequency space) per nonzero part; None if not separable
        self._mults = None
        if split is not None:
            K, V = split
            parts = ((K, grid.p_axes(), grid.x_axes(), 1.0),
                     (V, grid.x_axes(), grid.p_axes(), -1.0))
            self._mults = [(self._multiplier(poly, coords, axes, sign), axes)
                           for poly, coords, axes, sign in parts if not poly.is_zero]
        #: scratch for one multiplier round trip, and for the conjugated
        #: operand and product of the commutator
        self._spec, self._conj, self._prod = (
            np.empty(grid.shape, dtype=np.complex128) for _ in range(3))

    def _multiplier(self, poly: PhasePolynomial, coords, freq_axes, sign: float) -> np.ndarray:
        """poly with coordinate field coords[i] replaced by coords[i] + sign·c·μ,
        μ the frequency along freq_axes[i], dealiased along those axes."""
        g = self.grid
        cut = self.DEALIAS_FRACTION * float(np.max(np.abs(g.freqs)))
        args = list(g.fields)
        mask = np.ones((), dtype=float)
        for coord, ax in zip(coords, freq_axes):
            freqs = g.freq_fields[ax]
            args[coord] = g.fields[coord] + sign * self.c * freqs
            mask = mask * (np.abs(freqs) <= cut)
        return poly.evaluate(args) * mask

    @property
    def spectral_rate(self) -> float:
        """Largest oscillation rate the stepped operator can exhibit."""
        if self._mults is None:
            return float(np.max(np.abs(self.G_field.values))) / HBAR
        rate = 0.0
        for mult, _axes in self._mults:
            rate += float(np.max(np.abs(mult)))
        return rate / HBAR

    def __call__(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """G ⋆ values, written into `out`."""
        if self._mults is None:
            # PhaseFunction freezes the array it wraps, so hand it a copy
            f = PhaseFunction(self.grid, np.copy(values), _checked=True)
            np.copyto(out, star(self.G_field, f, k=self.c ** -0.5).values)
            return out
        out.fill(0)
        for mult, axes in self._mults:
            np.add(out, _apply(values, mult, axes, self._spec), out=out)
        return out

    def commutator(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """[G, v]_⋆ = G ⋆ v − v ⋆ G into `out`; uses v ⋆ G = conj(G ⋆ v̄) for real G."""
        self(values, out)
        self(np.conj(values, out=self._conj), self._prod)
        return np.subtract(out, np.conj(self._prod, out=self._prod), out=out)


class _PoissonFlow:
    """v ↦ {G, v} with the generator's derivatives evaluated analytically.

    Only the (±∂G field, axis) terms whose derivative polynomial is nonzero
    are kept, so a generator that depends on p alone costs one spectral
    derivative per x axis.
    """

    def __init__(self, G: HamiltonianGenerator, grid: PhaseGrid):
        self.grid = grid
        self.terms = []
        for i in range(grid.n):
            for dG, axis in ((G.poly.diff_x(i), i), (-1.0 * G.poly.diff_p(i), grid.n + i)):
                if not dG.is_zero:
                    self.terms.append((dG.evaluate(grid.fields), axis))
        self._deriv = np.empty(grid.shape, dtype=np.complex128)

    def __call__(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """{G, values}, written into `out`."""
        out.fill(0)
        for field, axis in self.terms:
            d = derivative(values, self.grid, axis=axis, out=self._deriv)
            np.add(out, np.multiply(field, d, out=d), out=out)
        return out

    @property
    def spectral_rate(self) -> float:
        kmax = float(np.max(np.abs(self.grid.freqs)))
        rate = 0.0
        for field, _axis in self.terms:
            rate += float(np.max(np.abs(field))) * kmax
        return rate


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
    lstar = _LeftStar(G, grid, 1.0)
    _rate_guard(lstar.spectral_rate, cfg)
    factor = 1.0 / 2j
    sq = np.empty(grid.shape)  # |v|² scratch of the per-step norm check
    measure = lambda v: float(np.sum(np.square(np.abs(v, out=sq), out=sq))) \
        * grid.weight / np.pi ** grid.n
    energy = lambda v: float(np.real(np.sum(np.conj(v) * lstar(v, np.empty_like(v))))
                             * grid.weight / np.pi ** grid.n)
    traj = Trajectory("schrodinger")
    rhs = lambda v, out: np.multiply(factor, lstar(v, out), out=out)
    _run_evolution(phi.values, rhs, cfg, save_every,
                   _recorder(traj, grid, cfg.dt, "wavefunction", measure, energy),
                   ("norm", nrm0, NORM_DRIFT_TOL, measure))
    return traj


def heisenberg_evolve(alpha: PhaseFunction, G: HamiltonianGenerator,
                      cfg: EvolutionConfig, k: float = 1.0,
                      save_every: int = 0) -> Trajectory:
    """Integrate dα/ds = (k²/2i)[α, G]_⋆ at contraction parameter k.

    Polynomial observables evolve in exact coefficient arithmetic (the
    quadratic algebra closes on itself); grid observables go through the
    star multipliers.
    """
    grid = alpha.grid
    k = _coerce_k(k)
    _stability_guard(G, grid, cfg)
    c = 1.0 / k ** 2
    factor = k ** 2 / 2j
    if alpha.poly is not None:
        y0 = alpha.poly
        rhs = lambda q: (star_poly(q, G.poly, c) - star_poly(G.poly, q, c)) * factor
    else:
        lstar = _LeftStar(G, grid, k)
        _rate_guard(lstar.spectral_rate, cfg)
        y0 = alpha.values
        rhs = lambda v, out: np.multiply(-factor, lstar.commutator(v, out), out=out)
    traj = Trajectory("heisenberg")
    _run_evolution(y0, rhs, cfg, save_every, _recorder(traj, grid, cfg.dt, "observable"))
    return traj


def liouville_evolve(rho: PhaseFunction, G: HamiltonianGenerator,
                     cfg: EvolutionConfig, k: float = 1.0,
                     save_every: int = 0) -> Trajectory:
    """Integrate dρ/ds = (k²/2i)[G, ρ]_⋆; the trace is conserved to 1e-8."""
    grid = rho.grid
    k = _coerce_k(k)
    if rho.role != "density":
        raise ValidationError("liouville_evolve expects a density")
    _stability_guard(G, grid, cfg)
    lstar = _LeftStar(G, grid, k)
    _rate_guard(lstar.spectral_rate, cfg)
    factor = k ** 2 / 2j
    trace_w = grid.weight / (2.0 ** (2 * grid.n) * np.pi ** grid.n)
    measure = lambda v: float(np.real(np.sum(v))) * trace_w
    energy = lambda v: float(np.real(np.sum(lstar.G_field.values * v)) * trace_w)
    tr0 = measure(rho.values)
    traj = Trajectory("liouville")
    rhs = lambda v, out: np.multiply(factor, lstar.commutator(v, out), out=out)
    _run_evolution(rho.values, rhs, cfg, save_every,
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
    flow = _PoissonFlow(G, grid)
    _rate_guard(flow.spectral_rate, cfg)
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
    grid = alpha.grid
    _stability_guard(G, grid, cfg)
    if alpha.poly is not None:
        y0 = alpha.poly
        rhs = lambda q: poisson_poly(q, G.poly)
    else:
        flow = _PoissonFlow(G, grid)
        _rate_guard(flow.spectral_rate, cfg)
        y0 = alpha.values
        rhs = lambda v, out: np.negative(flow(v, out), out=out)
    traj = Trajectory("classical-heisenberg")
    _run_evolution(y0, rhs, cfg, save_every, _recorder(traj, grid, cfg.dt, "observable"))
    return traj


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
    if alpha.poly is not None:
        dpoly = alpha.poly.diff_x(axis) if which == "p" else alpha.poly.diff_p(axis)
        return PhaseFunction.from_poly(g, dpoly * 2j, role=alpha.role)
    ax = g.n + axis if which == "p" else axis
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
        vals = _PoissonFlow(free_generator(self.mass, g.n), g)(
            rho.values, np.empty(g.shape, dtype=np.complex128))
        return PhaseFunction(g, vals, role=rho.role, _checked=True)


def free_particle_tilde_generator(mass: float) -> FreeParticleTildeGenerator:
    return FreeParticleTildeGenerator(mass=mass)
