"""Deterministic experiment runner.

    wwgm <subcommand> --config <path> [--out DIR] [--k K1,K2,...] [--grid-n N]

Subcommands: coherent, star-check, evolve, sweep-k, coset. Configs are a
single JSON document validated against a closed key set; a few scalar
fields can be overridden from the command line. Identical configs produce
byte-identical output files; run metadata (including the ħ = 2 units
note) lives in a separate manifest. Files are written atomically.

Exit codes: 0 success, 2 validation error, 3 accuracy-guard failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .catalog import make_observable
from .contraction_lab import (
    SweepSpec,
    bracket_convergence,
    left_operator_sweep,
    overlap_decay_sweep,
    product_commutativization,
    theta_decoupling_scan,
)
from .dynamics import (
    EvolutionConfig,
    classical_heisenberg_evolve,
    classical_liouville_evolve,
    export_trajectory_csv,
    free_generator,
    harmonic_generator,
    heisenberg_evolve,
    liouville_evolve,
    schrodinger_evolve,
)
from .errors import AccuracyError, ValidationError, WWGMError
from .heisenberg_group import (
    ContractionParam,
    CosetAlgebraParams,
    config_coset_flow,
    phase_space_coset_flow,
)
from .phase_space import (
    CoherentLabel,
    PhaseFunction,
    PhaseGrid,
    coherent_state,
    export_csv,
    save_phase_function,
)
from .star_algebra import StarMethod, star, star_series_report, wigner

KINDS = ("coherent", "star-check", "evolve", "sweep-k", "coset")
PICTURES = ("schrodinger", "heisenberg", "liouville",
            "classical-liouville", "classical-heisenberg")
SWEEPS = ("overlap", "left-operator", "commutativization", "bracket", "theta")

_KNOWN_KEYS = {
    "kind", "grid", "label", "label_b", "observable", "observable_b",
    "observable_params", "hamiltonian", "mass", "picture", "dt", "steps",
    "save_every", "k", "k_values", "sweep", "star_method", "coset",
    "out_dir",
}

#: closed key sets of the nested config blocks; `point` nests inside `coset`
_BLOCK_KEYS = {
    "grid": {"n", "N", "L"},
    "label": {"p", "x"},
    "label_b": {"p", "x"},
    "star_method": {"variant", "order"},
    "observable_params": {"p0", "x0", "sigma"},
    "coset": {"omega", "pbar", "xbar", "thetabar", "point"},
}
_POINT_KEYS = {"p", "x", "theta"}


def _check_block(name: str, block, allowed: set[str]) -> None:
    if not isinstance(block, dict):
        raise ValidationError(f"config block {name!r} must be a JSON object, got {block!r}")
    unknown = set(block) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {name!r}: {sorted(unknown)}")


@dataclass
class ExperimentConfig:
    """Validated experiment description; round-trips losslessly via JSON."""

    kind: str
    grid: dict = field(default_factory=lambda: {"n": 1, "N": 256, "L": 8.0})
    label: dict | None = None
    label_b: dict | None = None
    observable: str | None = None
    observable_b: str | None = None
    observable_params: dict | None = None
    hamiltonian: str | None = None
    mass: float = 1.0
    picture: str | None = None
    dt: float | None = None
    steps: int | None = None
    save_every: int = 0
    k: float = 1.0
    k_values: list | None = None
    sweep: str | None = None
    star_method: dict = field(default_factory=lambda: {"variant": "spectral", "order": 8})
    coset: dict | None = None
    out_dir: str = "out"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown experiment kind {self.kind!r}; one of {KINDS}")
        if self.picture is not None and self.picture not in PICTURES:
            raise ValidationError(f"unknown picture {self.picture!r}; one of {PICTURES}")
        if self.sweep is not None and self.sweep not in SWEEPS:
            raise ValidationError(f"unknown sweep {self.sweep!r}; one of {SWEEPS}")
        for name, allowed in _BLOCK_KEYS.items():
            block = getattr(self, name)
            if block is not None or name in ("grid", "star_method"):
                _check_block(name, block, allowed)
        if self.coset is not None and "point" in self.coset:
            _check_block("coset.point", self.coset["point"], _POINT_KEYS)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - _KNOWN_KEYS
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        if "kind" not in data:
            raise ValidationError("config must set 'kind'")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        return cls.from_dict(data)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    # -- resolved pieces ----------------------------------------------------
    def make_grid(self) -> PhaseGrid:
        g = self.grid
        return PhaseGrid(n=int(g.get("n", 1)), N=int(g.get("N", 256)),
                         L=float(g.get("L", 8.0)))

    def make_label(self, which: str = "label") -> CoherentLabel:
        raw = getattr(self, "label" if which == "label" else "label_b")
        if raw is None:
            raise ValidationError(f"experiment {self.kind!r} requires {which!r}")
        missing = {"p", "x"} - set(raw)
        if missing:
            raise ValidationError(f"{which!r} must set {sorted(missing)}")
        return CoherentLabel(raw["p"], raw["x"])

    def make_generator(self):
        if self.hamiltonian == "harmonic":
            return harmonic_generator(self.make_grid().n)
        if self.hamiltonian == "free":
            return free_generator(self.mass, self.make_grid().n)
        raise ValidationError(
            f"unknown hamiltonian {self.hamiltonian!r}; one of ('harmonic', 'free')")

    def make_method(self) -> StarMethod:
        return StarMethod(variant=self.star_method.get("variant", "spectral"),
                          order=int(self.star_method.get("order", 8)))

    def make_evolution(self) -> EvolutionConfig:
        if self.dt is None or self.steps is None:
            raise ValidationError("evolve requires dt and steps")
        return EvolutionConfig(dt=float(self.dt), steps=int(self.steps))


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _atomic(path: Path, writer) -> None:
    tmp = path.with_name("." + path.name + ".tmp")
    writer(tmp)
    os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    _atomic(path, lambda p: p.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n"))


def _manifest(out: Path, cfg: ExperimentConfig, outputs: list[str]) -> None:
    _write_json(out / "manifest.json", {
        "config": asdict(cfg),
        "outputs": sorted(outputs),
        "units": "hbar = 2; p and x in matching natural units",
        "tool": "wwgm",
    })


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_coherent(cfg: ExperimentConfig, out: Path) -> list[str]:
    grid = cfg.make_grid()
    phi = coherent_state(cfg.make_label(), grid)
    rho = wigner(phi, cfg.make_method())
    _atomic(out / "state.bin", lambda p: save_phase_function(phi, p))
    _atomic(out / "state.csv", lambda p: export_csv(phi, p))
    _atomic(out / "wigner.csv", lambda p: export_csv(rho, p))
    return ["state.bin", "state.csv", "wigner.csv"]


def _run_star_check(cfg: ExperimentConfig, out: Path) -> list[str]:
    grid = cfg.make_grid()
    method = cfg.make_method()
    k = float(cfg.k)
    report: dict = {"k": k}

    x = make_observable("x", grid)
    p = make_observable("p", grid)
    gauss = make_observable("gaussian", grid, cfg.observable_params)

    # raw ones array (no polynomial tag) so the identity exercises the kernel
    ones = PhaseFunction(grid, np.ones(grid.shape, dtype=complex))
    report["identity_residual"] = float(
        np.max(np.abs(star(ones, gauss, method, k).values - gauss.values)))
    comm = star(x, p, method, k) - star(p, x, method, k)
    report["commutator_residual"] = float(
        np.max(np.abs(comm.values - 2j / k ** 2)))

    g1 = make_observable("gaussian", grid, {"p0": 0.5, "x0": -0.5, "sigma": 1.0})
    g2 = make_observable("gaussian", grid, {"p0": -0.5, "x0": 0.5, "sigma": 1.0})
    lhs = star(star(gauss, g1, method, k), g2, method, k)
    rhs = star(gauss, star(g1, g2, method, k), method, k)
    scale = max(lhs.max_abs(), 1e-30)
    report["associativity_residual"] = float(
        np.max(np.abs(lhs.values - rhs.values)) / scale)

    xg_series = star(x, gauss, StarMethod("series", method.order), k)
    xg_spectral = star(x, gauss, StarMethod("spectral"), k)
    report["method_agreement"] = float(
        np.max(np.abs(xg_series.values - xg_spectral.values)))
    x2 = make_observable("x^2", grid)
    report["series_tail"] = list(
        star_series_report(x2, gauss, StarMethod("series", method.order), k).term_norms)

    _write_json(out / "report.json", report)
    tol = 1e-6
    worst = max(report["identity_residual"], report["commutator_residual"],
                report["associativity_residual"], report["method_agreement"])
    if worst > tol:
        raise AccuracyError(f"star self-check failed: worst residual {worst:.3e}",
                            report=report)
    return ["report.json"]


def _run_evolve(cfg: ExperimentConfig, out: Path) -> list[str]:
    grid = cfg.make_grid()
    G = cfg.make_generator()
    ev = cfg.make_evolution()
    picture = cfg.picture or "schrodinger"

    if picture == "schrodinger":
        state = coherent_state(cfg.make_label(), grid)
        traj = schrodinger_evolve(state, G, ev, save_every=cfg.save_every)
    elif picture == "liouville":
        rho = wigner(coherent_state(cfg.make_label(), grid), cfg.make_method())
        traj = liouville_evolve(rho, G, ev, k=float(cfg.k), save_every=cfg.save_every)
    elif picture == "classical-liouville":
        rho = wigner(coherent_state(cfg.make_label(), grid), cfg.make_method())
        traj = classical_liouville_evolve(rho, G, ev, save_every=cfg.save_every)
    elif picture == "heisenberg":
        alpha = make_observable(cfg.observable or "x", grid, cfg.observable_params)
        traj = heisenberg_evolve(alpha, G, ev, k=float(cfg.k), save_every=cfg.save_every)
    else:
        alpha = make_observable(cfg.observable or "x", grid, cfg.observable_params)
        traj = classical_heisenberg_evolve(alpha, G, ev, save_every=cfg.save_every)

    _atomic(out / "trajectory.csv", lambda p: export_trajectory_csv(traj, p))
    outputs = ["trajectory.csv"]
    if cfg.save_every:
        snap_dir = out / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        for t, state in zip(traj.times, traj.states):
            name = f"state_{round(t / ev.dt):06d}.bin"
            _atomic(snap_dir / name, lambda p, s=state: save_phase_function(s, p))
            outputs.append(f"snapshots/{name}")
    return outputs


def _run_sweep(cfg: ExperimentConfig, out: Path) -> list[str]:
    grid = cfg.make_grid()
    if cfg.k_values is None:
        raise ValidationError("sweep-k requires k_values")
    spec = SweepSpec(tuple(float(v) for v in cfg.k_values), grid)
    mode = cfg.sweep
    if mode is None:
        raise ValidationError("sweep-k requires 'sweep'")

    if mode == "overlap":
        table = overlap_decay_sweep(cfg.make_label(), cfg.make_label("label_b"), spec)
        fit_keys = ()
        summary = table.summary(fit_keys)
        # the natural decay variable for overlaps is k^2, not log k
        logs = np.log(table.column("closed_form"))
        slope, intercept = np.polyfit(np.asarray(spec.k_values) ** 2, logs, 1)
        summary["fits"]["log_overlap_vs_k2"] = {"slope": float(slope),
                                                "intercept": float(intercept)}
    elif mode == "left-operator":
        table = left_operator_sweep(cfg.make_label(), spec)
        summary = table.summary(("residual_x", "residual_p"))
    elif mode == "commutativization":
        alpha = make_observable(cfg.observable or "x", grid)
        beta = make_observable(cfg.observable_b or "p", grid)
        table = product_commutativization(alpha, beta, spec, cfg.make_method())
        summary = table.summary(("product_deviation", "commutator_norm"))
    elif mode == "bracket":
        alpha = make_observable(cfg.observable or "x^3", grid)
        beta = make_observable(cfg.observable_b or "p^3", grid)
        table = bracket_convergence(alpha, beta, spec, cfg.make_method())
        summary = table.summary(("bracket_error",))
    else:
        params, point = _coset_from_config(cfg)
        table = theta_decoupling_scan(params, point, spec)
        summary = table.summary(("theta_rate",))

    _atomic(out / "sweep.csv", table.to_csv)
    _write_json(out / "summary.json", summary)
    return ["sweep.csv", "summary.json"]


def _coset_from_config(cfg: ExperimentConfig):
    raw = cfg.coset
    if raw is None:
        raise ValidationError("this experiment requires a 'coset' block")
    params = CosetAlgebraParams(
        omega=np.asarray(raw.get("omega", [[0.0]]), dtype=float),
        pbar=raw.get("pbar", [0.0]),
        xbar=raw.get("xbar", [0.0]),
        thetabar=float(raw.get("thetabar", 0.0)),
    )
    pt = raw.get("point", {})
    point = (pt.get("p", [0.0] * params.n), pt.get("x", [0.0] * params.n),
             float(pt.get("theta", 0.0)))
    return params, point


def _run_coset(cfg: ExperimentConfig, out: Path) -> list[str]:
    params, point = _coset_from_config(cfg)
    ks = [float(v) for v in (cfg.k_values or [cfg.k])]
    n = params.n

    head = (["k"] + [f"p{i+1}" for i in range(n)] + [f"x{i+1}" for i in range(n)]
            + ["theta"] + [f"dp{i+1}" for i in range(n)]
            + [f"dx{i+1}" for i in range(n)] + ["dtheta"])
    lines = [",".join(head)]
    for k in ks:
        dp, dx, dth = phase_space_coset_flow(params, point, ContractionParam(k))
        row = [k, *np.atleast_1d(point[0]), *np.atleast_1d(point[1]), point[2],
               *dp, *dx, dth]
        lines.append(",".join("%.17g" % float(v) for v in row))
    _atomic(out / "coset_phase.csv", lambda p: p.write_text("\n".join(lines) + "\n"))

    dxc, dthc = config_coset_flow(params, (point[1], point[2]))
    head = ([f"x{i+1}" for i in range(n)] + ["theta"]
            + [f"dx{i+1}" for i in range(n)] + ["dtheta"])
    row = [*np.atleast_1d(point[1]), point[2], *dxc, dthc]
    text = ",".join(head) + "\n" + ",".join("%.17g" % float(v) for v in row) + "\n"
    _atomic(out / "coset_config.csv", lambda p: p.write_text(text))
    return ["coset_phase.csv", "coset_config.csv"]


_RUNNERS = {
    "coherent": _run_coherent,
    "star-check": _run_star_check,
    "evolve": _run_evolve,
    "sweep-k": _run_sweep,
    "coset": _run_coset,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns 0 and writes artifacts + manifest."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = _RUNNERS[cfg.kind](cfg, out)
    _manifest(out, cfg, outputs)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wwgm", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind)
        sp.add_argument("--config", required=True, help="path to the JSON config")
        sp.add_argument("--out", help="override out_dir")
        sp.add_argument("--k", help="override k_values (comma separated)")
        sp.add_argument("--grid-n", type=int, dest="grid_n",
                        help="override grid points per axis N")
        sp.add_argument("--dt", type=float, help="override time step")
        sp.add_argument("--steps", type=int, help="override step count")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json(Path(args.config).read_text())
        if cfg.kind != args.subcommand:
            raise ValidationError(
                f"config kind {cfg.kind!r} does not match subcommand {args.subcommand!r}")
        if args.out:
            cfg.out_dir = args.out
        if args.k:
            try:
                cfg.k_values = [float(v) for v in args.k.split(",")]
            except ValueError as exc:
                raise ValidationError(f"--k must be comma-separated numbers: {exc}") from exc
        if args.grid_n:
            cfg.grid["N"] = args.grid_n
        if args.dt:
            cfg.dt = args.dt
        if args.steps:
            cfg.steps = args.steps
        return run(cfg)
    except ValidationError as exc:
        print(json.dumps(exc.record()), file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(json.dumps(exc.record()), file=sys.stderr)
        return 3
    except WWGMError as exc:
        print(json.dumps(exc.record()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
