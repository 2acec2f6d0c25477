"""One benchmark run: set-up, timed passes, output checks and the report.

A run is one fresh process on one thread, driving `wwgm.cli.run` as a
closed loop with one client: each experiment starts when the previous one
returns. The experiment order is fixed by the workload. Both matter: the
glibc heap state one experiment leaves behind changes the page-fault cost
of the next, so the same experiments in another order or after other work
in the same process time differently. The benchmark sets no allocator or
thread-count variable; it records the ones it finds.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import workloads
from .metrics import layer_metrics, pass_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

#: set-ups measured per untraced run (this process plus fresh probe processes)
SETUP_SAMPLES = 9
#: passes per untraced run at least, so that every figure is a median of two
MIN_PASSES = 2
ENV_PREFIXES = ("MALLOC_", "OMP_", "OPENBLAS_", "MKL_", "GLIBC_TUNABLES")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, wrong package)."""


def import_cli():
    """Import `wwgm.cli` from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "wwgm" / "__init__.py").is_file():
        raise SetupError(f"no wwgm sources at {SRC}: run from the root of a wwgm checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wwgm.cli

    if Path(wwgm.cli.__file__).resolve().parent != (SRC / "wwgm").resolve():
        raise SetupError(f"wwgm was imported from {wwgm.cli.__file__}, not from {SRC}")
    return wwgm.cli


# ---------------------------------------------------------------------------
# passes and checks
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    wall_s: float
    latencies: list[float]
    out_dirs: list[Path]
    errors: dict[int, str] = field(default_factory=dict)


def run_pass(cli, configs: list[dict], out_dir: Path) -> PassResult:
    """Run the experiments back to back; only `cli.run` is inside the clock."""
    dirs = [out_dir / f"{i:03d}-{c['kind']}" for i, c in enumerate(configs)]
    cfgs = [cli.ExperimentConfig.from_dict({**c, "out_dir": str(d)})
            for c, d in zip(configs, dirs)]
    latencies, errors = [], {}
    start = time.perf_counter()
    for i, cfg in enumerate(cfgs):
        t = time.perf_counter()
        try:
            code = cli.run(cfg)
        except Exception as exc:  # a failed experiment is counted; the loop goes on
            code = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t)
        if code != 0:
            errors[i] = f"run returned {code}"
    return PassResult(time.perf_counter() - start, latencies, dirs, errors)


def check_pass(configs: list[dict], result: PassResult) -> dict[int, list[str]]:
    """Failed experiments of a pass: slot -> problems. Runs outside the clock."""
    from .checks import check

    failures = {i: [msg] for i, msg in result.errors.items()}
    for i, (cfg, out) in enumerate(zip(configs, result.out_dirs)):
        if i not in failures:
            problems = check(cfg, out)
            if problems:
                failures[i] = problems
    return failures


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int, out_dir: Path, small: bool = False):
    """Import, draw the configs and run the warm-up; returns (cli, configs)."""
    cli = import_cli()
    configs = workloads.pass_configs(workload, seed, small)
    warm = workloads.warmup_config(workload, seed, small)
    cli.run(cli.ExperimentConfig.from_dict({**warm, "out_dir": str(out_dir / "warmup")}))
    return cli, configs


def probe_setup_s(workload: str, seed: int, out_dir: Path) -> float:
    """Set-up time of a fresh process, as that process measures it."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe", "--out", str(out_dir)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr[-2000:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# machine block
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_block() -> dict:
    import numpy as np

    fft_impl = "pocketfft (numpy.fft._pocketfft_umath)" \
        if hasattr(np.fft, "_pocketfft_umath") else np.fft.fft.__module__
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": fft_impl,
        "git_commit": _git_commit(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(ENV_PREFIXES)},
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, str]
    attempted: int
    failures: list[tuple[int, int, list[str]]]   # (pass, slot, problems)


def _failures(configs, results) -> list[tuple[int, int, list[str]]]:
    out = []
    for p, result in enumerate(results):
        for slot, problems in sorted(check_pass(configs, result).items()):
            out.append((p, slot, problems))
    return out


def timed_run(workload: str, seed: int, seconds: float, t0: float, out_dir: Path,
              small: bool = False) -> RunReport:
    """End-to-end metrics, tracing off.

    Passes repeat while the next one is expected to end within `seconds`,
    and at least MIN_PASSES times. Each figure is the median over passes.
    """
    cli, configs = set_up(workload, seed, out_dir, small)
    setups = [time.perf_counter() - t0]
    results = []
    measured = 0.0
    while len(results) < MIN_PASSES or measured + results[-1].wall_s <= seconds:
        results.append(run_pass(cli, configs, out_dir / f"pass-{len(results)}"))
        measured += results[-1].wall_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = _failures(configs, results)
    for i in range(1, SETUP_SAMPLES):
        setups.append(probe_setup_s(workload, seed, out_dir / f"probe-{i}"))

    per_pass = [pass_metrics(r.wall_s, r.latencies) for r in results]
    n, passes = len(configs), len(results)
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for key in per_pass[0]:
        metrics[key] = (statistics.median(m[key] for m in per_pass), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, each in a fresh process",
        "wall_s": f"median over {passes} passes of {n} experiments "
                  f"({', '.join(f'{r.wall_s:.3f}' for r in results)} s)",
        "latency_p50_s": f"{n} samples per pass, median over {passes} passes",
        "latency_p90_s": f"{n} samples per pass, median over {passes} passes",
        "latency_max_s": f"{n} samples per pass, median over {passes} passes",
        "peak_rss_mb": "peak resident set of the run process",
    }
    return RunReport(metrics, notes, n * passes, failures)


def curves() -> None:
    """Scaling curves: grid x grid star and Schroedinger steps against N.

    Calls go through the module attributes, so an installed tracer sees them.
    """
    from wwgm import catalog, dynamics, phase_space, star_algebra

    for N, repeats in ((64, 5), (128, 3), (256, 2), (512, 1)):
        grid = phase_space.PhaseGrid(1, N, 8.0)
        a = catalog.make_observable("gaussian", grid, {"p0": 0.5, "x0": -0.5})
        b = catalog.make_observable("gaussian", grid, {"p0": -0.5, "x0": 0.5})
        for _ in range(repeats):
            star_algebra.star(a, b, star_algebra.StarMethod("spectral"))
    # dt = 2e-4 keeps dt * rate inside the RK4 limit up to N = 512
    for N, steps in ((128, 100), (256, 50), (512, 25)):
        grid = phase_space.PhaseGrid(1, N, 8.0)
        phi = phase_space.coherent_state(phase_space.CoherentLabel([0.0], [1.0]), grid)
        dynamics.schrodinger_evolve(phi, dynamics.harmonic_generator(),
                                    dynamics.EvolutionConfig(2e-4, steps))


def traced_run(workload: str, seed: int, t0: float, out_dir: Path,
               trace_path: Path | None, small: bool = False,
               with_curves: bool = True) -> RunReport:
    """Per-layer metrics: one untraced pass, then one traced pass and the curves."""
    from .tracing import Tracer

    cli, configs = set_up(workload, seed, out_dir, small)
    plain = run_pass(cli, configs, out_dir / "pass-0")
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, configs, out_dir / "pass-1")
        tracer.phase = "curve"
        if with_curves:
            curves()
    finally:
        tracer.uninstall()
    failures = _failures(configs, [plain, traced])
    metrics = layer_metrics(tracer.spans, tracer.counters, traced.wall_s, plain.wall_s)
    if trace_path is not None:
        tracer.write(trace_path)
    notes = {"trace": f"{len(tracer.spans)} spans"
                      + (f" written to {trace_path}" if trace_path else "")}
    return RunReport(metrics, notes, 2 * len(configs), failures)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
