#!/usr/bin/env python3
"""wwgm benchmark: CLI experiments end to end, and a traced per-layer run.

Run from the root of a wwgm checkout (the package is imported from src/):

    python3 perfbench/run.py --workload wigner-star --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload k-sweeps --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1

Workloads: wigner-star, evolve-pictures, k-sweeps (`all` runs each in its
own fresh process). `--trace 0` reports the end-to-end metrics; `--trace 1`
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, workloads  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time; passes repeat while the next fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smoke mode: reduced grids, same experiments and checks")
    parser.add_argument("--out", help="directory for experiment outputs (removed at exit)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print the set-up time and exit")
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in a fresh process of its own."""
    worst = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            cmd.append("--small")
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def _print_report(args, report: harness.RunReport) -> None:
    print(f"# wwgm benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} (closed loop, 1 client, 1 thread, fresh process)")
    print(f"# machine {json.dumps(harness.machine_block(), sort_keys=True)}")
    for name, (value, unit) in report.metrics.items():
        note = report.notes.get(name, "")
        print(f"{name:44s} {value:14.6g} {unit:6s} {note}".rstrip())
    for key, note in report.notes.items():
        if key not in report.metrics:
            print(f"# {key}: {note}")
    failed = len(report.failures)
    print(f"{'failed_frac':44s} {failed / report.attempted:14.6g} frac   "
          f"{failed} of {report.attempted} experiments")
    for p, slot, problems in report.failures[:20]:
        print(f"FAILED pass {p} slot {slot}: {'; '.join(problems)[:500]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    out = Path(args.out) if args.out else \
        harness.OUT_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        harness.fresh_dir(out)
        if args.setup_probe:
            harness.set_up(args.workload, args.seed, out, args.small)
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
            return 0
        if args.trace:
            trace_path = harness.OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
            report = harness.traced_run(args.workload, args.seed, T0, out, trace_path,
                                        args.small)
        else:
            report = harness.timed_run(args.workload, args.seed, args.seconds, T0, out,
                                       args.small)
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out, ignore_errors=True)
    _print_report(args, report)
    return 0 if not report.failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
