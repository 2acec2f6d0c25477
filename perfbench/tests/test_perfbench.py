"""Tests of the benchmark harness itself, on reduced grids."""

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import harness, workloads
from perfbench.run import __file__ as RUN_PY

cli = harness.import_cli()


def _data_files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*")
                  if p.is_file() and p.name != "manifest.json")


def test_same_seed_gives_same_configs():
    for workload in workloads.WORKLOADS:
        assert workloads.pass_configs(workload, 7) == workloads.pass_configs(workload, 7)
        assert workloads.warmup_config(workload, 7) == workloads.warmup_config(workload, 7)
        assert workloads.pass_configs(workload, 7) != workloads.pass_configs(workload, 8)
    sizes = [len(workloads.pass_configs(w, 1)) for w in workloads.WORKLOADS]
    assert sizes[0] == 9 and sizes[1] == 5 and sizes[2] >= 100


@pytest.mark.parametrize("workload, spectral_calls", [
    ("wigner-star", 17), ("evolve-pictures", 2), ("k-sweeps", 0)])
def test_small_traced_run(workload, spectral_calls, tmp_path):
    """Smoke pass plus traced pass: correct, repeatable, with exact counts."""
    originals = (cli.wigner, cli.run, np.fft.fftn)
    start = time.perf_counter()
    report = harness.traced_run(workload, 3, start, tmp_path, None, small=True,
                                with_curves=False)
    assert time.perf_counter() - start < 60
    assert report.failures == []

    a, b = tmp_path / "pass-0", tmp_path / "pass-1"
    files = _data_files(a)
    assert files and files == _data_files(b)
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {name: unit for name, (_value, unit) in report.metrics.items()} \
        == {m["name"]: m["unit"] for m in bench["per_layer"]}
    m = {name: value for name, (value, _unit) in report.metrics.items()}
    assert m["star_algebra.star_calls.spectral"] == spectral_calls
    assert (m["dynamics.steps"] == 0) == (workload != "evolve-pictures")
    assert 0.9 < m["trace.coverage_frac"] <= 1.0

    # every wrapper is gone again
    assert (cli.wigner, cli.run, np.fft.fftn) == originals


def _corrupt_csv(path):
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[-2] = repr(float(fields[-2]) * 1.01 + 0.5)
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _corrupt_bin(path):
    raw = path.read_bytes()
    values = np.frombuffer(raw[16:], dtype="<c16") * 1.001
    path.write_bytes(raw[:16] + values.tobytes())


@pytest.mark.parametrize("workload, slot, name, corrupt", [
    ("wigner-star", 0, "wigner.csv", _corrupt_csv),
    ("wigner-star", 0, "state.bin", _corrupt_bin),
    ("k-sweeps", 0, "sweep.csv", _corrupt_csv),
    ("k-sweeps", 5, "coset_phase.csv", _corrupt_csv),
])
def test_corrupted_output_counts_as_failed(workload, slot, name, corrupt, tmp_path):
    configs = workloads.pass_configs(workload, 3, small=True)[slot:slot + 1]
    result = harness.run_pass(cli, configs, tmp_path)
    assert harness.check_pass(configs, result) == {}
    corrupt(result.out_dirs[0] / name)
    failures = harness.check_pass(configs, result)
    assert len(failures) / len(configs) > 0


def test_command_prints_result_line(tmp_path):
    done = subprocess.run([sys.executable, RUN_PY, "--workload", "k-sweeps", "--seed", "2",
                           "--seconds", "0.1", "--trace", "0", "--small",
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 24
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for metric in bench["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wigner-star",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170,
                          check=False)
    assert done.returncode != 0
    assert "correct" not in done.stdout
