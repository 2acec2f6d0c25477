"""End-to-end runs of the experiment runner, including determinism."""

import json
import math

import numpy as np
import pytest

from wwgm.cli import ExperimentConfig, main, run
from wwgm.errors import ValidationError


def write_config(tmp_path, name="config.json", **kwargs):
    cfg = ExperimentConfig(**kwargs)
    path = tmp_path / name
    path.write_text(cfg.to_json())
    return path


def test_config_round_trip():
    cfg = ExperimentConfig(kind="coherent", label={"p": [0.0], "x": [0.5]},
                           grid={"n": 1, "N": 64, "L": 8.0})
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        ExperimentConfig.from_json('{"kind": "coherent", "labels": {}}')


@pytest.mark.parametrize("block, value", [
    ("grid", {"n": 1, "N": 64, "L": 8.0, "M": 3}),
    ("label", {"p": [0.0], "x": [0.0], "y": [0.0]}),
    ("label_b", {"p": [0.0], "x": [0.0], "q": [0.0]}),
    ("star_method", {"variant": "spectral", "order": 8, "tol": 1e-9}),
    ("observable_params", {"sigma": 1.0, "mu": 0.0}),
    ("coset", {"omega": [[0.0]], "pbar": [1.0], "extra": 1}),
    ("coset", {"omega": [[0.0]], "point": {"p": [0.0], "x": [0.0], "phi": 0.0}}),
])
def test_config_blocks_reject_unknown_keys(block, value):
    with pytest.raises(ValidationError, match="unknown keys"):
        ExperimentConfig.from_dict({"kind": "coherent", block: value})


def test_perfbench_workload_configs_load():
    from perfbench import workloads

    for name in workloads.WORKLOADS:
        for cfg in workloads.pass_configs(name, seed=1):
            ExperimentConfig.from_dict(cfg)
        ExperimentConfig.from_dict(workloads.warmup_config(name, seed=1))


def test_config_requires_kind():
    with pytest.raises(ValidationError):
        ExperimentConfig.from_json('{"grid": {"n": 1}}')


def test_coherent_run_peak_at_origin(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(kind="coherent", label={"p": [0.0], "x": [0.0]},
                           grid={"n": 1, "N": 64, "L": 8.0}, out_dir=str(out))
    assert run(cfg) == 0
    lines = (out / "wigner.csv").read_text().splitlines()
    assert lines[0] == "p,x,re,im"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    best = max(rows, key=lambda r: r[2])
    assert (best[0], best[1]) == (0.0, 0.0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "hbar = 2" in manifest["units"]
    assert sorted(manifest["outputs"]) == ["state.bin", "state.csv", "wigner.csv"]


def test_runs_are_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = ExperimentConfig(kind="coherent", label={"p": [0.25], "x": [-0.5]},
                               grid={"n": 1, "N": 64, "L": 8.0}, out_dir=str(out))
        run(cfg)
        outs.append(out)
    for fname in ("state.bin", "state.csv", "wigner.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    manifests = []
    for out in outs:
        m = json.loads((out / "manifest.json").read_text())
        m["config"].pop("out_dir")
        manifests.append(m)
    assert manifests[0] == manifests[1]


def test_star_check(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(kind="star-check", grid={"n": 1, "N": 128, "L": 8.0},
                           out_dir=str(out))
    assert run(cfg) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["identity_residual"] < 1e-12
    assert report["commutator_residual"] < 1e-12
    assert report["associativity_residual"] < 1e-6
    assert report["method_agreement"] < 1e-6


def test_evolve_harmonic_quarter_turn(tmp_path):
    out = tmp_path / "out"
    steps = 393
    cfg = ExperimentConfig(
        kind="evolve", picture="schrodinger", hamiltonian="harmonic",
        label={"p": [0.0], "x": [1.0]}, grid={"n": 1, "N": 128, "L": 8.0},
        dt=(math.pi / 4) / steps, steps=steps, out_dir=str(out))
    assert run(cfg) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,norm,energy,peak_p,peak_x"
    last = [float(v) for v in lines[-1].split(",")]
    t, norm_val, energy, peak_p, peak_x = last
    assert t == pytest.approx(math.pi / 4, abs=1e-12)
    assert norm_val == pytest.approx(1.0, abs=1e-6)
    assert peak_x == pytest.approx(0.0, abs=1e-4)
    assert peak_p == pytest.approx(-1.0, abs=1e-4)


def test_evolve_liouville_picture(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        kind="evolve", picture="liouville", hamiltonian="harmonic",
        label={"p": [0.0], "x": [0.5]}, grid={"n": 1, "N": 64, "L": 8.0},
        dt=1e-3, steps=20, out_dir=str(out))
    assert run(cfg) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[1] == pytest.approx(1.0, abs=1e-6)   # unit trace
    assert last[1] == pytest.approx(first[1], abs=1e-8)
    assert last[2] == pytest.approx(first[2], abs=1e-8)  # energy conserved


@pytest.mark.parametrize("observable", ["x", "gaussian"])  # polynomial, grid state
@pytest.mark.parametrize("picture", ["heisenberg", "classical-heisenberg"])
def test_evolve_snapshots(tmp_path, picture, observable):
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        kind="evolve", picture=picture, hamiltonian="free",
        observable=observable, mass=1.0, grid={"n": 1, "N": 64, "L": 8.0},
        dt=1e-3, steps=20, save_every=10, out_dir=str(out))
    assert run(cfg) == 0
    snaps = {p.name for p in (out / "snapshots").iterdir()}
    assert snaps == {f"state_{s:06d}.bin" for s in (0, 10, 20)}
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 3


def test_sweep_overlap(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        kind="sweep-k", sweep="overlap", k_values=[1, 2, 4, 8],
        label={"p": [0.0], "x": [0.0]}, label_b={"p": [1.0], "x": [0.0]},
        grid={"n": 1, "N": 1024, "L": 8.0}, out_dir=str(out))
    assert run(cfg) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "k,numeric,closed_form,rel_err"
    rel = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert max(rel) <= 1e-6
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fits"]["log_overlap_vs_k2"]["slope"] == pytest.approx(-0.5, rel=1e-9)


def test_sweep_theta(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        kind="sweep-k", sweep="theta", k_values=[1, 2, 4, 8],
        coset={"omega": [[0.0]], "pbar": [1.0], "xbar": [0.0], "thetabar": 0.0,
               "point": {"p": [0.0], "x": [2.0], "theta": 0.0}},
        grid={"n": 1, "N": 1024, "L": 8.0}, out_dir=str(out))
    assert run(cfg) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fits"]["theta_rate"]["slope"] == pytest.approx(-2.0, abs=1e-12)


def test_coset_tables(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        kind="coset", k_values=[1.0, 10.0],
        coset={"omega": [[0.0]], "pbar": [1.0], "xbar": [0.0], "thetabar": 0.0,
               "point": {"p": [0.0], "x": [2.0], "theta": 0.0}},
        out_dir=str(out))
    assert run(cfg) == 0
    lines = (out / "coset_phase.csv").read_text().splitlines()
    assert lines[0] == "k,p1,x1,theta,dp1,dx1,dtheta"
    k1 = [float(v) for v in lines[1].split(",")]
    assert k1[-1] == 2.0  # dtheta at k=1
    k10 = [float(v) for v in lines[2].split(",")]
    assert k10[-1] == pytest.approx(0.02, abs=0.0)
    cfgl = (out / "coset_config.csv").read_text().splitlines()
    assert cfgl[0] == "x1,theta,dx1,dtheta"
    assert [float(v) for v in cfgl[1].split(",")] == [2.0, 0.0, 0.0, 2.0]


# ------------------------------------------------------------- main() wiring

def test_main_success_and_overrides(tmp_path, capsys):
    path = write_config(tmp_path, kind="coherent", label={"p": [0.0], "x": [0.0]},
                        grid={"n": 1, "N": 128, "L": 8.0}, out_dir=str(tmp_path / "d"))
    code = main(["coherent", "--config", str(path),
                 "--out", str(tmp_path / "o2"), "--grid-n", "64"])
    assert code == 0
    assert (tmp_path / "o2" / "state.bin").exists()
    manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert manifest["config"]["grid"]["N"] == 64


def test_main_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "coherent", "bogus": 1}')
    assert main(["coherent", "--config", str(bad)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValidationError"


_SMALL = {"n": 1, "N": 64, "L": 8.0}
_HEIS = {"kind": "evolve", "picture": "heisenberg", "hamiltonian": "harmonic",
         "observable": "x", "grid": _SMALL, "dt": 1e-3, "steps": 2}
_OVERLAP = {"kind": "sweep-k", "sweep": "overlap", "label": {"p": [0.0], "x": [0.0]},
            "label_b": {"p": [0.5], "x": [0.0]}, "grid": {"n": 1, "N": 1024, "L": 8.0}}
_STAR_CHECK = {"kind": "star-check", "grid": _SMALL}
_COSET = {"kind": "coset", "coset": {"omega": [[0.0]], "pbar": [1.0]}}


@pytest.mark.parametrize("config, extra_args, needle", [
    ({"kind": "sweep-k", "sweep": "theta", "k_values": [1, 2, 4, 8]}, ["--k", "abc"], "abc"),
    ({"kind": "coherent", "grid": 5, "label": {"p": [0.0], "x": [0.0]}}, [], "'grid'"),
    ({"kind": "coherent", "label": {"p": [0.0]}}, [], "['x']"),
    ({"kind": "coherent", "grid": {"N": "abc"}, "label": {"p": [0.0], "x": [0.0]}}, [],
     "'grid.N'"),
    ({**_HEIS, "k": "abc"}, [], "'k'"),
    ({**_STAR_CHECK, "k": "abc"}, [], "'k'"),
    ({**_OVERLAP, "k_values": [1, 2, "a", 8]}, [], "'k_values'"),
    ({"kind": "coset", "k_values": ["a"], "coset": {"omega": [[0.0]], "pbar": [1.0]}}, [],
     "'k_values'"),
    ({**_HEIS, "dt": "x"}, [], "'dt'"),
    ({**_STAR_CHECK, "star_method": {"order": "x"}}, [], "'star_method.order'"),
    ({**_STAR_CHECK, "observable_params": {"sigma": "x"}}, [], "'observable_params.sigma'"),
    ({**_HEIS, "hamiltonian": "free", "mass": "abc"}, [], "'mass'"),
    ({**_HEIS, "save_every": "x"}, [], "'save_every'"),
    ({**_HEIS, "steps": 2.7}, [], "'steps'"),
    ({**_HEIS, "k": 0}, [], "k=0.0"),
    ({**_OVERLAP, "k_values": [1, 2, 4, math.nan]}, [], "'k_values'"),
    ({**_STAR_CHECK, "observable_params": {"sigma": math.nan}}, [], "'observable_params.sigma'"),
    ({**_STAR_CHECK, "observable_params": {"p0": math.nan}}, [], "'observable_params.p0'"),
    ({**_COSET, "coset": {**_COSET["coset"], "thetabar": math.nan}}, [], "'coset.thetabar'"),
    ({"kind": "coherent", "label": {"p": ["a"], "x": [0.0]}}, [], "'label.p'"),
    ({"kind": "coherent", "label": {"p": {"a": 1}, "x": [0.0]}}, [], "'label.p'"),
    ({**_COSET, "coset": {**_COSET["coset"], "pbar": ["a"]}}, [], "'coset.pbar'"),
    ({**_COSET, "coset": {**_COSET["coset"], "omega": [["a"]]}}, [], "'coset.omega'"),
    ({**_COSET, "coset": {**_COSET["coset"], "omega": [0.0]}}, [], "'coset.omega'"),
    ({**_COSET, "coset": {**_COSET["coset"], "point": {"x": ["a"]}}}, [], "'coset.point.x'"),
    ({**_COSET, "coset": {**_COSET["coset"], "point": {"theta": math.inf}}}, [],
     "'coset.point.theta'"),
    ({**_OVERLAP, "k_values": 5}, [], "k-values"),
    (_HEIS, ["--dt", "0"], "dt must be positive"),
    (_HEIS, ["--steps", "0"], "steps must be >= 1"),
    (_HEIS, ["--grid-n", "0"], "N=0"),
    (_HEIS, ["--out", ""], "'out_dir'"),
    ({**_COSET, "out_dir": ""}, [], "'out_dir'"),
    ({**_COSET, "out_dir": 5}, [], "'out_dir'"),
    ({"kind": "sweep-k", "sweep": "theta", "k_values": [1, 2, 4, 8]}, ["--k", ""], "--k"),
    ({**_COSET, "k": 3.0, "k_values": []}, [], "'k_values'"),
    ({**_COSET, "k": 3.0, "k_values": 0}, [], "k=0.0"),
], ids=["k-not-numeric", "grid-not-an-object", "label-without-x", "grid-N-string",
        "evolve-k-string", "star-check-k-string", "k-values-string", "coset-k-values-string",
        "dt-string", "order-string", "sigma-string", "mass-string", "save-every-string",
        "steps-fractional", "evolve-k-zero", "k-values-nan", "sigma-nan", "p0-nan",
        "thetabar-nan", "label-p-string", "label-p-object", "pbar-string", "omega-string",
        "omega-not-rows", "point-x-string", "theta-infinite", "k-values-number",
        "override-dt-zero", "override-steps-zero", "override-grid-n-zero", "override-out-empty",
        "out-dir-empty", "out-dir-number", "override-k-empty", "coset-k-values-empty",
        "coset-k-values-zero"])
def test_main_malformed_config_exit_code(tmp_path, capsys, config, extra_args, needle):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path / "o"), **config}))
    assert main([config["kind"], "--config", str(path), *extra_args]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "ValidationError"
    assert needle in record["message"]


def test_star_check_method_agreement_sees_an_underresolved_grid(tmp_path, capsys):
    # a sigma = 0.25 Gaussian at N=64 is too coarse for the spectral derivative of
    # the series path, so it misses the closed form of x * g by far more than 1e-6
    path = write_config(tmp_path, kind="star-check", grid={"n": 1, "N": 64, "L": 8.0},
                        observable_params={"sigma": 0.25}, out_dir=str(tmp_path / "o"))
    assert main(["star-check", "--config", str(path)]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["report"]["method_agreement"] > 1e-6


def test_main_kind_mismatch(tmp_path, capsys):
    path = write_config(tmp_path, kind="coherent", label={"p": [0.0], "x": [0.0]})
    assert main(["coset", "--config", str(path)]) == 2


def test_main_guard_violation_surfaces(tmp_path, capsys):
    # stability guard: dt too large for the harmonic generator on L=8
    path = write_config(
        tmp_path, kind="evolve", picture="schrodinger", hamiltonian="harmonic",
        label={"p": [0.0], "x": [1.0]}, grid={"n": 1, "N": 128, "L": 8.0},
        dt=0.01, steps=10, out_dir=str(tmp_path / "o"))
    assert main(["evolve", "--config", str(path)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert "stability guard" in record["message"]


def test_main_accuracy_failure_exit_code(tmp_path, capsys):
    # a grid too coarse for unit-width gaussians: the star self-check cannot
    # meet its tolerances and must exit 3, not silently pass
    path = write_config(tmp_path, kind="star-check", grid={"n": 1, "N": 16, "L": 8.0},
                        out_dir=str(tmp_path / "o"))
    code = main(["star-check", "--config", str(path)])
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "AccuracyError"
