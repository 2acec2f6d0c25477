"""Workload definitions: the experiment list of one pass, drawn from a seed.

A workload is a fixed sequence of `wwgm.cli` experiment configs. The seed
draws labels, Gaussian parameters, coset blocks and the k-set pattern; the
order of experiments is fixed by the workload itself. Every pass of a run
executes the same list, so two passes on one seed write the same data files.

Configs are plain dicts (the JSON documents a user would hand to the CLI);
`out_dir` is filled in by the runner.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("wigner-star", "evolve-pictures", "k-sweeps")

K_SHORT = [1.0, 2.0, 4.0, 8.0]
K_LONG = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]


def _grid(N: int) -> dict:
    return {"n": 1, "N": N, "L": 8.0}


def _label(rng: random.Random, bound: float) -> dict:
    # rounded to 1/64 so the JSON config and the state agree to the bit
    draw = lambda: round(rng.uniform(-bound, bound) * 64) / 64
    return {"p": [draw()], "x": [draw()]}


def _wigner_star(rng: random.Random, N: int) -> list[dict]:
    cfgs = [{"kind": "coherent", "grid": _grid(N), "label": _label(rng, 0.8)}
            for _ in range(6)]
    cfgs.append({"kind": "coherent", "grid": _grid(2 * N), "label": _label(rng, 0.8)})
    cfgs.append({"kind": "star-check", "grid": _grid(N)})
    cfgs.append({"kind": "star-check", "grid": _grid(N),
                 "observable_params": {"sigma": 0.25}})
    return cfgs


def _evolve_pictures(rng: random.Random, N: int) -> list[dict]:
    # quarter-turn: the acceptance rig, so its step count is not scaled by N
    quarter = {"kind": "evolve", "picture": "schrodinger", "hamiltonian": "harmonic",
               "label": {"p": [0.0], "x": [1.0]}, "grid": _grid(N),
               "dt": (math.pi / 4) / 786, "steps": 786, "save_every": 131}
    liouville = {"kind": "evolve", "picture": "liouville", "hamiltonian": "harmonic",
                 "k": 1.0, "label": _label(rng, 0.5), "grid": _grid(N),
                 "dt": 1e-3, "steps": 150}
    classical = {"kind": "evolve", "picture": "classical-liouville",
                 "hamiltonian": "free", "label": _label(rng, 0.5), "grid": _grid(N),
                 "dt": 4e-3, "steps": 250}
    centre = _label(rng, 0.5)
    heis_grid = {"kind": "evolve", "picture": "heisenberg", "hamiltonian": "harmonic",
                 "observable": "gaussian",
                 "observable_params": {"p0": centre["p"][0], "x0": centre["x"][0],
                                       "sigma": 1.0},
                 "grid": _grid(N), "dt": 1e-3, "steps": 100}
    heis_poly = {"kind": "evolve", "picture": "heisenberg", "hamiltonian": "harmonic",
                 "observable": "x", "grid": _grid(N), "dt": 1e-3, "steps": 1000}
    return [quarter, liouville, classical, heis_grid, heis_poly]


def _coset_block(rng: random.Random) -> dict:
    draw = lambda: round(rng.uniform(-1.0, 1.0) * 16) / 16
    while True:
        pbar, xbar, tbar, p, x = (draw() for _ in range(5))
        # a zero theta-rate has no log-log slope to fit
        if pbar * x - xbar * p != 0.0:
            return {"omega": [[0.0]], "pbar": [pbar], "xbar": [xbar], "thetabar": tbar,
                    "point": {"p": [p], "x": [x], "theta": 0.0}}


def _k_sweeps(rng: random.Random, N: int, repeats: int) -> list[dict]:
    cfgs = []
    for r in range(repeats):
        ks = K_SHORT if r % 2 == 0 else K_LONG
        a = _label(rng, 0.25)
        # |b - a|^2 <= 0.125 keeps the k=8 overlap above 1e-2
        b = {"p": [a["p"][0] + round(rng.uniform(0.1, 0.25) * 64) / 64], "x": a["x"]}
        cfgs += [
            {"kind": "sweep-k", "sweep": "overlap", "k_values": ks,
             "label": a, "label_b": b, "grid": _grid(N)},
            {"kind": "sweep-k", "sweep": "left-operator", "k_values": ks,
             "label": _label(rng, 0.25), "grid": _grid(N)},
            {"kind": "sweep-k", "sweep": "commutativization", "k_values": ks,
             "observable": "x", "observable_b": "p", "grid": _grid(N)},
            {"kind": "sweep-k", "sweep": "bracket", "k_values": ks,
             "observable": "x^3", "observable_b": "p^3", "grid": _grid(N)},
            {"kind": "sweep-k", "sweep": "theta", "k_values": ks,
             "coset": _coset_block(rng), "grid": _grid(N)},
            {"kind": "coset", "k_values": ks, "coset": _coset_block(rng)},
        ]
    return cfgs


def pass_configs(workload: str, seed: int, small: bool = False) -> list[dict]:
    """The experiments of one pass, in their fixed order.

    `small` shrinks the pass for smoke tests: halved grids, and two k-sweep
    repeats instead of 17 (the sweeps keep N=1024, which the resolution
    guard needs at k=8). It keeps every experiment kind and every check.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "wigner-star":
        return _wigner_star(rng, 128 if small else 256)
    if workload == "evolve-pictures":
        return _evolve_pictures(rng, 128 if small else 256)
    if workload == "k-sweeps":
        return _k_sweeps(rng, 1024, 2 if small else 17)
    raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")


def warmup_config(workload: str, seed: int, small: bool = False) -> dict:
    """One uncounted experiment that runs before timing starts.

    It exercises the same kind of work as the pass, at a size small enough
    that set-up stays short.
    """
    first = pass_configs(workload, seed, small)
    if workload == "wigner-star":
        return {**first[0], "grid": _grid(64)}
    if workload == "evolve-pictures":
        return {**first[-1], "steps": 50}
    return first[0]
