"""Metric derivation: end-to-end figures of a pass, per-layer figures of a trace.

Per-call timings (`*_s` named after a function) are medians over the calls
in the traced pass; `cli.write_s`, counts and module counters are totals
over the pass. A timing whose function did not run on the workload is 0.
"""

from __future__ import annotations

import statistics

from .tracing import LAYERS

SPECTRAL_N = (64, 128, 256, 512)
WIGNER_N = (256, 512)
SCHRODINGER_N = (128, 256, 512)
PICTURES = ("schrodinger", "liouville", "classical-liouville", "heisenberg",
            "heisenberg-poly")
PER_K_SWEEPS = ("overlap", "left-operator", "commutativization", "bracket")
MODULE_COUNTERS = (("fft_calls", "count"), ("fft_points", "count"),
                   ("bytes_moved_computed", "bytes"), ("minor_faults", "count"),
                   ("cpu_user_s", "s"), ("cpu_sys_s", "s"))


def pass_metrics(wall_s: float, latencies: list[float]) -> dict[str, float]:
    """End-to-end figures of one pass of a closed loop with one client."""
    return {
        "wall_s": wall_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "latency_max_s": max(latencies),
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list], counters: dict, traced_wall: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of one traced pass plus the curves."""
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
            root[i] = root[s[4]]
    own = [d - c for d, c in zip(dur, child)]
    in_pass = [i for i, s in enumerate(spans) if s[6] == "pass"]
    named = lambda name, ids=in_pass: [i for i in ids if spans[i][0] == name]
    info = lambda i: spans[i][5]

    out: dict[str, tuple[float, str]] = {}
    runs = named("cli.run")
    writes = [i for i in in_pass if spans[i][0].startswith("cli.write.")]
    out["cli.run_self_s"] = (_median(own[i] for i in runs), "s")
    out["cli.write_s"] = (sum(dur[i] for i in writes), "s")
    out["cli.bytes_written"] = (float(sum(info(i)["bytes"] for i in writes)), "bytes")

    out["phase_space.coherent_state_s"] = (
        _median(dur[i] for i in named("phase_space.coherent_state")), "s")
    out["phase_space.peak_s"] = (_median(dur[i] for i in named("phase_space.peak")), "s")
    out["phase_space.calls"] = (counters.get(("phase_space", "calls"), 0.0), "count")

    stars = named("star_algebra.star")
    for path in ("poly", "series", "spectral"):
        out[f"star_algebra.star_calls.{path}"] = (
            float(sum(info(i)["path"] == path for i in stars)), "count")
    all_stars = named("star_algebra.star", range(len(spans)))
    for N in SPECTRAL_N:
        out[f"star_algebra.spectral_s.N{N}"] = (_median(
            dur[i] for i in all_stars
            if info(i)["path"] == "spectral" and info(i)["N"] == N), "s")
    for N in WIGNER_N:
        out[f"star_algebra.wigner_s.N{N}"] = (_median(
            dur[i] for i in named("star_algebra.wigner") if info(i)["N"] == N), "s")
    bands = [info(i)["band"] for i in stars if "band" in info(i)]
    out["star_algebra.input_band_frac"] = (sum(bands) / len(bands) if bands else 0.0, "frac")

    evolves = [i for i in in_pass if "picture" in info(i)]
    for picture in PICTURES:
        out[f"dynamics.step_s.{picture}"] = (_median(
            own[i] / info(i)["steps"] for i in evolves if info(i)["picture"] == picture), "s")
    curve_evolves = [i for i, s in enumerate(spans)
                     if s[6] == "curve" and info(i).get("picture") == "schrodinger"]
    for N in SCHRODINGER_N:
        out[f"dynamics.step_s.schrodinger.N{N}"] = (_median(
            own[i] / info(i)["steps"] for i in curve_evolves if info(i)["N"] == N), "s")
    out["dynamics.steps"] = (float(sum(info(i)["steps"] for i in evolves)), "count")

    lab_time: dict[int, float] = {}
    for i in in_pass:
        s = spans[i]
        if s[1] == "contraction_lab" and spans[s[4]][1] != "contraction_lab":
            lab_time[root[i]] = lab_time.get(root[i], 0.0) + dur[i]
    for sweep in PER_K_SWEEPS:
        out[f"contraction_lab.per_k_s.{sweep}"] = (_median(
            lab_time.get(i, 0.0) / info(i)["nk"] for i in runs
            if info(i)["sweep"] == sweep), "s")
    out["contraction_lab.contracted_state_s"] = (
        _median(dur[i] for i in named("contraction_lab.contracted_coherent_state")), "s")

    flows = (named("heisenberg_group.phase_space_coset_flow")
             + named("heisenberg_group.config_coset_flow"))
    out["heisenberg_group.coset_flow_calls"] = (float(len(flows)), "count")
    out["heisenberg_group.coset_flow_s"] = (_median(dur[i] for i in flows), "s")

    for layer in LAYERS:
        for key, unit in MODULE_COUNTERS:
            out[f"{layer}.{key}"] = (float(counters.get((layer, key), 0.0)), unit)

    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    covered = sum(dur[i] for i in in_pass if spans[i][4] < 0)
    out["trace.coverage_frac"] = (covered / traced_wall, "frac")
    return out
