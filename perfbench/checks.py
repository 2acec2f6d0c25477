"""Output checks, one per experiment, at the acceptance tolerances.

Each check reads what `wwgm.cli.run` wrote and compares it with closed
forms: `wwgm.analytic_oracle` and hand formulas. Nothing here calls the
grid, star-product or evolution code, so a wrong result cannot check
itself. `check(cfg, out_dir)` returns a list of problems; empty means pass.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from wwgm.analytic_oracle import (
    oracle_coherent_overlap,
    oracle_contracted_overlap,
    oracle_polynomial_star,
    oracle_quadratic_flow,
)

ACCEPT_TOL = 1e-6        # overlaps, trace, residuals, sweep closed forms
PEAK_TOL = 1e-4          # quarter-turn peak
DENSITY_IMAG_TOL = 1e-8  # max imaginary part / max magnitude of a density
DRIFT_TOL = {"schrodinger": 1e-6, "liouville": 1e-8, "classical-liouville": 1e-8}
ENERGY_DRIFT_TOL = 1e-6
SLOPES = {"commutativization": ("product_deviation", -2.0, 0.05),
          "bracket": ("bracket_error", -4.0, 0.1),
          "theta": ("theta_rate", -2.0, 0.05)}


def _axis(grid: dict) -> np.ndarray:
    N, L = int(grid["N"]), float(grid["L"])
    return -L + (2.0 * L / N) * np.arange(N)


def _csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as f:
        head = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    return head, data


def _close(got: float, want: float, tol: float, what: str) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{what}: got {got!r}, want {want!r} (tolerance {tol:g})"]
    return []


# ---------------------------------------------------------------------------
# coherent
# ---------------------------------------------------------------------------

def _load_state(path: Path, grid: dict) -> np.ndarray:
    raw = path.read_bytes()
    n, N, L = struct.unpack("<IId", raw[:16])
    if (n, N, L) != (1, grid["N"], grid["L"]):
        raise ValueError(f"state.bin header {(n, N, L)} does not match the config grid")
    return np.frombuffer(raw[16:], dtype="<c16").reshape(N, N)


def _check_coherent(cfg: dict, out: Path) -> list[str]:
    grid = cfg["grid"]
    pa, xa = cfg["label"]["p"][0], cfg["label"]["x"][0]
    axis = _axis(grid)
    h = axis[1] - axis[0]
    P, X = np.meshgrid(axis, axis, indexing="ij")
    phi = _load_state(out / "state.bin", grid)

    problems = []
    # <b|phi> by quadrature against the closed form, for b at and around a
    for dp, dx in ((0.0, 0.0), (0.5, 0.0), (0.0, -0.5), (-0.25, 0.75)):
        pb, xb = pa + dp, xa + dx
        phi_b = np.exp(1j * (pb * X - xb * P) - 0.5 * ((P - pb) ** 2 + (X - xb) ** 2))
        got = complex(np.sum(np.conj(phi_b) * phi) * h * h / math.pi)
        want = oracle_coherent_overlap((pa, xa), (pb, xb))
        if abs(got - want) > ACCEPT_TOL * abs(want):
            problems.append(f"overlap with label ({pb}, {xb}): {got} vs {want}")

    head, data = _csv(out / "wigner.csv")
    if head != ["p", "x", "re", "im"] or data.shape != (len(axis) ** 2, 4):
        return problems + [f"wigner.csv has header {head} and shape {data.shape}"]
    re, im = data[:, 2], data[:, 3]
    scale = float(np.max(np.hypot(re, im)))
    if float(np.max(np.abs(im))) > DENSITY_IMAG_TOL * scale:
        problems.append(f"wigner.csv not real: max |im| {np.max(np.abs(im)):.3e}")
    trace = float(np.sum(re)) * h * h / (4.0 * math.pi)
    problems += _close(trace, 1.0, ACCEPT_TOL, "wigner trace")
    top = int(np.argmax(np.hypot(re, im)))
    node = (data[top, 0], data[top, 1])
    # ties between two nodes equidistant from the centre are both correct
    for got, want, what in ((node[0], 2 * pa, "p"), (node[1], 2 * xa, "x")):
        if abs(got - want) > 0.5 * h + 1e-12:
            problems.append(f"wigner peak {what}={got} is not the node nearest {want}")
    return problems


# ---------------------------------------------------------------------------
# star-check
# ---------------------------------------------------------------------------

def _check_star(cfg: dict, out: Path) -> list[str]:
    report = json.loads((out / "report.json").read_text())
    problems = []
    for key in ("identity_residual", "commutator_residual", "associativity_residual",
                "method_agreement"):
        if not report[key] <= ACCEPT_TOL:
            problems.append(f"{key} = {report[key]!r} > {ACCEPT_TOL:g}")
    return problems


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def _check_evolve(cfg: dict, out: Path) -> list[str]:
    head, rows = _csv(out / "trajectory.csv")
    if head != ["t", "norm", "energy", "peak_p", "peak_x"]:
        return [f"trajectory.csv header {head}"]
    t_end = cfg["dt"] * cfg["steps"]
    final = rows[-1]
    problems = _close(final[0], t_end, 1e-12, "final time")
    picture = cfg["picture"]
    h = 2.0 * cfg["grid"]["L"] / cfg["grid"]["N"]
    flow = "harmonic" if cfg["hamiltonian"] == "harmonic" else "free"

    if picture in DRIFT_TOL:
        norms = rows[:, 1]
        tol = DRIFT_TOL[picture] * max(1.0, abs(norms[0]))
        problems += _close(float(np.max(np.abs(norms - norms[0]))), 0.0, tol, "norm drift")
        energies = rows[:, 2]
        problems += _close(float(np.max(np.abs(energies - energies[0]))), 0.0,
                           ENERGY_DRIFT_TOL, "energy drift")

    if picture == "schrodinger":
        # the wavefunction peaks at the label, which follows the classical flow
        x, p = oracle_quadratic_flow(flow, cfg["label"]["x"][0], cfg["label"]["p"][0], t_end)
        problems += _close(final[3], p, PEAK_TOL, "final peak p")
        problems += _close(final[4], x, PEAK_TOL, "final peak x")
        snaps = sorted((out / "snapshots").glob("state_*.bin"))
        want = cfg["steps"] // cfg["save_every"] + 1
        if len(snaps) != want:
            problems.append(f"{len(snaps)} snapshots, want {want}")
    elif picture in ("liouville", "classical-liouville"):
        # the density sits at twice the label and is carried by the flow.
        # peak() is exact for axis-aligned Gaussians (the rotated one); the
        # free flow shears it, and then the grid argmax and its axis-wise
        # refinement can sit about a grid step from the centre (up to 1.12 h
        # at shear t = 1); allow (1 + t) h
        x, p = oracle_quadratic_flow(flow, 2 * cfg["label"]["x"][0],
                                     2 * cfg["label"]["p"][0], t_end)
        tol = PEAK_TOL if flow == "harmonic" else (1.0 + t_end) * h
        problems += _close(final[3], p, tol, "final density peak p")
        problems += _close(final[4], x, tol, "final density peak x")
    elif cfg.get("observable") == "gaussian":
        # alpha(t) = alpha(0) composed with the flow: its peak runs backwards
        prm = cfg["observable_params"]
        x, p = oracle_quadratic_flow(flow, prm["x0"], prm["p0"], -t_end)
        problems += _close(final[3], p, PEAK_TOL, "final observable peak p")
        problems += _close(final[4], x, PEAK_TOL, "final observable peak x")
    else:
        # x(t) = x(flow of (x, p) by t); its sup over the grid is the norm column
        axis = _axis(cfg["grid"])
        cx, _ = oracle_quadratic_flow(flow, 1.0, 0.0, t_end)
        sx, _ = oracle_quadratic_flow(flow, 0.0, 1.0, t_end)
        sup = float(np.max(np.abs(cx * axis[None, :] + sx * axis[:, None])))
        problems += _close(final[1], sup, ACCEPT_TOL * sup, "observable sup-norm")
    return problems


# ---------------------------------------------------------------------------
# sweeps and coset tables
# ---------------------------------------------------------------------------

def _monomial(name: str) -> tuple[int, int]:
    """(p exponent, x exponent) of a catalog monomial name such as 'x^2*p'."""
    exps = {"p": 0, "x": 0}
    for part in name.split("*"):
        var, _, power = part.partition("^")
        exps[var] += int(power or 1)
    return exps["p"], exps["x"]


def _poly_sup(coeffs: dict, axis: np.ndarray) -> float:
    P, X = axis[:, None], axis[None, :]
    total = np.zeros((len(axis), len(axis)), dtype=complex)
    for (i, j), c in coeffs.items():
        total += c * P ** i * X ** j
    return float(np.max(np.abs(total)))


def _sub(a: dict, b: dict, scale_a: complex = 1.0) -> dict:
    out = {key: scale_a * c for key, c in a.items()}
    for key, c in b.items():
        out[key] = out.get(key, 0.0) - c
    return out


def _closed_form(cfg: dict, k: float, axis: np.ndarray) -> dict[str, float]:
    """Closed forms of the sweep columns at one k."""
    sweep, c = cfg["sweep"], 1.0 / k ** 2
    if sweep == "overlap":
        a, b = cfg["label"], cfg["label_b"]
        val = oracle_contracted_overlap((a["p"], a["x"]), (b["p"], b["x"]), k)
        return {"numeric": abs(val), "closed_form": abs(val)}
    if sweep == "left-operator":
        pa, xa = cfg["label"]["p"][0], cfg["label"]["x"][0]
        # ||(1/k^2) d_p psi|| / ||psi|| for a width-1/k Gaussian at (pa, xa)
        return {"residual_x": math.sqrt(xa ** 2 + 0.5 * c),
                "residual_p": math.sqrt(pa ** 2 + 0.5 * c)}
    if sweep == "theta":
        co = cfg["coset"]
        pt = co["point"]
        base = abs(-co["xbar"][0] * pt["p"][0] + co["pbar"][0] * pt["x"][0])
        return {"theta_rate": base * c, "closed_form": base * c}
    ia, ja = _monomial(cfg["observable"])
    ib, jb = _monomial(cfg["observable_b"])
    ab = oracle_polynomial_star((1.0, ia, ja), (1.0, ib, jb), c)
    ba = oracle_polynomial_star((1.0, ib, jb), (1.0, ia, ja), c)
    if sweep == "commutativization":
        pointwise = {(ia + ib, ja + jb): 1.0}
        return {"product_deviation": _poly_sup(_sub(ab, pointwise), axis),
                "commutator_norm": _poly_sup(_sub(ab, ba), axis)}
    # bracket: (k^2/2i)(a*b - b*a) against {a, b} = (ja*ib - ia*jb) p^.. x^..
    pb = {}
    if ja * ib - ia * jb and ia + ib >= 1 and ja + jb >= 1:
        pb[(ia + ib - 1, ja + jb - 1)] = float(ja * ib - ia * jb)
    scaled = {key: v / (2j * c) for key, v in _sub(ab, ba).items()}
    return {"bracket_error": _poly_sup(_sub(scaled, pb), axis)}


def _check_sweep(cfg: dict, out: Path) -> list[str]:
    head, rows = _csv(out / "sweep.csv")
    summary = json.loads((out / "summary.json").read_text())
    problems = []
    if [float(k) for k in rows[:, 0]] != [float(k) for k in cfg["k_values"]]:
        return [f"sweep.csv k column {rows[:, 0].tolist()} != {cfg['k_values']}"]
    axis = _axis(cfg["grid"])
    for row in rows:
        k = row[0]
        for key, want in _closed_form(cfg, k, axis).items():
            got = row[head.index(key)]
            if not abs(got - want) <= ACCEPT_TOL * abs(want):
                problems.append(f"k={k:g} {key}: {got!r} vs closed form {want!r}")
    if cfg["sweep"] in SLOPES:
        key, slope, tol = SLOPES[cfg["sweep"]]
        fit = summary["fits"].get(key)
        if fit is None:
            problems.append(f"no slope fit for {key}")
        else:
            problems += _close(fit["slope"], slope, tol, f"{key} slope")
    return problems


def _check_coset(cfg: dict, out: Path) -> list[str]:
    co = cfg["coset"]
    pbar, xbar, tbar = co["pbar"][0], co["xbar"][0], co["thetabar"]
    w = co["omega"][0][0]
    p, x, th = co["point"]["p"][0], co["point"]["x"][0], co["point"]["theta"]
    head, rows = _csv(out / "coset_phase.csv")
    problems = []
    if rows[:, 0].tolist() != [float(k) for k in cfg["k_values"]]:
        return [f"coset_phase.csv k column {rows[:, 0].tolist()}"]
    for k, *row in rows:
        want = [p, x, th, w * p + pbar, w * x + xbar, (-xbar * p + pbar * x) / k ** 2 + tbar]
        for name, got, exp in zip(head[1:], row, want):
            problems += _close(got, exp, 1e-12 * max(1.0, abs(exp)), f"k={k:g} {name}")
    head, rows = _csv(out / "coset_config.csv")
    for name, got, exp in zip(head, rows[0], [x, th, w * x + xbar, pbar * x + tbar]):
        problems += _close(got, exp, 1e-12 * max(1.0, abs(exp)), f"config {name}")
    return problems


_CHECKS = {
    "coherent": _check_coherent,
    "star-check": _check_star,
    "evolve": _check_evolve,
    "sweep-k": _check_sweep,
    "coset": _check_coset,
}


def check(cfg: dict, out_dir) -> list[str]:
    """Problems found in the outputs of one experiment (empty: correct)."""
    out = Path(out_dir)
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        missing = [name for name in manifest["outputs"] if not (out / name).is_file()]
        if missing:
            return [f"outputs listed in manifest.json are missing: {missing}"]
        return _CHECKS[cfg["kind"]](cfg, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError, struct.error) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
