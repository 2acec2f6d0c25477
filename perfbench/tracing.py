"""Span tracing of the wwgm layers, installed from outside the package.

`Tracer.install()` replaces every public function of each layer module by a
timing wrapper at the place where callers look it up: the module attribute
in every wwgm module that imported it, the entries of the CLI dispatch
table, and a few methods on their classes. It also wraps the transforms of
`numpy.fft`. `uninstall()` puts every original back. No file of the
package is changed.

A span is (name, layer, start, end, parent, info, phase). Spans are kept
in memory and written out when the run ends. Counters (FFT calls and
points, operand bytes, `getrusage` deltas) are charged to the layer of the
innermost open span, so each layer's share is its self share.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time

import numpy as np

#: wwgm module -> layer it is reported under
LAYER_OF = {
    "wwgm.cli": "cli",
    "wwgm.phase_space": "phase_space",
    "wwgm._spectral": "phase_space",
    "wwgm.catalog": "phase_space",
    "wwgm.star_algebra": "star_algebra",
    "wwgm._poly": "star_algebra",
    "wwgm.dynamics": "dynamics",
    "wwgm.contraction_lab": "contraction_lab",
    "wwgm.heisenberg_group": "heisenberg_group",
}
LAYERS = ("cli", "phase_space", "star_algebra", "dynamics", "contraction_lab",
          "heisenberg_group")

#: functions whose second argument is the path of a data file they write;
#: their spans are reported as `cli.write`
WRITERS = ("export_csv", "save_phase_function", "export_trajectory_csv", "to_csv")

FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
             "rfft", "irfft", "rfftn", "irfftn")

EVOLVE_PICTURES = {
    "schrodinger_evolve": "schrodinger",
    "liouville_evolve": "liouville",
    "classical_liouville_evolve": "classical-liouville",
    "heisenberg_evolve": "heisenberg",
    "classical_heisenberg_evolve": "classical-heisenberg",
}

#: relative threshold for counting a first-factor x-mode as occupied
BAND_FLOOR = 1e-14


def _nbytes(obj) -> int:
    """Bytes of the arrays an argument or result carries (shallow)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    values = getattr(obj, "values", None)
    if isinstance(values, np.ndarray):
        return values.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj[:8])
    return 0


def _star_path(alpha, beta, method) -> str:
    if alpha.poly is not None and beta.poly is not None:
        return "poly"
    if alpha.poly is not None or beta.poly is not None:
        return "series"
    if method is not None and method.variant == "series":
        return "series"
    return "spectral"


def band_fraction(values: np.ndarray, fftn) -> float:
    """Share of the x-modes of a 1-d-grid factor above BAND_FLOOR relative."""
    mags = np.abs(fftn(values))
    per_mode = mags.reshape(-1, mags.shape[-1]).max(axis=0)
    return float(np.count_nonzero(per_mode > BAND_FLOOR * per_mode.max())) / len(per_mode)


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self.spans: list[list] = []       # [name, layer, start, end, parent, info, phase]
        self.counters: dict[tuple[str, str], float] = {}
        self.phase = "pass"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._fft = {name: getattr(np.fft, name) for name in FFT_NAMES}
        self._last = resource.getrusage(resource.RUSAGE_SELF)

    # -- span bookkeeping -------------------------------------------------
    def _count(self, layer: str, key: str, amount: float) -> None:
        if self.phase == "pass":
            k = (layer, key)
            self.counters[k] = self.counters.get(k, 0.0) + amount

    def _charge(self) -> None:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        if self._stack:
            layer = self.spans[self._stack[-1]][1]
            last = self._last
            self._count(layer, "cpu_user_s", ru.ru_utime - last.ru_utime)
            self._count(layer, "cpu_sys_s", ru.ru_stime - last.ru_stime)
            self._count(layer, "minor_faults", ru.ru_minflt - last.ru_minflt)
        self._last = ru

    def _enter(self, name: str, layer: str, info: dict) -> int:
        self._charge()
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, layer, 0.0, 0.0, parent, info, self.phase])
        self._stack.append(idx)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._charge()
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------
    def wrap(self, fn, name: str, layer: str, before=None, after=None):
        """`before(args, kwargs) -> info` runs outside the span's clock;
        `after(args, info)` runs once the call has returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = before(args, kwargs) if before else {}
            idx = tracer._enter(name, layer, info)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if after:
                after(args, info)
            tracer._count(layer, "bytes_moved_computed",
                          sum(_nbytes(a) for a in args) + _nbytes(result))
            tracer._count(layer, "calls", 1)
            return result

        return traced

    def _wrap_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if tracer._stack:
                layer = tracer.spans[tracer._stack[-1]][1]
                size = np.size(a)
                tracer._count(layer, "fft_calls", 1)
                tracer._count(layer, "fft_points", size)
                tracer._count(layer, "bytes_moved_computed",
                              getattr(a, "nbytes", 16 * size) + out.nbytes)
            return out

        return counted

    def _info_for(self, fname: str):
        """(before, after) hooks that attach the inputs a metric needs."""
        if fname == "star":
            def before(args, kwargs):
                alpha, beta = args[0], args[1]
                method = args[2] if len(args) > 2 else kwargs.get("method")
                info = {"path": _star_path(alpha, beta, method), "N": alpha.grid.N}
                if info["path"] == "spectral" and self.phase == "pass":
                    info["band"] = band_fraction(alpha.values, self._fft["fftn"])
                return info
            return before, None
        if fname == "run":
            def before(args, kwargs):
                cfg = args[0]
                return {"kind": cfg.kind, "sweep": cfg.sweep,
                        "nk": len(cfg.k_values or ())}
            return before, None
        if fname == "wigner":
            return (lambda args, kwargs: {"N": args[0].grid.N}), None
        if fname in EVOLVE_PICTURES:
            def before(args, kwargs):
                picture = EVOLVE_PICTURES[fname]
                if picture == "heisenberg" and args[0].poly is not None:
                    picture = "heisenberg-poly"
                return {"picture": picture, "steps": args[2].steps, "N": args[0].grid.N}
            return before, None
        if fname in WRITERS:
            def after(args, info):
                info["bytes"] = os.path.getsize(args[1])
            return None, after
        return None, None

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the layers and numpy.fft; the package must be imported."""
        modules = {m: sys.modules[m] for m in LAYER_OF if m in sys.modules}
        wrapped: dict[int, object] = {}
        for modname, mod in modules.items():
            layer = LAYER_OF[modname]
            for fname, fn in vars(mod).items():
                if fname.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != modname:
                    continue
                before, after = self._info_for(fname)
                if fname in WRITERS:
                    wrapped[id(fn)] = self.wrap(fn, f"cli.write.{fname}", "cli", before, after)
                else:
                    wrapped[id(fn)] = self.wrap(fn, f"{layer}.{fname}", layer, before, after)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._patch(mod, attr, wrapped[id(value)])

        cli = modules["wwgm.cli"]
        for kind, fn in list(cli._RUNNERS.items()):
            self._patches.append((cli._RUNNERS, kind, fn))
            cli._RUNNERS[kind] = self.wrap(fn, f"cli.dispatch.{kind}", "cli")
        self._patch(cli, "_manifest", self.wrap(cli._manifest, "cli.manifest", "cli"))
        for meth in ("make_grid", "make_label", "make_generator", "make_method",
                     "make_evolution"):
            fn = cli.ExperimentConfig.__dict__[meth]
            self._patch(cli.ExperimentConfig, meth, self.wrap(fn, f"cli.config.{meth}", "cli"))
        pf = modules["wwgm.phase_space"].PhaseFunction
        self._patch(pf, "peak", self.wrap(pf.__dict__["peak"], "phase_space.peak",
                                          "phase_space"))
        table = modules["wwgm.contraction_lab"].SweepTable
        before, after = self._info_for("to_csv")
        self._patch(table, "to_csv", self.wrap(table.__dict__["to_csv"], "cli.write.to_csv",
                                               "cli", before, after))
        for name, fn in self._fft.items():
            self._patch(np.fft, name, self._wrap_fft(fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Dump spans as JSON records (name, layer, start, end, parent, info, phase)."""
        keys = ("name", "layer", "start", "end", "parent", "info", "phase")
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)
