"""Spans around the public functions of each optoforce layer, recorded from outside.

Wrappers are installed on the module attributes that callers look up at call
time.  ``cavityless`` and ``cavity`` bind ``gaussian`` names with ``from
.gaussian import ...``, so patching ``gaussian.tensor`` would intercept
nothing: state construction is observed at ``cavityless.initial_state`` and at
``GaussianState.__post_init__`` (a class attribute, found by every instance).

A span holds a name, a start, an end, its parent span and the op it belongs
to, plus one count (RK4 steps or bytes) where the layer has one.  Spans live
in flat in-memory arrays and are written out once, at the end of the run.
Self time is a span's duration minus the time its child spans cover; the
program is single-threaded, so the children of a span never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np


def _steps(args, kwargs, result) -> int:
    return args[0].n_steps


def _result_len(args, kwargs, result) -> int:
    return len(result)  # the emitters write ASCII only: characters are bytes


def _text_len(args, kwargs, result) -> int:
    return len(args[1])


# (module, attribute path, span name, layer, count of work done)
WRAPPED = (
    ("optoforce.gaussian", "GaussianState.__post_init__", "gaussian.GaussianState.validate", "gaussian", None),
    ("optoforce.cavityless", "initial_state", "cavityless.initial_state", "gaussian", None),
    ("optoforce.cavityless", "noise", "cavityless.noise", "cavityless", None),
    ("optoforce.cavityless", "closed_propagator", "cavityless.closed_propagator", "cavityless", None),
    ("optoforce.cavity", "minimize_noise_over_phi", "cavity.minimize_noise_over_phi", "cavity", None),
    ("optoforce.cavity", "scan_noise_over_phi", "cavity.scan_noise_over_phi", "cavity", None),
    ("optoforce.cavity", "noise", "cavity.noise", "cavity", None),
    ("optoforce.oracle", "integrate_moments", "oracle.integrate_moments", "oracle", _steps),
    ("optoforce.oracle", "integrate_propagator", "oracle.integrate_propagator", "oracle", _steps),
    ("optoforce.analysis", "run_sweep", "analysis.run_sweep", "analysis", None),
    ("optoforce.analysis", "validation_ledger", "analysis.validation_ledger", "analysis", None),
    ("optoforce.cli", "emit_curve", "cli.emit_curve", "cli", _result_len),
    ("optoforce.cli", "_atomic_write", "cli.write", "cli", _text_len),
    ("optoforce.cli", "main", "cli.main", "cli", None),
)

LAYERS = ("gaussian", "cavityless", "cavity", "oracle", "analysis", "cli")

# Every per-layer metric a traced run reports, with its unit, in print order.
PER_LAYER = (
    ("gaussian.GaussianState.constructions", "count"),
    ("gaussian.GaussianState.validate_s", "s"),
    ("cavityless.initial_state.calls", "count"),
    ("cavityless.initial_state.self_s", "s"),
    ("cavityless.noise.calls", "count"),
    ("cavityless.noise.self_s", "s"),
    ("cavityless.noise.us_per_call", "us"),
    ("cavityless.closed_propagator.calls", "count"),
    ("cavityless.closed_propagator.self_s", "s"),
    ("cavity.minimize_noise_over_phi.calls", "count"),
    ("cavity.minimize_noise_over_phi.self_s", "s"),
    ("cavity.scan_noise_over_phi.calls", "count"),
    ("cavity.scan_noise_over_phi.self_s", "s"),
    ("cavity.noise.calls", "count"),
    ("oracle.integrate_moments.calls", "count"),
    ("oracle.integrate_moments.self_s", "s"),
    ("oracle.integrate_moments.steps", "count"),
    ("oracle.integrate_moments.steps_per_s", "1/s"),
    ("oracle.integrate_propagator.calls", "count"),
    ("oracle.integrate_propagator.self_s", "s"),
    ("oracle.integrate_propagator.steps", "count"),
    ("oracle.integrate_propagator.steps_per_s", "1/s"),
    ("analysis.run_sweep.self_s", "s"),
    ("analysis.validation_ledger.self_s", "s"),
    ("analysis.spot_check.attempts", "count"),
    ("analysis.spot_check.passed", "count"),
    ("cli.emit_curve.calls", "count"),
    ("cli.emit_curve.self_s", "s"),
    ("cli.emit_curve.bytes", "B"),
    ("cli.emit_curve.mb_per_s", "MB/s"),
    ("cli.write.self_s", "s"),
    ("cli.write.bytes", "B"),
    ("cli.main.self_s", "s"),
    ("cli.import_s", "s"),
    *((f"layer.{layer}.share", "ratio") for layer in LAYERS),
    ("trace.run_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.ok = array("b")
        self.current_op = -1
        self.active = False
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every entry of WRAPPED; undone by ``uninstall``."""
        for module, path, name, layer, counter in WRAPPED:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self.layer_of[name] = layer
            setattr(owner, attr, self._wrap(original, name, counter))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, counter):
        nid = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(tracer.current_op)
            tracer.end.append(0.0)
            tracer.count.append(0)
            tracer.ok.append(0)
            tracer._stack.append(sid)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = time.perf_counter()
                tracer._stack.pop()
            tracer.ok[sid] = 1
            if counter is not None:
                tracer.count[sid] = counter(args, kwargs, result)
            return result

        return wrapper

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "count": np.frombuffer(self.count, dtype=np.int64),
            "ok": np.frombuffer(self.ok, dtype=np.int8),
        }

    def dump(self, path: str, ops: list[list[str]]) -> None:
        """Write every span, the span-name table and the op argv lists to one .npz."""
        np.savez_compressed(
            path, names=np.array(self.names),
            ops=np.array([" ".join(argv) for argv in ops]), **self.columns(),
        )


def breakdown(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans of one traced pass of ``run_s``."""
    col = tracer.columns()
    dur = col["end"] - col["start"]
    child = np.zeros_like(dur)
    has_parent = col["parent"] >= 0
    np.add.at(child, col["parent"][has_parent], dur[has_parent])
    self_s = dur - child

    def pick(name: str) -> np.ndarray:
        if name not in tracer.names:
            return np.zeros(len(dur), dtype=bool)
        return col["name"] == tracer.names.index(name)

    def stats(name: str) -> tuple[int, float, float, int]:
        m = pick(name)
        return int(m.sum()), float(self_s[m].sum()), float(dur[m].sum()), int(col["count"][m].sum())

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    out: dict[str, float] = {}
    calls, self_t, _, _ = stats("gaussian.GaussianState.validate")
    out["gaussian.GaussianState.constructions"] = calls
    out["gaussian.GaussianState.validate_s"] = self_t
    for name in ("cavityless.initial_state", "cavityless.closed_propagator",
                 "cavity.minimize_noise_over_phi", "cavity.scan_noise_over_phi"):
        calls, self_t, _, _ = stats(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_t
    calls, self_t, total, _ = stats("cavityless.noise")
    out["cavityless.noise.calls"] = calls
    out["cavityless.noise.self_s"] = self_t
    out["cavityless.noise.us_per_call"] = 1e6 * rate(total, calls)
    out["cavity.noise.calls"] = stats("cavity.noise")[0]
    for name in ("oracle.integrate_moments", "oracle.integrate_propagator"):
        calls, self_t, _, steps = stats(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_t
        out[f"{name}.steps"] = steps
        out[f"{name}.steps_per_s"] = rate(steps, self_t)
    out["analysis.run_sweep.self_s"] = stats("analysis.run_sweep")[1]
    out["analysis.validation_ledger.self_s"] = stats("analysis.validation_ledger")[1]

    # spot-checks: integrate_moments calls made under run_sweep; a failed
    # check aborts its sweep, so only those under sweeps that returned passed
    sweep = pick("analysis.run_sweep")
    moments = np.flatnonzero(pick("oracle.integrate_moments"))
    attempts = passed = 0
    for i in moments:
        j = col["parent"][i]
        while j >= 0 and not sweep[j]:
            j = col["parent"][j]
        if j >= 0:
            attempts += 1
            passed += int(col["ok"][j])
    out["analysis.spot_check.attempts"] = attempts
    out["analysis.spot_check.passed"] = passed

    calls, self_t, _, nbytes = stats("cli.emit_curve")
    out["cli.emit_curve.calls"] = calls
    out["cli.emit_curve.self_s"] = self_t
    out["cli.emit_curve.bytes"] = nbytes
    out["cli.emit_curve.mb_per_s"] = 1e-6 * rate(nbytes, self_t)
    _, self_t, _, nbytes = stats("cli.write")
    out["cli.write.self_s"] = self_t
    out["cli.write.bytes"] = nbytes
    out["cli.main.self_s"] = stats("cli.main")[1]

    for layer in LAYERS:
        names = [n for n, lay in tracer.layer_of.items() if lay == layer]
        out[f"layer.{layer}.share"] = rate(sum(stats(n)[1] for n in names), run_s)
    out["trace.run_s"] = run_s
    out["trace.spans"] = len(dur)
    return out
