"""optoforce end-to-end benchmark with a traced per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes a fixed list of ops (workloads.py); a fresh single-threaded
interpreter (child.py) runs them as a closed loop with one client, each op one
in-process ``optoforce.cli.main(argv)`` call.  After the workload process has
exited, every op's files are checked (checks.py) and removed.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the metrics, the end-to-end ones with ``--trace 0`` and the per-layer ones
(tracing.py) with ``--trace 1``.  The line before it records the environment
and the per-op details.  End-to-end metrics:

  setup_s        fresh interpreter to the first op being ready (import
                 optoforce.cli + build_parser), median of SETUP_SAMPLES
  run_s          wall time of the whole op list: time to certified results
  op_p50_s       median op latency
  op_tail_s      op-latency tail: the highest percentile with 10 ops beyond
                 it once a run holds 100 ops or more, and below that the
                 90th percentile with at least one op beyond it, so that one
                 stalled op does not set it (the details line gives the
                 percentile, the ops beyond it and the sample count)
  points_per_s   records written per second of run_s: curve rows, or
                 ledger verdicts on certify
  peak_rss_mb    ru_maxrss of the workload process
  success_ratio  ops that passed over ops attempted (1 - failed ratio); an op
                 fails on a nonzero exit, an escaped exception, an aborted
                 spot-check, an unhealthy ledger or a rejected output check

Exits 2 without a result when the checkout holds no optoforce sources, and 3
when the workload process fails or overruns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
# BLAS single-threaded, and one hash seed so that two workload processes lay
# out their dicts and sets alike
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "PYTHONHASHSEED": "0"}
PROBE = "import optoforce.cli as c; c.build_parser(); print('ready', flush=True)"

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "points_per_s": "1/s", "peak_rss_mb": "MB", "success_ratio": "ratio",
}


def child_env(root: str) -> dict:
    """The workload process's environment: BLAS pinned to one thread, src first."""
    env = dict(os.environ, **PIN)
    path = [os.path.join(root, "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    return env


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"seed": seed, "nproc": nproc, "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "child_env_pin": PIN}


def measure_setup(root: str, env: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE], cwd=root, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise RuntimeError("setup probe did not exit") from None
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed to import optoforce")
    return samples


def run_child(root: str, env: dict, ops, work: str, trace: int, spans: str | None) -> dict:
    ops_file = os.path.join(work, "ops.json")
    result_file = os.path.join(work, "result.json")
    with open(ops_file, "w") as fh:
        json.dump([op.argv("{out}") for op in ops], fh)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--ops", ops_file,
           "--out", work, "--result", result_file, "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process overran {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}: {err[-2000:]}")
    with open(result_file) as fh:
        return json.load(fh)


def digest(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)) if os.path.isdir(directory) else []:
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_pass(checks, ops, passed: dict, outdir: str) -> tuple[int, dict[int, str]]:
    """(records written, {op index: problem} for every failed op) of one pass."""
    points, problems = 0, {}
    for i, op in enumerate(ops):
        code = passed["exit_codes"][i]
        if code != 0:
            problems[i] = f"exit {code}: {passed['stderr'][i].strip()[-300:]}"
            continue
        try:
            points += checks.check_op(op, os.path.join(outdir, f"op{i}"))
        except (checks.CheckError, OSError) as exc:
            problems[i] = str(exc)
    return points, problems


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the op-latency tail.

    The highest percentile with ten samples beyond it needs 100 samples to be
    a tail at all; a run holds a dozen ops at most, where it would be a low
    percentile.  Below 100 samples the tail is the 90th percentile with at
    least one sample beyond it: the second-slowest op of a short run, which a
    single stall cannot move.
    """
    s = sorted(latencies)
    n = len(s)
    beyond = min(10, max(1, n // 10)) if n > 1 else 0
    return s[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "optoforce", "cli.py")):
        print("error: run from a checkout root holding src/optoforce", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import checks

    env = child_env(root)
    record = {"environment": environment(args.seed), "workload": args.workload}
    # a traced run measures the list twice (untraced, then traced): half the work
    ops = workloads.generate(args.workload, args.seed, args.seconds / (2 if args.trace else 1))
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    spans = os.path.join(outdir, f"spans-{args.workload}-seed{args.seed}.npz") if args.trace else None
    work = tempfile.mkdtemp(prefix="run-", dir=outdir)
    try:
        setup = [] if args.trace else measure_setup(root, env)
        res = run_child(root, env, ops, work, args.trace, spans)
        here = os.path.realpath(os.path.join(root, "src", "optoforce"))
        if os.path.dirname(os.path.realpath(res["optoforce"])) != here:
            print(f"error: benchmarked {res['optoforce']}, not this checkout", file=sys.stderr)
            return 3
        problems = {}  # (pass, op index) -> why the op failed
        points = 0
        for name, passed in res["passes"].items():
            n, bad = check_pass(checks, ops, passed, os.path.join(work, name))
            points = n if name == "plain" else points
            problems.update(((name, i), why) for i, why in bad.items())
        for i in range(len(ops) if args.trace else 0):
            if digest(os.path.join(work, "plain", f"op{i}")) != digest(os.path.join(work, "traced", f"op{i}")):
                problems.setdefault(("traced", i), "outputs differ from the untraced pass")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = res["passes"]["plain"]
    attempted = len(ops) * len(res["passes"])
    failed = len(problems)
    lat = plain["latency_s"]
    tail_s, tail_pct, tail_beyond = tail(lat)
    if args.trace:
        metrics = dict(res["breakdown"])
        metrics["cli.import_s"] = res["import_s"]
        metrics["trace.overhead_ratio"] = res["passes"]["traced"]["run_s"] / plain["run_s"] - 1.0
        import tracing
        units = dict(tracing.PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": plain["run_s"],
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_s,
            "points_per_s": points / plain["run_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "success_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    record["details"] = {
        "ops": len(ops), "passes": list(res["passes"]), "op_latency_s": lat,
        "op_tail_percentile": tail_pct, "op_tail_beyond": tail_beyond,
        "op_tail_samples": len(lat),
        "setup_samples_s": setup, "records_written": points,
        "problems": [f"{name} op{i}: {why}" for (name, i), why in problems.items()],
        "argv": [" ".join(op.argv("{out}")) for op in ops],
    }
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(record, result=result), fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
