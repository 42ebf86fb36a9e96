"""Workload process: runs one fixed op list as a closed loop with one client.

Started by run.py in a fresh single-threaded interpreter.  Each op is one
in-process ``optoforce.cli.main(argv)`` call, and the next op starts only when
the previous one has returned.  Ops write into ``<out>/<pass>/op<i>``; run.py
checks those files after this process has exited, so the checks neither add
to op latency nor to this process's peak RSS.

Untraced (``--trace 0``): one pass, the end-to-end numbers.
Traced (``--trace 1``): the same op list once untraced and once traced, which
gives the tracing overhead and two copies of every output to compare byte for
byte; the per-layer numbers come from the traced pass only.

Usage: python3 child.py --ops OPS.json --out DIR --result RESULT.json --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import tracing


def run_pass(cli, ops: list[list[str]], outdir: str, tracer=None) -> dict:
    """Run every op once, in order; returns latencies, exit codes and stderr."""
    latencies, codes, errors = [], [], []
    start = time.perf_counter()
    for i, argv in enumerate(ops):
        argv = [a.replace("{out}", os.path.join(outdir, f"op{i}")) for a in argv]
        if tracer is not None:
            tracer.current_op = i
        sink, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code
        except Exception as exc:  # an escaped traceback is a failed op, not a crash
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        codes.append(code)
        errors.append(err.getvalue()[-2000:])
    return {"run_s": time.perf_counter() - start, "latency_s": latencies,
            "exit_codes": codes, "stderr": errors}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the traced pass's spans (.npz)")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import optoforce.cli as cli
    import_s = time.perf_counter() - t0
    cli.build_parser()

    with open(args.ops) as fh:
        ops = json.load(fh)
    result = {"optoforce": os.path.abspath(cli.__file__), "import_s": import_s,
              "passes": {"plain": run_pass(cli, ops, os.path.join(args.out, "plain"))}}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
        try:
            traced = run_pass(cli, ops, os.path.join(args.out, "traced"), tracer)
        finally:
            tracer.active = False
            tracer.uninstall()
        result["passes"]["traced"] = traced
        result["breakdown"] = tracing.breakdown(tracer, traced["run_s"])
        if args.spans:
            tracer.dump(args.spans, ops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
