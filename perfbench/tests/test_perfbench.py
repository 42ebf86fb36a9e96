"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import optoforce.cli as cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small_op(model: str, fmt: str) -> workloads.Op:
    """A sweep of 41 points whose RK4 checks are cheap."""
    if model == "cavityless":
        params = {"theta_over_chi": 1.2, "omega_over_theta": 7.5}
        phys = ("--theta-over-chi", "1.2", "--omega-over-theta", "7.5")
    else:
        params = {"g_alpha_over_omega": 0.3}
        phys = ("--g-alpha-over-omega", "0.3")
    args = ("--model", model, "--format", fmt, *phys, "--s", "1.0", "--n-th", "300.0",
            "--points", "41")
    return workloads.Op("sweep", args, f"sweep.{fmt}", model, fmt, 41, 1.0, 300.0, params, 7)


def run_ops(ops, outdir, tracer=None) -> dict:
    return child.run_pass(cli, [op.argv("{out}") for op in ops], outdir, tracer)


@pytest.mark.parametrize("model,fmt", [("cavityless", "csv"), ("cavity", "json")])
def test_corrupted_row_is_a_failed_op(tmp_path, model, fmt):
    ops = [small_op(model, fmt)]
    passed = run_ops(ops, str(tmp_path))
    assert run.check_pass(checks, ops, passed, str(tmp_path)) == (41, {})

    # nudge the noise of row 20 by 1e-9 relative: a plausible, well-formed value
    path = tmp_path / "op0" / ops[0].out
    if fmt == "csv":
        lines = path.read_text().split("\n")
        fields = lines[21].split(",")
        fields[2] = format(float(fields[2]) * (1 + 1e-9), ".17g")
        lines[21] = ",".join(fields)
        path.write_text("\n".join(lines))
    else:
        doc = json.loads(path.read_text())
        doc["records"][20]["noise"] *= 1 + 1e-9
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    points, problems = run.check_pass(checks, ops, passed, str(tmp_path))
    assert list(problems) == [0] and "inconsistent" in problems[0]


def test_missing_file_and_nonzero_exit_are_failed_ops(tmp_path):
    ops = [small_op("cavityless", "csv")]
    passed = run_ops(ops, str(tmp_path))
    os.remove(tmp_path / "op0" / "sweep.csv")
    assert list(run.check_pass(checks, ops, passed, str(tmp_path))[1]) == [0]
    passed["exit_codes"] = [1]
    assert "exit 1" in run.check_pass(checks, ops, passed, str(tmp_path))[1][0]


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == dict(tracing.PER_LAYER)
    names = [*e2e, *layer, *(w["name"] for w in spec["workloads"])]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_one_seed_always_generates_the_same_workload():
    script = ("import sys, json; sys.path.insert(0, sys.argv[1]); import workloads; "
              "print(json.dumps({w: [o.argv('{out}') for o in workloads.generate(w, 5, 20)] "
              "for w in workloads.WORKLOADS}))")
    fresh = json.loads(subprocess.run([sys.executable, "-c", script, BENCH], check=True,
                                      capture_output=True, text=True).stdout)
    for name in workloads.WORKLOADS:
        ops = workloads.generate(name, 5, 20)
        assert ops == workloads.generate(name, 5, 20)
        assert [op.argv("{out}") for op in ops] == fresh[name]
        assert ops != workloads.generate(name, 6, 20)
        for op in ops:
            p = op.params
            assert 1.01 <= p.get("theta_over_chi", 1.1) <= 1.2
            assert 6.0 <= p.get("omega_over_theta", 10.0) <= 20.0
            assert 0.05 <= p.get("g_alpha_over_omega", 0.1) <= 0.5
            assert op.s in workloads.S_VALUES and op.n_th in workloads.N_TH_VALUES


def test_tracing_on_and_off_write_identical_outputs(tmp_path):
    ops = [small_op("cavityless", "csv"), small_op("cavity", "json")]
    plain = run_ops(ops, str(tmp_path / "plain"))
    originals = (cli.main, cli.emit_curve, cli.analysis.run_sweep)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        traced = run_ops(ops, str(tmp_path / "traced"), tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert (cli.main, cli.emit_curve, cli.analysis.run_sweep) == originals
    assert plain["exit_codes"] == traced["exit_codes"] == [0, 0]
    for i in range(len(ops)):
        assert run.digest(str(tmp_path / "plain" / f"op{i}")) == run.digest(
            str(tmp_path / "traced" / f"op{i}"))

    m = tracing.breakdown(tracer, traced["run_s"])
    assert set(m) | {"cli.import_s", "trace.overhead_ratio"} == set(dict(tracing.PER_LAYER))
    # the wrappers sit where callers look names up: each layer saw its calls
    assert m["cavityless.noise.calls"] >= 41 and m["cavityless.initial_state.calls"] >= 41
    assert m["gaussian.GaussianState.constructions"] >= 4 * 41
    assert m["cavity.minimize_noise_over_phi.calls"] >= 41
    assert m["analysis.spot_check.attempts"] == m["analysis.spot_check.passed"] == 10
    assert m["cli.emit_curve.calls"] == 2 and m["cli.emit_curve.bytes"] == m["cli.write.bytes"]
    assert 0.99 < sum(m[f"layer.{layer}.share"] for layer in tracing.LAYERS) <= 1.0


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
