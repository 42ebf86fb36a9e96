"""Every committed BENCH_<n>.json keeps the benchmark record contract.

A record states a speed-up with before-and-after numbers from one harness on
one machine (ROADMAP aim 1).  It names the machine: its CPU count and the
Python and numpy versions.  It gives the parent's and the change's median of
every end-to-end metric on every workload that BENCHMARK.json declares.
"""

import glob
import json
import math
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_keeps_the_contract(path):
    assert re.fullmatch(r"BENCH_\d+\.json", os.path.basename(path))
    with open(path) as fh:
        record = json.load(fh)
    env = record["environment"]
    assert isinstance(env["nproc"], int) and env["nproc"] >= 1
    for key in ("python", "numpy"):
        assert isinstance(env[key], str) and env[key]

    spec = benchmark_spec()
    missing = []
    for workload in spec["workloads"]:
        metrics = record["workloads"].get(workload["name"], {}).get("end_to_end", {})
        for metric in spec["end_to_end"]:
            entry = metrics.get(metric["name"], {})
            for side in ("parent", "change"):
                median = entry.get(side, {}).get("median")
                if not (isinstance(median, (int, float)) and math.isfinite(median)):
                    missing.append(f"{workload['name']}.{metric['name']}.{side}.median")
    assert not missing, f"{os.path.basename(path)} lacks {', '.join(missing)}"
