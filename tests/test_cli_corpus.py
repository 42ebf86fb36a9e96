"""The "same behaviour" corpus: CLI runs against one committed record.

Each argv line of CORPUS runs in process through cli.main, with a new
temporary directory as its output directory.  The test compares the exit
code, stdout and stderr (the directory replaced by OUT) and the sha256 of
every file written with the record in cli_corpus.json.  A change that moves
an entry names it, and the check that vouches for the move, in CHANGES.md.

The digests depend on the host: numpy's exp, cosh and sinh (which the
cavityless meter and the ledger's closed forms call) can differ from another
build's in the last bit, and so can a BLAS sum.  The record holds a digest of
those functions on a fixed probe.  On a host whose probe differs the test
compares the exit codes, the stderr and the names of the files written, and
warns that it compared no stdout and no file digests.

Running this file as a script rewrites the record and prints the entries that
moved:

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import tempfile
import warnings

import numpy as np
import pytest

from optoforce import cli

RECORD = pathlib.Path(__file__).with_name("cli_corpus.json")

OUT = "<OUT>"

CORPUS = [
    # every command at its defaults
    ["sweep"],
    ["fig2"],
    ["power-scaling"],
    ["validate"],
    ["sql"],
    # both models and both formats, s in {0, 1, 5, 9}, grids of 2 to 7 points
    ["sweep", "--model", "cavity", "--format", "json"],
    ["sweep", "--format", "json", "--points", "3", "--s", "1"],
    ["sweep", "--model", "cavity", "--points", "7", "--s", "5", "--n-th", "300"],
    ["sweep", "--points", "5", "--s", "9", "--n-th", "300"],
    ["sweep", "--model", "cavity", "--points", "2", "--tmin-scaled", "1", "--tmax-scaled", "3"],
    ["sweep", "--omega-over-theta", "11", "--points", "5", "--s", "1"],
    # more rows than two of the emitter's chunks
    ["sweep", "--format", "json", "--points", str(2 * cli._CHUNK_ROWS + 3)],
    ["fig2", "--model", "cavityless", "--format", "json", "--points", "5"],
    ["fig2", "--model", "cavity", "--points", "7", "--g-alpha-over-omega", "0.5"],
    ["power-scaling", "--model", "cavityless", "--format", "json", "--omega-over-theta", "11"],
    ["power-scaling", "--model", "cavity", "--s", "5"],
    ["validate", "--omega-over-theta", "11"],
    ["sql", "--model", "cavity", "--format", "json"],
    ["sql", "--format", "json", "--theta-over-chi", "1.2"],
    # a regime warning
    ["sweep", "--omega-over-theta", "2", "--points", "5"],
    # no coupling, no signal: a curve with no finite f_min
    ["sweep", "--model", "cavity", "--g-alpha-over-omega", "0", "--points", "3"],
    # refusals, which write nothing
    ["sweep", "--points", "1"],
    ["sweep", "--n-th", "nan"],
    ["sweep", "--model", "cavityless", "--s", "400"],
    ["fig2", "--points", "1000000000000000000"],
    ["power-scaling", "--model", "cavityless", "--theta-over-chi", "1e154",
     "--omega-over-theta", "1.2"],
    ["power-scaling", "--model", "cavity", "--g-alpha-over-omega", "1e308"],
    ["sql", "--model", "cavity", "--g-alpha-over-omega", "1e200"],
    ["validate", "--theta-over-chi", "1e200"],
    ["sweep", "--tmax-scaled", "1e300"],
    ["sql", "--theta-over-chi", "1.000000000001"],
    ["validate", "--g-alpha-over-omega", "1e4"],
]


def host_probe() -> str:
    """sha256 of the functions whose last bit can differ between hosts, on a
    fixed probe: numpy's and the C library's exp, cosh, sinh, sin and cos, and
    numpy's matrix products."""
    x = np.linspace(-30.0, 30.0, 4001)
    parts = [f(x) for f in (np.exp, np.cosh, np.sinh, np.sin, np.cos)]
    parts += [np.array([f(v) for v in x.tolist()])
              for f in (math.exp, math.cosh, math.sinh, math.sin, math.cos)]
    m = (np.arange(36.0).reshape(6, 6) - 17.5) / 7.0
    v = np.arange(6.0) / 3.0
    parts += [m @ m, m.T @ v, np.array(v @ m @ v)]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


def run(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and {file: sha256} of cli.main(argv), run in a
    new temporary output directory."""
    saved = os.environ.get(cli.OUTDIR_ENV)
    with tempfile.TemporaryDirectory() as outdir:
        os.environ[cli.OUTDIR_ENV] = outdir
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's own refusals
                    code = exc.code
        finally:
            if saved is None:
                del os.environ[cli.OUTDIR_ENV]
            else:
                os.environ[cli.OUTDIR_ENV] = saved
        root = pathlib.Path(outdir)
        files = {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(root.rglob("*")) if p.is_file()}
        return {"argv": argv, "code": code, "stdout": out.getvalue().replace(outdir, OUT),
                "stderr": err.getvalue().replace(outdir, OUT), "files": files}


_DOC = json.loads(RECORD.read_text()) if RECORD.exists() else {"probe": None, "entries": []}
_RECORDED = {" ".join(e["argv"]): e for e in _DOC["entries"]}
_SAME_HOST = _DOC["probe"] == host_probe()


def test_record_covers_the_corpus():
    assert list(_RECORDED) == [" ".join(argv) for argv in CORPUS]


@pytest.mark.parametrize("argv", CORPUS, ids=[" ".join(argv) for argv in CORPUS])
def test_cli_run_matches_the_record(argv):
    expected = _RECORDED[" ".join(argv)]
    got = run(argv)
    assert (got["code"], got["stderr"]) == (expected["code"], expected["stderr"])
    assert sorted(got["files"]) == sorted(expected["files"])
    if not _SAME_HOST:
        warnings.warn(f"{' '.join(argv)}: the host probe differs from the record's, so no "
                      "stdout and no file digest was compared")
        return
    assert got["stdout"] == expected["stdout"]
    assert got["files"] == expected["files"]


def main() -> None:
    old = _RECORDED
    entries = [run(argv) for argv in CORPUS]
    RECORD.write_text(json.dumps({"probe": host_probe(), "entries": entries}, indent=1) + "\n")
    for entry in entries:
        key = " ".join(entry["argv"])
        moved = [k for k in entry if key not in old or old[key].get(k) != entry[k]]
        if moved:
            print(f"moved: {key} ({', '.join(moved)})")
    print(f"wrote {len(entries)} entries to {RECORD}")


if __name__ == "__main__":
    main()
