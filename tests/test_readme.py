"""The README's library quick tour runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs_and_writes_nothing(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, f"{README.name}: Library quick tour", "exec"), {})
    assert list(tmp_path.iterdir()) == []
