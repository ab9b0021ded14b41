"""The README's library example runs as written."""

import json
import re
from pathlib import Path

from botfuse.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--kind", "flows", "--out", "flows.csv", "--seed", "3"]) == 0
    capsys.readouterr()
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        assert json.loads(line)["architecture"] == "c2"
