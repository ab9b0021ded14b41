"""Graph and flow files are UTF-8 whatever the locale.

Every text-mode ``open``, ``Path.open``, ``read_text`` and ``write_text`` call
in ``src/botfuse`` names its encoding; a call whose mode holds ``b`` is
binary and exempt, and so is ``os.open``, which takes flags. Without an
encoding, Python reads and writes with the locale's, which under ``LC_ALL=C``
is ASCII.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import botfuse
from botfuse.comm_graph import CommGraph, graph_to_json

PACKAGE = Path(botfuse.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
_TEXT_ONLY = {"read_text", "write_text"}


def _mode(call: ast.Call):
    """The mode a call to ``open`` passes, or None when it passes none."""
    position = 1 if isinstance(call.func, ast.Name) else 0
    if len(call.args) > position:
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == "mode"), None)


def _is_binary(mode) -> bool:
    return isinstance(mode, ast.Constant) and isinstance(mode.value, str) and "b" in mode.value


def unencoded_text_io(sources=SOURCES) -> list[str]:
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                if isinstance(func.value, ast.Name) and func.value.id == "os":
                    continue
                name = func.attr
            else:
                continue
            if name not in _TEXT_ONLY and (name != "open" or _is_binary(_mode(node))):
                continue
            if not any(k.arg == "encoding" for k in node.keywords):
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_every_text_mode_call_names_its_encoding():
    assert unencoded_text_io() == []


def test_a_text_mode_call_without_encoding_is_flagged(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import os\n"
        "from pathlib import Path\n"
        "open('a')\n"
        "open('a', 'rb')\n"
        "open('a', mode='w', encoding='utf-8')\n"
        "Path('a').open('w', newline='')\n"
        "Path('a').open(mode='wb')\n"
        "Path('a').read_text()\n"
        "Path('a').write_text('x', encoding='utf-8')\n"
        "Path('a').read_bytes()\n"
        "os.open('a', os.O_RDONLY)\n",
        encoding="utf-8",
    )
    assert unencoded_text_io([module]) == ["mod.py:3 open", "mod.py:6 open", "mod.py:8 read_text"]


# Kept ASCII: under the C locale, Python decodes the -c argument as ASCII.
_UNDER_C_LOCALE = """
import sys
from pathlib import Path
from botfuse.comm_graph import load_graph, save_graph
from botfuse.flow_ingest import FlowRecord, Proto, parse_flow_file, write_flows_csv
root = Path(sys.argv[1])
graph = load_graph(root / "g.json")
assert graph.nodes == ["a", "h\\u00e9"], graph.nodes
save_graph(graph, root / "again.json")
assert load_graph(root / "again.json").nodes == graph.nodes
records = [FlowRecord(ts_start=0.5, duration=1.0, proto=Proto.TCP, src_ip="h\\u00f4te",
                      src_port=1, dst_ip="b", dst_port=2, src_bytes=3, dst_bytes=4)]
write_flows_csv(records, root / "f.csv")
assert parse_flow_file(root / "f.csv").records == records
"""


def test_graph_and_flow_files_are_utf8_under_the_c_locale(tmp_path):
    graph = CommGraph(nodes=["a", "hé"], edges=[(0, 1)])
    (tmp_path / "g.json").write_bytes(
        json.dumps(graph_to_json(graph), ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", _UNDER_C_LOCALE, str(tmp_path)], env=env,
                          capture_output=True, text=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    assert "hôte".encode("utf-8") in (tmp_path / "f.csv").read_bytes()
