"""The benchmark's tracer hooks into botfuse by module and function name.

A renamed or removed traced function would otherwise only show up when the
benchmark's own suite runs (``python3 -m pytest perfbench``).
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TRACED
    for modname, attr, *_ in tracing.TRACED:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


def test_gcn_model_keeps_residual_mode():
    from botfuse.gcn_core import GcnModel, gcn_layer_forward

    assert "residual_mode" in GcnModel.__dataclass_fields__
    assert callable(gcn_layer_forward)
