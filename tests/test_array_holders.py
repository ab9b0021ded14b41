"""Every ``src/botfuse`` dataclass that holds arrays compares by identity.

A dataclass-generated ``__eq__`` compares fields as tuples: on a NumPy array
field it raises "truth value of an array is ambiguous", and on a field whose
class compares by identity it compares by identity anyway. A class holds
arrays when a field's annotation names ``np.ndarray``, directly or inside a
container, or names a dataclass that holds arrays; such a class must be
declared with ``eq=False``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "botfuse"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _dataclass_eq(cls: ast.ClassDef) -> bool | None:
    """Whether the class's ``@dataclass`` decorator keeps ``eq``; None when
    it is not a dataclass."""
    for decorator in cls.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        target = call.func if call else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return not any(k.arg == "eq" and isinstance(k.value, ast.Constant)
                           and k.value.value is False for k in (call.keywords if call else []))
    return None


def _annotated_names(cls: ast.ClassDef) -> set[str]:
    """Every name in the annotations of the class's fields."""
    names = set()
    for statement in cls.body:
        if isinstance(statement, ast.AnnAssign):
            annotation = statement.annotation
            if isinstance(annotation, ast.Constant):  # a string annotation
                annotation = ast.parse(annotation.value, mode="eval")
            for node in ast.walk(annotation):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def array_holders_with_eq(sources=SOURCES) -> list[str]:
    classes = {}  # class name -> (module, keeps eq, annotated names)
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and (eq := _dataclass_eq(node)) is not None:
                classes[node.name] = (path.stem, eq, _annotated_names(node))
    holders = {"ndarray"}
    while True:
        grown = holders | {name for name, (_, _, names) in classes.items() if names & holders}
        if grown == holders:
            break
        holders = grown
    return sorted(f"{module}.{name}" for name, (module, eq, _) in classes.items()
                  if eq and name in holders)


def test_every_array_holder_compares_by_identity():
    assert array_holders_with_eq() == []


def test_an_array_holder_that_keeps_eq_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "from dataclasses import dataclass\n"
        "import numpy as np\n"
        "@dataclass(frozen=True)\n"
        "class Box:\n"
        "    values: dict[str, np.ndarray] | None\n"
        "@dataclass\n"
        "class Wrapper:\n"
        "    box: 'Box'\n"
        "@dataclass(eq=False)\n"
        "class Loose:\n"
        "    parts: list[np.ndarray]\n"
        "@dataclass\n"
        "class Holder:\n"
        "    loose: Loose\n"
        "@dataclass\n"
        "class Plain:\n"
        "    n: int\n"
        "    name: str = 'array'\n"
        "class NotADataclass:\n"
        "    values: np.ndarray\n"
    )
    assert array_holders_with_eq([tmp_path / "mod.py"]) == ["mod.Box", "mod.Holder", "mod.Wrapper"]
