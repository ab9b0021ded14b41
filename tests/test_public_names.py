"""Every public top-level name in ``src/botfuse`` is used by the program.

A function, class or constant that only the tests call is surface to keep
and document for no command, benchmark or pipeline stage. A name counts as
used when a ``Name`` or ``Attribute`` node, or an import alias, anywhere in
``src/`` or ``perfbench/`` refers to it outside its own definition; strings
do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "botfuse"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Public names kept although nothing in src/ or perfbench/ refers to them.
ALLOWED = {
    # The per-flow success rule, which the brute-force feature oracle of
    # acceptance criterion 4 reuses instead of restating it.
    ("flow_features", "classify_flow_success"),
}


def _defined(statement: ast.stmt) -> list[str]:
    """The public names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _referenced(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def unused_public_names(sources=SOURCES, package=PACKAGE) -> list[str]:
    definitions = []  # (module, name, the statement that defines it)
    references = []  # (names used by one top-level statement, that statement)
    for path in sources:
        module = ast.parse(path.read_text(encoding="utf-8"))
        for statement in module.body:
            references.append((_referenced(statement), statement))
            if path.parent == package:
                definitions += [(path.stem, name, statement) for name in _defined(statement)]
    return [
        f"{module}.{name}" for module, name, own in definitions
        if (module, name) not in ALLOWED
        and not any(name in names for names, statement in references if statement is not own)
    ]


def test_every_public_name_is_used_outside_the_tests():
    assert unused_public_names() == []


def test_a_name_used_only_inside_its_own_definition_is_flagged(tmp_path):
    package = tmp_path / "botfuse"
    package.mkdir()
    (package / "mod.py").write_text(
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "def countdown(n):\n"
        "    return [] if n == 0 else [n] + countdown(n - 1)\n"
        "def main():\n"
        "    return helper.LIMIT, 'countdown'\n"
        "from .other import helper\n"
        "if __name__ == '__main__':\n"
        "    main()\n"
    )
    assert unused_public_names([package / "mod.py"], package) == [
        "mod.UNUSED", "mod.countdown"]
