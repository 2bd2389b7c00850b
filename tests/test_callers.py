"""Every public module-level function and class of ``tileserve`` has a
caller: some ``ast.Name`` or ``ast.Attribute`` in ``src/``, ``tests/`` or
``bench/`` names it, outside its own definition. Imports, strings and
docstrings do not count, so a name kept alive only by an import or an
``__all__`` entry is reported."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def uncalled(root: Path) -> list[str]:
    """``module.name`` of each public top-level function and class of
    ``root/src/tileserve`` that no Name or Attribute node of ``root``'s
    ``src``, ``tests`` and ``bench`` trees reads outside its definition."""
    trees = (root / "src", root / "tests", root / "bench")
    modules = {path: ast.parse(path.read_text()) for tree in trees for path in sorted(tree.rglob("*.py"))}
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    for path, module in modules.items():
        if path.parent != root / "src" / "tileserve":
            continue
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs.setdefault(node.name, []).append((path.stem, node))
    named: dict[str, list[ast.AST]] = {}
    for module in modules.values():
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                named.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                named.setdefault(node.attr, []).append(node)
    missing = []
    for name, places in defs.items():
        own = {id(node) for _, definition in places for node in ast.walk(definition)}
        if all(id(node) in own for node in named.get(name, ())):
            missing.extend(f"{module}.{name}" for module, _ in places)
    return sorted(missing)


def test_every_public_function_and_class_has_a_caller():
    assert uncalled(ROOT) == [], "public names that nothing in src/, tests/ or bench/ calls or reads"


def test_an_import_a_string_or_its_own_body_is_not_a_caller(tmp_path):
    """The checker itself: a definition named only by imports, strings, a
    docstring or its own recursive call is reported; one read elsewhere,
    here as an attribute, is not."""
    for tree in ("src/tileserve", "tests", "bench"):
        (tmp_path / tree).mkdir(parents=True)
    (tmp_path / "src/tileserve/mod.py").write_text(
        'def lone(n):\n    """lone calls lone."""\n    return lone(n - 1) if n else 0\n\n\nclass Read:\n    pass\n'
    )
    (tmp_path / "tests/test_mod.py").write_text(
        "from tileserve.mod import Read, lone\nimport tileserve.mod as mod\n\nNAMES = ['lone']\nmod.Read()\n"
    )
    assert uncalled(tmp_path) == ["mod.lone"]
