"""Each shared test model has one builder: no module defines one again."""

import ast
from pathlib import Path

import shared

TESTS = Path(__file__).parent


def top_level_names(path: Path) -> set[str]:
    """The functions, classes and constants a module defines at top level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_no_module_defines_a_shared_name_again():
    exported = set(shared.__all__)
    assert top_level_names(Path(shared.__file__)) - {"__all__"} == exported
    copies = {path.name: sorted(exported & top_level_names(path))
              for path in sorted(TESTS.glob("*.py")) if path.name != "shared.py"}
    assert {name: found for name, found in copies.items() if found} == {}
