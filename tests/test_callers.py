"""Every top-level function and class of the package has a caller in the
package: a reference by name outside `__init__.py` and outside its own
definition. An import alone is no caller, nor is a mention in a comment or
a docstring."""

import ast
from pathlib import Path

import morphaug


def _uncalled(package: Path) -> set[str]:
    defined: set[str] = set()
    referenced: set[str] = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                defined.add(own)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    referenced.add(name)
    return defined - referenced


def test_every_top_level_definition_has_a_caller():
    assert _uncalled(Path(morphaug.__file__).parent) == set()
