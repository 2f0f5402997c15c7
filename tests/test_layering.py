"""Modules of the package reach each other only through public names: an
underscore name stays inside the module that defines it."""

import ast
from pathlib import Path

import dropmaze

PACKAGE = Path(dropmaze.__file__).resolve().parent


def private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "dropmaze":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                source = "." * node.level + (node.module or "")
                found.append(f"{path.name}:{node.lineno} imports {name} from {source}")
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    assert [line for path in modules for line in private_imports(path)] == []
