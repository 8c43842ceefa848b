"""Each module of the package imports only the public names of the others:
a name with a leading underscore is private to the module that defines it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "henon_morse"


def test_no_module_imports_a_private_name_of_another():
    private = []
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.name}: from {'.' * node.level}"
                            f"{node.module or ''} import {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
