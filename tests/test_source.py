"""Rules that the package's source keeps."""
import ast
from pathlib import Path

import framesim

MODULES = sorted(Path(framesim.__file__).parent.rglob("*.py"))


def test_no_module_uses_assert():
    # python -O drops assert statements, so no check of the program may be one
    found = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert len(MODULES) > 5 and not found, found
