"""Module boundaries of the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tcherry"


def test_no_private_names_imported_across_modules():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("tcherry"):
                continue
            found += [f"{path.name}:{node.lineno}: {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    assert SRC.is_dir() and not found
