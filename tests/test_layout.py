"""Module boundaries of the package source."""

import ast
import importlib
import importlib.util
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


def test_no_private_attributes_read_across_objects():
    # A module reads a private attribute only of its own instance or class.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            dunder = node.attr.startswith("__") and node.attr.endswith("__")
            own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            if not (dunder or own):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert SRC.is_dir() and not found


PERFBENCH = SRC.parents[1] / "perfbench"


def test_perfbench_imports_resolve():
    # The benchmark's own tests are outside tier-1, so a name removed from
    # the package would break them unseen.
    missing = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for module, name in targets:
                if module.split(".")[0] != "tcherry":
                    continue
                found = importlib.util.find_spec(module) is not None
                if found and name is not None:
                    found = hasattr(importlib.import_module(module), name)
                if not found:
                    missing.append(f"{path.name}:{node.lineno}: {module} {name or ''}")
    assert PERFBENCH.is_dir() and not missing


def test_cache_keeps_the_methods_the_tracer_patches():
    from tcherry.distribution import MarginalCache

    assert all(callable(vars(MarginalCache).get(name))
               for name in ("marginal", "h", "info", "point"))


TESTS = Path(__file__).resolve().parent


def test_every_imported_name_is_read():
    # __init__.py imports are the public API, read by the package's users.
    found = []
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names
                          if (alias.asname or alias.name.split(".")[0]) not in read]
    assert SRC.is_dir() and not found
