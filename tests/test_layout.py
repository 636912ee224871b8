"""Module boundaries of the package source."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # The tracer patches MarginalCache methods named in a literal tuple; a
    # name gone from the class would break a traced run, which tier-1 never makes.
    from tcherry.distribution import MarginalCache

    tracer = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    patched = [elt.value for node in ast.walk(tracer)
               if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)
               and "MarginalCache" in ast.unparse(node) for elt in node.iter.elts]
    missing = [name for name in patched if not callable(vars(MarginalCache).get(name))]
    assert patched and not missing


#: Names the tracer still spans although the package dropped them.
STALE_SPANS = {"learner.fit_to_dict"}


def test_tracer_patches_by_name_and_restores_every_attribute():
    # The benchmark traces by patching the package in place; a function or
    # cache method it names that is gone, or one left patched, breaks it.
    importlib.import_module("tcherry.cli")  # loads every module the tracer patches

    sys.path.insert(0, str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
    from tcherry.distribution import MarginalCache

    spaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "tcherry"]
    spaces.append(MarginalCache)
    before = [dict(vars(ns)) for ns in spaces]
    with tracer.Tracer():
        inside = [dict(vars(ns)) for ns in spaces]
    after = [dict(vars(ns)) for ns in spaces]
    assert after == before
    patched = {(ns.__name__, attr) for ns, was, now in zip(spaces, before, inside)
               for attr in was if now[attr] is not was[attr]}
    named = {tuple(("tcherry." + name).rsplit(".", 1))
             for name in tracer.SPANNED | set(tracer._PROBES) if name not in STALE_SPANS}
    cache = {("MarginalCache", attr) for attr in ("marginal", "h", "info", "point")}
    assert named | cache <= patched


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


def _child(code, cwd=None, flags=(), path=None):
    """Standard output of ``python *flags -c code`` run on this checkout's
    package. The child's PYTHONPATH is this checkout's ``src``, then
    ``path`` if given, else the inherited PYTHONPATH."""
    rest = os.environ.get("PYTHONPATH") if path is None else path
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC.parent), rest)))}
    return subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, cwd=cwd, env=env, check=True).stdout


def test_import_binds_little_array_data():
    # Every command pays for what importing the package builds; lookup
    # tables belong in functions that build them on first use.
    code = ("import sys, numpy, tcherry.cli\n"
            "def arrays(v):\n"
            "    if isinstance(v, numpy.ndarray):\n"
            "        yield v\n"
            "    elif isinstance(v, (tuple, list, dict)):\n"
            "        for item in (v.values() if isinstance(v, dict) else v):\n"
            "            yield from arrays(item)\n"
            "print(sum(a.nbytes for name, m in list(sys.modules.items())\n"
            "          if name.split('.')[0] == 'tcherry'\n"
            "          for v in vars(m).values() for a in arrays(v)))")
    assert int(_child(code)) < 64 * 1024


#: Modules that every process would pay for at import: records are
#: NamedTuples and the bundled data is read by path.
UNIMPORTED = {"dataclasses", "importlib.resources"}


def test_no_module_imports_dataclasses_or_resources():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if any(f"{name}.".startswith(f"{banned}.") for banned in UNIMPORTED)]
    assert SRC.is_dir() and not found


def test_cli_import_loads_no_dataclasses_or_resources():
    # -S, because a host's site may import importlib.resources through a
    # .pth file; numpy's own directory is the only other entry on the path.
    numpy_dir = Path(importlib.util.find_spec("numpy").origin).parents[1]
    code = ("import sys, numpy, tcherry.cli\n"
            f"print(sorted({sorted(UNIMPORTED)!r} & sys.modules.keys()))")
    assert _child(code, flags=["-S"], path=str(numpy_dir)) == "[]\n"


#: Each record of the package, built by keyword from its fields in order.
RECORDS = [
    ("distribution", "VariableSpec", {"index": 1, "cardinality": 3, "name": "hue"}),
    ("junction_tree", "Hypergraph", {"vertices": (1, 2, 3), "hyperedges": ((1, 2), (2, 3))}),
    ("junction_tree", "SeparatorLink", {"separator": (2,), "attach_to": 0}),
    ("junction_tree", "PuzzleNumbering",
     {"k": 2, "order": (1, 2, 3), "attach_separators": ((2,),)}),
    ("learner", "TraceStep", {"cluster": (1, 2), "separator": None, "w": 0.5, "omega": 1.5}),
    ("learner", "FitResult", {"algorithm": "sk", "tree": None, "trace": (), "score": None,
                              "candidate_table": None, "rows": ()}),
    ("scoring", "ScoreBreakdown", {"weight": 0.5, "total_information": 1.0, "kl": 0.5,
                                   "per_cluster": (((1, 2), 0.5),),
                                   "per_separator": (((2,), 2, 0.25),)}),
    ("scoring", "ConditionComparison",
     {"earlier_pos": 2, "earlier": 3, "later_pos": 3, "later": 4, "separator": (2,),
      "later_gain": 0.25, "earlier_gain": 0.5}),
    ("scoring", "ConditionReport", {"violations": (), "ties": (), "checked": 0}),
]


@pytest.mark.parametrize("module, name, fields", RECORDS, ids=[r[1] for r in RECORDS])
def test_records_are_immutable_and_spelled_by_field(module, name, fields):
    cls = getattr(importlib.import_module(f"tcherry.{module}"), name)
    record = cls(**fields)
    assert cls._fields == tuple(fields)
    for attr in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    assert repr(record) == f"{name}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"


def test_every_definition_is_referenced():
    # A function, class or method of the package that no module, test or
    # benchmark names, as an identifier, an attribute or a dotted string
    # such as the tracer's span names, is unneeded code.
    defined, named = [], set()
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py"), *PERFBENCH.rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.update(node.value.split("."))
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and path.parent == SRC
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
    assert defined
    assert [where for name, where in defined if name not in named] == []


#: Names that start threads or worker processes.
THREAD_STARTERS = {"threading", "Thread", "ThreadPoolExecutor", "ProcessPoolExecutor",
                   "ThreadPool", "concurrent.futures", "multiprocessing", "_thread"}


def test_no_thread_starter_in_the_package():
    # The package runs on one thread: in fresh processes on a 2-vCPU host
    # the counts codec read and wrote faster serially than in two threads.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None), *(a.name for a in node.names)]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name in THREAD_STARTERS]
    assert SRC.is_dir() and not found


def test_gc_is_used_only_by_the_cli_entry_point():
    # The entry point freezes what import built; library users and
    # in-process callers of main keep the collector as Python sets it.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        entry = {id(node) for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and fn.name == "entry"
                 for node in ast.walk(fn)} if path.name == "cli.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                used = any(a.name == "gc" and (a.asname or path.name != "cli.py")
                           for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                used = node.module == "gc"
            else:
                used = isinstance(node, ast.Name) and node.id == "gc" and id(node) not in entry
            if used:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert SRC.is_dir() and not found


def test_import_and_main_leave_the_collector_alone(tmp_path):
    code = ("import contextlib, gc, io\n"
            "import tcherry, tcherry.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = tcherry.cli.main(['fit', '--k', '3', 'lizards.csv'])\n"
            "print(code, gc.get_freeze_count(), gc.isenabled())")
    assert _child(code, tmp_path).split() == ["0", "0", "True"]


def test_entry_freezes_what_import_built_before_main(tmp_path):
    code = ("import gc, tcherry.cli\n"
            "tcherry.cli.main = lambda: print(gc.get_freeze_count() > 10_000, gc.isenabled())\n"
            "tcherry.cli.entry()")
    assert _child(code, tmp_path).split() == ["True", "True"]


@pytest.mark.parametrize("case", ["unset", "chosen", "numpy first"])
def test_import_runs_blas_on_one_thread_unless_chosen(case):
    # No tcherry code calls BLAS, and numpy imports faster when OpenBLAS
    # starts no thread per core.
    code = ("import os\n"
            + ("import numpy\n" if case == "numpy first" else "")
            + "before = dict(os.environ)\n"
            "import tcherry\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), dict(os.environ) == before)")
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC.parent), env.get("PYTHONPATH"))))
    if case == "chosen":
        env["OPENBLAS_NUM_THREADS"] = "2"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.split() == {"unset": ["1", "False"], "chosen": ["2", "True"],
                                   "numpy first": ["None", "True"]}[case]
