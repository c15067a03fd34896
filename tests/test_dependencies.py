"""The runtime is numpy-only: dulab's source imports nothing else."""
import ast
import pathlib
import sys

import dulab

SRC = pathlib.Path(dulab.__file__).parent
RUNTIME = set(sys.stdlib_module_names) | {"numpy", "dulab"}
#: calls that resolve a module named by their first argument
IMPORTERS = {"import_module", "find_spec", "__import__", "_lazy_module"}


def imported(tree):
    """Top-level names of every module an import statement names, at module
    level or inside a function; relative imports count as dulab."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "dulab" if node.level else node.module.split(".")[0]


def named_by_string(tree):
    """Module names passed as a string literal to an importer call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            arg = node.args[0]
            if name in IMPORTERS and isinstance(arg, ast.Constant):
                yield arg.value


def test_source_imports_only_stdlib_numpy_and_dulab():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert "gates.py" in trees
    foreign = {(name, mod) for name, tree in trees.items() for mod in imported(tree)
               if mod not in RUNTIME}
    assert foreign == set()
    # the benchmark tracer's lazy registration is the one other module named
    strings = {(name, mod) for name, tree in trees.items() for mod in named_by_string(tree)
               if mod.split(".")[0] not in RUNTIME}
    assert strings == {("gates.py", "scipy.linalg")}
