"""The benchmark's traced names still resolve in the package.

bench/spans.py rebinds each traced function, by identity, at every module
attribute that holds it, and bench/worker.py looks the classifiers up by
name. A refactor that renames one of them, or turns two of them into the
same object, breaks `bench/run.py --trace 1` without failing anything else;
so does a package that leaves a traced module out of sys.modules until
something imports it.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types

from conftest import ROOT

BENCH = ROOT / "bench"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  BENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(f"enstrophy_bounds.{module}"),
                   name)


def test_traced_functions_resolve_to_distinct_functions():
    spans = _spans()
    funcs = [_resolve(module, name) for module, name in spans.TRACED]
    assert all(isinstance(f, types.FunctionType) for f in funcs)
    assert len({id(f) for f in funcs}) == len(funcs)


def test_tracer_installs_and_restores():
    spans = _spans()
    before = {pair: _resolve(*pair) for pair in spans.TRACED}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for pair, original in before.items():
            assert _resolve(*pair) is not original, pair
    finally:
        tracer.uninstall()
    for pair, original in before.items():
        assert _resolve(*pair) is original, pair


def test_worker_classifiers_exist():
    tree = ast.parse((BENCH / "worker.py").read_text())
    table = next(node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "_CLASSIFIERS"
                         for t in node.targets))
    pairs = [(entry.elts[0].id, entry.elts[1].value)
             for entry in table.values]
    assert {name for _, name in pairs} == {
        "classify_critical", "classify_subcritical", "classify_full"}
    traced = set(_spans().TRACED)
    for module, name in pairs:
        assert callable(_resolve(module, name))
        assert (module, name) in traced


# bench/worker.py's own import line, then a tracer installed before any
# operation: the traced modules the worker never names must still be in
# sys.modules, and patchable
_INSTALL_AFTER_WORKER_IMPORTS = """
import importlib.util, json, sys
exec(sys.argv[1])
spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[2])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)


def resolve(module, name):
    return getattr(sys.modules[f"{spans.PACKAGE}.{module}"], name)


tracer = spans.Tracer()
tracer.install()
installed = {pair: resolve(*pair) for pair in spans.TRACED}
tracer.uninstall()
print(json.dumps({
    "rebound": [pair for pair, fn in installed.items()
                if resolve(*pair) is not fn],
    "restored": [pair for pair, fn in installed.items()
                 if resolve(*pair) is getattr(fn, "__wrapped__", None)],
}))
"""


def test_tracer_installs_after_the_worker_imports_alone():
    tree = ast.parse((BENCH / "worker.py").read_text())
    line = next(ast.unparse(node) for node in tree.body
                if isinstance(node, ast.ImportFrom)
                and node.module == "enstrophy_bounds")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c",
                           _INSTALL_AFTER_WORKER_IMPORTS, line,
                           str(BENCH / "spans.py")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    traced = [list(pair) for pair in _spans().TRACED]
    assert json.loads(proc.stdout) == {"rebound": traced, "restored": traced}
