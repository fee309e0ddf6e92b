"""The benchmark's traced names still resolve in the package.

bench/spans.py rebinds each traced function, by identity, at every module
attribute that holds it, and bench/worker.py looks the classifiers up by
name. A refactor that renames one of them, or turns two of them into the
same object, breaks `bench/run.py --trace 1` without failing anything else.
"""

import ast
import importlib
import importlib.util
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
