"""In-memory span tracing of the program's public functions.

Each traced function is replaced, at every attribute through which the
package's modules reach it, by a wrapper that records a span (name, start,
end, parent). Modules import by name (`from .solver import find_root`), so
wrapping only solver.find_root would miss the calls made from critical,
subcritical and full_nse; install() therefore rebinds every module
attribute that holds the same function object.

Self time is a span's duration minus the durations of its direct children;
total time sums only the outermost span of each name, so recursion is not
counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PACKAGE = "enstrophy_bounds"

# (module, function) pairs traced with calls, self time and total time
TRACED = (
    ("params", "load_params_file"),
    ("critical", "assemble_critical"),
    ("critical", "find_e_max"),
    ("critical", "find_e_min"),
    ("critical", "classify_critical"),
    ("subcritical", "assemble_subcritical"),
    ("subcritical", "find_e_bar"),
    ("subcritical", "classify_subcritical"),
    ("full_nse", "assemble_full"),
    ("full_nse", "solve_e2"),
    ("full_nse", "classify_full"),
    ("scaling", "assemble_scaling"),
    ("maxest", "bound_report"),
    ("specfun", "weighted_exp_integral_ln"),
    ("specfun", "gamma_series_factor"),
    ("solver", "find_root"),
    ("solver", "integrate_adaptive"),
    ("solver", "rk4_path"),
    ("curves", "bundle_to_csv"),
    ("curves", "bundle_to_json"),
    ("verify", "containment_check"),
    ("verify", "oracle_suite"),
)
SERIALIZERS = ("curves.bundle_to_csv", "curves.bundle_to_json")
VERIFY_REPORTS = ("verify.containment_check", "verify.oracle_suite")
VERIFY_CHECKS = ("containment", "series_vs_quadrature", "closed_form_vs_rk4",
                 "root_vs_gridscan")
COUNTED_METHOD = ("logscalar", "LogScalar", "add_with_cancellation")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []      # (name id, start, end, parent, outermost)
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.counters: Counter = Counter()
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        nid = self._id(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        depth = self._depth
        depth[nid] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            depth[nid] -= 1
            self._stack.pop()
            self.spans[idx] = (nid, t0, t1, parent, depth[nid] == 0)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _rebind(self, original, replacement) -> None:
        """Point every module attribute, and every value of a module-level
        dict (cli._ASSEMBLERS dispatches through one), at replacement."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append(
                        functools.partial(setattr, mod, attr, original))
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if item is original:
                            value[key] = replacement
                            self._restore.append(functools.partial(
                                value.__setitem__, key, original))

    def install(self) -> None:
        """Wrap every TRACED function and count add_with_cancellation."""
        counters = self.counters
        for module, func in TRACED:
            name = f"{module}.{func}"
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], func)
            on_result = None
            if name in SERIALIZERS:
                def on_result(text, key=name + ".bytes"):
                    counters[key] += len(text.encode())
            elif name in VERIFY_REPORTS:
                def on_result(rows):
                    for row in rows:
                        if not row["pass"]:
                            counters["verify.failed_rows." + row["check"]] += 1
            self._rebind(original, self.wrap(name, original, on_result))

        module, cls_name, method = COUNTED_METHOD
        cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
        original = getattr(cls, method)
        key = f"{module}.{method}.calls"

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counters[key] += 1
            return original(*args, **kwargs)

        setattr(cls, method, counted)
        self._restore.append(functools.partial(setattr, cls, method, original))

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    def summary(self) -> dict:
        """{name: (calls, self_s, total_s)} over every recorded span."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for (nid, t0, t1, _, outer), covered in zip(self.spans, child):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += (t1 - t0) - covered
            if outer:
                row[2] += t1 - t0
        return {name: tuple(row) for name, row in out.items()}
