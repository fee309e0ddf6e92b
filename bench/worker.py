"""In-process half of the benchmark, run as a child of run.py in a fresh
interpreter with the package on PYTHONPATH.

    python3 bench/worker.py '<json config>'

Modes:
  library  the classify workload, untraced: the run's in-process calls, one
           at a time; prints the run summary.
  trace    any workload, in process (command-line workloads through
           cli.run): every operation untraced and then traced; prints the
           per-layer summary and the time spent inside operations on each
           side.

Prints exactly one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True

import checks  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import inputs  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

import numpy as np  # noqa: E402

from enstrophy_bounds import cli, critical, full_nse, params, subcritical  # noqa: E402
from enstrophy_bounds.errors import EnstrophyBoundsError  # noqa: E402

_CLASSIFIERS = {"critical": (critical, "classify_critical"),
                "subcritical": (subcritical, "classify_subcritical"),
                "full": (full_nse, "classify_full")}


# -- classify (library) --------------------------------------------------------

def classify_batch(batch: inputs.ClassifyBatch, log: dict) -> float:
    """Classify every point of one batch, logging each call's outcome.
    Returns the seconds spent inside the program (load plus calls).
    Functions are looked up at call time so that tracing wrappers apply."""
    clock = time.perf_counter
    t0 = clock()
    p = params.load_params_file(batch.params_path)
    busy = clock() - t0
    for model, e, E, ref in batch.calls:
        module, name = _CLASSIFIERS[model]
        fn = getattr(module, name)
        outcome = None
        t0 = clock()
        try:
            label = fn(e, E, p)
        except EnstrophyBoundsError as exc:
            label, outcome = None, f"typed {type(exc).__name__}"
        except Exception as exc:  # an untyped escape is a failed operation
            label, outcome = None, f"untyped {type(exc).__name__}: {exc}"
        dt = clock() - t0
        busy += dt
        if outcome is None:
            try:
                checks.check_label(label, model, ref)
            except checks.Mismatch as exc:
                outcome = f"check: {exc}"
                log["incorrect"] += 1
        elif outcome.startswith("typed") and ref is None:
            log["typed_errors"][outcome] += 1
            outcome = None  # a typed refusal is an allowed answer
        if outcome is None:
            log["durations"].append(dt)
        else:
            log["failures"][f"{model}: {outcome}"[:120]] += 1
        log["attempted"] += 1
    return busy


def skip_batch(batch: inputs.ClassifyBatch, log: dict) -> float:
    """Count every call of a batch the run had no time left for as failed."""
    log["attempted"] += len(batch.calls)
    log["failures"][checks.NOT_STARTED] += len(batch.calls)
    return 0.0


def _new_log() -> dict:
    # durations in a flat array: the worker's peak RSS is reported as the
    # program's, so the benchmark's own per-call records stay small
    return {"durations": array("d"), "attempted": 0, "incorrect": 0,
            "failures": Counter(), "typed_errors": Counter(),
            "probes": []}


def _summary(log: dict, busy: float) -> dict:
    failed = log["attempted"] - len(log["durations"])
    times = np.concatenate([np.sort(np.frombuffer(log["durations"])),
                            np.full(failed, np.inf)])
    return stats.summarize(times, log["attempted"], busy)


def _classify_cycles(cfg: dict) -> list:
    return inputs.classify_cycles(
        cfg["seed"], inputs.cycle_count("classify", cfg["seconds"]),
        Path(cfg["root"]), Path(cfg["bench_dir"]), Path(cfg["workdir"]))


def _cli_cycles(cfg: dict) -> list:
    return inputs.cli_cycles(
        cfg["workload"], cfg["seed"],
        inputs.cycle_count(cfg["workload"], cfg["seconds"]),
        Path(cfg["root"]), Path(cfg["bench_dir"]), Path(cfg["workdir"]))


def run_classify(cfg: dict):
    """Closed loop over the run's classify cycles, with a speed probe before
    each batch. Returns the log and the seconds spent inside the program."""
    log = _new_log()

    def run_one(batch):
        log["probes"].append(stats.loop_probe())
        return classify_batch(batch, log)

    return log, sum(inputs.run_cycles(_classify_cycles(cfg), run_one,
                                      lambda b: skip_batch(b, log)))


# -- command-line workloads in process -----------------------------------------

def skip_cli_op(op: inputs.Op) -> dict:
    return {"check": op.check, "rc": None, "out": "",
            "err": checks.NOT_STARTED, "dt": 0.0}


def run_cli_op(op: inputs.Op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(list(op.argv))
        except Exception:  # what the interpreter would print before exit 1
            traceback.print_exc()
            rc = 1
    dt = time.perf_counter() - t0
    if op.save_as and rc == 0:
        Path(op.save_as).write_text(out.getvalue())
    return {"check": op.check, "rc": rc, "out": out.getvalue(),
            "err": err.getvalue(), "dt": dt}


# -- modes ---------------------------------------------------------------------

def mode_library(cfg: dict) -> dict:
    log, busy = run_classify(cfg)
    return {"summary": _summary(log, busy), "incorrect": log["incorrect"],
            "failures": log["failures"], "typed_errors": log["typed_errors"],
            "probes": log["probes"]}


def _both_sides(tracer: spans.Tracer, untraced, traced):
    """An operation runner that runs untraced(item), then traced(item)
    with the tracer installed, and returns both results."""
    def run_one(item):
        first = untraced(item)
        tracer.install()
        try:
            return first, traced(item)
        finally:
            tracer.uninstall()
    return run_one


def _skip_both(skip_untraced, skip_traced):
    return lambda item: (skip_untraced(item), skip_traced(item))


def mode_trace(cfg: dict) -> dict:
    """Each operation of the run twice, untraced then traced; machine-speed
    drift then falls on both sides alike. One unrecorded operation first
    warms the process up. The overhead compares the time spent inside
    operations on the two sides."""
    tracer = spans.Tracer()
    if cfg["workload"] == "classify":
        plain, traced_log = _new_log(), _new_log()
        cycles = _classify_cycles(cfg)
        classify_batch(cycles[0][0], _new_log())
        times = inputs.run_cycles(
            cycles,
            _both_sides(tracer, lambda b: classify_batch(b, plain),
                        lambda b: classify_batch(b, traced_log)),
            _skip_both(lambda b: skip_batch(b, plain),
                       lambda b: skip_batch(b, traced_log)))
        n_ops = traced_log["attempted"]
        attempted = plain["attempted"] + n_ops
        failed = attempted - len(plain["durations"]) \
            - len(traced_log["durations"])
        incorrect = plain["incorrect"] + traced_log["incorrect"]
        failures = plain["failures"] + traced_log["failures"]
    else:
        cycles = _cli_cycles(cfg)
        run_cli_op(cycles[0][0])
        pairs = inputs.run_cycles(cycles,
                                  _both_sides(tracer, run_cli_op, run_cli_op),
                                  _skip_both(skip_cli_op, skip_cli_op))
        refs = checks.References(Path(cfg["bench_dir"]))
        sides = [[a for a, _ in pairs], [b for _, b in pairs]]
        for records in sides:  # CSV/JSON pairs are matched per side
            checks.check_records(records, refs)
        times = [(a["dt"], b["dt"]) for a, b in pairs]
        n_ops = len(pairs)
        records = sides[0] + sides[1]
        attempted = len(records)
        failed = sum(not r["ok"] for r in records)
        incorrect = sum(r["incorrect"] for r in records)
        failures = Counter(r["reason"] for r in records if r["reason"])
    return {"ops": n_ops, "untraced_s": sum(a for a, _ in times),
            "traced_s": sum(b for _, b in times),
            "layers": tracer.summary(), "counters": dict(tracer.counters),
            "attempted": attempted, "failed": failed, "incorrect": incorrect,
            "failures": failures}


def main() -> None:
    cfg = json.loads(sys.argv[1])
    result = {"library": mode_library, "trace": mode_trace}[cfg["mode"]](cfg)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
