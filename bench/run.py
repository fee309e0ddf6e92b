"""Benchmark of the enstrophy-bounds program, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  curve-critical  `curve critical` on fig2 and seeded critical draws
  cli-light       every other light command (curve subcritical|full|scaling,
                  emax, classify, taylor) on the presets and seeded draws
  verify          `verify` on both presets, seeded subcritical draws and a
                  few critical draws
  classify        in-process classify_critical|subcritical|full calls

Each workload runs closed loop from one process, one operation at a time,
over a fixed schedule: --seconds sets the number of cycles of the workload
(bench/inputs.py), so the same seed and length always run the same
operations.
A command-line operation is one subprocess of the program, start-up
included; a library operation is one call, made by bench/worker.py in a
fresh interpreter. Every output is checked (bench/checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload in
process (command-line workloads through cli.run), each operation first
untraced and then with every public function of the listed layers wrapped
(bench/spans.py), and prints the per-layer metrics, normalised per
operation, and the tracing overhead.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is a record of the run: environment, seed, run length,
sample count, fail ratio, the 90th percentile where the run has at least
100 operations, and the failures grouped by reason.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True

import checks  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import inputs  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 7
OP_TIMEOUT_S = inputs.OP_TIMEOUT_S
P90_MIN_SAMPLES = 100

# a fresh interpreter up to the first result: import, parameter files, and
# on library workloads the first call of each classifier
_SETUP_CODE = """
import json, sys
import enstrophy_bounds as eb
import numpy
fig2, fig3 = (eb.load_params_file(p) for p in sys.argv[1:3])
if sys.argv[3] == "library":
    eb.classify_critical(4.0, 1e9, fig2)
    eb.classify_subcritical(4.0, 1e9, fig3)
    eb.classify_full(4.0, 1e9, fig2)
print(json.dumps({"numpy": numpy.__version__}))
"""
_IMPORT_CODE = """
import time
t0 = time.perf_counter()
import enstrophy_bounds.cli
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    pass


# -- processes -----------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict, timeout: float = OP_TIMEOUT_S):
    """Run one subprocess to completion. Returns (rc, stdout, stderr,
    wall seconds from spawn to exit, peak RSS in MiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out.decode(), b"".join(err).decode(), wall,
            usage.ru_maxrss / 1024.0)


def program(*args: str) -> list[str]:
    return [sys.executable, "-m", "enstrophy_bounds", *args]


def run_worker(cfg: dict, env: dict) -> tuple[dict, float]:
    rc, out, err, _, rss = run_child(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(cfg)], env,
        timeout=inputs.DEADLINE_S + 60.0)
    if rc != 0:
        raise BenchError(f"worker exited {rc}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1]), rss


def spawn_probe(env: dict) -> float:
    rc, _, err, wall, _ = run_child(
        [sys.executable, "-c", stats.SPAWN_PROBE_CODE], env)
    if rc != 0:
        raise BenchError(f"speed probe failed: {err.strip()[-2000:]}")
    return wall


def setup_samples(kind: str, env: dict):
    """Wall time of SETUP_REPEATS fresh interpreters from spawn to the
    first result, each after a speed probe. The first, unmeasured run
    compiles the bytecode, a one-off cost users do not pay on every start.
    Returns (samples, probes, numpy version)."""
    argv = [sys.executable, "-c", _SETUP_CODE,
            str(ROOT / "presets" / "fig2.json"),
            str(ROOT / "presets" / "fig3.json"), kind]
    samples, probes, numpy_version = [], [], None
    for i in range(SETUP_REPEATS + 1):
        if i:
            probes.append(spawn_probe(env))
        rc, out, err, wall, _ = run_child(argv, env)
        if rc != 0:
            raise BenchError(f"set-up failed: {err.strip()[-2000:]}")
        numpy_version = json.loads(out.splitlines()[-1])["numpy"]
        if i:
            samples.append(wall)
    return samples, probes, numpy_version


def import_seconds(env: dict) -> float:
    samples = []
    for _ in range(SETUP_REPEATS):
        rc, out, err, _, _ = run_child([sys.executable, "-c", _IMPORT_CODE],
                                       env)
        if rc != 0:
            raise BenchError(f"import failed: {err.strip()[-2000:]}")
        samples.append(float(out.split()[-1]))
    return statistics.median(samples)


# -- environment ---------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def src_digest() -> str:
    """sha256 over src/ (paths and contents), which identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(numpy_version: str) -> dict:
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "git_commit": git_commit(),
            "src_sha256": src_digest()}


# -- statistics ------------------------------------------------------------------

def end_to_end(summary: dict, rss_mb: float, probes: list[float],
               probe_ref: float, setup: list[float],
               setup_probes: list[float]):
    """The bounded metrics, times scaled to the reference speed (see
    stats.py) by the probes taken beside them, and the record entries:
    raw values, probes, fail ratio and the 90th percentile."""
    probe_s = statistics.median(probes)
    scale = probe_ref / probe_s
    setup_s = statistics.median(setup)
    setup_scale = stats.SPAWN_PROBE_REF_S / statistics.median(setup_probes)
    metrics = {
        "ops_per_s": {"value": summary["ops_per_s"] / scale, "unit": "1/s"},
        "op_p50_s": {"value": summary["op_p50_s"] * scale, "unit": "s"},
        "ok_ratio": {"value": summary["ok_ratio"], "unit": "ratio"},
        "setup_s": {"value": setup_s * setup_scale, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }
    samples = summary["samples"]
    p90 = summary["op_p90_s"] if samples >= P90_MIN_SAMPLES else None
    extra = {
        "probe_s": {"median": probe_s, "samples": len(probes),
                    "reference": probe_ref, "time_scale": scale,
                    "setup_time_scale": setup_scale},
        "raw": {"ops_per_s": summary["ops_per_s"],
                "op_p50_s": summary["op_p50_s"], "setup_s": setup_s,
                "op_p90_s": p90},
        "fail_ratio": {"value": summary["fail_ratio"], "unit": "ratio"},
        "op_p90_s": {"value": None if p90 is None else p90 * scale,
                     "unit": "s", "samples": samples,
                     "note": f"reported from {P90_MIN_SAMPLES} operations"},
    }
    return metrics, extra


# -- workloads -------------------------------------------------------------------

def run_cli_workload(args, env: dict, workdir: Path):
    probes = []

    def run_op(op):
        probes.append(spawn_probe(env))
        rc, out, err, wall, rss = run_child(program(*op.argv), env)
        if op.save_as and rc == 0:
            Path(op.save_as).write_text(out)
        return {"check": op.check, "rc": rc, "out": out, "err": err,
                "dt": wall, "rss": rss}

    def skip_op(op):
        return {"check": op.check, "rc": None, "out": "", "dt": 0.0,
                "err": checks.NOT_STARTED, "rss": 0.0}

    cycles = inputs.cli_cycles(args.workload, args.seed,
                               inputs.cycle_count(args.workload, args.seconds),
                               ROOT, BENCH_DIR, workdir)
    records = inputs.run_cycles(cycles, run_op, skip_op)
    checks.check_records(records, checks.References(BENCH_DIR))
    times = sorted(r["dt"] if r["ok"] else math.inf for r in records)
    return {"summary": stats.summarize(times, len(records),
                                       sum(r["dt"] for r in records)),
            "rss": max(r["rss"] for r in records), "probes": probes,
            "incorrect": sum(r["incorrect"] for r in records),
            "failures": Counter(r["reason"] for r in records if r["reason"])}


def run_library_workload(args, env: dict, workdir: Path):
    res, rss = run_worker(worker_config(args, "library", workdir), env)
    return {"summary": res["summary"], "rss": rss, "probes": res["probes"],
            "incorrect": res["incorrect"], "failures": Counter(res["failures"]),
            "typed_errors": res["typed_errors"]}


def worker_config(args, mode: str, workdir: Path) -> dict:
    return {"mode": mode, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "root": str(ROOT),
            "bench_dir": str(BENCH_DIR), "workdir": str(workdir)}


def per_layer(res: dict, import_s: float) -> dict:
    n = res["ops"]
    metrics = {}
    layers = res["layers"]
    for module, func in spans.TRACED:
        name = f"{module}.{func}"
        calls, self_s, total_s = layers.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls / n, "unit": "calls/op"}
        metrics[f"{name}.self_s"] = {"value": self_s / n, "unit": "s/op"}
        metrics[f"{name}.total_s"] = {"value": total_s / n, "unit": "s/op"}
    counters = res["counters"]
    module, _, method = spans.COUNTED_METHOD
    key = f"{module}.{method}.calls"
    metrics[key] = {"value": counters.get(key, 0) / n, "unit": "calls/op"}
    for name in spans.SERIALIZERS:
        metrics[f"{name}.bytes"] = {
            "value": counters.get(f"{name}.bytes", 0) / n, "unit": "B/op"}
    for check in spans.VERIFY_CHECKS:
        key = f"verify.failed_rows.{check}"
        metrics[key] = {"value": counters.get(key, 0) / n, "unit": "rows/op"}
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    metrics["trace.ops"] = {"value": n, "unit": "count"}
    metrics["trace.untraced_s"] = {"value": res["untraced_s"] / n,
                                   "unit": "s/op"}
    metrics["trace.traced_s"] = {"value": res["traced_s"] / n, "unit": "s/op"}
    metrics["trace.overhead_s"] = {
        "value": res["traced_s"] - res["untraced_s"], "unit": "s"}
    return metrics


# -- main ------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def require_checkout() -> None:
    needed = [ROOT / "src" / "enstrophy_bounds" / "__init__.py",
              ROOT / "presets" / "fig2.json", ROOT / "presets" / "fig3.json",
              BENCH_DIR / "refs" / "classify_points.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError("not a checkout of the program; missing "
                         + ", ".join(missing))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_checkout()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    env = child_env()
    workdir = ROOT / ".bench_build" / f"bench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        library = args.workload == "classify"
        setup, setup_probes, numpy_version = setup_samples(
            "library" if library else "cli", env)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "cycles": inputs.cycle_count(args.workload, args.seconds),
                  "env": environment(numpy_version), "setup_samples_s": setup}
        if args.trace:
            res, _ = run_worker(worker_config(args, "trace", workdir), env)
            metrics = per_layer(res, import_seconds(env))
            attempted, failed = res["attempted"], res["failed"]
            incorrect, failures = res["incorrect"], res["failures"]
            record["overhead_share"] = \
                (res["traced_s"] - res["untraced_s"]) / res["untraced_s"]
        else:
            run = (run_library_workload if library else run_cli_workload)(
                args, env, workdir)
            probe_ref = stats.LOOP_PROBE_REF_S if library \
                else stats.SPAWN_PROBE_REF_S
            metrics, extra = end_to_end(run["summary"], run["rss"],
                                        run["probes"], probe_ref, setup,
                                        setup_probes)
            attempted = run["summary"]["samples"]
            failed = run["summary"]["failed"]
            incorrect, failures = run["incorrect"], run["failures"]
            record.update(extra)
            if "typed_errors" in run:
                record["typed_errors"] = run["typed_errors"]
        record["failures"] = dict(Counter(failures).most_common())
        record["incorrect"] = incorrect
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": incorrect == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
