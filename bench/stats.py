"""Summary statistics of one run and the machine-speed probe, shared by
run.py and worker.py."""

from __future__ import annotations

import math
import time

# Machine-speed probes. On a shared machine the speed available to one
# process drifts by up to 30 % over minutes, so each run times a fixed
# probe between operations and reports its end-to-end times scaled to the
# speed at which the probe's median takes its reference time (about its
# median on the 2-CPU Xeon box the benchmark was defined on). Each kind of
# operation gets the probe that tracked it there:
# * in-process calls: a pure-Python floating-point loop in the same busy
#   process (over six 12-second runs the ratio of classify time to probe
#   time varied by 5-7 % where each alone varied by 24-29 %);
# * command-line operations and set-up: a fresh interpreter importing a few
#   standard modules (ratio spread 3 % over twenty windows of ten
#   `curve subcritical` runs, while the loop, timed in the parent that
#   sat idle during each run, spread by 29 % and tracked nothing).
# The probes are benchmark code, so no change to the program moves them.
# The raw times are printed in the run record.
LOOP_PROBE_ITERATIONS = 12_000
LOOP_PROBE_REF_S = 0.005
SPAWN_PROBE_CODE = "import json, math, decimal, fractions"
SPAWN_PROBE_REF_S = 0.08


def loop_probe() -> float:
    t0 = time.perf_counter()
    x = 0.0
    for i in range(LOOP_PROBE_ITERATIONS):
        x += math.sqrt(i + 0.5) * math.log(i + 1.5)
    return time.perf_counter() - t0


def percentile(xs, q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence; +inf
    entries (failed operations) sort last."""
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if math.isinf(xs[hi]):
        return float(xs[hi] if pos > lo else xs[lo])
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def summarize(times, attempted: int, busy: float) -> dict:
    """times: ascending wall times of the successful operations followed
    by +inf for each failed one; busy: seconds spent inside all of them
    (on library runs, plus loading their parameter files). A failed
    operation's time counts against the throughput, so ending a failure
    sooner cannot pass for a speed-up."""
    ok = sum(1 for t in times if not math.isinf(t))
    return {"ops_per_s": ok / busy,
            "op_p50_s": percentile(times, 0.5),
            "op_p90_s": percentile(times, 0.9),
            "ok_ratio": ok / attempted,
            "fail_ratio": (attempted - ok) / attempted,
            "samples": attempted,
            "failed": attempted - ok}
