"""Seeded inputs and operation schedules for the benchmark workloads.

The program under test only ever sees what this module writes: JSON
parameter files and (e, E) points. The same seed gives the same inputs.
Draws stay inside each family's documented regime (ForcingParams accepts
them, r = 1/2 for critical, 1/2 < r <= 1 for subcritical) and are never
filtered on how a run turns out.

A run is a fixed number of cycles, set by the workload and the run
length alone (cycle_count), so the same seed and length always give the
same operations, and so the same number of failures. Every cycle has the
same shape (the same commands in the same order on the same kinds of
input), so the mix of cheap and expensive operations in a run does not
depend on the seed; only the drawn parameter values and points do. The
parameter sets a run draws form one Latin hypercube over the whole run,
so every run covers each family's regime evenly.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("curve-critical", "cli-light", "verify", "classify")

# draws per cycle that cover the whole positive float range instead of the
# curve's neighbourhood; classify_full overflows on E above about 1e102
WHOLE_RANGE_PER_BATCH = 2
POINTS_PER_BATCH = 40
# subcritical draws per verify cycle. About one in ten fails
# root_vs_gridscan, at random, so the share of failed operations varies
# from seed to seed as a binomial count; this many keeps its quartile
# spread over ten seeds near 0.085.
VERIFY_DRAWS = 12
# a command-line operation still running after this long is killed
OP_TIMEOUT_S = 45.0
# Seconds one cycle of each workload took (speed probes included) on the
# 2-CPU Xeon machine the benchmark was defined on. A run of S seconds holds
# round(S / CYCLE_S) cycles, at least one: a fixed amount of work, so a
# faster program finishes its run sooner instead of doing more.
CYCLE_S = {"curve-critical": 7.5, "cli-light": 8.0, "verify": 10.5,
           "classify": 0.2}
# once the operations of a run have taken this long, no further one starts;
# the rest count as failed, so a hung or very slow program cannot push the
# run past its time limit
DEADLINE_S = 110.0


@dataclass
class Op:
    """One command-line operation: argv after the program name, what its
    output must satisfy, and where to keep its stdout for a later op."""
    argv: list[str]
    check: dict
    save_as: str | None = None


@dataclass
class ClassifyBatch:
    """One parameter set and the points classified against it."""
    params_path: str
    calls: list[tuple[str, float, float, str | None]] = field(
        default_factory=list)  # (model, e, E, reference label or None)


def load_preset(root: Path, name: str) -> dict:
    return json.loads((root / "presets" / f"{name}.json").read_text())


def _lhs(rng: random.Random, n: int, dims: int) -> list[list[float]]:
    """Latin-hypercube sample of n points in [0, 1)^dims: every stratum of
    every axis is hit once, so per-cycle averages vary little by seed."""
    cols = []
    for _ in range(dims):
        perm = list(range(n))
        rng.shuffle(perm)
        cols.append([(k + rng.random()) / n for k in perm])
    return [[cols[d][i] for d in range(dims)] for i in range(n)]


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def critical_draws(rng: random.Random, base: dict, n: int) -> list[dict]:
    """r = 1/2, G in [1.5, 5] (nu = lambda = 1, so G = f_norm)."""
    out = []
    for u in _lhs(rng, n, 4):
        out.append(dict(base, r=0.5,
                        f_norm=_lerp(1.5, 5.0, u[0]),
                        curlF_norm=math.exp(_lerp(math.log(5.0),
                                                  math.log(400.0), u[1])),
                        eps=_lerp(0.15, 0.25, u[2]),
                        delta=_lerp(0.3, 0.45, u[3])))
    return out


def subcritical_draws(rng: random.Random, base: dict, n: int) -> list[dict]:
    """r in [0.51, 1], G in [2, 100], curlF_norm = 400 (the curl-led tail
    regime of acceptance criterion 9)."""
    return [dict(base, r=_lerp(0.51, 1.0, u[0]), f_norm=_lerp(2.0, 100.0, u[1]),
                 curlF_norm=400.0)
            for u in _lhs(rng, n, 2)]


def full_draws(rng: random.Random, base: dict, n: int) -> list[dict]:
    """Unconditional region at G in [1.5, 100]."""
    return [dict(base, f_norm=_lerp(1.5, 100.0, u[0]))
            for u in _lhs(rng, n, 1)]


def _log10_parabola(raw: dict, e: float) -> float:
    return math.log10(4.0 * raw["f_norm"] / raw["nu"]) + 0.5 * math.log10(e)


def near_curve_point(rng: random.Random, raw: dict) -> tuple[float, float]:
    """A point around the bounding curves: e from 1e-20 e0 to 10 e0, E from
    two decades under the forcing parabola to forty over it (E < 1e50)."""
    g = raw["f_norm"] / (raw["nu"] ** 2 * raw["lambda"] ** 0.75)
    e0 = raw["nu"] ** 2 * g * g / math.sqrt(raw["lambda"])
    e = e0 * 10.0 ** rng.uniform(-20.0, 1.0)
    E = 10.0 ** (_log10_parabola(raw, e) + rng.uniform(-2.0, 40.0))
    return e, E


def whole_range_point(rng: random.Random) -> tuple[float, float]:
    """A point anywhere in the normal positive float range."""
    return 10.0 ** rng.uniform(-300.0, 300.0), 10.0 ** rng.uniform(-300.0, 300.0)


def write_params(workdir: Path, name: str, raw: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")
    return str(path)


# -- reference points -----------------------------------------------------

def load_reference_points(bench_dir: Path) -> dict:
    """{"fig2:critical": [[e, E, label], ...], ...}, captured by
    make_refs.py at the commit that defined the benchmark."""
    return json.loads((bench_dir / "refs" / "classify_points.json").read_text())


def reference_point_set(root: Path, n: int = 200) -> dict:
    """The fixed points whose labels make_refs.py records: near-curve
    draws on each preset for each model that applies to it."""
    rng = random.Random("classify-reference-points")
    out = {}
    for preset, models in (("fig2", ("critical", "full")),
                           ("fig3", ("subcritical", "full"))):
        raw = load_preset(root, preset)
        for model in models:
            out[f"{preset}:{model}"] = [list(near_curve_point(rng, raw))
                                        for _ in range(n)]
    return out


# -- command-line schedules -------------------------------------------------

def _curve(model: str, params: str, fmt: str, check: dict,
           save_as: str | None = None) -> Op:
    return Op(["curve", model, "--params", params, "--format", fmt],
              dict(check, kind="curve", format=fmt, model=model,
                   params=params), save_as)


def _classify_op(params: str, e: float, E: float, family: str,
                 ref: str | None) -> Op:
    argv = ["classify", "--params", params, "--e", repr(e), "--E", repr(E)]
    if family != "full":
        argv += ["--model", "subcritical"]  # the CLI picks critical at r = 1/2
    return Op(argv, {"kind": "classify", "ref_label": ref, "family": family})


def _cycle_curve_critical(raw, root, workdir, i):
    """The fig2 preset and one draw, CSV and JSON alternating by cycle."""
    fig2 = str(root / "presets" / "fig2.json")
    path = write_params(workdir, f"crit-{i}", raw)
    first, second = ("csv", "json") if i % 2 == 0 else ("json", "csv")
    return [
        _curve("critical", fig2, first, {"ref": f"fig2-critical.{first}"}),
        _curve("critical", path, first, {"pair": str(i)}),
        _curve("critical", path, second, {"pair": str(i)}),
    ]


def _cycle_cli_light(rng, s_raw, f_raw, root, workdir, i, refs):
    fig2 = str(root / "presets" / "fig2.json")
    fig3 = str(root / "presets" / "fig3.json")
    ps = write_params(workdir, f"sub-{i}", s_raw)
    pf = write_params(workdir, f"full-{i}", f_raw)
    fig3_curve = str(workdir / f"fig3-sub-{i}.json")
    sub_curve = str(workdir / f"sub-{i}-curve.json")

    ops = [
        _curve("subcritical", fig3, "csv", {"ref": "fig3-subcritical.csv"}),
        _curve("subcritical", fig3, "json", {"ref": "fig3-subcritical.json"},
               save_as=fig3_curve),
        Op(["taylor", "--params", fig3, "--curve", fig3_curve],
           {"kind": "taylor", "ref": "fig3-taylor.json"}),
        _curve("full", fig2, "csv", {"ref": "fig2-full.csv"}),
        _curve("full", fig3, "json", {"ref": "fig3-full.json"}),
        _curve("scaling", fig2, "json", {"ref": "fig2-scaling.json"}),
        _curve("scaling", fig3, "csv", {"ref": "fig3-scaling.csv"}),
        Op(["emax", "--params", fig2], {"kind": "emax", "ref": "fig2-emax.json"}),
        Op(["emax", "--params", fig3], {"kind": "emax", "ref": "fig3-emax.json"}),
    ]
    for path, preset, family in ((fig2, "fig2", "full"),
                                 (fig3, "fig3", "subcritical"),
                                 (fig2, "fig2", "critical")):
        points = refs[f"{preset}:{family}"]
        e, E, label = points[rng.randrange(len(points))]
        ops.append(_classify_op(path, e, E, family, label))
    ops += [
        _curve("subcritical", ps, "csv", {"pair": f"{i}s"}),
        _curve("subcritical", ps, "json", {"pair": f"{i}s"},
               save_as=sub_curve),
        Op(["taylor", "--params", ps, "--curve", sub_curve],
           {"kind": "taylor", "ref": None}),
        _curve("full", pf, "json", {"pair": f"{i}f"}),
        _curve("full", pf, "csv", {"pair": f"{i}f"}),
        Op(["emax", "--params", ps], {"kind": "emax", "ref": None}),
    ]
    e, E = near_curve_point(rng, f_raw)
    ops.append(_classify_op(pf, e, E, "full", None))
    e, E = near_curve_point(rng, s_raw)
    ops.append(_classify_op(ps, e, E, "subcritical", None))
    return ops


def _cycle_verify(s_raws, c_raw, root, workdir, i):
    """fig3 and VERIFY_DRAWS subcritical draws every cycle; fig2 on even
    cycles and a critical draw on odd ones (each of those costs about five
    subcritical verifies)."""
    fig3 = str(root / "presets" / "fig3.json")
    subs = [write_params(workdir, f"vsub-{i}-{k}", raw)
            for k, raw in enumerate(s_raws)]
    half = len(subs) // 2
    if c_raw is None:
        heavy = str(root / "presets" / "fig2.json")
    else:
        heavy = write_params(workdir, f"vcrit-{i}", c_raw)
    return [Op(["verify", "--params", path], {"kind": "verify"})
            for path in [heavy, *subs[:half], fig3, *subs[half:]]]


def cycle_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_S[workload]))


def cli_cycles(workload: str, seed: int, n: int, root: Path, bench_dir: Path,
               workdir: Path) -> list[list[Op]]:
    """The op lists of the n cycles of a command-line workload, with their
    parameter files written into workdir."""
    refs = load_reference_points(bench_dir)
    rng = random.Random(f"{workload}:{seed}")
    fig2, fig3 = load_preset(root, "fig2"), load_preset(root, "fig3")
    if workload == "curve-critical":
        return [_cycle_curve_critical(raw, root, workdir, i)
                for i, raw in enumerate(critical_draws(rng, fig2, n))]
    if workload == "cli-light":
        subs = subcritical_draws(rng, fig3, n)
        fulls = full_draws(rng, fig2, n)
        return [_cycle_cli_light(random.Random(f"{workload}:{seed}:{i}"),
                                 subs[i], fulls[i], root, workdir, i, refs)
                for i in range(n)]
    if workload == "verify":
        k = VERIFY_DRAWS
        subs = subcritical_draws(rng, fig3, k * n)
        crits = iter(critical_draws(rng, fig2, n // 2))
        return [_cycle_verify(subs[k * i:k * i + k],
                              next(crits) if i % 2 else None, root, workdir, i)
                for i in range(n)]
    raise ValueError(f"{workload!r} is not a command-line workload")


# -- library schedule ---------------------------------------------------------

def _drawn_calls(rng, raw, models):
    batches = []
    for model in models:
        for k in range(POINTS_PER_BATCH):
            if k % (POINTS_PER_BATCH // WHOLE_RANGE_PER_BATCH) == 0:
                e, E = whole_range_point(rng)
            else:
                e, E = near_curve_point(rng, raw)
            batches.append((model, e, E, None))
    return batches


def classify_cycles(seed: int, n: int, root: Path, bench_dir: Path,
                    workdir: Path) -> list[list[ClassifyBatch]]:
    """The ClassifyBatch lists of the n cycles of the classify workload,
    each holding both presets (points with reference labels) and one
    critical and one subcritical draw, each classified with its family and
    with the full model, POINTS_PER_BATCH points per model."""
    refs = load_reference_points(bench_dir)
    fig2 = str(root / "presets" / "fig2.json")
    fig3 = str(root / "presets" / "fig3.json")
    rng = random.Random(f"classify:{seed}")
    c_raws = critical_draws(rng, load_preset(root, "fig2"), n)
    s_raws = subcritical_draws(rng, load_preset(root, "fig3"), n)
    cycles = []
    for i in range(n):
        rng = random.Random(f"classify:{seed}:{i}")
        out = []
        for path, preset, models in ((fig2, "fig2", ("critical", "full")),
                                     (fig3, "fig3", ("subcritical", "full"))):
            batch = ClassifyBatch(path)
            for model in models:
                pts = refs[f"{preset}:{model}"]
                for _ in range(POINTS_PER_BATCH):
                    e, E, label = pts[rng.randrange(len(pts))]
                    batch.calls.append((model, e, E, label))
            out.append(batch)
        for name, raw, models in ((f"ccrit-{i}", c_raws[i],
                                   ("critical", "full")),
                                  (f"csub-{i}", s_raws[i],
                                   ("subcritical", "full"))):
            path = write_params(workdir, name, raw)
            out.append(ClassifyBatch(path, _drawn_calls(rng, raw, models)))
        cycles.append(out)
    return cycles


def run_cycles(cycles, run_one, skip) -> list:
    """Closed loop over every element of every cycle, one at a time:
    run_one(item), or skip(item) once the run has passed DEADLINE_S."""
    results = []
    start = time.perf_counter()
    for cycle in cycles:
        for item in cycle:
            late = time.perf_counter() - start >= DEADLINE_S
            results.append(skip(item) if late else run_one(item))
    return results
