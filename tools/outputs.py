"""Compare what two checkouts of the program print, run by run.

    python tools/outputs.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout's cli.run is called in process, in an interpreter of its
own whose import path starts at that checkout's src/, on one fixed set
of runs: every command of COMMANDS on every parameter set of
param_sets(), then each run of ONCE. A run's outcome is its (exit code,
stdout, stderr). The script prints each run whose outcomes differ, with
the lines that differ, and exits 1 if any run differs, 0 if none does.
It needs only the standard library.

The parameter sets are both presets; the 200 draws of draws(); fig2 at
f_norm = G = 300, 600, 1000 and 3000; fig2 at eta = 1 + 10^-k for
k = 4...15; 40 fig2 sets with G drawn uniformly from [1.5, 5] (seed 2);
two sets at the float-range edge, fig2 at curlF_norm = 1.765e153 (the
scaling admissibility floor at ln 708.5) and fig2 at eps = 1e-208,
curlF_norm = 4.29e-155 (the critical enstrophy floor at ln -715); and
six malformed parameter files, which every command refuses: fig2
with nu a 401-digit integer, true, "1" or NaN, fig2 with an unknown key,
and fig2 without nu. The commands are curve for each model in CSV and
JSON, emax, verify, taylor on the full model's JSON curve, and classify
at eight points for each classify model. The runs of ONCE read no
parameter set and run once per comparison: the help, and a usage error
(an unknown curve model on fig2); both print text built from the command
table.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIG2 = json.loads((ROOT / "presets" / "fig2.json").read_text())
FIG3 = json.loads((ROOT / "presets" / "fig3.json").read_text())

# the decades each key is drawn within around its fig2 value, as shares
# of three: eps and delta at or below theirs (rho = 2 eps + delta < 1),
# c_omega at or above (c_omega >= 1), every other key on both sides; the
# same sides as tests/test_robustness.py
SIDES = {"eps": (-1.0, 0.0), "delta": (-1.0, 0.0), "c_omega": (0.0, 1.0)}

# the run whose stdout taylor reads as curve.json
_CURVE_JSON = ["curve", "full", "--format", "json"]
COMMANDS = (
    [["curve", model, "--format", fmt]
     for model in ("critical", "subcritical", "full", "scaling")
     for fmt in ("csv", "json")]
    + [["emax"], ["verify"], ["taylor", "--curve", "curve.json"]]
    + [["classify", "--e", e, "--E", big_e, "--model", model]
       for model in ("full", "subcritical")
       for e in ("1e-2", "1", "1e2", "1e4") for big_e in ("1", "1e10")])
ONCE = (["--help"], ["curve", "bogus", "--params", "fig2.json"])

# what each checkout's interpreter runs: argv is (src, this file), stdin
# the parameter sets and the runs whose stdout to keep
_CHILD = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
import enstrophy_bounds
if not enstrophy_bounds.__file__.startswith(sys.argv[1]):
    sys.exit(f"enstrophy_bounds imported from {enstrophy_bounds.__file__}")
spec = importlib.util.spec_from_file_location("outputs", sys.argv[2])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
json.dump(tool.collect(**json.load(sys.stdin)), sys.stdout)
"""


def draws() -> list[dict]:
    """200 parameter sets from fig2, seeded (random.Random(1)): each key
    but r, in sorted order, times (its fig2 value or 1) 10^uniform(3 lo,
    3 hi), with (lo, hi) from SIDES, (-1, 1) by default; then r = 1/2 if
    random() < 0.5, else uniform(1/2, 1)."""
    rng = random.Random(1)
    sets = []
    for _ in range(200):
        raw = {}
        for key in sorted(set(FIG2) - {"r"}):
            lo, hi = SIDES.get(key, (-1.0, 1.0))
            raw[key] = (FIG2[key] or 1.0) \
                * 10.0 ** rng.uniform(3.0 * lo, 3.0 * hi)
        raw["r"] = 0.5 if rng.random() < 0.5 else rng.uniform(0.5, 1.0)
        sets.append(raw)
    return sets


def param_sets() -> list[tuple[str, dict]]:
    """(name, raw parameters) of every set the comparison runs."""
    rng = random.Random(2)
    return ([("fig2", FIG2), ("fig3", FIG3)]
            + [(f"draw {i}", raw) for i, raw in enumerate(draws())]
            + [(f"fig2 f_norm={g:g}", dict(FIG2, f_norm=g))
               for g in (300.0, 600.0, 1000.0, 3000.0)]
            + [(f"fig2 eta=1+1e-{k}", dict(FIG2, eta=1.0 + 10.0 ** -k))
               for k in range(4, 16)]
            + [(f"fig2 G draw {i}", dict(FIG2, f_norm=rng.uniform(1.5, 5.0)))
               for i in range(40)]
            + [("fig2 curlF_norm=1.765e153", dict(FIG2, curlF_norm=1.765e153)),
               ("fig2 eps=1e-208 curlF_norm=4.29e-155",
                dict(FIG2, eps=1e-208, curlF_norm=4.29e-155))]
            + [(f"fig2 nu={text}", dict(FIG2, nu=value))
               for text, value in (("10^400 as an int", 10 ** 400),
                                   ("true", True), ('"1"', "1"),
                                   ("NaN", float("nan")))]
            + [("fig2 unknown key", dict(FIG2, viscosity=1.0)),
               ("fig2 without nu",
                {key: v for key, v in FIG2.items() if key != "nu"})])


def outcome(argv: list[str]) -> tuple[int | None, str, str]:
    """(exit code, stdout, stderr) of cli.run(argv) in this process; an
    exception that escapes it, a bug, has exit code None and its type and
    message as stderr."""
    from enstrophy_bounds.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as exc:
            code = None
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def collect(sets: list, keep: list[str]) -> dict[str, list]:
    """{run: [exit code, sha256 of stdout, stderr, stdout or None]} of
    every command on every set and of each run of ONCE, the stdout kept
    for the runs named in keep. Runs in a scratch directory, with
    relative paths, so that no message names the directory."""
    keep, result, cwd = set(keep), {}, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for run, (code, out, err) in _runs(sets):
                digest = hashlib.sha256(out.encode()).hexdigest()
                result[run] = [code, digest, err,
                               out if run in keep else None]
        finally:
            os.chdir(cwd)
    return result


def _runs(sets: list):
    """(run, outcome) of each command on each set, then of each run of
    ONCE, in the current directory: a set is params.json while its
    commands run, taylor reads the full model's JSON curve as curve.json
    (absent where that curve was refused), and fig2 is fig2.json."""
    for name, raw in sets:
        Path("params.json").write_text(json.dumps(raw))
        Path("curve.json").unlink(missing_ok=True)
        for argv in COMMANDS:
            code, out, err = outcome([*argv, "--params", "params.json"])
            if argv == _CURVE_JSON and code == 0:
                Path("curve.json").write_text(out)
            yield f"{name} | {' '.join(argv)}", (code, out, err)
    Path("fig2.json").write_text(json.dumps(FIG2))
    for argv in ONCE:
        yield " ".join(argv), outcome(argv)


def _collect_in(checkout: str, sets: list, keep: list[str]) -> dict:
    """collect() run by checkout's own interpreter."""
    src = str(Path(checkout).resolve() / "src")
    tool = str(Path(__file__).resolve())
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD, src, tool],
        input=json.dumps({"sets": sets, "keep": keep}), capture_output=True,
        text=True)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _diff(old: str, new: str) -> list[str]:
    """The changed lines of new against old, at most ten."""
    # past the two file headers, every line but the hunk headers
    lines = [line for line in list(difflib.unified_diff(
        old.splitlines(), new.splitlines(), lineterm="", n=0))[2:]
        if not line.startswith("@@")]
    return lines[:10] + ([f"... {len(lines) - 10} more"] if len(lines) > 10
                         else [])


def compare(old: str, new: str, sets: list) -> dict[str, list[str]]:
    """{run: report lines} of every run whose outcome differs between the
    checkouts old and new, in run order; the sets that hold one are run
    again, with the runs of ONCE, keeping their stdout, to show the lines
    that differ."""
    first = [_collect_in(c, sets, []) for c in (old, new)]
    runs = [run for run in first[0] if first[0][run][:3] != first[1][run][:3]]
    if not runs:
        return {}
    names = {run.split(" | ")[0] for run in runs}
    again = [_collect_in(c, [s for s in sets if s[0] in names], runs)
             for c in (old, new)]
    report = {}
    for run in runs:
        (code_a, _, err_a, out_a), (code_b, _, err_b, out_b) = \
            again[0][run], again[1][run]
        report[run] = ([f"exit {code_a} -> {code_b}"] if code_a != code_b
                       else []) + _diff(err_a, err_b) + _diff(out_a, out_b)
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python tools/outputs.py OLD_CHECKOUT NEW_CHECKOUT",
              file=sys.stderr)
        return 2
    sets = param_sets()
    report = compare(argv[1], argv[2], sets)
    for run, lines in report.items():
        print(run)
        for line in lines:
            print("  " + line)
    print(f"{len(report)} of {len(sets) * len(COMMANDS) + len(ONCE)} runs "
          "differ")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
