"""The scripts under tools/: the code-line count the design aim is
measured by (code_lines.py), the run-by-run comparison of two
checkouts' outputs (outputs.py) with its digest of every run, and the
list of statements the fixed set leaves unreached (unreached.py)."""

import json
import shutil
from collections import Counter

from conftest import ROOT, tool

code_lines = tool("code_lines")
outputs = tool("outputs")
unreached = tool("unreached")


# every kind of line the count skips or keeps: docstrings of a module, a
# class, a method and an async function, comments, blank lines, and
# strings that are not docstrings
_SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code

# a comment line


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Method
        docstring."""
        return """a multi-line
string that is
not a docstring"""


async def g():
    """Async docstring."""
    await os.sched_yield()


def k():
    y = 2
    """A string after the first statement is not a docstring."""
    return y
'''

# import, class, x = 1, def f, the three lines of the returned string,
# async def, await, def k, y = 2, the late string, return y
_CODE_LINES = 13


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    assert code_lines.code_lines(_SOURCE) == _CODE_LINES


def test_main_prints_one_line_per_module_and_their_sum(tmp_path, capsys):
    (tmp_path / "alpha.py").write_text(_SOURCE)
    (tmp_path / "beta.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["alpha", str(_CODE_LINES)], ["beta", "1"],
                    ["total", str(_CODE_LINES + 1)]]


def test_outputs_of_one_checkout_match_themselves():
    assert outputs.compare(ROOT, ROOT, outputs.param_sets()[:2]) == {}


def test_outputs_report_a_changed_output(tmp_path):
    # a copy of the package whose emax writes one key under another name:
    # exactly the emax runs of each preset differ (each answers), shown
    # line by line
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    maxest = tmp_path / "src" / "enstrophy_bounds" / "maxest.py"
    maxest.write_text(
        maxest.read_text().replace('"eta_used":', '"eta_in_use":'))
    report = outputs.compare(ROOT, tmp_path, outputs.param_sets()[:2])
    assert list(report) == [f"{preset} | {' '.join(argv)}"
                            for preset in ("fig2", "fig3")
                            for argv in outputs.COMMANDS if argv[0] == "emax"]
    for lines in report.values():
        assert [line[:1] for line in lines] == ["-", "+"]
        assert '"eta_used"' in lines[0] and '"eta_in_use"' in lines[1]


def test_outputs_malformed_sets_are_refused_by_every_command():
    # the last six sets are parameter files that the loader refuses: every
    # command exits 1 with the same one-line refusal, and none escapes
    sets = outputs.param_sets()[-6:]
    result = outputs.collect(sets, [])
    assert len(result) == len(sets) * len(outputs.COMMANDS) \
        + len(outputs.ONCE)
    for argv in outputs.ONCE:
        del result[" ".join(argv)]
    refusals = {}
    for run, (code, _, err, _) in result.items():
        assert code == 1, run
        refusals.setdefault(run.split(" | ")[0], set()).add(err)
    assert refusals == {
        "fig2 nu=10^400 as an int": {
            "InvalidRegime: parameter 'nu' must be finite\n"},
        "fig2 nu=true": {
            "InvalidRegime: parameter 'nu' must be a number, got True\n"},
        'fig2 nu="1"': {
            "InvalidRegime: parameter 'nu' must be a number, got '1'\n"},
        "fig2 nu=NaN": {"InvalidRegime: parameter 'nu' must be finite\n"},
        "fig2 unknown key": {
            "InvalidRegime: unknown parameter keys: viscosity\n"},
        "fig2 without nu": {
            "MissingKey: missing required parameter 'nu'\n"},
    }


def test_outputs_range_rule_sets_are_refused_by_every_command():
    # one set per range rule of ForcingParams: every command exits 1 with
    # that rule's refusal
    rules = {
        "fig2 nu=0": "nu must be positive",
        "fig2 f_norm=-1": "f_norm must be nonnegative",
        "fig2 c_omega=0.5": "c_omega must be at least 1",
        "fig2 eta=1": "eta must exceed 1",
        "fig2 r=0.4": "r must lie in [1/2, 1], got 0.4",
        "fig2 eps=0.45 delta=0.2": "2*eps + delta must stay below 1, got 1.1",
    }
    sets = [s for s in outputs.param_sets() if s[0] in rules]
    refusals = {}
    for run, (code, _, err, _) in outputs.collect(sets, []).items():
        if " | " in run:
            assert code == 1, run
            refusals.setdefault(run.split(" | ")[0], set()).add(err)
    assert refusals == {name: {f"InvalidRegime: {rule}\n"}
                        for name, rule in rules.items()}


def test_outputs_runs_of_once_answer_or_refuse_by_name():
    # the runs of ONCE read fig2.json or the files of FIXTURES: the help
    # and the curve written to a file answer, every other run is refused
    # by name
    result = outputs.collect([], [])
    assert list(result) == [" ".join(argv) for argv in outputs.ONCE]
    assert [result.pop(run)[0] for run in (
        "--help", "curve critical --params fig2.json --out c.csv")] == [0, 0]
    curve_file = "InvalidRegime: {} is not a curve file: "
    assert {run: tuple(outcome[::2]) for run, outcome in result.items()} == {
        "curve bogus --params fig2.json": (
            1, "error: model takes one of critical, full, scaling, "
            "subcritical, not 'bogus'\n"),
        "frobnicate": (
            1, "error: expected a command: curve, emax, classify, verify, "
            "taylor\n"),
        "emax --params fig2.json --bogus 1": (
            1, "error: unrecognized argument '--bogus'\n"),
        "emax --params": (1, "error: --params needs a value\n"),
        "curve critical --params fig2.json --samples 1": (
            1, "OutsideDomain: need at least two samples per segment, got "
            "1\n"),
        **{f"classify --e 0 --E 1 --params fig2.json --model {model}": (
            1, "OutsideDomain: classification needs e > 0 and E > 0\n")
           for model in ("full", "subcritical")},
        "verify --params fig2.json --points -1": (
            1, "OutsideDomain: containment needs n_points >= 0, got -1\n"),
        "emax --params fig2.json --anchor-E0 inf": (
            1, "InvalidRegime: E0_anchor must be positive and finite, got "
            "inf\n"),
        "emax --params fig2.json --eta nan": (
            1, "InvalidRegime: eta must be finite, got nan\n"),
        "emax --params fig2.json --anchor-E0 -1e3": (
            1, "InvalidRegime: E0_anchor must be positive and finite, got "
            "-1000.0\n"),
        "taylor --params fig2.json --curve bool.json": (
            1, curve_file.format("bool.json")
            + "TypeError: every log10_E must be a number\n"),
        "taylor --params fig2.json --curve zero.json": (
            1, curve_file.format("zero.json")
            + "every energy must be positive\n"),
        "taylor --params fig2.json --curve short.json": (
            1, curve_file.format("short.json")
            + "segment phi1 needs one finite log10_E per energy\n"),
        "taylor --params fig2.json --curve negative.json": (
            1, curve_file.format("negative.json")
            + "ValueError: malformed scientific literal '-1.0e5'\n"),
        "emax --params not-json.json": (
            1, "InvalidRegime: not-json.json is not a JSON parameter file: "
            "Expecting property name enclosed in double quotes: line 1 "
            "column 2 (char 1)\n"),
        "emax --params list.json": (
            1, "InvalidRegime: parameter file must hold a JSON object\n"),
    }


def test_outputs_float_range_edge_sets_are_refused_where_the_floor_is():
    # the two sets before the malformed ones put a floor just past float
    # range: exactly the runs that form that floor refuse the set, by name
    sets = outputs.param_sets()[-8:-6]
    result = outputs.collect(sets, [])
    refused = {run: err for run, (code, _, err, _) in result.items()
               if "float range" in err}
    assert all(result[run][0] == 1 for run in refused)
    scaling, critical = (name for name, _ in sets)
    assert set(refused) == {
        *(f"{scaling} | curve scaling --format {fmt}"
          for fmt in ("csv", "json")),
        *(f"{critical} | {' '.join(argv)}" for argv in outputs.COMMANDS
          if argv[:2] == ["curve", "critical"] or argv == ["verify"]
          or (argv[0] == "classify" and argv[-1] == "subcritical"))}
    assert set(refused.values()) == {
        "InvalidRegime: admissibility floor E_floor = exp(708.5) is above "
        "float range\n",
        "InvalidRegime: enstrophy floor exp(-715) is outside float range\n"}


def test_outputs_digest_is_pinned():
    # every run of the fixed set, recomputed in process, against the
    # digest outputs.digest() wrote: a change whose outputs move writes it
    # again in the same commit and lists the moved runs. A set that moved
    # is named with each run whose exit code moved; where only stdout or
    # stderr moved, python tools/outputs.py OLD NEW shows the lines
    pinned = json.loads(outputs.DIGEST.read_text())
    now = outputs.digest_of(outputs.collect(outputs.param_sets(), []))
    assert now["commands"] == pinned["commands"]
    assert list(now["sets"]) == list(pinned["sets"])
    moved = []
    for name, (digest, codes) in pinned["sets"].items():
        now_digest, now_codes = now["sets"][name]
        if now_digest == digest:
            continue
        runs = [f"{' '.join(argv)}: exit {old} -> {new}"
                for argv, old, new in zip(
                    outputs.COMMANDS if name else outputs.ONCE,
                    codes, now_codes) if old != new]
        moved.append(f"{name or 'runs of ONCE'}: "
                     + ("; ".join(runs) or "stdout or stderr moved"))
    assert not moved, "\n".join(moved)


# every kind of statement the unreached count keeps or leaves out: a
# module docstring and import, a function's docstring, a nonlocal
# declaration, a compound statement whose header spans two lines and a
# comment, and a try statement with its handler and else block
_STATEMENTS = '''"""Module docstring."""
import os

X = 1


def f(a):
    """Function docstring."""
    n = 0

    def g():
        nonlocal n
        n += 1

    if (a
            and n):  # a comment
        # a comment line
        return g()
    try:
        pass
    except ValueError:
        raise
    else:
        n = 2
'''


def test_unreached_counts_statements_by_their_own_lines():
    assert unreached.statements(_STATEMENTS) == [
        ("", "X = 1", range(4, 5)),
        ("f", "n = 0", range(9, 10)),
        ("f.g", "n += 1", range(13, 14)),
        ("f", "if (a and n):", range(15, 17)),
        ("f", "return g()", range(18, 19)),
        ("f", "try:", range(19, 20)),
        ("f", "pass", range(20, 21)),
        ("f", "raise", range(22, 23)),
        ("f", "n = 2", range(24, 25)),
    ]


def test_unreached_allowlist_names_one_statement_and_one_test_each():
    # parsed, not traced: each entry of the allowlist names exactly one
    # statement of src/, no statement is listed twice, and the test that
    # each entry says reaches it exists. An edit that deletes or rewrites
    # an allowlisted statement fails here
    found = Counter((module, scope, text)
                    for module, statements in unreached.library().items()
                    for scope, text, _ in statements)
    assert [key for key in unreached.ALLOWED if found[key] != 1] == []
    assert len(unreached.ALLOWED) == sum(len(group) - 2
                                         for group in unreached._GROUPS)
    for reason, test in unreached.ALLOWED.values():
        path, name = test.split("::")
        assert f"\ndef {name}(" in (ROOT / "tests" / path).read_text(), test
