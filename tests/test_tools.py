"""The scripts under tools/: the code-line count the design aim is
measured by (code_lines.py), and the run-by-run comparison of two
checkouts' outputs (outputs.py) with its digest of every run."""

import json
import shutil

from conftest import ROOT, tool

code_lines = tool("code_lines")
outputs = tool("outputs")


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
    # the runs of ONCE read no set: the help, and the usage error of an
    # unknown curve model, which names every model
    assert result.pop("--help")[0] == 0
    assert result.pop("curve bogus --params fig2.json")[::2] == [
        1, "error: model takes one of critical, full, scaling, subcritical, "
        "not 'bogus'\n"]
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
