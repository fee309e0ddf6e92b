"""Every benchmark reference output is still reproduced within tolerance.

bench/refs holds the preset outputs the benchmark compares each run
against (bench/make_refs.py): the curves of every model on the presets it
applies to, CSV and JSON, both emax reports and the taylor report of the
fig3 subcritical curve. Each is regenerated here in process and compared
by bench/checks.py's own comparisons, so an output that moves by more
than 1e-9 in ln E fails the suite, not only a benchmark run.
"""

import importlib.util
import json
import lzma

import pytest

from enstrophy_bounds.cli import run

from conftest import PRESETS, ROOT

REFS = ROOT / "bench" / "refs"
NAMES = sorted(p.name[:-len(".xz")] for p in REFS.glob("*.xz"))


def _checks():
    spec = importlib.util.spec_from_file_location(
        "bench_checks", ROOT / "bench" / "checks.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _stdout(capsys, args) -> str:
    assert run(args) == 0
    return capsys.readouterr().out


def test_every_reference_is_covered():
    # 6 preset/model curves in two formats, 2 emax reports, 1 taylor report
    assert len(NAMES) == 15


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_reference(name, capsys, tmp_path):
    checks = _checks()
    stem, fmt = name.rsplit(".", 1)
    preset, kind = stem.split("-", 1)
    params = str(PRESETS / f"{preset}.json")
    if kind == "emax":
        out = _stdout(capsys, ["emax", "--params", params])
    elif kind == "taylor":
        curve = tmp_path / "curve.json"
        curve.write_text(_stdout(capsys, [
            "curve", "subcritical", "--params", params, "--format", "json"]))
        out = _stdout(capsys, ["taylor", "--params", params,
                               "--curve", str(curve)])
    else:
        out = _stdout(capsys, ["curve", kind, "--params", params,
                               "--format", fmt])
    with lzma.open(REFS / f"{name}.xz", "rt", encoding="utf-8") as fh:
        ref = fh.read()
    if fmt == "csv":
        checks._compare_rows(checks.parse_csv(out), checks.parse_csv(ref))
    else:
        checks.compare_json(json.loads(out), json.loads(ref))
