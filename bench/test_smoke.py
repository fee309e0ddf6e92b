"""Smoke tests of the benchmark itself, at its shortest run length.

    python3 -m pytest bench/test_smoke.py

Every workload, traced and untraced, must print each metric that
BENCHMARK.json names, with its unit; the output checks must accept the
reference outputs and reject moved ones; and outside a checkout of the
program the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"]), m["name"]
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    for key in ("nproc", "cpu_model", "python", "numpy", "src_sha256"):
        assert record["env"][key], key
    assert record["seed"] == 1 and record["seconds"] == 1


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_curve_check_tolerance():
    refs = checks.References(BENCH_DIR)
    ref = refs.text("fig2-critical.csv")
    check = {"kind": "curve", "format": "csv", "ref": "fig2-critical.csv"}
    checks.check_one(check, ref, refs)

    header, first, *rest = ref.splitlines()
    e, log10_E, tag = first.split(",")

    def moved(delta_ln):
        value = float(log10_E) + delta_ln / math.log(10.0)
        return "\n".join([header, f"{e},{value:.11e},{tag}", *rest]) + "\n"

    checks.check_one(check, moved(1e-12), refs)
    with pytest.raises(checks.Mismatch):
        checks.check_one(check, moved(1e-6), refs)


def test_csv_json_agreement_is_checked():
    refs = checks.References(BENCH_DIR)
    csv_text = refs.text("fig3-subcritical.csv")
    json_text = refs.text("fig3-subcritical.json")
    checks.csv_json_agree(csv_text, json_text)
    doc = json.loads(json_text)
    doc["segments"][0]["log10_E"][3] += 1e-6
    with pytest.raises(checks.Mismatch):
        checks.csv_json_agree(csv_text, json.dumps(doc))


def test_labels_checked_against_reference():
    checks.check_label("II", "critical", "II")
    with pytest.raises(checks.Mismatch):
        checks.check_label("III", "critical", "II")
    with pytest.raises(checks.Mismatch):
        checks.check_label("IV", "subcritical", None)
