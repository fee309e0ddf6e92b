"""Capture the reference outputs the benchmark compares against.

    python3 bench/make_refs.py

Writes bench/refs/: the preset curves (every model on the presets it
applies to, CSV and JSON), the emax reports, the taylor report of the fig3
subcritical curve, all xz-compressed, and classify_points.json, the fixed
near-curve points on each preset with their labels. Run it only at a
commit whose outputs are known good; the benchmark then flags any later
output that moves by more than 1e-9 in ln E.
"""

from __future__ import annotations

import json
import lzma
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

import inputs  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS = BENCH_DIR / "refs"

CURVES = (("fig2", "critical"), ("fig3", "subcritical"), ("fig2", "full"),
          ("fig3", "full"), ("fig2", "scaling"), ("fig3", "scaling"))


def cli(*args: str) -> str:
    return subprocess.run([sys.executable, "-m", "enstrophy_bounds", *args],
                          cwd=ROOT, check=True, capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src")}).stdout


def save(name: str, text: str) -> None:
    with lzma.open(REFS / f"{name}.xz", "wt", encoding="utf-8") as fh:
        fh.write(text)


def main() -> None:
    REFS.mkdir(exist_ok=True)
    for preset, model in CURVES:
        params = str(ROOT / "presets" / f"{preset}.json")
        for fmt in ("csv", "json"):
            save(f"{preset}-{model}.{fmt}",
                 cli("curve", model, "--params", params, "--format", fmt))
    for preset in ("fig2", "fig3"):
        save(f"{preset}-emax.json",
             cli("emax", "--params", str(ROOT / "presets" / f"{preset}.json")))
    with tempfile.TemporaryDirectory() as tmp:
        curve = Path(tmp) / "fig3-subcritical.json"
        curve.write_text(cli("curve", "subcritical", "--params",
                             str(ROOT / "presets" / "fig3.json"),
                             "--format", "json"))
        save("fig3-taylor.json",
             cli("taylor", "--params", str(ROOT / "presets" / "fig3.json"),
                 "--curve", str(curve)))

    sys.path.insert(0, str(ROOT / "src"))
    import enstrophy_bounds as eb
    classify = {"critical": eb.classify_critical,
                "subcritical": eb.classify_subcritical,
                "full": eb.classify_full}
    labelled = {}
    for key, points in inputs.reference_point_set(ROOT).items():
        preset, model = key.split(":")
        p = eb.load_params_file(str(ROOT / "presets" / f"{preset}.json"))
        labelled[key] = [[e, E, classify[model](e, E, p)] for e, E in points]
    (REFS / "classify_points.json").write_text(
        json.dumps(labelled, indent=1) + "\n")


if __name__ == "__main__":
    main()
