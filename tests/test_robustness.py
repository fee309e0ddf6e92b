"""Every command answers or refuses by type, whatever the parameter file.

For any parameter file that ForcingParams accepts, each command run in
process returns an exit code: a result, or an EnstrophyBoundsError mapped
to its code. Any other exception escapes cli.run and fails the test. What
a command writes holds only finite numbers: JSON without Infinity or NaN,
and a finite log10_E on every CSV row.
"""

import contextlib
import csv
import io
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from enstrophy_bounds import (EnstrophyBoundsError, ForcingParams,
                              assemble_full, branches, classify_full,
                              subcritical)
from enstrophy_bounds.cli import run

from conftest import PRESETS, ROOT, tool

FIG2 = json.loads((PRESETS / "fig2.json").read_text())

COMMANDS = [
    ["curve", "critical"], ["curve", "full"], ["curve", "scaling"],
    ["emax"], ["verify", "--points", "8"],
    ["classify", "--e", "1", "--E", "1e10"],
    ["classify", "--e", "1", "--E", "1e10", "--model", "subcritical"],
]


def _refuse(name):
    raise ValueError(f"non-finite number {name} in JSON output")


def _run_all(tmp_path, raw: dict) -> None:
    path = tmp_path / "params.json"
    path.write_text(json.dumps(raw))
    for cmd in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            run([*cmd, "--params", str(path)])
        text = out.getvalue()
        if cmd[0] == "curve":
            rows = csv.DictReader(io.StringIO(text))
            assert all(math.isfinite(float(row["log10_E"])) for row in rows)
        elif cmd[0] != "classify" and text:
            json.loads(text, parse_constant=_refuse)


@pytest.mark.parametrize("key", sorted(FIG2))
def test_one_key_at_extreme_values(tmp_path, key):
    for value in (1e-300, 1e-200, 1e-100, 1e-50, 1e50, 1e100, 1e200, 1e300):
        _run_all(tmp_path, dict(FIG2, **{key: value}))


# decades drawn for each key around its fig2 value, as a share of the
# width: eps and delta stay at or below theirs (so rho = 2 eps + delta < 1)
# and c_omega at or above (c_omega >= 1), because ForcingParams refuses the
# rest. psi_inf is 0 in fig2, so it is drawn around 1.
_SIDES = {"eps": (-1.0, 0.0), "delta": (-1.0, 0.0), "c_omega": (0.0, 1.0)}
_KEYS = sorted(set(FIG2) - {"r"})


@st.composite
def _params(draw, width=60.0):
    raw = {}
    for key in _KEYS:
        lo, hi = _SIDES.get(key, (-1.0, 1.0))
        raw[key] = (FIG2[key] or 1.0) \
            * 10.0 ** draw(st.floats(lo * width, hi * width))
    raw["r"] = draw(st.one_of(st.just(0.5),
                              st.floats(0.5, 1.0, exclude_min=True)))
    return raw


@pytest.mark.parametrize("width", [60.0, 200.0, 300.0],
                         ids=["60", "200", "300"])
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_joint_draws_within_decades(tmp_path_factory, width, data):
    _run_all(tmp_path_factory.mktemp("joint"), data.draw(_params(width)))


@pytest.mark.parametrize("width", [100.0, 300.0], ids=["100", "300"])
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_family_floor_within_decades(width, data):
    # the floor rule, the family constants and the two closed-form
    # brackets, on the family chain: a floor in float range, a peak and a
    # floor crossing, or a typed refusal
    raw = data.draw(_params(width))
    try:
        params = ForcingParams.from_mapping(raw)
        ch = branches.family(params)
        assert 0.0 < ch.floor < math.inf
        assert ch.curl_dominant in (True, False)
        assert ch.ln_floor < ch.peak[1] <= ch.ln_e0
    except EnstrophyBoundsError:
        pass


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(raw=_params(100.0))
def test_full_region_within_a_hundred_decades(raw):
    # the unconditional region, formed in logs: a label and a bundle, or a
    # typed refusal
    try:
        params = ForcingParams.from_mapping(raw)
        assert classify_full(1.0, 1e10, params) in ("I", "II", "III", "IV")
        assemble_full(params, 64)
    except EnstrophyBoundsError:
        pass


def test_eta_near_one(tmp_path):
    # the extreme values above never put eta in (1, 1.01): there the
    # funnels' power p = eta/(eta - 1) + 1/2 is large, and (e0/e)^p leaves
    # float range on verify's e2 scan
    rng = random.Random(30)
    for _ in range(30):
        _run_all(tmp_path, dict(FIG2, eta=1.0 + 10.0 ** rng.uniform(-12.0, -1.0),
                                f_norm=10.0 ** rng.uniform(-2.0, 3.0),
                                r=rng.choice([0.5, 0.75])))


def test_verify_on_critical_sets_with_a_slow_peak(tmp_path):
    # a small c2 puts the peak far from the barrier asymptote (x* =
    # ln(1 - e_max/e_a) above -2 in 15 of these 20 draws, -48.7 on fig2),
    # so the peak scan's grid, x* +- 2, reaches w >= 0, where e would be
    # at or left of 0: such points are skipped and verify passes
    rng = random.Random(24)
    path = tmp_path / "params.json"
    for _ in range(20):
        raw = dict(FIG2, f_norm=rng.uniform(0.8, 2.0),
                   c2=rng.uniform(0.05, 0.3), mu=rng.uniform(2.0, 20.0),
                   eps=rng.uniform(0.15, 0.45), delta=rng.uniform(0.0, 0.05))
        path.write_text(json.dumps(raw))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(["verify", "--points", "8", "--params", str(path)])
        assert code == 0, raw
        assert all(row["pass"] for row in json.loads(out.getvalue()))


@pytest.mark.parametrize("c", [0.000251, 0.000252, 0.000253, 0.000255])
def test_verify_on_subcritical_sets_peaking_next_to_the_anchor(tmp_path, c):
    # a small production constant puts e_bar less than one scan step
    # (0.02) below e0, where the rise ends; the peak scan's right half
    # must stay inside [e_bar, e0] to find the sign change there
    raw = dict(json.loads((PRESETS / "fig3.json").read_text()), c=c,
               curlF_norm=1e7)
    ch = subcritical.chain(ForcingParams.from_mapping(raw))
    assert 0.0 < ch.ln_e0 - ch.peak[0] < 0.02
    path = tmp_path / "params.json"
    path.write_text(json.dumps(raw))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(["verify", "--points", "8", "--params", str(path)])
    assert code == 0, raw
    assert all(row["pass"] for row in json.loads(out.getvalue()))


# the refusal map: for each of the 200 seeded draws of tools/outputs.py
# (the sides above, three decades wide) and each command, its exit code
# and error class (the stderr text before its first colon, "" for none).
# A change that moves a draw from answer to refusal, or from one refusal
# to another, shows here; the table is data this check reads, so every
# change to it goes in CHANGES.md with its reason.
MAP = ROOT / "tests" / "data" / "refusal_map.json"
outputs = tool("outputs")
MAP_COMMANDS = [
    ["curve", "critical"], ["curve", "subcritical"], ["curve", "full"],
    ["curve", "scaling"], ["emax"], ["verify"],
    ["classify", "--e", "1", "--E", "1e10"],
    ["classify", "--e", "1", "--E", "1e10", "--model", "subcritical"],
]


def refusal_map(path):
    """[exit code, error class] of each map command on each draw, with
    the draw written to path."""
    rows = []
    for raw in outputs.draws():
        path.write_text(json.dumps(raw))
        row = []
        for cmd in MAP_COMMANDS:
            code, _, err = outputs.outcome([*cmd, "--params", str(path)])
            row.append([code, err.split(":", 1)[0].strip()])
        rows.append(row)
    return rows


def test_refusal_map_is_pinned(tmp_path):
    assert outputs.SIDES == _SIDES
    pinned = json.loads(MAP.read_text())
    assert pinned["commands"] == [" ".join(cmd) for cmd in MAP_COMMANDS]
    rows = refusal_map(tmp_path / "params.json")
    moved = [(i, " ".join(cmd), pinned["draws"][i][j], now)
             for i, row in enumerate(rows)
             for j, (cmd, now) in enumerate(zip(MAP_COMMANDS, row))
             if pinned["draws"][i][j] != now]
    assert not moved, moved[:10]
