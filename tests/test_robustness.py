"""Every command answers or refuses by type, whatever the parameter file.

For any parameter file that ForcingParams accepts, each command run in
process returns an exit code: a result, or an EnstrophyBoundsError mapped
to its code. Any other exception escapes cli.run and fails the test.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from enstrophy_bounds import (EnstrophyBoundsError, ForcingParams,
                              assemble_full, classify_full, critical,
                              subcritical)
from enstrophy_bounds.cli import run

from conftest import PRESETS

FIG2 = json.loads((PRESETS / "fig2.json").read_text())

COMMANDS = [
    ["curve", "critical"], ["curve", "full"], ["curve", "scaling"],
    ["emax"], ["verify", "--points", "8"],
    ["classify", "--e", "1", "--E", "1e10"],
    ["classify", "--e", "1", "--E", "1e10", "--model", "subcritical"],
]


def _run_all(tmp_path, raw: dict) -> None:
    path = tmp_path / "params.json"
    path.write_text(json.dumps(raw))
    for cmd in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            run([*cmd, "--params", str(path)])


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
        family = critical if params.r == 0.5 else subcritical
        ch = family.chain(params)
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
