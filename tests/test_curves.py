"""Sample grids: the pure-Python grid must round as numpy.linspace does, so
that every emitted abscissa stays bit-identical. The JSON writer against
json's indent encoder, byte for byte."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import enstrophy_bounds
from enstrophy_bounds import (CancellationLoss, EnstrophyBoundsError,
                              ForcingParams, InvalidRegime, OutsideDomain)
from enstrophy_bounds.curves import (CurveBundle, CurveSegment, bundle_to_json,
                                     log_grid, max_join_gap, round_sig)
from enstrophy_bounds.logscalar import _LN10, sci_string

from conftest import PRESETS

_magnitude = st.floats(min_value=1e-300, max_value=1e5)
_value = st.builds(lambda m, neg: -m if neg else m, _magnitude, st.booleans())


def _bits(values):
    return [float(v).hex() for v in values]


@given(lo=_value, hi=_value, same=st.booleans(), n=st.integers(2, 5000))
@example(lo=-1.0, hi=1.0, same=False, n=201)
@example(lo=-40.0, hi=-11000.0, same=False, n=512)
@example(lo=1e-300, hi=1e-300, same=False, n=5000)
def test_log_grid_matches_linspace_bit_for_bit(lo, hi, same, n):
    if same:
        hi = lo
    assert _bits(log_grid(lo, hi, n)) == _bits(np.linspace(lo, hi, n).tolist())


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_log_grid_needs_two_samples(n):
    with pytest.raises(OutsideDomain):
        log_grid(0.0, 1.0, n)


def test_max_join_gap_refuses_segments_without_a_shared_breakpoint(fig2):
    # phi1 starts at ln e = 0 but phi2 ends at -1: no join to measure
    phi1 = CurveSegment("phi1", [0.0, 1.0], [5.0, 4.0])
    phi2 = CurveSegment("phi2", [-2.0, -1.0], [3.0, 5.0])
    bundle = CurveBundle("critical", fig2, [phi1, phi2], {})
    with pytest.raises(CancellationLoss, match="do not share a breakpoint"):
        max_join_gap(bundle)
    assert CancellationLoss.exit_code == 2
    phi2.ln_e[-1] = 0.0
    assert max_join_gap(bundle) == 0.0


def test_segment_refusals_are_typed_and_name_the_tag():
    with pytest.raises(InvalidRegime, match=r"^unknown segment tag 'phi4'$"):
        CurveSegment("phi4", [0.0], [1.0])
    with pytest.raises(InvalidRegime, match=r"^segment 'phi2': 2 abscissas "
                       r"but 1 ordinates$"):
        CurveSegment("phi2", [0.0, 1.0], [1.0])


# -- the JSON writer ------------------------------------------------------


def _indent_json(bundle):
    """The bundle through json.dumps(doc, sort_keys=True, indent=2), the
    document the writer gave before it wrote the segment arrays itself:
    the oracle of its bytes."""
    breakpoints = {}
    for name, ln in bundle.breakpoints.items():
        if name == "E0" and abs(ln) < 700.0:
            breakpoints[name] = round_sig(math.exp(ln))
        elif name.startswith("E"):
            breakpoints["log10_" + name] = round_sig(ln / _LN10)
        else:
            breakpoints[name] = sci_string(ln)
    doc = {
        "model": bundle.model,
        "params_echo": bundle.params.to_raw(),
        "breakpoints": breakpoints,
        "segments": [
            {
                "tag": seg.tag,
                "e": [sci_string(v) for v in seg.ln_e],
                "log10_E": [round_sig(v / _LN10) for v in seg.ln_E],
            }
            for seg in bundle.segments
        ],
        "flags": sorted(bundle.flags),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _first_difference(got, want):
    """None where the texts agree, else the first line that differs, so a
    failure reports one line rather than a diff of the whole document."""
    if got == want:
        return None
    for i, (g, w) in enumerate(zip(got.splitlines(True),
                                   want.splitlines(True))):
        if g != w:
            return i + 1, g, w
    return "one text is a prefix of the other"


def _json_set(name):
    preset, _, over = name.partition(":")
    raw = json.loads((PRESETS / f"{preset}.json").read_text())
    if over:
        key, value = over.split("=")
        raw[key] = float(value)
    return ForcingParams.from_mapping(raw)


# both presets, fig2 with a collapsed wall (the full model's first segment
# has one sample) and fig2 at f_norm = 3000
_JSON_SETS = ("fig2", "fig3", "fig2:eta=1.000000000000001",
              "fig2:f_norm=3000")


@pytest.mark.parametrize("samples", [1, 2, 512])
@pytest.mark.parametrize("model", ["critical", "subcritical", "full",
                                   "scaling"])
@pytest.mark.parametrize("name", _JSON_SETS)
def test_json_writer_gives_the_indent_encoders_bytes(name, model, samples):
    # a model of the other family, and a single sample, are refused
    # before any writer runs
    other_family = "critical" if name == "fig3" else "subcritical"
    assemble = getattr(enstrophy_bounds, f"assemble_{model}")
    try:
        bundle = assemble(_json_set(name), samples=samples)
    except EnstrophyBoundsError as exc:
        assert type(exc) is (InvalidRegime if model == other_family
                             else OutsideDomain if samples == 1 else None)
        return
    assert model != other_family and samples > 1
    assert _first_difference(bundle_to_json(bundle),
                             _indent_json(bundle)) is None


def test_json_writer_spells_non_finite_values_and_empty_arrays(fig2):
    inf, nan = math.inf, math.nan
    bundle = CurveBundle("critical", fig2, [
        CurveSegment("phi1", [0.0, 1.0, -inf, 800.0],
                     [inf, -inf, nan, -1e308]),
        CurveSegment("phi2", [], []),
        CurveSegment("phi3", [-2.0], [3.0]),
    ], {"e0": 1.0, "E0": nan, "E_max": inf, "E_floor": -inf}, ["b", "a"])
    text = bundle_to_json(bundle)
    assert _first_difference(text, _indent_json(bundle)) is None
    assert '"log10_E": [\n        Infinity,\n        -Infinity,\n' \
           '        NaN,' in text
    assert '"e": [],' in text and '"log10_E": [],' in text
    empty = CurveBundle("full", fig2, [], {})
    assert _first_difference(bundle_to_json(empty),
                             _indent_json(empty)) is None
    assert '"segments": []\n}\n' in bundle_to_json(empty)
