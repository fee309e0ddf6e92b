"""Scale-invariant regime: closed-form curve, stationary point, exponents.

The curve is evaluated through specfun's b = 0 solution; _ln_curve and
_ln_emax below are the independent oracle, the curve's two-term closed
form summed from the logs of its terms and its stationary point in closed
form.
"""

import math
import random

import numpy as np
import pytest

from enstrophy_bounds import (
    EnstrophyBoundsError,
    ForcingParams,
    InvalidRegime,
    RegimeViolation,
    ScalingParams,
    assemble_scaling,
    exponent_compare,
    scaling,
    scaling_emax,
    scaling_params,
)
from enstrophy_bounds.logscalar import ln_add
from enstrophy_bounds.scaling import default_anchor


def _with(params, **over):
    raw = params.to_raw()
    raw.update(over)
    return ForcingParams.from_mapping(raw)


def _ln_curve(v, ln_e0, ln_E0, sp):
    # ln of the curve at e = exp(v) <= e0, written as
    # E0 (e/e0)^a + beta/(1-a) e ((e0/e)^(1-a) - 1) and summed from the
    # logs of its two terms: left of the anchor both are positive, so
    # nothing cancels however large beta is, and neither can underflow; at
    # beta = 0 the second is gone
    a, beta = sp.alpha_sc, sp.beta_sc
    rest = math.expm1((1.0 - a) * (ln_e0 - v))
    ln_rest = math.log(rest) if rest > 0.0 else -math.inf
    ln_drain = math.log(beta / (1.0 - a)) if beta else -math.inf
    return ln_add(ln_E0 + a * (v - ln_e0), ln_drain + v + ln_rest)


def _ln_emax(ln_e0, ln_E0, sp):
    # (ln e, ln E) of the stationary point, where (e/e0)^(1-a) =
    # a + a (1-a)/r with r = beta e0/E0; RegimeViolation unless it lies
    # left of the anchor, as at beta = 0, where the curve only rises
    a = sp.alpha_sc
    ln_r = (math.log(sp.beta_sc) if sp.beta_sc else -math.inf) \
        + ln_e0 - ln_E0
    ln_e = ln_e0 + ln_add(math.log(a), math.log(a * (1.0 - a)) - ln_r) \
        / (1.0 - a)
    if ln_e >= ln_e0:
        raise RegimeViolation(
            f"curve maximum ln e = {ln_e:.6g} not left of the anchor "
            f"ln e0 = {ln_e0:.6g}")
    return ln_e, _ln_curve(ln_e, ln_e0, ln_E0, sp)


def _ln_slope(v, ln_E, sp):
    # d ln E/d ln e = a - beta e/E, the ratio saturated to inf past float
    # range
    ln_beta = math.log(sp.beta_sc) if sp.beta_sc else -math.inf
    ln_ratio = ln_beta + v - ln_E
    return sp.alpha_sc - (math.inf if ln_ratio > 709.0
                          else math.exp(ln_ratio))


def _lead_coefficient(e0_init, E0_init, sp):
    # K of the scaling curve K e^a - beta/(1-a) e through (e0, E0)
    a = sp.alpha_sc
    return E0_init / e0_init ** a \
        + sp.beta_sc * e0_init ** (1.0 - a) / (1.0 - a)


def test_derived_parameters(fig2):
    sp = scaling_params(fig2)
    assert sp.s == pytest.approx(0.75, rel=1e-15)
    assert sp.alpha_sc == pytest.approx(0.125, rel=1e-15)
    assert sp.beta_sc == pytest.approx(2.0, rel=1e-15)
    assert sp.E_floor == pytest.approx(1600.0, rel=1e-13)
    assert default_anchor(fig2) == (4.0, 16.0)
    assert _lead_coefficient(4.0, 16.0, sp) \
        == pytest.approx(21.142538440664822, rel=1e-12)


def test_smallness_window_gate(fig2):
    bad = _with(fig2, eps0=0.6)  # s = 1.1 while rho stays below 1
    with pytest.raises(InvalidRegime):
        scaling_params(bad)
    with pytest.raises(InvalidRegime):
        ScalingParams(s=1.1, beta_sc=1.0, E_floor=1.0)
    # a drain or a floor that is negative, NaN or infinite; 0 is legal
    for beta, floor in ((-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                        (1.0, -1.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(InvalidRegime):
            ScalingParams(s=0.75, beta_sc=beta, E_floor=floor)


def test_admissibility_floor_above_float_range(fig2):
    # the floor exp(708.5) is a float, but past params' float range
    with pytest.raises(InvalidRegime, match=r"^admissibility floor E_floor "
                       r"= exp\(708\.5\) is above float range$"):
        scaling_params(_with(fig2, curlF_norm=1.765e153))


def test_pure_power_law_when_drain_vanishes():
    sp = ScalingParams(s=0.75, beta_sc=0.0, E_floor=0.0)
    assert sp.alpha_sc == 0.125
    for e in (0.01, 0.5, 1.0, 4.0):
        assert math.exp(_ln_curve(math.log(e), math.log(4.0),
                                  math.log(16.0), sp)) \
            == pytest.approx(16.0 * (e / 4.0) ** 0.125, rel=1e-14)
    # without a drain the curve rises all the way to the anchor
    with pytest.raises(RegimeViolation):
        scaling_emax(4.0, 16.0, sp)


def test_curve_maximum(fig2):
    sp = scaling_params(fig2)
    e_max, E_max = scaling_emax(4.0, 16.0, sp)
    assert e_max == pytest.approx(1.1804610348718343, rel=1e-12)
    assert E_max == pytest.approx(18.887376557949345, rel=1e-12)
    # stationary and concave there
    h = 1e-6 * e_max
    left, right = (math.exp(_ln_curve(math.log(e), math.log(4.0),
                                      math.log(16.0), sp))
                   for e in (e_max - h, e_max + h))
    assert left < E_max and right < E_max
    assert (right - left) / (2.0 * h) == pytest.approx(0.0, abs=1e-6)
    # closed-form stationarity: alpha k e^alpha = beta e/(1-alpha)
    k = _lead_coefficient(4.0, 16.0, sp)
    assert sp.alpha_sc * k * e_max ** sp.alpha_sc \
        == pytest.approx(sp.beta_sc * e_max / (1.0 - sp.alpha_sc), rel=1e-12)


def test_maximum_can_escape_domain(fig2):
    # a weak drain pushes the stationary point past the anchor
    weak = _with(fig2, eps0=0.05)
    sp = scaling_params(weak)
    assert sp.s == pytest.approx(0.55, rel=1e-12)
    with pytest.raises(RegimeViolation):
        scaling_emax(*default_anchor(weak), sp)
    bundle = assemble_scaling(weak, samples=64)
    assert "maximum_outside_domain" in bundle.flags
    assert "e_max" not in bundle.breakpoints


def test_peak_scales_exactly_quadratically(fig2):
    # both terms of K scale like G^(2 - 2 alpha), so E_max is exactly
    # proportional to G^2; the Holder-regime comparison below relies on
    # the exponents diverging, and this pins the scaling side to its
    # true closed-form value
    lns, lgs = [], []
    for g in (10.0, 100.0, 1000.0):
        p = _with(fig2, f_norm=g)
        sp = scaling_params(p)
        _, E_max = scaling_emax(*default_anchor(p), sp)
        lns.append(math.log(E_max))
        lgs.append(math.log(g))
    slope = np.polyfit(lgs, lns, 1)[0]
    assert slope == pytest.approx(2.0, rel=1e-12)


def test_exponent_compare():
    rep = exponent_compare(0.75, 0.75)
    assert rep["holder_exponent"] == pytest.approx(10.0, rel=1e-14)
    assert rep["scaling_exponent"] == pytest.approx(3.75, rel=1e-14)
    assert rep["larger"] == "holder"
    assert rep["crossover_r"] == pytest.approx(23.0 / 14.0, rel=1e-14)
    assert exponent_compare(0.75, 0.5)["crossover_r"] \
        == pytest.approx(11.0 / 6.0, rel=1e-14)
    with pytest.raises(InvalidRegime):
        exponent_compare(0.5, 0.75)
    with pytest.raises(InvalidRegime):
        exponent_compare(0.75, 1.0)


def test_assemble_scaling_bundle(fig2):
    bundle = assemble_scaling(fig2, samples=128)
    assert bundle.model == "scaling"
    tags = [s.tag for s in bundle.segments]
    assert tags == ["phi1", "barrier"]
    assert "s=0.75" in bundle.flags
    # the whole sampled curve sits under the admissibility floor here
    assert "E_floor_violations=128" in bundle.flags
    assert math.exp(bundle.breakpoints["e_max"]) \
        == pytest.approx(1.1804610348718343, rel=1e-10)
    seg = bundle.segment("phi1")
    assert all(map(math.isfinite, seg.ln_E))
    assert float(max(seg.ln_E)) <= math.log(18.887376557949345) + 1e-12


def test_assemble_rejects_zero_forcing(fig2):
    with pytest.raises(RegimeViolation):
        assemble_scaling(_with(fig2, f_norm=0.0))


# -------------------------------------------- the shared solution vs oracle

def _close(got, want):
    # within 1e-12 of the oracle in ln, relative to max(1, |ln|)
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _check_bundle(bundle, params, sp):
    """Every phi1 sample, slope and the maximum of bundle against the
    oracle through the same anchor, (e0, 4 lam e0) in logs."""
    ln_e0 = math.log(params.e0)
    ln_E0 = math.log(4.0) + math.log(params.lam) + ln_e0
    seg = bundle.segment("phi1")
    for v, ln_E, slope in zip(seg.ln_e, seg.ln_E, seg.dlnE_dlne):
        want = _ln_curve(v, ln_e0, ln_E0, sp)
        assert _close(ln_E, want), (v, ln_E, want)
        # a slope a - beta e/E moves by (beta e/E) Delta ln E
        want_slope = _ln_slope(v, want, sp)
        drag = sp.alpha_sc - want_slope
        if math.isfinite(drag):
            assert abs(slope - want_slope) \
                <= 1e-12 * max(1.0, drag) * max(1.0, abs(want)), v
        else:
            assert slope == want_slope
    try:
        ln_e, ln_E = _ln_emax(ln_e0, ln_E0, sp)
    except RegimeViolation:
        assert "maximum_outside_domain" in bundle.flags
        assert "e_max" not in bundle.breakpoints
        assert "E_max" not in bundle.breakpoints
    else:
        assert "maximum_outside_domain" not in bundle.flags
        assert _close(bundle.breakpoints["e_max"], ln_e)
        assert _close(bundle.breakpoints["E_max"], ln_E)


def _check_emax(e0_init, E0_init, sp):
    """scaling_emax against the oracle, refusals included: a bad anchor
    or a maximum above float range is InvalidRegime, one not left of the
    anchor RegimeViolation."""
    if not (0.0 < e0_init < math.inf and 0.0 < E0_init < math.inf):
        with pytest.raises(InvalidRegime):
            scaling_emax(e0_init, E0_init, sp)
        return
    try:
        ln_e, ln_E = _ln_emax(math.log(e0_init), math.log(E0_init), sp)
    except RegimeViolation:
        with pytest.raises(RegimeViolation):
            scaling_emax(e0_init, E0_init, sp)
        return
    if max(ln_e, ln_E) >= 708.0:
        with pytest.raises(InvalidRegime):
            scaling_emax(e0_init, E0_init, sp)
        return
    for got, want in zip(scaling_emax(e0_init, E0_init, sp), (ln_e, ln_E)):
        if want > -700.0:
            assert _close(math.log(got), want), (got, want)
        else:
            assert got < 1e-300


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_curve_matches_oracle_on_presets(preset, request):
    params = request.getfixturevalue(preset)
    sp = scaling_params(params)
    _check_bundle(assemble_scaling(params), params, sp)
    _check_emax(*default_anchor(params), sp)


def test_curve_matches_oracle_without_drain(fig2, monkeypatch):
    # beta = 0: the pure power law, slope alpha everywhere and no maximum
    sp = ScalingParams(s=0.75, beta_sc=0.0, E_floor=1600.0)
    monkeypatch.setattr(scaling, "scaling_params", lambda params: sp)
    bundle = assemble_scaling(fig2, samples=128)
    _check_bundle(bundle, fig2, sp)
    assert "maximum_outside_domain" in bundle.flags
    assert bundle.segment("phi1").dlnE_dlne == [0.125] * 128
    _check_emax(4.0, 16.0, sp)


# decades drawn for each key around its fig2 value, as in
# test_robustness: eps and delta at or below theirs, c_omega at or above
_FIG2 = {"nu": 1.0, "lambda": 1.0, "lambda0": 1.0, "c_omega": 1.0,
         "f_norm": 2.0, "curlF_norm": 10.0, "psi_inf": 0.0, "eps": 0.2,
         "delta": 0.5, "mu": 1.0, "c1": 1.0, "c2": 2.0, "c": 1.0}
_SIDES = {"eps": (-1.0, 0.0), "delta": (-1.0, 0.0), "c_omega": (0.0, 1.0)}


def test_curve_matches_oracle_on_seeded_draws():
    rng = random.Random(1)
    answered = 0
    for _ in range(1000):
        raw = {}
        for key in sorted(_FIG2):
            lo, hi = _SIDES.get(key, (-1.0, 1.0))
            raw[key] = (_FIG2[key] or 1.0) \
                * 10.0 ** rng.uniform(60.0 * lo, 60.0 * hi)
        raw["r"] = rng.choice([0.5, rng.uniform(0.5, 1.0)])
        try:
            params = ForcingParams.from_mapping(raw)
            bundle = assemble_scaling(params, samples=64)
        except EnstrophyBoundsError:
            continue
        answered += 1
        sp = scaling_params(params)
        _check_bundle(bundle, params, sp)
        _check_emax(*default_anchor(params), sp)
    assert answered > 900


@pytest.mark.parametrize("e0, E0, sp, error", [
    (0.0, 1.0, ScalingParams(0.5, 1.0, 0.0), InvalidRegime),
    (-1.0, 1.0, ScalingParams(0.5, 1.0, 0.0), InvalidRegime),
    (1.0, math.nan, ScalingParams(0.5, 1.0, 0.0), InvalidRegime),
    (math.inf, 1.0, ScalingParams(0.5, 1.0, 0.0), InvalidRegime),
    (1.0, math.inf, ScalingParams(0.5, 1.0, 0.0), InvalidRegime),
    # e_max = 2.3e307 is in float range, E_max = (beta/alpha) e_max is not
    (1e308, 1e308, ScalingParams(0.1, 1e300, 0.0), InvalidRegime),
    (4.0, 16.0, ScalingParams(0.75, 0.0, 0.0), RegimeViolation),
], ids=["zero-e0", "negative-e0", "nan-E0", "inf-e0", "inf-E0",
        "E_max-overflows", "no-drain"])
def test_scaling_emax_refuses_by_type(e0, E0, sp, error):
    with pytest.raises(error):
        scaling_emax(e0, E0, sp)


@pytest.mark.parametrize("beta", [0.9999, 1.0001])
def test_maximum_next_to_the_anchor(beta):
    # at beta = alpha E0/e0 = 1 the curve is stationary at its anchor: a
    # weaker drain puts the maximum 9e-5 right of it in ln e (refused), a
    # stronger one as far left
    _check_emax(1.0, 4.0, ScalingParams(0.5, beta, 0.0))
