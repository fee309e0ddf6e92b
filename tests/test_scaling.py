"""Scale-invariant regime: closed-form curve, stationary point, exponents."""

import math

import numpy as np
import pytest

from enstrophy_bounds import (
    ForcingParams,
    InvalidRegime,
    RegimeViolation,
    ScalingParams,
    assemble_scaling,
    exponent_compare,
    scaling_emax,
    scaling_params,
)
from enstrophy_bounds.scaling import _ln_curve, default_anchor


def _with(params, **over):
    raw = params.to_raw()
    raw.update(over)
    return ForcingParams.from_mapping(raw)


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
    for beta in (-1.0, math.nan):
        with pytest.raises(InvalidRegime):
            ScalingParams(s=0.75, beta_sc=beta, E_floor=1.0)


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
    assert bundle.breakpoints["e_max"].to_float() \
        == pytest.approx(1.1804610348718343, rel=1e-10)
    seg = bundle.segment("phi1")
    assert all(map(math.isfinite, seg.ln_E))
    assert float(max(seg.ln_E)) <= math.log(18.887376557949345) + 1e-12


def test_assemble_rejects_zero_forcing(fig2):
    with pytest.raises(RegimeViolation):
        assemble_scaling(_with(fig2, f_norm=0.0))
