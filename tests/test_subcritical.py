"""Sub-critical curve family (1/2 < r <= 1): branches, peak, exponents."""

import math
import random

import mpmath
import numpy as np
import pytest

from enstrophy_bounds import (
    AssumptionViolated,
    ForcingParams,
    InvalidRegime,
    NoBracket,
    OutsideDomain,
    RegimeViolation,
    assemble_subcritical,
    classify_subcritical,
    containment_check,
    find_e_bar,
    max_join_gap,
)
from enstrophy_bounds import branches
from enstrophy_bounds.subcritical import (
    big_c_s,
    chain,
    ln_floors,
    sigma_of,
)
from enstrophy_bounds.verify import all_pass


def _with(params, **over):
    raw = params.to_raw()
    raw.update(over)
    return ForcingParams.from_mapping(raw)


def test_sigma_values():
    assert sigma_of(0.51) == pytest.approx(0.02 / 2.02, rel=1e-15)
    assert sigma_of(1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert sigma_of(0.5) == 0.0


def test_coefficient_pins(fig3):
    ch = chain(fig3)
    sigma = ch.rise.p
    assert sigma == pytest.approx(0.00990099009900991, rel=1e-13)
    assert ch.rise.a / sigma == pytest.approx(0.05, rel=1e-13)  # alpha_s
    assert ch.rise.b == 0.0
    assert big_c_s(fig3) == pytest.approx(58.117946415370064, rel=1e-12)
    assert ch.rise.c == sigma * big_c_s(fig3)
    e_bar, E_bar = find_e_bar(fig3)
    assert e_bar == pytest.approx(0.0028537694344213556, rel=1e-11)
    assert E_bar.ln == pytest.approx(121.10831503761315, abs=1e-8)
    assert ch.ln_floor == pytest.approx(-12069.03502591827, abs=1e-5)
    assert ch.floor == pytest.approx(1.6267048739624501, rel=1e-12)


def test_floor_levels(fig3):
    c1, c2, c3 = (math.exp(v) for v in ln_floors(fig3))
    assert c1 == pytest.approx(0.4093171969123017, rel=1e-12)
    assert c2 == pytest.approx(1.1476028923721449, rel=1e-12)
    assert c3 == pytest.approx(1.6267048739624501, rel=1e-12)
    assert chain(fig3).floor == c3
    assert chain(fig3).curl_dominant


def test_rise_anchor_and_shape(fig3):
    ch = chain(fig3)
    assert math.exp(ch.value(0, math.log(4.0))) \
        == pytest.approx(16.0, rel=1e-12)
    e_bar, E_bar = find_e_bar(fig3)
    # strictly decreasing in e between the peak and the anchor
    lns = [math.log(e_bar) + t * (math.log(4.0) - math.log(e_bar))
           for t in (0.05, 0.25, 0.5, 0.75, 0.95)]
    vals = [ch.value(0, v) for v in lns]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] < E_bar.ln
    with pytest.raises(OutsideDomain):
        ch.value(0, math.log(4.1))


def test_peak_is_a_maximum(fig3):
    e_bar, E_bar = find_e_bar(fig3)
    ch = chain(fig3)
    assert ch.value(0, math.log(e_bar)) == pytest.approx(E_bar.ln, rel=1e-12)
    for f in (0.5, 0.9, 1.1, 2.0):
        assert ch.value(0, math.log(e_bar * f)) < E_bar.ln


def test_descent_joins_peak_and_floor(fig3):
    e_bar, E_bar = find_e_bar(fig3)
    ch = chain(fig3)
    ln_under, ln_floor = ch.ln_floor, math.log(ch.floor)
    assert ch.value(1, ch.peak[1]) == pytest.approx(E_bar.ln, rel=1e-12)
    assert ch.value(1, ln_under) == pytest.approx(ln_floor, abs=1e-9)
    assert ch.value(2, ln_under) == pytest.approx(ln_floor, abs=1e-9)
    with pytest.raises(OutsideDomain):
        ch.value(1, math.log(2.0 * e_bar))
    with pytest.raises(OutsideDomain):
        ch.value(2, ln_under + 1.0)


def test_weak_curl_rejected(fig3):
    weak = _with(fig3, curlF_norm=0.1)
    assert not chain(weak).curl_dominant
    with pytest.raises(AssumptionViolated):
        classify_subcritical(1e-3, 1e40, weak)
    with pytest.raises(AssumptionViolated):
        assemble_subcritical(weak)


def test_no_production_term(fig3):
    # c = 0 kills the production estimate: the rising branch never peaks
    flat = _with(fig3, c=0.0)
    with pytest.raises(NoBracket):
        find_e_bar(flat)


def test_critical_r_rejected(fig2):
    with pytest.raises(InvalidRegime):
        chain(fig2)
    with pytest.raises(InvalidRegime):
        assemble_subcritical(fig2)


def test_branch_fields_match_finite_differences(fig3):
    ch = chain(fig3)
    cases = [("phi1", 0, -1.0), ("phi2", 1, -230.0)]
    k = 1e-5
    for tag, branch, v in cases:
        f = ch.slope_field(tag)
        fd = (ch.value(branch, v + k) - ch.value(branch, v - k)) / (2.0 * k)
        mid = ch.value(branch, v)
        e = math.exp(v)
        assert e * f(e, mid) == pytest.approx(fd, rel=1e-6), tag


@pytest.mark.parametrize("r", [0.51, 0.6, 1.0])
def test_peak_height_exponent(fig3, r):
    # ln E_bar grows like (2/sigma) ln G
    lns, lgs = [], []
    for g in (10.0, 100.0, 1000.0):
        p = _with(fig3, r=r, f_norm=g)
        _, E_bar = find_e_bar(p)
        lns.append(E_bar.ln)
        lgs.append(math.log(g))
    slope = np.polyfit(lgs, lns, 1)[0]
    assert slope == pytest.approx(2.0 / sigma_of(r), rel=0.03)


def test_assemble_subcritical_bundle(fig3):
    bundle = assemble_subcritical(fig3, samples=256)
    assert bundle.model == "subcritical"
    tags = [s.tag for s in bundle.segments]
    for tag in ("phi1", "phi2", "phi3", "parabola", "lower_boundary"):
        assert tag in tags
    assert bundle.flags == ["sigma=0.00990099009901"]
    assert max_join_gap(bundle) < 1e-9
    for key in ("e0", "E0", "e_bar", "E_bar", "e_under", "E_under"):
        assert key in bundle.breakpoints
    assert bundle.breakpoints["E_bar"].ln \
        == pytest.approx(121.10831503761315, abs=1e-8)
    for seg in bundle.main_segments():
        assert all(a <= b for a, b in zip(seg.ln_e, seg.ln_e[1:]))
        assert all(map(math.isfinite, seg.ln_E))


def test_classify_subcritical_regions(fig3):
    on_curve = math.exp(chain(fig3).curve_value(0.0))
    assert classify_subcritical(1.0, on_curve, fig3) == "III"
    assert classify_subcritical(1.0, 0.5 * on_curve, fig3) == "II"
    par = 4.0 * fig3.f_norm / fig3.nu
    assert classify_subcritical(1.0, 0.5 * par, fig3) == "I"
    assert classify_subcritical(100.0, 1e9, fig3) == "II"
    with pytest.raises(OutsideDomain):
        classify_subcritical(1.0, 0.0, fig3)


def test_zero_forcing_is_a_regime_violation(fig3):
    dead = _with(fig3, f_norm=0.0)
    with pytest.raises(RegimeViolation):
        classify_subcritical(1.0, 1.0, dead)


def test_chain_resolves_once_per_parameter_set(fig3, monkeypatch):
    calls = []
    real = branches.find_root

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(branches, "find_root", counting)
    fresh = _with(fig3)  # equal to fig3, but resolves its own chain
    # points on both sides of e_bar, above and below the curve
    for i in range(100):
        e = math.exp(-700.0 + 7.0 * i)
        E = 10.0 ** (i % 60)
        assert classify_subcritical(e, E, fresh) in ("I", "II", "III")
    # the peak is closed form at b = 0: one find_root, the floor crossing's
    assert len(calls) == 1


def test_near_critical_exponent_assembles(fig3):
    # sigma ~ 5e-10 amplifies every rounding of zeta by 1/sigma; with the
    # peak and floor anchors kept in log space the joins still close
    near = _with(fig3, r=0.5 + 1e-9)
    bundle = assemble_subcritical(near)
    assert max_join_gap(bundle) <= 1e-8
    assert all_pass(containment_check(bundle, near))


def _two_term_ln_E(ln_e, s, c, p, ln_ref, ln_E_ref):
    """ln E on the field dy/de = s y/e - c, y = E^p, through (e_ref, E_ref),
    from the closed form y = B e^s + kappa e, kappa = -c/(1 - s), at 50
    digits."""
    with mpmath.workdps(50):
        e, e_ref = mpmath.exp(ln_e), mpmath.exp(ln_ref)
        kappa = -mpmath.mpf(c) / (1 - mpmath.mpf(s))
        big_b = (mpmath.exp(p * mpmath.mpf(ln_E_ref)) - kappa * e_ref) \
            / e_ref ** s
        return float(mpmath.log(big_b * e ** s + kappa * e) / p)


def _check_branches_against_two_term(p):
    sigma = sigma_of(p.r)
    big = p.big_c_omega
    s1, c1 = 0.5 * (1.0 - p.rho) * sigma, sigma * big_c_s(p)
    a3, g3 = 0.75 * (1.0 - p.rho) / big, 18.0 * p.curlF_norm / (p.nu * big)
    floor = chain(p).floor
    ln_e0 = math.log(p.e0)
    ln_E0 = math.log(max(4.0 * p.f_norm * math.sqrt(p.e0) / p.nu, floor))
    e_bar, E_bar = find_e_bar(p)
    ln_bar = math.log(e_bar)
    ln_under = chain(p).ln_floor
    cases = [(0, s1, c1, sigma, ln_e0, ln_E0, ln_bar, ln_e0),
             (1, s1 / big, c1 / big, sigma, ln_bar, E_bar.ln,
              ln_under, ln_bar),
             (2, a3, g3, 1.5, ln_under, math.log(floor),
              ln_under - 46.0, ln_under)]
    for k, s, c, power, ln_ref, ln_E_ref, lo, hi in cases:
        for t in (0.0, 0.1, 0.5, 0.9, 0.999):
            v = lo + t * (hi - lo)
            want = _two_term_ln_E(v, s, c, power, ln_ref, ln_E_ref)
            got = chain(p).value(k, v)
            assert got == pytest.approx(want, abs=1e-10), (k, v)


def test_branches_match_two_term_closed_form(fig3):
    _check_branches_against_two_term(fig3)


def test_branches_match_two_term_closed_form_on_draws(fig3):
    rng = random.Random(20)
    for _ in range(8):
        p = _with(fig3, r=rng.uniform(0.51, 1.0),
                  f_norm=rng.uniform(2.0, 100.0), curlF_norm=400.0)
        _check_branches_against_two_term(p)
