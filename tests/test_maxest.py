"""Maximal-enstrophy bracket: lower/upper estimates and their gates."""

import math
import random

import numpy as np
import pytest

from enstrophy_bounds import (
    EnstrophyBoundsError,
    EtaTooSmall,
    ForcingParams,
    InvalidRegime,
    RegimeViolation,
    bound_report,
    emax_lower,
    emax_upper,
    eta_min,
    find_e_bar,
    find_e_max,
    physical_scale,
)
from enstrophy_bounds.curves import round_sig
from enstrophy_bounds.subcritical import sigma_of


G, EPS, RHO, C2 = 2.0, 0.2, 0.9, 2.0
# the bounds are lns; log10 = ln / LN10
LN10 = math.log(10.0)


def test_lower_pin():
    low = emax_lower(G, EPS, RHO, C2)
    assert low / LN10 == pytest.approx(35.76575781168811, abs=1e-9)
    # within 1% of the reference value, compared in the linear domain
    assert abs(low - math.log(5.83e35)) < math.log(1.01)


def test_upper_pins():
    up = emax_upper(G, EPS, RHO, C2, eta=4.33, E0_anchor=16.0)
    assert up / LN10 == pytest.approx(110.96054339161364, abs=1e-9)
    assert abs(up - math.log(9.13e110)) < math.log(1.02)
    # second pass: higher anchor tolerates a far gentler funnel and the
    # exponent collapses from ~255 to ~92
    refined = emax_upper(G, EPS, RHO, C2, eta=0.04, E0_anchor=39311.12)
    assert refined / LN10 == pytest.approx(39.85059440882479, abs=1e-9)
    assert abs(refined - math.log(6.99e39)) < math.log(1.02)
    assert refined < up


def test_eta_min_values_and_shape():
    assert eta_min(16.0, EPS, 1.0) == pytest.approx(4.328099717721641,
                                                    rel=1e-12)
    assert eta_min(39311.12, EPS, 1.0) == pytest.approx(0.040000000557481014,
                                                        rel=1e-12)
    # scales like E0^(-3/5)
    ratio = eta_min(1600.0, EPS, 1.0) / eta_min(16.0, EPS, 1.0)
    assert ratio == pytest.approx(100.0 ** -0.6, rel=1e-12)
    with pytest.raises(InvalidRegime):
        eta_min(0.0, EPS, 1.0)
    with pytest.raises(InvalidRegime):
        eta_min(16.0, EPS, -1.0)


def test_eta_floor_slack():
    floor = eta_min(16.0, EPS, 1.0)
    # a hair under the floor is tolerated (printed constants get rounded)
    emax_upper(G, EPS, RHO, C2, eta=floor * 0.9995, E0_anchor=16.0)
    with pytest.raises(EtaTooSmall):
        emax_upper(G, EPS, RHO, C2, eta=floor * 0.99, E0_anchor=16.0)


def _unit_frame(params):
    # fig2 is the set G, EPS, RHO, C2 with mu = 1 in the nu = lambda = 1
    # frame of the bounds, so its report is rounded but not rescaled
    assert (params.grashof, params.eps, params.rho, params.c2, params.mu,
            params.nu, params.lam) == (G, EPS, RHO, C2, 1.0, 1.0, 1.0)
    return params


def test_default_report(fig2):
    # each value as printed: the reference rounded to twelve digits as the
    # report rounds it, within the tolerance the unrounded value had
    doc = bound_report(_unit_frame(fig2))
    assert doc["flags"] == ["anchor_E0=parabola_apex", "eta=eta_min"]
    assert doc["anchor_E0"] == 16.0
    eta = eta_min(16.0, EPS, 1.0)
    assert doc["eta_used"] == pytest.approx(round_sig(eta), rel=1e-14)
    assert doc["e_crit"] == pytest.approx(0.0025, rel=1e-12)
    assert doc["e_bar_crit"] == pytest.approx(
        round_sig(EPS * (1.0 - RHO) / (2.0 * (2.0 + eta) * C2)), rel=1e-14)
    assert doc["log10_lower"] == pytest.approx(35.76575781168811, abs=1e-9)
    assert doc["log10_upper"] == pytest.approx(110.92753862710634, abs=1e-9)
    assert doc["log10_lower"] < doc["log10_upper"]


def test_explicit_arguments_preserve_flags(fig2):
    doc = bound_report(_unit_frame(fig2), eta=4.33, E0_anchor=16.0)
    assert doc["flags"] == []
    assert doc["eta_used"] == 4.33


def test_upper_monotone_in_eta():
    vals = [emax_upper(G, EPS, RHO, C2, eta=eta, E0_anchor=16.0)
            for eta in (4.33, 5.0, 6.0, 8.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_validation_gates():
    for bad in ((0.0, EPS, RHO, C2), (1e200, EPS, RHO, C2),
                (G, -1.0, RHO, C2), (G, EPS, 1.0, C2), (G, EPS, -0.1, C2),
                (G, EPS, RHO, 0.0)):
        with pytest.raises(InvalidRegime):
            emax_lower(*bad)
    # G^2 at or below the critical energy: no growth interval exists
    with pytest.raises(RegimeViolation):
        emax_lower(0.04, EPS, RHO, C2)
    with pytest.raises(InvalidRegime):
        emax_upper(G, EPS, RHO, C2, E0_anchor=-5.0)


@pytest.mark.parametrize("over", [
    {"eta": math.nan}, {"eta": math.inf}, {"eta": -math.inf},
    {"E0_anchor": math.nan}, {"E0_anchor": math.inf}, {"E0_anchor": 0.0},
    {"eta": 5.0, "E0_anchor": math.inf}],
    ids=["nan-eta", "inf-eta", "minus-inf-eta", "nan-anchor", "inf-anchor",
         "zero-anchor", "inf-anchor-given-eta"])
def test_upper_rejects_non_finite_eta_and_anchor(fig2, over):
    with pytest.raises(InvalidRegime):
        emax_upper(G, EPS, RHO, C2, **over)
    with pytest.raises(InvalidRegime):
        bound_report(_unit_frame(fig2), **over)


def test_lower_grows_like_exp_g_squared():
    gs = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    lns = np.array([emax_lower(g, EPS, RHO, C2) for g in gs])
    A = np.vstack([gs ** 2, np.ones_like(gs)]).T
    coef, *_ = np.linalg.lstsq(A, lns, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((lns - fit) ** 2))
    ss_tot = float(np.sum((lns - lns.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot > 0.9999
    # asymptotic slope is 2 c2/eps; the lnG term biases it slightly high
    assert coef[0] == pytest.approx(2.0 * C2 / EPS, rel=5e-3)


def test_physical_scale(fig2):
    assert physical_scale(fig2) == (1.0, 1.0)

    class Frame:
        nu = 2.0
        lam = 4.0

    energy, enstrophy = physical_scale(Frame)
    assert energy == pytest.approx(2.0, rel=1e-15)
    assert enstrophy == pytest.approx(8.0, rel=1e-15)


def test_curve_peak_lies_between_the_bounds(fig2):
    # the paper's headline on the assembled curve: the peak E_max of the
    # critical curve is at least the reachable level and at most the
    # ceiling, here over 13 log-spaced G from 2 to 1e4 (fig2 has nu = lam
    # = 1, the frame the bounds live in). The lower bound tightens with G:
    # log10 of E_max over it falls from about 0.34 to 1.7e-5, which at
    # G = 1e4 is about 160 ulps of ln E_max ~ 2e9.
    assert (fig2.nu, fig2.lam) == (1.0, 1.0)
    for k in range(13):
        G = 2.0 * 5000.0 ** (k / 12.0)
        params = ForcingParams.from_mapping(dict(fig2.to_raw(), f_norm=G))
        assert params.grashof == pytest.approx(G, rel=1e-15)
        _, E_max = find_e_max(params)
        assert emax_lower(G, params.eps, params.rho, params.c2) <= E_max \
            <= emax_upper(G, params.eps, params.rho, params.c2, mu=params.mu)


# The lower and the upper bound as two separate formulas, each with its own
# checks and with e_crit and e_bar formed in floats: the oracle for the
# identity that makes them one closed form (the lower bound is the upper
# one at eta = 0 on E0 = 4 G^2). Each returns the ln of the bound and the
# largest magnitude among the terms it sums.

def _terms_ln(*terms):
    ln = sum(terms)
    if not math.isfinite(ln):
        raise InvalidRegime(f"bound leaves float range (ln = {ln})")
    return ln, max(map(abs, terms))


def _two_formula_lower(G, eps, rho, c2):
    e_crit = eps * (1.0 - rho) / (4.0 * c2)
    if G * G <= e_crit:
        raise RegimeViolation(f"G^2 = {G * G} <= e_crit = {e_crit}")
    ln_e_crit = math.log(eps) + math.log1p(-rho) - math.log(4.0) \
        - math.log(c2)
    return _terms_ln(math.log(4.0), (1.0 + rho) * math.log(G),
                     0.5 * (1.0 - rho) * ln_e_crit,
                     (2.0 * c2 / eps) * (G * G - e_crit))


def _two_formula_upper(G, eps, rho, c2, eta, E0):
    e_bar = eps * (1.0 - rho) / (2.0 * (2.0 + eta) * c2)
    if not e_bar > 0.0:
        raise InvalidRegime(f"e_bar underflows, eta = {eta}")
    if G * G <= e_bar:
        raise RegimeViolation(f"G^2 = {G * G} <= e_bar = {e_bar}")
    return _terms_ln(math.log(E0),
                     0.5 * (1.0 - rho) * (math.log(e_bar) - 2.0 * math.log(G)),
                     ((2.0 + eta) * c2 / eps) * (G * G - e_bar))


def _outcome(f, *args):
    try:
        return f(*args)
    except EnstrophyBoundsError as exc:
        return type(exc)


def test_bounds_match_the_two_formulas():
    # seeded draws over 10, 60 and 300 decades: both bounds raise the same
    # class as the two formulas or agree with them in ln to 1e-13 of the
    # largest term they sum
    rng = random.Random(19)
    seen = set()
    for k in range(3000):
        width = (10.0, 60.0, 300.0)[k % 3]
        G = 10.0 ** rng.uniform(-width / 4.0, width / 4.0)
        eps = 0.5 * 10.0 ** rng.uniform(-width, 0.0)
        rho = rng.uniform(0.0, 1.0)
        c2 = 10.0 ** rng.uniform(-width, width)
        E0 = 10.0 ** rng.uniform(-width, width)
        eta = eta_min(E0, eps, 1.0) * 10.0 ** rng.uniform(0.0, 3.0)
        for new, old in (
                (_outcome(emax_lower, G, eps, rho, c2),
                 _outcome(_two_formula_lower, G, eps, rho, c2)),
                (_outcome(emax_upper, G, eps, rho, c2, eta, E0),
                 _outcome(_two_formula_upper, G, eps, rho, c2, eta, E0))):
            if isinstance(old, tuple):
                ln, scale = old
                assert abs(new - ln) <= 1e-13 * scale
                seen.add("bound")
            else:
                assert new is old
                seen.add(old.__name__)
    assert seen == {"bound", "InvalidRegime", "RegimeViolation"}


def test_exponential_at_criticality_algebraic_above(fig2):
    # the abstract's contrast. At r = 1/2, ln E_max/G^2 of the critical
    # curve falls to the eta = 0 exponent 2 c2/eps = 20 as G grows (20.0034
    # at G = 50, 20.00015 at G = 280, 20.0000002 at G = 1e4): E_max is
    # exponential in G^2. At r > 1/2 the log-log slope of the subcritical
    # peak E_bar between G = 1e3 and 1e4 is 2/sigma(r) (202, 22 and 6):
    # E_bar is algebraic.
    raw = fig2.to_raw()
    excess = []
    for G in (50.0, 100.0, 200.0, 280.0, 1e3, 3e3, 1e4):
        _, E_max = find_e_max(ForcingParams.from_mapping(dict(raw, f_norm=G)))
        excess.append(E_max / G ** 2 - 2.0 * fig2.c2 / fig2.eps)
    assert all(0.0 < b < a for a, b in zip(excess, excess[1:]))
    assert excess[0] < 4e-3 and excess[3] < 2e-4 and excess[-1] < 1e-6
    for r in (0.51, 0.6, 1.0):
        ln_peak = [find_e_bar(ForcingParams.from_mapping(
            dict(raw, r=r, f_norm=G, curlF_norm=400.0)))[1]
            for G in (1e3, 1e4)]
        slope = (ln_peak[1] - ln_peak[0]) / LN10
        assert slope == pytest.approx(2.0 / sigma_of(r), rel=1e-5)
