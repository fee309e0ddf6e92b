"""Maximal-enstrophy bracket: lower/upper estimates and their gates."""

import math

import numpy as np
import pytest

from enstrophy_bounds import (
    BoundReport,
    EtaTooSmall,
    ForcingParams,
    InvalidRegime,
    RegimeViolation,
    bound_report,
    emax_lower,
    emax_upper,
    eta_min,
    find_e_max,
    physical_scale,
)


G, EPS, RHO, C2 = 2.0, 0.2, 0.9, 2.0


def test_lower_pin():
    low = emax_lower(G, EPS, RHO, C2)
    assert low.log10() == pytest.approx(35.76575781168811, abs=1e-9)
    # within 1% of the reference value, compared in the linear domain
    assert abs(low.ln - math.log(5.83e35)) < math.log(1.01)


def test_upper_pins():
    up = emax_upper(G, EPS, RHO, C2, eta=4.33, E0_anchor=16.0)
    assert up.log10() == pytest.approx(110.96054339161364, abs=1e-9)
    assert abs(up.ln - math.log(9.13e110)) < math.log(1.02)
    # second pass: higher anchor tolerates a far gentler funnel and the
    # exponent collapses from ~255 to ~92
    refined = emax_upper(G, EPS, RHO, C2, eta=0.04, E0_anchor=39311.12)
    assert refined.log10() == pytest.approx(39.85059440882479, abs=1e-9)
    assert abs(refined.ln - math.log(6.99e39)) < math.log(1.02)
    assert refined.ln < up.ln


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


def test_default_report():
    rep = bound_report(G, EPS, RHO, C2)
    assert isinstance(rep, BoundReport)
    assert rep.flags == ["anchor_E0=parabola_apex", "eta=eta_min"]
    assert rep.anchor_E0 == 16.0
    assert rep.eta_used == pytest.approx(eta_min(16.0, EPS, 1.0), rel=1e-14)
    assert rep.e_crit == pytest.approx(0.0025, rel=1e-12)
    assert rep.e_bar_crit == pytest.approx(
        EPS * (1.0 - RHO) / (2.0 * (2.0 + rep.eta_used) * C2), rel=1e-14)
    assert rep.lower.log10() == pytest.approx(35.76575781168811, abs=1e-9)
    assert rep.upper.log10() == pytest.approx(110.92753862710634, abs=1e-9)
    assert rep.lower < rep.upper


def test_explicit_arguments_preserve_flags():
    rep = bound_report(G, EPS, RHO, C2, eta=4.33, E0_anchor=16.0)
    assert rep.flags == []
    assert rep.eta_used == 4.33


def test_upper_monotone_in_eta():
    vals = [emax_upper(G, EPS, RHO, C2, eta=eta, E0_anchor=16.0).ln
            for eta in (4.33, 5.0, 6.0, 8.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_validation_gates():
    for bad in ((0.0, EPS, RHO, C2), (G, -1.0, RHO, C2),
                (G, EPS, 1.0, C2), (G, EPS, -0.1, C2), (G, EPS, RHO, 0.0)):
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
def test_upper_rejects_non_finite_eta_and_anchor(over):
    with pytest.raises(InvalidRegime):
        emax_upper(G, EPS, RHO, C2, **over)
    with pytest.raises(InvalidRegime):
        bound_report(G, EPS, RHO, C2, **over)


def test_lower_grows_like_exp_g_squared():
    gs = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    lns = np.array([emax_lower(g, EPS, RHO, C2).ln for g in gs])
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
    # ceiling, here over 8 log-spaced G from 2 to 280 (fig2 has nu = lam
    # = 1, the frame the bounds live in). The lower bound tightens with G:
    # log10 of E_max over it falls from about 0.34 to 0.001.
    assert (fig2.nu, fig2.lam) == (1.0, 1.0)
    for k in range(8):
        G = 2.0 * 140.0 ** (k / 7.0)
        params = ForcingParams.from_mapping(dict(fig2.to_raw(), f_norm=G))
        assert params.grashof == pytest.approx(G, rel=1e-15)
        _, E_max = find_e_max(params)
        report = bound_report(G, params.eps, params.rho, params.c2,
                              mu=params.mu)
        assert report.lower.ln <= E_max.ln <= report.upper.ln
