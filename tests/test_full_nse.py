"""Nose, funnels, and region classification for the unconditional model."""

import itertools
import math

import mpmath
import pytest

from enstrophy_bounds import (
    CancellationLoss,
    FullNseGeometry,
    InvalidRegime,
    NoBracket,
    OutsideDomain,
    RegimeViolation,
    assemble_full,
    classify_full,
    eta_threshold,
    geometry,
    solve_e2,
)
from enstrophy_bounds.full_nse import Funnel, _ln_psi, _nose, e2_lower_bound

from conftest import alpha_ln_beta, parabola, params_with


def _psi(E, params):
    """The nose at E > 0, through its constants (_nose) and _ln_psi."""
    return math.exp(_ln_psi(math.log(E), _nose(params)))


def _apex_E(e, geo):
    """The apex funnel at e, as classify_full evaluates it."""
    return math.exp(geo.apex.ln_E(math.log(e)))


# ---------------------------------------------------------------- nose


def test_nose_apex_closed_form(fig2):
    # c1 = 4, G = 8 makes the apex land on round numbers
    p = params_with(fig2, f_norm=8.0, c1=4.0)
    geo = geometry(p)
    e1, E1 = geo.e1, geo.E1
    assert E1 == pytest.approx(4.0, rel=1e-14)
    assert e1 == pytest.approx(1.0 / 24.0, rel=1e-14)
    # the apex sits on the nose itself
    assert _psi(E1, p) == pytest.approx(e1, rel=1e-13)


def test_psi_unimodal(fig2):
    geo = geometry(fig2)
    e1, E1 = geo.e1, geo.E1
    assert _psi(E1, fig2) == pytest.approx(e1, rel=1e-13)
    # rises up to the apex, falls past it
    for h in (1e-2, 1e-1, 0.5):
        assert _psi(E1 * (1.0 - h), fig2) < e1
        assert _psi(E1 * (1.0 + h), fig2) < e1
    grid = [E1 * 10.0 ** k for k in range(1, 6)]
    vals = [_psi(E, fig2) for E in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# -------------------------------------------------------------- funnels


def test_funnel_passes_through_anchor(fig2):
    geo = geometry(fig2)
    wall = assemble_full(fig2, samples=128).segment("phi1")
    assert wall.ln_e[-1] == math.log(geo.e0)
    assert math.exp(wall.ln_E[-1]) == pytest.approx(geo.E0, rel=1e-12)
    assert _apex_E(geo.e1, geo) == pytest.approx(geo.E1, rel=1e-12)


@pytest.mark.parametrize("f_norm", [2.0, 30.0, 100.0, 600.0, 1000.0, 3000.0])
def test_wall_is_sampled_left_of_its_anchor(fig2, f_norm):
    # at f_norm = 30 and 100 the wall's asymptote lies within a relative
    # 1e-6 of its anchor, so a grid started 1e-6 right of e_star would
    # run backwards, right of e0. From f_norm = 600 the span holds fewer
    # floats than 512 samples, and the wall keeps only its distinct
    # abscissas; at 3000 ln e_star rounds onto ln e0, and the wall is its
    # anchor alone
    p = params_with(fig2, f_norm=f_norm)
    geo = geometry(p)
    ln_star, ln_e0 = math.log(geo.e_star), math.log(geo.e0)
    wall = assemble_full(p, samples=512).segment("phi1").ln_e
    assert all(a < b for a, b in zip(wall, wall[1:]))
    assert wall[-1] == ln_e0
    assert wall[0] > ln_star or (wall == [ln_e0] and ln_star == ln_e0)
    assert (len(wall) == 512) == (f_norm <= 100.0)


def test_wall_without_room_right_of_its_asymptote_is_typed(fig2):
    # eta within about 1e-10 of 1: ln e_star and ln e0 are one ulp apart,
    # so the wall's grid, halfway between them, rounds onto ln e_star,
    # where the funnel is not defined. That is refused before sampling,
    # naming both ends and their distance
    p = params_with(fig2, eta=1.0000000000344682, f_norm=13.304157216473056)
    geo = geometry(p)
    ln_star, ln_e0 = math.log(geo.e_star), math.log(geo.e0)
    assert ln_e0 - ln_star == math.ulp(ln_e0)
    with pytest.raises(CancellationLoss) as err:
        assemble_full(p)
    assert str(err.value) == (
        f"the wall's grid cannot start right of its asymptote: ln e_star "
        f"= {ln_star!r} and ln e0 = {ln_e0!r} are 1 ulp apart")


@pytest.mark.parametrize("k", range(4, 16))
def test_wall_with_eta_near_one_answers_or_is_typed(fig2, k):
    # eta = 1 + 10^-k puts e_star from 1.4e10 ulps of ln e0 down to one:
    # the wall either starts right of its asymptote, its abscissas rising
    # strictly however few floats the span holds, or is refused by name
    p = params_with(fig2, eta=1.0 + 10.0 ** -k)
    try:
        wall = assemble_full(p, samples=64).segment("phi1")
    except CancellationLoss as exc:
        assert str(exc).startswith("the wall's grid cannot start right")
    else:
        assert wall.ln_e[0] >= math.log(geometry(p).e_star)
        assert all(a < b for a, b in zip(wall.ln_e, wall.ln_e[1:]))
        assert all(math.isfinite(v) for v in wall.ln_E)


def test_wall_asymptote_closed_form(fig2):
    # G = 1, c1 = 1, eta = 2: e_star^(5/2) = e0^(5/2) (1 - 5/(16 c1 G^4))
    # collapses to e_star = (11/16)^(2/5) with e0 = 1
    p = params_with(fig2, f_norm=1.0)
    geo = geometry(p)
    assert geo.e0 == pytest.approx(1.0, rel=1e-14)
    assert geo.e_star == pytest.approx((11.0 / 16.0) ** 0.4, rel=1e-13)


def test_funnel_slope_matches_finite_difference(fig2):
    geo = geometry(fig2)
    for frac in (0.25, 0.5, 0.75):
        e = geo.e1 * (geo.e2 / geo.e1) ** frac
        E = _apex_E(e, geo)
        h = 1e-6 * e
        fd = (_apex_E(e + h, geo) - _apex_E(e - h, geo)) / (2.0 * h)
        # the segments' kernel gives d ln E/d ln e = (e/E) dE/de
        assert geo.apex.slope(math.log(e), math.log(E)) \
            == pytest.approx(e / E * fd, rel=1e-6)


def test_funnel_raises_left_of_asymptote(fig2):
    geo = geometry(fig2)
    wall = Funnel(math.log(geo.e0), math.log(geo.E0), fig2)
    with pytest.raises(OutsideDomain):
        wall.ln_E(math.log(0.5 * geo.e_star))


def test_funnel_past_float_range(fig2):
    # at e = 1e-130, u = (e0/e)^p is past float range; with t < 1 the
    # bracket t u + 1 - u is then negative: left of the asymptote
    with pytest.raises(OutsideDomain):
        Funnel(math.log(4.0), math.log(8.0), fig2).ln_E(math.log(1e-130))


def test_funnel_without_an_asymptote_is_refused(fig2):
    # t >= 1: the funnel has no asymptote, and is refused when built, with
    # the message geometry gives a parabola anchor that has none
    ln_e0, ln_E0 = math.log(4.0), math.log(1e-3)
    _, ln_beta = alpha_ln_beta(fig2)
    ln_t = -0.5 * ln_e0 - 2.0 * ln_E0 - ln_beta
    assert ln_t > 0.0
    with pytest.raises(RegimeViolation) as exc:
        Funnel(ln_e0, ln_E0, fig2)
    assert str(exc.value) == ("parabola anchor admits no asymptote: "
                              f"ln t = {ln_t:.6g} >= 0")


# ------------------------------------------------------------- e2 root


def test_e2_reenters_parabola(fig2):
    geo = geometry(fig2)
    assert geo.e2 > geo.e1
    E_at_e2 = _apex_E(geo.e2, geo)
    assert E_at_e2 == pytest.approx(parabola(geo.e2, fig2), rel=1e-10)
    # strictly above the parabola in between
    mid = math.sqrt(geo.e1 * geo.e2)
    assert _apex_E(mid, geo) > parabola(mid, fig2)


def test_e2_floor_never_exceeds_root(fig2):
    for eta in (1.5, 1.8, 2.0, 2.2):
        p = params_with(fig2, eta=eta)
        assert e2_lower_bound(p) <= solve_e2(p)


def test_e2_unreachable_when_parabola_clears_apex(fig2):
    # past eta = sqrt(6) the parabola already tops the apex, so the funnel
    # never re-enters it; the closed-form eta gate alone does not catch this
    eta = 2.5
    assert eta < eta_threshold(fig2.c1)
    geo_par = eta * fig2.nu * fig2.lam ** 0.75 * fig2.grashof
    geo = geometry(fig2)
    e1, E1 = geo.e1, geo.E1
    assert geo_par * math.sqrt(e1) > E1
    with pytest.raises(NoBracket):
        solve_e2(params_with(fig2, eta=eta))


def _e2_50_digits(params):
    """The re-entry root at 50 digits, or None where no root lies right of
    e1: where the apex funnel (beta, the apex and its t1 as defined) meets
    the parabola, e^(3/2) = gamma - delta e^(1 - alpha)."""
    with mpmath.workdps(50):
        nu, f, c1, eta = map(mpmath.mpf, (params.nu, params.f_norm,
                                          params.c1, params.eta))
        alpha = eta / (eta - 1)
        beta = 4 * c1 / ((3 * eta - 1) * nu ** 3 * f)
        E1 = mpmath.cbrt(4 * (nu * f) ** 2 / c1)
        e1 = nu ** 4 * E1 ** 2 / (2 * (nu * f) ** 2 + c1 * E1 ** 3)
        gamma = 1 / (beta * (eta * f / nu) ** 2)
        delta = e1 ** alpha / (beta * E1 ** 2) - e1 ** (alpha + 0.5)

        def h(v):  # convex in v = ln e; increasing for delta <= 0
            return mpmath.exp(1.5 * v) / gamma - 1 \
                + delta / gamma * mpmath.exp((1 - alpha) * v)

        lo = mpmath.log(e1)
        if delta > 0:  # h falls up to its minimum
            lo = max(lo, mpmath.log(2 * (alpha - 1) * delta / 3)
                     / (alpha + 0.5))
        if h(lo) > 0:
            return None
        hi = lo + 1
        while h(hi) < 0:
            hi += 1
        return mpmath.exp(mpmath.findroot(h, (lo, hi), solver="anderson"))


def test_e2_matches_fifty_digits(fig2):
    # eta near 1 (where delta is negligible against gamma) up to past
    # sqrt(6) and 2.51 (where delta turns positive); eta_threshold(c1) is
    # 1.55, 2.73, 6.47 and 18.3 at these c1
    answered = refused = 0
    for eta, f_norm, c1 in itertools.product(
            (1.001, 1.01, 1.1, 1.5, 2.0, 2.4, 2.449, 2.45, 2.5, 2.52, 3.0,
             5.0),
            (1e-3, 2.0, 100.0, 1e100), (1e-3, 1.0, 1e3, 1e6)):
        if eta >= eta_threshold(c1):
            continue
        p = params_with(fig2, eta=eta, f_norm=f_norm, c1=c1)
        want = _e2_50_digits(p)
        if want is None:
            refused += 1
            with pytest.raises(NoBracket):
                solve_e2(p)
        else:
            answered += 1
            assert solve_e2(p) == pytest.approx(float(want), rel=1e-12)
    assert answered > 50 and refused > 30


def test_eta_threshold_gate(fig2):
    assert eta_threshold(4.0) == pytest.approx(
        1.0 + 16.0 / (3.0 * math.sqrt(6.0)), rel=1e-15)
    bad = eta_threshold(fig2.c1)
    with pytest.raises(RegimeViolation):
        solve_e2(params_with(fig2, eta=bad))
    with pytest.raises(RegimeViolation):
        solve_e2(params_with(fig2, eta=bad * 1.5))


# ------------------------------------------------------------ geometry


def test_geometry_fields_consistent(fig2):
    geo = geometry(fig2)
    assert isinstance(geo, FullNseGeometry)
    assert geo.E_under == pytest.approx(2.0 ** (-1.0 / 3.0) * geo.E1,
                                        rel=1e-14)
    assert parabola(geo.e_under, fig2) \
        == pytest.approx(geo.E_under, rel=1e-13)
    assert parabola(geo.e0, fig2) == pytest.approx(geo.E0, rel=1e-13)
    assert geo.E2 == pytest.approx(parabola(geo.e2, fig2), rel=1e-14)
    assert 0.0 < geo.e_star < geo.e0
    alpha, ln_beta = geo.apex.alpha, geo.apex.ln_beta
    assert alpha == pytest.approx(fig2.eta / (fig2.eta - 1.0))
    beta = 4.0 * fig2.c1 / ((3.0 * fig2.eta - 1.0) * fig2.nu ** 3
                            * fig2.f_norm)
    assert math.exp(ln_beta) == pytest.approx(beta, rel=1e-14)


def test_unresolved_wall_is_invalid(fig2):
    # the wall's t = exp(-922) is below float range, so the slope at its
    # anchor, alpha/2 - (3 eta - 1)/(4 (eta - 1) t), is outside it; e2 and
    # the labels need no slope
    p = params_with(fig2, f_norm=1e100)
    assert solve_e2(p) == pytest.approx(1.1003236957487e-67, rel=1e-12)
    assert classify_full(1.0, 1e10, p) == "I"
    with pytest.raises(InvalidRegime):
        assemble_full(p, samples=16)


def test_geometry_rejects_zero_forcing(fig2):
    dead = params_with(fig2, f_norm=0.0)
    with pytest.raises(RegimeViolation):
        geometry(dead)


# ------------------------------------------------------------ classify


def test_classify_regions(fig2):
    geo = geometry(fig2)

    # strictly below the parabola
    e = geo.e0
    assert classify_full(e, 0.5 * parabola(e, fig2), fig2) == "I"

    # far inside the nose, well above the parabola at tiny energy
    assert _psi(geo.E1, fig2) == pytest.approx(geo.e1, rel=1e-13)
    assert classify_full(1e-6, geo.E1, fig2) == "IV"

    # above everything at the anchor energy
    assert classify_full(geo.e0, 1e9, fig2) == "II"

    # between apex curve and parabola: III; above the apex curve: II
    mid = math.sqrt(geo.e1 * geo.e2)
    on_curve = _apex_E(mid, geo)
    below = 0.5 * (on_curve + parabola(mid, fig2))
    assert classify_full(mid, below, fig2) == "III"
    assert classify_full(mid, 2.0 * on_curve, fig2) == "II"

    # past e2 the corridor is open: anything at/above the parabola is II
    e = 2.0 * geo.e2
    assert classify_full(e, parabola(e, fig2), fig2) == "II"


def _upper_nose_50_digits(e, params):
    """The larger E with psi(E) = e (0 < e < e1), by a 50-digit
    inversion of psi: psi(E1) = e1 > e, and psi(E) < nu^4/(c1 E) = e at
    E = nu^4/(c1 e)."""
    with mpmath.workdps(50):
        nu, f, c1 = map(mpmath.mpf, (params.nu, params.f_norm, params.c1))
        E1 = mpmath.cbrt(4 * (nu * f) ** 2 / c1)

        def gap(E):
            return nu ** 4 * E ** 2 / (2 * (nu * f) ** 2 + c1 * E ** 3) / e - 1

        return mpmath.findroot(gap, (E1, nu ** 4 / (c1 * e)),
                               solver="anderson")


def test_classify_left_of_apex(fig2):
    geo = geometry(fig2)
    e = 0.98 * geo.e1
    E_up = float(_upper_nose_50_digits(e, fig2))
    assert E_up > geo.E1
    assert classify_full(e, 1.05 * E_up, fig2) == "II"
    # the III window left of the apex hugs the parabola, below the lower
    # nose branch; just above it is inside the nose and classifies IV
    probe = 1.001 * parabola(e, fig2)
    assert _psi(probe, fig2) < e
    assert probe < E_up
    assert classify_full(e, probe, fig2) == "III"


@pytest.mark.parametrize("f_norm", [2.0, 100.0, 1e30])
def test_classify_across_the_upper_nose_branch(fig2, f_norm):
    # left of the apex, above the parabola: inside the nose (IV) just
    # under the upper branch, II just over it, at 1e-12 relative and more
    p = params_with(fig2, f_norm=f_norm)
    geo = geometry(p)
    for frac in (1e-8, 1e-3, 0.1, 0.5, 0.9, 0.99):
        e = frac * geo.e1
        E_up = _upper_nose_50_digits(e, p)
        for rel in (1e-12, 1e-9, 1e-3):
            assert classify_full(e, float(E_up * (1 + rel)), p) == "II"
            assert classify_full(e, float(E_up * (1 - rel)), p) == "IV"


def _log_space_label(e, E, params, geo):
    """classify_full's rules with the nose evaluated in ln space, for
    enstrophies whose cube overflows float64."""
    nu, g = params.nu, params.grashof
    ln_a = math.log(2.0 * nu ** 6 * params.lam ** 1.5 * g * g)
    ln_b = math.log(params.c1) + 3.0 * math.log(E)
    ln_denom = max(ln_a, ln_b) + math.log1p(math.exp(-abs(ln_a - ln_b)))
    ln_psi = 4.0 * math.log(nu) + 2.0 * math.log(E) - ln_denom
    above = E >= parabola(e, params)
    if math.log(e) <= ln_psi and above:
        return "IV"
    if not above:
        return "I"
    if e < geo.e1:
        # E > E1, so E clears the upper nose branch iff psi(E) < e
        return "II" if ln_psi < math.log(e) else "III"
    if e <= geo.e2:
        return "II" if E > _apex_E(e, geo) else "III"
    return "II"


@pytest.mark.parametrize("E", [1e150, 1e300])
def test_classify_beyond_cube_overflow(fig2, E):
    geo = geometry(fig2)
    psi = fig2.nu ** 4 / (fig2.c1 * E)  # the nose at this height, to roundoff
    assert _psi(E, fig2) == pytest.approx(psi, rel=1e-12)
    for e in (0.1 * psi, 10.0 * psi, 0.5 * geo.e1,
              math.sqrt(geo.e1 * geo.e2), 2.0 * geo.e2):
        assert classify_full(e, E, fig2) == _log_space_label(e, E, fig2, geo)
    assert classify_full(0.1 * psi, E, fig2) == "IV"


def test_classify_rejects_nonpositive(fig2):
    with pytest.raises(OutsideDomain):
        classify_full(0.0, 1.0, fig2)
    with pytest.raises(OutsideDomain):
        classify_full(1.0, -1.0, fig2)


def test_classify_solves_geometry_once(fig2, monkeypatch):
    from enstrophy_bounds import full_nse
    calls = []
    real = full_nse.solve_e2

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(full_nse, "solve_e2", counting)
    built = []

    class CountingFunnel(Funnel):
        def __init__(self, *args):
            built.append("Funnel")
            super().__init__(*args)

    def counting_nose(params, real_nose=full_nse._nose):
        built.append("_nose")
        return real_nose(params)

    monkeypatch.setattr(full_nse, "Funnel", CountingFunnel)
    monkeypatch.setattr(full_nse, "_nose", counting_nose)
    p = params_with(fig2)  # equal to fig2, but resolves its own geometry
    geo = geometry(p)
    # the wall and the apex funnel, and the nose constants, once
    assert sorted(built) == ["Funnel", "Funnel", "_nose"]
    built.clear()
    # points in every region, on both sides of e1 and e2
    for i in range(100):
        e = geo.e1 * 10.0 ** (-3.0 + 0.1 * i)
        E = geo.E1 * 10.0 ** ((i % 9) - 4)
        assert classify_full(e, E, p) in ("I", "II", "III", "IV")
    assert len(calls) == 1
    assert built == []  # a warm call forms no constants
    assert geometry(p) is geo
    # the bundle samples the two funnels geometry holds
    assemble_full(p, samples=64)
    assert built == []


# ------------------------------------------------------------ assembly


def test_assemble_full_bundle(fig2):
    bundle = assemble_full(fig2, samples=128)
    assert bundle.model == "full"
    tags = [s.tag for s in bundle.segments]
    assert tags.count("barrier") == 2
    for tag in ("phi1", "phi2", "parabola", "lower_boundary"):
        assert tags.count(tag) == 1
    assert any(f.startswith("eta=") for f in bundle.flags)
    assert "e2_floor_vacuous" in bundle.flags

    geo = geometry(fig2)
    wall = bundle.segment("phi1")
    assert wall.ln_e[0] > math.log(geo.e_star)
    assert wall.ln_e[-1] == pytest.approx(math.log(geo.e0), abs=1e-12)
    apex = bundle.segment("phi2")
    assert apex.ln_e[0] == pytest.approx(math.log(geo.e1), abs=1e-12)
    assert apex.ln_e[-1] == pytest.approx(math.log(geo.e2), abs=1e-12)
    # apex branch lands back on the parabola
    assert apex.ln_E[-1] == pytest.approx(
        math.log(parabola(geo.e2, fig2)), abs=1e-9)
    for seg in bundle.segments:
        assert all(map(math.isfinite, seg.ln_E))
