"""The weighted exponential integral and its series, against independent
quadrature and the exact 1F1 form (mpmath at 40 to 60 digits), and the
anchor-chain breakpoints built on them."""

import math
import re
import sys

import mpmath
import pytest

from enstrophy_bounds import (ForcingParams, critical, solver, specfun,
                              subcritical)
from enstrophy_bounds.critical import chain
from enstrophy_bounds.errors import NonConvergence, OutsideDomain
from enstrophy_bounds.logscalar import ln_add, ln_sub
from enstrophy_bounds.specfun import (gamma_series_factor,
                                      weighted_exp_integral_ln)

mpmath.mp.dps = 40


def g_oracle(alpha: float, x: float) -> float:
    # t = u^(1/alpha) removes the t^(alpha-1) endpoint singularity exactly;
    # without it tanh-sinh quadrature visibly misses for alpha near 0
    if alpha <= 1.0:
        inv = mpmath.mpf(1.0) / alpha
        val = mpmath.quad(lambda u: mpmath.e ** (x * u ** inv), [0, 1]) * inv
    else:
        val = mpmath.quad(lambda t: t ** (alpha - 1) * mpmath.e ** (x * t),
                          [0, 1])
    return float(val)


@pytest.mark.parametrize("alpha", [0.03, 0.5, 0.97, 1.5])
@pytest.mark.parametrize("x", [0.0, 1.0, 10.0, 48.0, 100.0])
def test_series_matches_quadrature(alpha, x):
    got = math.exp(gamma_series_factor(alpha, x))
    assert got == pytest.approx(g_oracle(alpha, x), rel=1e-12)


@pytest.mark.parametrize("alpha", [1e-3, 0.03, 0.25, 0.5, 0.85, 0.97,
                                   0.999, 1.0, 1.5, 1.999])
def test_series_matches_hyp1f1(alpha):
    # g(alpha, x) = 1F1(alpha; alpha + 1; x) / alpha (DLMF 13.4.1), at 30
    # digits; past ln g ~ 4.5e3 one ulp of ln g exceeds 1e-12, so there
    # the bound is two ulps of the stored logarithm. At x = 3e4 and 1e5
    # the partial sum is rescaled about 50 and 170 times, and the log
    # offset those rescales add must not drift. For alpha < 1 the
    # large-argument form takes over between x ~ 30 and 41, depending on
    # alpha; x = 30 to 60 checks both sides of that switch. Past the power
    # series' cap, 1e6, that form answers alone for alpha < 1; for
    # alpha >= 1 the series is still what g needs, so it refuses
    with mpmath.workdps(30):
        for x in (0.0, 1e-8, 1e-3, 0.5, 1.0, 10.0, 30.0, 33.0, 35.0, 38.0,
                  40.0, 45.0, 48.0, 60.0, 100.0, 300.0, 1200.0, 3000.0,
                  1e4, 3e4, 1e5, 1e6 * (1.0 + 2.0 ** -52), 1e7, 1e8, 1e9):
            if alpha >= 1.0 and x > 1e6:
                with pytest.raises(NonConvergence):
                    gamma_series_factor(alpha, x)
                continue
            got = gamma_series_factor(alpha, x)
            want = mpmath.log(mpmath.hyp1f1(alpha, alpha + 1, x) / alpha)
            err = abs(mpmath.expm1(mpmath.mpf(got) - want))
            assert err <= max(1e-12, 2.0 * math.ulp(got)), (alpha, x)


def test_series_value_near_regime_corner():
    # large-argument spot value; the series needs ~130 terms here
    got = math.exp(gamma_series_factor(0.97, 48.0))
    assert got == pytest.approx(1.4627541107092349e+19, rel=1e-10)
    assert got == pytest.approx(g_oracle(0.97, 48.0), rel=1e-12)


def test_series_at_zero_argument():
    # only the first term survives: g(alpha, 0) = 1/alpha
    for alpha in (0.03, 0.7, 2.5):
        assert math.exp(gamma_series_factor(alpha, 0.0)) \
            == pytest.approx(1.0 / alpha, rel=1e-15)


def test_series_parts_recurrence():
    # integration by parts: alpha g(alpha, x) + x g(alpha+1, x) = e^x
    for alpha, x in [(0.3, 7.0), (0.97, 48.0), (1.2, 3.0)]:
        ln_lhs = ln_add(math.log(alpha) + gamma_series_factor(alpha, x),
                        math.log(x) + gamma_series_factor(alpha + 1.0, x))
        assert math.exp(ln_lhs) == pytest.approx(math.exp(x), rel=1e-12)


def test_series_monotone_in_x():
    vals = [math.exp(gamma_series_factor(0.5, x))
            for x in (0.0, 1.0, 5.0, 20.0)]
    assert vals == sorted(vals)


def test_truncated_converges_to_full():
    full = gamma_series_factor(0.97, 48.0)
    parts = [gamma_series_factor(0.97, 48.0, n_terms=n)
             for n in (20, 40, 80, 200)]
    errs = [math.exp(ln_sub(max(full, p), min(full, p))[0] - full)
            for p in parts]
    assert errs[0] > errs[1] > errs[2]
    assert errs[3] < 1e-12


def test_truncated_n1_is_first_term():
    got = math.exp(gamma_series_factor(0.25, 9.0, n_terms=1))
    assert got == pytest.approx(1.0 / 0.25, rel=1e-15)


@pytest.mark.parametrize("x", [1.0e6 * (1.0 + 2.0 ** -52), 1e301, math.inf])
def test_series_refuses_arguments_past_the_cap(x):
    # the power series would need about x terms: it refuses instead of
    # hanging or overflowing the term budget, wherever it is what g needs
    # (n_terms given, or alpha >= 1). For alpha < 1 the large-argument
    # form, which has no cap, answers every finite x, to its first order
    # ln g = x - ln x; an infinite x falls through to the series
    with pytest.raises(NonConvergence):
        gamma_series_factor(0.85, x, n_terms=20)
    with pytest.raises(NonConvergence):
        gamma_series_factor(1.5, x)
    if x == math.inf:
        with pytest.raises(NonConvergence):
            gamma_series_factor(0.85, x)
    else:
        assert gamma_series_factor(0.85, x) \
            == pytest.approx(x - math.log(x), rel=1e-12)


@pytest.mark.parametrize("alpha, x, n_terms, named", [
    (0.0, 1.0, None, "alpha = 0.0"),
    (math.nan, 1.0, None, "alpha = nan"),
    (0.85, -1.0, None, "x = -1.0"),
    (0.85, math.nan, None, "x = nan"),
    (0.85, math.nan, 20, "x = nan"),
    (0.85, 1.0, 0, "n_terms = 0"),
    (1e-320, 1.0, None, "alpha = 1e-320"),
    (5e-324, 0.0, None, "alpha = 5e-324"),
    (math.inf, 1.0, None, "alpha = inf"),
], ids=["alpha-zero", "alpha-nan", "x-negative", "x-nan", "x-nan-truncated",
        "no-terms", "alpha-subnormal", "alpha-least-subnormal", "alpha-inf"])
def test_series_refuses_outside_its_domain(alpha, x, n_terms, named):
    # bad input, typed and named: no bare ValueError, and a NaN is not
    # sent on to the series to fail as NonConvergence, nor an alpha whose
    # first term 1/alpha is not finite
    with pytest.raises(OutsideDomain, match=re.escape(named)):
        gamma_series_factor(alpha, x, n_terms=n_terms)


def test_weighted_integral_b_zero_closed_form():
    # b = 0: plain power integral (hi^(1-a) - lo^(1-a))/(1-a)
    got = math.exp(weighted_exp_integral_ln(0.5, 0.0, math.log(0.25),
                                            math.log(4.0)))
    assert got == pytest.approx(2.0 * (2.0 - 0.5), rel=1e-13)


def test_weighted_integral_against_quadrature():
    for a, b, lo, hi in [(0.03, 1.2, 0.001, 4.0),
                         (0.5, 10.0, 0.5, 2.0),
                         (0.9, 0.3, 1e-6, 1.0)]:
        oracle = float(mpmath.quad(
            lambda s: s ** (-a) * mpmath.e ** (b * s), [lo, hi]))
        got = weighted_exp_integral_ln(a, b, math.log(lo), math.log(hi))
        assert math.exp(got) == pytest.approx(oracle, rel=1e-10)


def test_weighted_integral_ln_bounds_below_float_range():
    # lower bound e^-6000 is not a float; the tail below any representable
    # number contributes (1-a)^-1 * lo^(1-a) which is itself ~e^-300
    a, b = 0.03, 1.0
    got = weighted_exp_integral_ln(a, b, -6000.0, 0.0)
    oracle = float(mpmath.quad(
        lambda s: s ** (-a) * mpmath.e ** (b * s), [0, 1]))
    assert math.exp(got) == pytest.approx(oracle, rel=1e-10)


def test_weighted_integral_tiny_b_branch():
    # b*hi ~ 1e-9: the series stops after three terms, none cancelling
    a, b, lo, hi = 0.4, 1e-9, 0.5, 1.0
    oracle = float(mpmath.quad(
        lambda s: s ** (-a) * mpmath.e ** (b * s), [lo, hi]))
    got = weighted_exp_integral_ln(a, b, math.log(lo), math.log(hi))
    assert math.exp(got) == pytest.approx(oracle, rel=1e-11)


def test_weighted_integral_nearby_bounds():
    a, b = 0.3, 2.0
    lo, hi = 1.0, 1.0 + 1e-10
    oracle = hi ** (-a) * math.exp(b) * (hi - lo)  # midpoint to O(h^2)
    got = weighted_exp_integral_ln(a, b, math.log(lo), math.log(hi))
    assert math.exp(got) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("span", [1e-300, 1e-100])
def test_weighted_integral_rescales_on_the_term(span):
    # b e_hi = 800: the unweighted terms leave float range while weights of
    # about (alpha + n) span keep the sum small, so the rescale has to
    # watch the term as well as the sum; W = e^b span to O(b span)
    got = weighted_exp_integral_ln(0.5, 800.0, -span, 0.0)
    assert got == pytest.approx(800.0 + math.log(span), abs=1e-12)


def test_weighted_integral_rejects_bad_exponent():
    with pytest.raises(OutsideDomain, match=re.escape("a = 1.5")):
        weighted_exp_integral_ln(1.5, 1.0, 0.0, 1.0)
    with pytest.raises(OutsideDomain, match=re.escape("b = -1.0")):
        weighted_exp_integral_ln(0.5, -1.0, 0.0, 1.0)


@pytest.mark.parametrize("a, b, ln_lo, ln_hi, named", [
    (math.nan, 1.0, -1.0, 0.0, "a = nan"),
    (0.5, math.nan, -1.0, 0.0, "b = nan"),
    (0.5, 1.0, math.nan, 0.0, "ln_lo = nan"),
    (0.5, 1.0, -1.0, math.nan, "ln_hi = nan"),
    (0.5, 0.0, 1.0, 0.0, "ln_lo = 1.0, ln_hi = 0.0"),
], ids=["a-nan", "b-nan", "lo-nan", "hi-nan", "lo-above-hi"])
def test_weighted_integral_refuses_outside_its_domain(a, b, ln_lo, ln_hi,
                                                      named):
    # bad input, typed and named: a NaN b is not taken as b = 0, and a NaN
    # bound does not reach the series to fail there
    with pytest.raises(OutsideDomain, match=re.escape(named)):
        weighted_exp_integral_ln(a, b, ln_lo, ln_hi)


@pytest.mark.parametrize("span", [1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5,
                                  1e-4, 1e-3, 1e-2])
def test_weighted_integral_close_bounds(fig2, span):
    # the fig2 tail field near e = e^-5: the two endpoint values agree to
    # up to ten digits, a difference the weights 1 - r^(alpha+n) carry
    # without losing any
    tail = chain(fig2).fields[2]
    a, b = tail.a, tail.b
    ln_hi = -5.0
    ln_lo = ln_hi - span
    got = weighted_exp_integral_ln(a, b, ln_lo, ln_hi)
    with mpmath.workdps(40):
        lo, hi = mpmath.exp(mpmath.mpf(ln_lo)), mpmath.exp(mpmath.mpf(ln_hi))
        want = mpmath.log(mpmath.quad(
            lambda s: s ** (-a) * mpmath.e ** (b * s), [lo, hi]))
    assert abs(got - float(want)) <= 1e-11


# the arbiter grid: exponents, ln e_hi, b (with b e_hi <= 3000) and spans
# ln e_hi - ln e_lo, inf meaning a zero lower bound; at b = 48 and
# ln e_hi = 0 or 1 the spans 0.03 to 0.3 fall on both sides of the bound
# that selects the endpoint form
_GRID_LN_HI = (-8000.0, -50.0, -5.0, 0.0, 1.0, 3.0, 5.5, 7.0)
_GRID_B = (0.0, 1e-9, 0.3, 2.0, 48.0)
_GRID_SPANS = (1e-12, 1e-10, 1e-7, 1e-4, 1e-2, 0.03, 0.05, 0.1, 0.3, 1.0,
               5.0, 40.0, 1e4, math.inf)
# upper ends past the power series' cap, at b = 1 so that x = e_hi is
# the exp of ln e_hi with one rounding (a product b e_hi formed in logs
# would carry the rounding of its log as well: input conditioning of a
# few ulps of ln W at x ~ 1e7, not a kernel error)
_GRID_LN_HI_PAST_CAP = tuple(math.log(e) for e in (2e6, 1e7, 1e8, 1e9))


@pytest.mark.parametrize("a", [0.03, 0.15, 0.5, 0.85, 0.97])
def test_weighted_integral_matches_hyp1f1_difference(a):
    # exact value e_hi^al F(b e_hi) - e_lo^al F(b e_lo), al = 1 - a,
    # F(x) = 1F1(al; al + 1; x)/al, at 60 digits, which leave at least 45
    # after the closest bounds cancel; where |ln W| passes 8192 one ulp of
    # ln W exceeds 1e-12, so there the bound is that ulp. The bound is the
    # same past the power series' cap, where ln W reaches 1e9
    with mpmath.workdps(60):
        al = 1 - mpmath.mpf(a)

        def anti(ln_e, b):
            if ln_e == -math.inf:
                return mpmath.mpf(0)
            e = mpmath.exp(mpmath.mpf(ln_e))
            return e ** al * mpmath.hyp1f1(al, al + 1, b * e) / al

        rows = [(ln_hi, b) for ln_hi in _GRID_LN_HI for b in _GRID_B
                if b * math.exp(ln_hi) <= 3000.0]
        for ln_hi, b in rows + [(v, 1.0) for v in _GRID_LN_HI_PAST_CAP]:
            x = b * math.exp(ln_hi)
            for span in _GRID_SPANS:
                ln_lo = ln_hi - span
                if x > 1e6 and x * span < 50.0:
                    # the endpoint form needs x (1 - r) above about
                    # ln(x/alpha) + 2, 17 to 27 here: these spans need
                    # the series, with x above its cap
                    with pytest.raises(NonConvergence):
                        weighted_exp_integral_ln(a, b, ln_lo, ln_hi)
                    continue
                got = weighted_exp_integral_ln(a, b, ln_lo, ln_hi)
                want = mpmath.log(anti(ln_hi, b) - anti(ln_lo, b))
                err = abs(mpmath.expm1(mpmath.mpf(got) - want))
                assert err <= max(1e-12, math.ulp(got)), \
                    (ln_hi, b, span, float(err))


def _mp_solution(e, field, e_ref, y_ref):
    # the branch solution of dy/de = (a/e - b) y - c through (e_ref, y_ref)
    # with the weighted integral in its exact 1F1 form
    a, b, c = (mpmath.mpf(v) for v in (field.a, field.b, field.c))
    al = 1 - a

    def anti(s):
        return s ** al * mpmath.hyp1f1(al, al + 1, b * s) / al

    return e ** a * mpmath.exp(-b * e) * (
        e_ref ** -a * mpmath.exp(b * e_ref) * y_ref
        + c * (anti(e_ref) - anti(e)))


@pytest.mark.parametrize("family, preset", [(critical, "fig2"),
                                            (subcritical, "fig3")])
def test_breakpoints_match_mpmath(family, preset, request):
    # re-solve the peak (in w = ln(1 - e/e_a) when b > 0, in ln e when
    # b = 0) and the floor crossing (in ln e) at 40 digits, from starting
    # points one unit off the chain's answers
    ch = family.chain(request.getfixturevalue(preset))
    rise, descent, _ = ch.fields
    x_chain, _, ln_E_peak = ch.peak
    a, b, c = (mpmath.mpf(v) for v in (rise.a, rise.b, rise.c))
    if rise.b > 0.0:
        def e_of(w):
            return a / b * -mpmath.expm1(w)

        def ln_null(w):
            return mpmath.log(c / b) + mpmath.log(-mpmath.expm1(w)) - w
    else:
        e_of = mpmath.exp

        def ln_null(v):
            return mpmath.log(c / a) + v
    e0 = mpmath.mpf(ch.params.e0)
    y0 = mpmath.mpf(ch.E0) ** rise.p

    def rise_gap(x):
        return mpmath.log(_mp_solution(e_of(x), rise, e0, y0)) - ln_null(x)

    x = mpmath.findroot(rise_gap, (x_chain - 1.0, x_chain + 1.0))
    e_peak = e_of(x)
    y_peak = _mp_solution(e_peak, rise, e0, y0)
    assert abs(mpmath.log(y_peak) / rise.p - ln_E_peak) <= 1e-10

    ln_floor = mpmath.log(ch.floor)

    def floor_gap(v):
        y = _mp_solution(mpmath.exp(v), descent, e_peak, y_peak)
        return mpmath.log(y) / descent.p - ln_floor

    v = mpmath.findroot(floor_gap, (ch.ln_floor - 1.0, ch.ln_floor + 1.0))
    assert abs(v - ch.ln_floor) <= 1e-10


def test_construction_never_reaches_the_quadrature(fig2, fig3, monkeypatch):
    # tanh-sinh quadrature is the independent oracle of the series; if the
    # construction leaned on it, the oracle would be checking itself
    def refuse(*args):
        raise AssertionError("the construction reached the quadrature")

    quad = solver.integrate_adaptive
    bound = [(module, name) for key, module in sys.modules.items()
             if key.startswith("enstrophy_bounds")
             for name, value in list(vars(module).items()) if value is quad]
    for module, name in bound:
        monkeypatch.setattr(module, name, refuse)
    # fresh sets, so their chains are built under the patch
    fig2, fig3 = (ForcingParams.from_mapping(p.to_raw()) for p in (fig2, fig3))
    critical.assemble_critical(fig2)
    subcritical.assemble_subcritical(fig3)
    for e in (1e-300, 1e-5, 0.01, 1.0, 4.0):
        for E in (1.0, 1e10, 1e40):
            critical.classify_critical(e, E, fig2)
    tail = chain(fig2).fields[2]
    for span in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        assert weighted_exp_integral_ln(tail.a, tail.b, -5.0 - span,
                                        -5.0) > -math.inf


def test_assembly_sums_no_large_argument_series(fig2, monkeypatch):
    # every phi1 sample shares the upper end x = b e0 (48 on fig2, 1200 at
    # G = 10): its term is memoised and taken from the large-argument
    # form, so only the few samples next to the anchor, where the
    # endpoint form would cancel, still sum a series with x >= 30
    calls = []
    series = specfun._series_ln

    def counting(alpha, x, ln_r, n_terms=None):
        calls.append(x)
        return series(alpha, x, ln_r, n_terms)

    monkeypatch.setattr(specfun, "_series_ln", counting)
    for f_norm in (fig2.f_norm, 10.0):
        # a fresh set each time, so its chain is built under the patch
        params = ForcingParams.from_mapping(dict(fig2.to_raw(), f_norm=f_norm))
        calls.clear()
        critical.assemble_critical(params)
        assert sum(x >= 30.0 for x in calls) <= 20, params.grashof
