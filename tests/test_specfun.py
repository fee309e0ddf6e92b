"""The weighted exponential integral and its series, against independent
quadrature and the exact 1F1 form (mpmath at 40 to 60 digits), and the
anchor-chain breakpoints built on them."""

import math
import random
import re
import sys

import mpmath
import pytest

from enstrophy_bounds import (ForcingParams, critical, solver, specfun,
                              subcritical)
from enstrophy_bounds.critical import chain
from enstrophy_bounds.errors import NonConvergence, OutsideDomain
from enstrophy_bounds.logscalar import ln_add
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


def _fixed_count_ln(alpha, x, ln_r, n_terms):
    # the series kernel's loop as it runs for a fixed term count: the
    # Kahan-summed partial sum of exactly the first n_terms terms, with
    # no convergence check and no shortcut at x = 0
    t = 1.0 / alpha
    s = t * -math.expm1(alpha * ln_r)
    comp, n = 0.0, 0
    while n < n_terms - 1:
        t *= x * (alpha + n) / ((n + 1.0) * (alpha + n + 1.0))
        n += 1
        term = t * -math.expm1((alpha + n) * ln_r) \
            if ln_r > -math.inf else t
        y = term - comp
        tmp = s + y
        comp = (tmp - s) - y
        s = tmp
    return math.log(s)


def test_x_zero_arm_gives_the_series_bits():
    # at x = 0 _series_ln returns its first term without the loop; the
    # loop, run for a fixed term count, must give the same bits, on a
    # seeded grid of alpha (every one with 1/alpha finite, as the callers
    # require) and ln r, with r = 0 and r one ulp below 1
    rng = random.Random(36)
    alphas = [1e-300, 1e-8, 0.03, 0.5, 0.97, 1.0, 1.5, 40.0]
    alphas += [rng.uniform(0.0, 1.0) for _ in range(40)]
    ln_rs = [-math.inf, -sys.float_info.max, -745.0, -1.0, -1e-300,
             math.nextafter(0.0, -1.0)]
    ln_rs += [-(10.0 ** rng.uniform(-320.0, 300.0)) for _ in range(40)]
    for alpha in alphas:
        for ln_r in ln_rs:
            try:
                got = specfun._series_ln(alpha, 0.0, ln_r).hex()
            except (ValueError, NonConvergence) as exc:
                got = type(exc)
            for n_terms in (1, 2, 50):
                try:
                    want = _fixed_count_ln(alpha, 0.0, ln_r, n_terms).hex()
                except ValueError as exc:
                    want = type(exc)
                assert got == want, (alpha, ln_r, n_terms)


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
    # the bound is two ulps of the stored logarithm. For alpha < 1 the
    # large-argument form takes over between x ~ 30 and 41, depending on
    # alpha; x = 30 to 60 checks both sides of that switch, and that form
    # answers every larger x. For alpha >= 1 the power series is what g
    # needs: it answers up to 707 and refuses from 708 (params._LN_RANGE),
    # where its terms would leave float range
    with mpmath.workdps(30):
        for x in (0.0, 1e-8, 1e-3, 0.5, 1.0, 10.0, 30.0, 33.0, 35.0, 38.0,
                  40.0, 45.0, 48.0, 60.0, 100.0, 300.0, 575.0, 707.0, 708.0,
                  1200.0, 3000.0, 1e4, 3e4, 1e5, 1e6 * (1.0 + 2.0 ** -52),
                  1e7, 1e8, 1e9):
            if alpha >= 1.0 and x >= 708.0:
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


@pytest.mark.parametrize("x", [1.0e6 * (1.0 + 2.0 ** -52), 1e301, math.inf])
def test_series_refuses_arguments_past_the_cap(x):
    # past x = 708 (params._LN_RANGE) the power series' terms would leave
    # float range: it refuses by that bound wherever it is what g needs
    # (alpha >= 1). For alpha < 1 the large-argument form, which has no
    # cap, answers every finite x, to its first order ln g = x - ln x; an
    # infinite x falls through to the series
    with pytest.raises(NonConvergence, match="not below 708"):
        gamma_series_factor(1.5, x)
    if x == math.inf:
        with pytest.raises(NonConvergence, match="not below 708"):
            gamma_series_factor(0.85, x)
    else:
        assert gamma_series_factor(0.85, x) \
            == pytest.approx(x - math.log(x), rel=1e-12)


# ln g at r = 0, hex per alpha on one grid of x: the series below about
# 41, the large-argument form above
_G_XS = (30.0, 33.0, 35.0, 38.0, 40.0, 45.0, 48.0, 60.0, 100.0, 300.0,
         575.0, 707.0, 708.0, 800.0, 1e3, 3e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)
_G_HEX = {
    0.03: """
        0x1.aa206afba1a0ap+4 0x1.d88ca8f4588c4p+4 0x1.f79413a1e5f48p+4
        0x1.131cb7b2c387cp+5 0x1.22b0d485ff32fp+5 0x1.49b9a8f84b208p+5
        0x1.613287f4c9ef3p+5 0x1.bf60c0ce9f16ep+5 0x1.7d9e63f3bd888p+6
        0x1.264ca9dedb1eap+8 0x1.1c52db6c96942p+9 0x1.5e385d3310260p+9
        0x1.5eb82ed20bffep+9 0x1.8ca88672b8451p+9 0x1.f08bee81df60ep+9
        0x1.75ffce7ca86b1p+11 0x1.3836516bee386p+13 0x1.86947cb18d6c8p+16
        0x1.e84645e7586fcp+19 0x1.312cdfc388facp+23 0x1.7d783b6513912p+26
        0x1.dcd64f5a36c06p+29
        """.split(),
    0.5: """
        0x1.a9dc12e190e3bp+4 0x1.d84eea17d48dap+4 0x1.f75a102a4faa6p+4
        0x1.13021efed3927p+5 0x1.2297a1149ac52p+5 0x1.49a3616f3660bp+5
        0x1.611db33ba63e9p+5 0x1.bf503859e9d1fp+5 0x1.7d997dca42165p+6
        0x1.264c4298e90cdp+8 0x1.1c52c08f022bdp+9 0x1.5e38475cbb233p+9
        0x1.5eb81903a1567p+9 0x1.8ca87327ae880p+9 0x1.f08bdf145d530p+9
        0x1.75ffcd33e9f28p+11 0x1.3836515348e47p+13 0x1.86947cb13e91dp+16
        0x1.e84645e757737p+19 0x1.312cdfc388f93p+23 0x1.7d783b6513911p+26
        0x1.dcd64f5a36c06p+29
        """.split(),
    0.85: """
        0x1.a9a9f7ea7067fp+4 0x1.d82192d3d11ebp+4 0x1.f72f6c9e6b1e7p+4
        0x1.12ee8cf3a8c77p+5 0x1.228512c688c60p+5 0x1.4992f40f2b01bp+5
        0x1.610e549e3bdbep+5 0x1.bf43ff5eb8d9dp+5 0x1.7d95dbcdb7d52p+6
        0x1.264bf5cc4a4d9p+8 0x1.1c52ac9114757p+9 0x1.5e38371c24b98p+9
        0x1.5eb808c8ee261p+9 0x1.8ca864cb914f9p+9 0x1.f08bd39873933p+9
        0x1.75ffcc3f2351ep+11 0x1.38365140eea63p+13 0x1.86947cb103d93p+16
        0x1.e84645e756b78p+19 0x1.312cdfc388f80p+23 0x1.7d783b6513911p+26
        0x1.dcd64f5a36c06p+29
        """.split(),
    0.97: """
        0x1.a998f0ca50516p+4 0x1.d81226a6c4d4cp+4 0x1.f720e9db107f1p+4
        0x1.12e7e2d6a4c35p+5 0x1.227ec08309b1dp+5 0x1.498d5a53e3810p+5
        0x1.610916afd02bbp+5 0x1.bf3fd303d3685p+5 0x1.7d949db9939ebp+6
        0x1.264bdb7cd7a5ap+8 0x1.1c52a5b715274p+9 0x1.5e38318a21ef4p+9
        0x1.5eb80338efc6bp+9 0x1.8ca85fdf8eacap+9 0x1.f08bcfa8b808ap+9
        0x1.75ffcbeb38acep+11 0x1.3836513aa3dc6p+13 0x1.86947cb0efb73p+16
        0x1.e84645e756772p+19 0x1.312cdfc388f7ap+23 0x1.7d783b6513911p+26
        0x1.dcd64f5a36c06p+29
        """.split(),
}


def test_g_keeps_its_bits():
    # the large-argument form also sums the weighted spans (r > 0); at
    # r = 0 it forms no weight and keeps g's order of operations, so every
    # g, and every output built on it, keeps its bits
    for alpha, want in _G_HEX.items():
        assert [specfun._g_ln(alpha, x).hex() for x in _G_XS] == want, alpha


@pytest.mark.parametrize("alpha, x, named", [
    (0.0, 1.0, "alpha = 0.0"),
    (math.nan, 1.0, "alpha = nan"),
    (0.85, -1.0, "x = -1.0"),
    (0.85, math.nan, "x = nan"),
    (1e-320, 1.0, "alpha = 1e-320"),
    (5e-324, 0.0, "alpha = 5e-324"),
    (math.inf, 1.0, "alpha = inf"),
], ids=["alpha-zero", "alpha-nan", "x-negative", "x-nan", "alpha-subnormal",
        "alpha-least-subnormal", "alpha-inf"])
def test_series_refuses_outside_its_domain(alpha, x, named):
    # bad input, typed and named: no bare ValueError, and a NaN is not
    # sent on to the series to fail as NonConvergence, nor an alpha whose
    # first term 1/alpha is not finite
    with pytest.raises(OutsideDomain, match=re.escape(named)):
        gamma_series_factor(alpha, x)


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
def test_weighted_integral_tiny_span_past_float_range(span):
    # b e_hi = 800: the power series' unweighted terms would leave float
    # range while weights of about (alpha + n) span keep the sum small;
    # the large-argument form sums it with weights of about (x - n) span
    # instead. W = e^b span to O(b span)
    got = weighted_exp_integral_ln(0.5, 800.0, -span, 0.0)
    assert got == pytest.approx(800.0 + math.log(span), abs=1e-12)


def test_weighted_integral_refuses_an_argument_past_float_range():
    # x = b e_hi = e^710 is inf (params.exp_clamped): the endpoint gate
    # cannot be formed and the large-argument form needs a finite x, so
    # the span reaches the series, which refuses it by its bound
    with pytest.raises(NonConvergence, match="not below 708"):
        weighted_exp_integral_ln(0.5, 1.0, 709.0, 710.0)


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
# upper ends past the power series' old cap, 1e6, at b = 1 so that
# x = e_hi is the exp of ln e_hi with one rounding (a product b e_hi
# formed in logs would carry the rounding of its log as well)
_GRID_LN_HI_PAST_CAP = tuple(math.log(e)
                             for e in (2e6, 1e7, 1e8, 1e9, 1e12))
# upper ends between the grid's x <= 3000 and the old cap, the same way,
# where every span wide enough for the difference arm is a difference
_GRID_LN_HI_DIFFERENCE = tuple(math.log(e) for e in (1e4, 1e5, 1e6))


@pytest.mark.parametrize("a", [0.03, 0.15, 0.5, 0.85, 0.97])
def test_weighted_integral_matches_hyp1f1_difference(a):
    # exact value e_hi^al (F(x) - r^al F(r x)), al = 1 - a, r = e_lo/e_hi,
    # F(x) = 1F1(al; al + 1; x)/al, at 60 digits, which leave at least 45
    # after the closest bounds cancel; where |ln W| passes 8192 one ulp of
    # ln W exceeds 1e-12, so there the bound is that ulp. x is b e_hi on
    # the grid, and past the old cap, where ln W reaches 1e12, the float x
    # the kernel sums for: the half-ulp rounding of x alone moves ln W by
    # about 0.6 ulp at x = 1e7. The short spans there are the
    # large-argument form's, the wide ones the endpoint difference's.
    # Between them, at x = 1e4, 1e5 and 1e6 and again at the float x, ln W
    # is about x, and one ulp of it is one ulp of x. The difference arm
    # rounds at most four times at that scale: ln G = x - ln x + log1p of
    # the tail takes two, adding al ln e_hi one, and the ln(1 - H/G) of a
    # summed H one; the large-argument form of a short span takes two.
    # Four half ulps make k = 2. What rounds below that scale (ln x, the
    # log1p, al ln e_hi, each under 15) adds under 1e-14, and the sums'
    # truncation, _REL_TOL / 10 relative, adds 1e-13 to ln W (under
    # 0.06 ulp at x = 1e4), kept as that absolute term
    with mpmath.workdps(60):
        al = 1 - mpmath.mpf(a)

        def anti(ln_e, ln_hi, x):
            # e^al F(x e/e_hi)
            if ln_e == -math.inf:
                return mpmath.mpf(0)
            ln_e = mpmath.mpf(ln_e)
            return mpmath.exp(al * ln_e) * mpmath.hyp1f1(
                al, al + 1, x * mpmath.exp(ln_e - ln_hi)) / al

        rows = [(ln_hi, b, b * mpmath.exp(mpmath.mpf(ln_hi)), None)
                for ln_hi in _GRID_LN_HI for b in _GRID_B
                if b * math.exp(ln_hi) <= 3000.0]
        rows += [(v, 1.0, mpmath.mpf(math.exp(v)), None)
                 for v in _GRID_LN_HI_PAST_CAP]
        rows += [(v, 1.0, mpmath.mpf(math.exp(v)), 2.0)
                 for v in _GRID_LN_HI_DIFFERENCE]
        for ln_hi, b, x, k in rows:
            for span in _GRID_SPANS:
                ln_lo = ln_hi - span
                got = weighted_exp_integral_ln(a, b, ln_lo, ln_hi)
                want = mpmath.log(anti(ln_hi, ln_hi, x)
                                  - anti(ln_lo, ln_hi, x))
                err = abs(mpmath.expm1(mpmath.mpf(got) - want))
                bound = max(1e-12, math.ulp(got)) if k is None \
                    else k * math.ulp(got) + 1e-13
                assert err <= bound, (ln_hi, b, span, float(err))


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

    def counting(alpha, x, ln_r):
        calls.append(x)
        return series(alpha, x, ln_r)

    monkeypatch.setattr(specfun, "_series_ln", counting)
    for f_norm in (fig2.f_norm, 10.0):
        # a fresh set each time, so its chain is built under the patch
        params = ForcingParams.from_mapping(dict(fig2.to_raw(), f_norm=f_norm))
        calls.clear()
        critical.assemble_critical(params)
        assert sum(x >= 30.0 for x in calls) <= 20, params.grashof


def _gate_draws():
    """Seeded (a, b, ln e_hi, ln e_lo) on the difference arm, each with
    the bound alpha ln r + r x - ln alpha - ln G on ln(H/G) that the
    half-ulp gate reads. Every other draw puts that bound at a value
    drawn within 4 of the gate's -37.5, solving for ln r by bisection
    (the bound rises with ln r)."""
    rng = random.Random(4848)
    draws = []
    while len(draws) < 600:
        a = rng.uniform(0.02, 0.98)
        b = math.exp(rng.uniform(-4.0, 5.0))
        ln_hi = rng.uniform(-4.0, 6.0)
        alpha = 1.0 - a
        x = math.exp(ln_hi + math.log(b))
        ln_g = specfun._g_ln(alpha, x)

        def bound(ln_r):
            return alpha * ln_r + x * math.exp(ln_r) - math.log(alpha) - ln_g

        if len(draws) % 2:
            ln_r = -math.exp(rng.uniform(math.log(1e-3), math.log(400.0)))
        else:
            target, lo, hi = rng.uniform(-41.5, -33.5), -1e4, -1e-12
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if bound(mid) < target else (lo, mid)
            ln_r = lo
        gap = -x * math.expm1(ln_r)
        if gap > 0.0 and math.log(x / alpha) + alpha * ln_r - gap \
                - math.log(-math.expm1(-gap)) <= specfun._LN_SEVENTH:
            draws.append((a, b, ln_hi, ln_hi + ln_r, bound(ln_r)))
    return draws


def test_half_ulp_gate_keeps_the_bits_of_the_difference():
    # the difference arm skips H where its bound on ln(H/G) is below
    # -37.5; on both sides of that bound the value must be the unskipped
    # ln_lead + ln G + log(-expm1(ln H - ln G)), formed here from _g_ln
    draws = _gate_draws()
    sides = [sum(bound < specfun._LN_HALF_ULP for *_, bound in draws),
             sum(bound >= specfun._LN_HALF_ULP for *_, bound in draws)]
    near = [sum(-39.5 < bound < -37.5 for *_, bound in draws),
            sum(-37.5 <= bound < -35.5 for *_, bound in draws)]
    assert min(sides) >= 150 and min(near) >= 10, (sides, near)
    for a, b, ln_hi, ln_lo, _ in draws:
        alpha, ln_r = 1.0 - a, ln_lo - ln_hi
        x = math.exp(ln_hi + math.log(b))
        ln_g = specfun._g_ln(alpha, x)
        ln_h = alpha * ln_r + specfun._g_ln(alpha, x * math.exp(ln_r))
        want = alpha * ln_hi + ln_g + math.log(-math.expm1(ln_h - ln_g))
        got = specfun.weighted_exp_integral_to(a, b, ln_hi)(ln_lo)
        assert got.hex() == want.hex(), (a, b, ln_hi, ln_lo)


def test_critical_assembly_sums_g_117_times(fig2, monkeypatch):
    # with the half-ulp gate, the phi1 samples far left of the anchor take
    # G alone: fig2's assembly sums g 117 times (1,026 when every sample
    # of the difference arm summed H)
    calls = []
    g_ln = specfun._g_ln

    def counting(alpha, x):
        calls.append(x)
        return g_ln(alpha, x)

    monkeypatch.setattr(specfun, "_g_ln", counting)
    # a fresh set, so its chain is built under the patch
    critical.assemble_critical(ForcingParams.from_mapping(fig2.to_raw()))
    assert len(calls) == 117
