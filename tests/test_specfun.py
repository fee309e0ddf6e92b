"""The weighted exponential integral and its series, against independent
quadrature (mpmath at 40 digits)."""

import math

import mpmath
import pytest

from enstrophy_bounds.critical import chain
from enstrophy_bounds.errors import NonConvergence
from enstrophy_bounds.logscalar import LogScalar
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
    got = gamma_series_factor(alpha, x).to_float()
    assert got == pytest.approx(g_oracle(alpha, x), rel=1e-12)


@pytest.mark.parametrize("alpha", [1e-3, 0.03, 0.25, 0.5, 0.85, 0.97,
                                   0.999, 1.0, 1.5, 1.999])
def test_series_matches_hyp1f1(alpha):
    # g(alpha, x) = 1F1(alpha; alpha + 1; x) / alpha (DLMF 13.4.1), at 30
    # digits; past ln g ~ 4.5e3 one ulp of ln g exceeds 1e-12, so there
    # the bound is two ulps of the stored logarithm
    with mpmath.workdps(30):
        for x in (0.0, 1e-8, 1e-3, 0.5, 1.0, 10.0, 30.0, 48.0, 100.0,
                  300.0, 1200.0, 3000.0, 1e4):
            got = gamma_series_factor(alpha, x).ln
            want = mpmath.log(mpmath.hyp1f1(alpha, alpha + 1, x) / alpha)
            err = abs(mpmath.expm1(mpmath.mpf(got) - want))
            assert err <= max(1e-12, 2.0 * math.ulp(got)), (alpha, x)


def test_series_value_near_regime_corner():
    # large-argument spot value; the series needs ~130 terms here
    got = gamma_series_factor(0.97, 48.0).to_float()
    assert got == pytest.approx(1.4627541107092349e+19, rel=1e-10)
    assert got == pytest.approx(g_oracle(0.97, 48.0), rel=1e-12)


def test_series_at_zero_argument():
    # only the first term survives: g(alpha, 0) = 1/alpha
    for alpha in (0.03, 0.7, 2.5):
        assert gamma_series_factor(alpha, 0.0).to_float() \
            == pytest.approx(1.0 / alpha, rel=1e-15)


def test_series_parts_recurrence():
    # integration by parts: alpha g(alpha, x) + x g(alpha+1, x) = e^x
    for alpha, x in [(0.3, 7.0), (0.97, 48.0), (1.2, 3.0)]:
        lhs = LogScalar.from_float(alpha) * gamma_series_factor(alpha, x) \
            + LogScalar.from_float(x) * gamma_series_factor(alpha + 1.0, x)
        assert lhs.to_float() == pytest.approx(math.exp(x), rel=1e-12)


def test_series_monotone_in_x():
    vals = [gamma_series_factor(0.5, x).to_float()
            for x in (0.0, 1.0, 5.0, 20.0)]
    assert vals == sorted(vals)


def test_truncated_converges_to_full():
    full = gamma_series_factor(0.97, 48.0)
    errs = [abs((gamma_series_factor(0.97, 48.0, n_terms=n) - full)
                / full).to_float()
            for n in (20, 40, 80, 200)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[3] < 1e-12


def test_truncated_n1_is_first_term():
    got = gamma_series_factor(0.25, 9.0, n_terms=1).to_float()
    assert got == pytest.approx(1.0 / 0.25, rel=1e-15)


@pytest.mark.parametrize("x", [1.0e6 * (1.0 + 2.0 ** -52), 1e301, math.inf,
                               math.nan])
def test_series_refuses_arguments_past_the_cap(x):
    # about x terms would be needed: refuse instead of hanging or
    # overflowing the term budget
    with pytest.raises(NonConvergence):
        gamma_series_factor(0.85, x)
    with pytest.raises(NonConvergence):
        gamma_series_factor(0.85, x, n_terms=20)


def test_weighted_integral_b_zero_closed_form():
    # b = 0: plain power integral (hi^(1-a) - lo^(1-a))/(1-a)
    got = weighted_exp_integral_ln(0.5, 0.0, math.log(0.25),
                                   math.log(4.0)).to_float()
    assert got == pytest.approx(2.0 * (2.0 - 0.5), rel=1e-13)


def test_weighted_integral_against_quadrature():
    for a, b, lo, hi in [(0.03, 1.2, 0.001, 4.0),
                         (0.5, 10.0, 0.5, 2.0),
                         (0.9, 0.3, 1e-6, 1.0)]:
        oracle = float(mpmath.quad(
            lambda s: s ** (-a) * mpmath.e ** (b * s), [lo, hi]))
        got = weighted_exp_integral_ln(a, b, math.log(lo), math.log(hi))
        assert got.to_float() == pytest.approx(oracle, rel=1e-10)


def test_weighted_integral_ln_bounds_below_float_range():
    # lower bound e^-6000 is not a float; the tail below any representable
    # number contributes (1-a)^-1 * lo^(1-a) which is itself ~e^-300
    a, b = 0.03, 1.0
    got = weighted_exp_integral_ln(a, b, -6000.0, 0.0)
    oracle = float(mpmath.quad(
        lambda s: s ** (-a) * mpmath.e ** (b * s), [0, 1]))
    assert got.to_float() == pytest.approx(oracle, rel=1e-10)


def test_weighted_integral_tiny_b_branch():
    # b*hi ~ 1e-9 hits the expm1 expansion path
    a, b, lo, hi = 0.4, 1e-9, 0.5, 1.0
    oracle = float(mpmath.quad(
        lambda s: s ** (-a) * mpmath.e ** (b * s), [lo, hi]))
    got = weighted_exp_integral_ln(a, b, math.log(lo), math.log(hi))
    assert got.to_float() == pytest.approx(oracle, rel=1e-11)


def test_weighted_integral_nearby_bounds():
    a, b = 0.3, 2.0
    lo, hi = 1.0, 1.0 + 1e-10
    oracle = hi ** (-a) * math.exp(b) * (hi - lo)  # midpoint to O(h^2)
    got = weighted_exp_integral_ln(a, b, math.log(lo), math.log(hi))
    assert got.to_float() == pytest.approx(oracle, rel=1e-6)


def test_weighted_integral_rejects_bad_exponent():
    with pytest.raises(ValueError):
        weighted_exp_integral_ln(1.5, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        weighted_exp_integral_ln(0.5, -1.0, 0.0, 1.0)


@pytest.mark.parametrize("span", [1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5,
                                  1e-4, 1e-3, 1e-2])
def test_weighted_integral_close_bounds(fig2, span):
    # the fig2 tail field near e = e^-5: the series difference cancels
    # almost completely and the quadrature fallback carries the digits
    tail = chain(fig2).fields[2]
    a, b = tail.a, tail.b
    ln_hi = -5.0
    ln_lo = ln_hi - span
    got = weighted_exp_integral_ln(a, b, ln_lo, ln_hi)
    with mpmath.workdps(40):
        lo, hi = mpmath.exp(mpmath.mpf(ln_lo)), mpmath.exp(mpmath.mpf(ln_hi))
        want = mpmath.log(mpmath.quad(
            lambda s: s ** (-a) * mpmath.e ** (b * s), [lo, hi]))
    assert abs(got.ln - float(want)) <= 1e-11
