"""The ln_add / ln_sub kernel under every curve evaluation, and the
positive LogScalar that carries values out of the library."""

import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from enstrophy_bounds import ForcingParams, LogScalar, critical, subcritical
from enstrophy_bounds.logscalar import ONE, ZERO, ln_add, ln_sub, sci_string

positive = st.floats(min_value=1e-300, max_value=1e12,
                     allow_nan=False, allow_infinity=False)
nonnegative = st.one_of(st.just(0.0), positive)


def close(a: float, b: float, rel: float = 1e-13) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def test_float_round_trip():
    # the trip costs |ln x| * eps relative, ~2e-14 at the float range edge
    for x in (1.0, 3.5, 0.0025, 1e300, 1e-300, 7.0):
        assert LogScalar.from_float(x).to_float() == pytest.approx(x, rel=1e-13)
    assert LogScalar.from_float(0.0) is ZERO
    assert ZERO.to_float() == 0.0


def test_from_float_rejects_nan():
    with pytest.raises(ValueError):
        LogScalar.from_float(math.nan)


def test_negative_values_are_refused():
    # every value that leaves the library is an energy or an enstrophy
    with pytest.raises(ValueError):
        LogScalar.from_float(-1.0)
    with pytest.raises(ValueError):
        LogScalar.from_sci_string("-1e3")


def test_overflow_to_float_saturates():
    huge = LogScalar(5000.0)
    assert huge.to_float() == math.inf
    assert huge.log10() == pytest.approx(5000.0 / math.log(10.0))
    assert ZERO.log10() == -math.inf


def test_mul_div_pow_exact_in_ln():
    a = LogScalar(1234.5)
    b = LogScalar(-987.25)
    assert (a * b).ln == 1234.5 - 987.25
    assert (a / b).ln == 1234.5 + 987.25
    assert (a ** 3.0).ln == 3.0 * 1234.5


def test_pow_edge_cases():
    assert (ZERO ** 2.0) is ZERO
    assert (ZERO ** 0.0) == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1.0
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_add_against_floats():
    pairs = [(3.0, 4.0), (1e10, 1.0), (2.5, 2.5), (1e-30, 1e30), (0.0, 5.0)]
    for x, y in pairs:
        got = (LogScalar.from_float(x) + LogScalar.from_float(y)).to_float()
        assert got == pytest.approx(x + y, rel=1e-13, abs=1e-280)


def test_exact_cancellation_reports_infinite_loss():
    assert ln_sub(42.0, 42.0) == (-math.inf, math.inf)


def test_cancellation_digit_count():
    ln, lost = ln_sub(0.0, math.log(1.0 - 1e-6))
    assert math.exp(ln) == pytest.approx(1e-6, rel=1e-9)
    assert lost == pytest.approx(6.0, abs=0.1)


def test_cancellation_inside_one_ulp():
    # exp(d) rounds to 1.0 here, so the difference must come from expm1
    small, big = 0.3043804803348786, 0.30438048033487863
    ln, lost = ln_sub(big, small)
    d = small - big
    assert ln == pytest.approx(big + math.log(-math.expm1(d)), rel=1e-15)
    assert lost == pytest.approx((big - ln) / math.log(10.0))


@given(st.floats(min_value=-700.0, max_value=700.0, allow_nan=False),
       st.integers(min_value=1, max_value=64))
def test_hypothesis_near_cancellation(ln, ulps):
    other = ln
    for _ in range(ulps):
        other = math.nextafter(other, math.inf)
    res, lost = ln_sub(other, ln)
    d = ln - other  # exact: the two logs are a few ulps apart
    want = other + math.log(-math.expm1(d))
    assert 0.0 <= lost < math.inf
    # the digits reported lost bound the error of the result; inside half
    # an ulp of 1, where exp(d) rounds to 1, nothing may be lost to it
    assert abs(res - want) <= 4.5e-16 * 10.0 ** min(lost, 300.0) + 1e-12
    if abs(d) < 5e-17:
        assert abs(res - want) <= 1e-12


def test_same_sign_add_lossless():
    _, lost = LogScalar.from_float(1.0).add_with_cancellation(
        LogScalar.from_float(1e-200))
    assert lost == 0.0


@given(nonnegative, nonnegative)
def test_hypothesis_add_commutes(x, y):
    a, b = LogScalar.from_float(x), LogScalar.from_float(y)
    assert close((a + b).to_float(), (b + a).to_float())


@given(positive, positive, positive)
def test_hypothesis_add_associates(x, y, z):
    a, b, c = (LogScalar.from_float(v) for v in (x, y, z))
    left = ((a + b) + c).to_float()
    right = (a + (b + c)).to_float()
    # positive terms cannot cancel: roundoff relative to the sum
    assert abs(left - right) <= 1e-12 * (x + y + z)


@given(positive, positive)
def test_hypothesis_mul_matches_floats(x, y):
    got = (LogScalar.from_float(x) * LogScalar.from_float(y)).to_float()
    assert close(got, x * y, rel=1e-12)


@given(st.lists(nonnegative, min_size=0, max_size=20))
def test_hypothesis_sum_matches_floats(xs):
    got = sum((LogScalar.from_float(x) for x in xs), ZERO).to_float()
    assert abs(got - math.fsum(xs)) <= 1e-11 * (math.fsum(xs) or 1.0)


def test_ordering_of_values():
    vals = [0.0, 1e-300, 0.5, 2.0, 1e300]
    scalars = [LogScalar.from_float(v) for v in vals]
    assert sorted(reversed(scalars)) == scalars
    assert ZERO < LogScalar(-1e6) <= ONE
    assert max(scalars) is scalars[-1]


def test_sci_string_format():
    # 17 significant digits, the last 1-2 subject to the ln round trip
    s = sci_string(LogScalar.from_float(0.0025).ln)
    assert s.startswith("2.50000000000000") and s.endswith("e-03")
    assert len(s) == len("2.5000000000000000e-03")
    assert sci_string(ZERO.ln) == "0.0"
    # way outside float range: exponent computed from the log directly
    tiny = LogScalar(-8248.908704754842)
    assert sci_string(tiny.ln).endswith("e-3583")


def test_sci_string_round_trip():
    cases = [LogScalar.from_float(0.0025),
             LogScalar.from_float(123.456),
             LogScalar(1e5),
             LogScalar(-8248.9087),
             LogScalar(255.4961)]
    for v in cases:
        back = LogScalar.from_sci_string(sci_string(v.ln))
        assert back.ln == pytest.approx(v.ln, rel=1e-13, abs=1e-12)
    assert LogScalar.from_sci_string("0.0") is ZERO
    assert LogScalar.from_sci_string(" 1e3 ").to_float() \
        == pytest.approx(1000.0, rel=1e-14)


def test_from_sci_string_rejects_garbage():
    # "1e" is tolerated (empty exponent reads as 0), per the docstring's
    # any-float-style-literal promise; these are not
    for bad in ("", "abc", "--1e3", "1e+", "nan", "inf"):
        with pytest.raises(ValueError):
            LogScalar.from_sci_string(bad)


def test_from_sci_string_refuses_a_non_finite_ln():
    # the exponent is an exact int, so its product with ln 10 could
    # overflow or leave float range; either is refused like garbage
    for bad in ("1e" + "9" * 400, "1e-" + "9" * 400, "1e" + "9" * 308):
        with pytest.raises(ValueError, match="malformed"):
            LogScalar.from_sci_string(bad)
    assert LogScalar.from_sci_string("1e299999").ln \
        == pytest.approx(299999 * math.log(10.0), rel=1e-15)
    assert LogScalar.from_sci_string("0e" + "9" * 400) is ZERO


@given(st.floats(min_value=-5000.0, max_value=5000.0,
                 allow_nan=False, allow_infinity=False))
def test_hypothesis_sci_round_trip_in_ln(ln):
    back = LogScalar.from_sci_string(sci_string(ln))
    assert abs(back.ln - ln) <= 1e-13 * max(1.0, abs(ln))


# -- the kernel ------------------------------------------------------------

_BIGS = (0.0, -1.0, 3.5, 700.0, -745.0, 1e4, -1e4, 1e6, -1e6)


def _ulps(*xs: float) -> float:
    return 4.0 * math.ulp(max(1.0, *map(abs, xs)))


@pytest.mark.parametrize("gap", [0.0, 1e-300, 1e-17, 1.0, 40.0, 800.0])
def test_kernel_against_mpmath(gap):
    # the gap as the floats hold it: 1e-300 and 1e-17 survive only next to
    # ln 0, and 1e-17 takes the expm1 arm, where exp(d) rounds to 1
    with mpmath.workdps(50):
        for big in _BIGS:
            small = big - gap
            b, s = mpmath.mpf(big), mpmath.mpf(small)
            got = ln_add(big, small)
            assert got == ln_add(small, big)
            assert abs(got - mpmath.log(mpmath.exp(b) + mpmath.exp(s))) \
                <= _ulps(big)
            if small == big:
                continue
            # e^b - e^s = e^b (1 - e^(s-b)), the bracket by expm1 so that
            # 50 digits resolve a gap of 1e-300
            ln, lost = ln_sub(big, small)
            bracket = -mpmath.expm1(s - b)
            assert abs(ln - (b + mpmath.log(bracket))) <= _ulps(big, ln)
            assert abs(lost + mpmath.log10(bracket)) \
                <= _ulps(big, ln) / math.log(10.0)


@pytest.mark.parametrize("big", _BIGS)
def test_kernel_with_an_empty_term(big):
    assert ln_add(big, -math.inf) == big
    assert ln_add(-math.inf, big) == big
    assert ln_sub(big, -math.inf) == (big, 0.0)
    assert ln_sub(big, big) == (-math.inf, math.inf)


def test_construction_sums_no_log_scalars(fig2, fig3, monkeypatch):
    # the construction carries ln floats through the kernel; a LogScalar
    # per sample, or per root-finder step, would show up here
    calls = []
    real = LogScalar.add_with_cancellation

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(LogScalar, "add_with_cancellation", counting)
    # fresh sets, so their chains are built under the patch
    fig2, fig3 = (ForcingParams.from_mapping(p.to_raw()) for p in (fig2, fig3))
    critical.assemble_critical(fig2)
    subcritical.assemble_subcritical(fig3)
    for e, E in ((1e-300, 1.0), (0.01, 1e10), (1.0, 1e40), (4.0, 1e3)):
        critical.classify_critical(e, E, fig2)
        subcritical.classify_subcritical(e, E, fig3)
    assert calls == []
