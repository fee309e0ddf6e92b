"""The ln_add kernel under every curve evaluation, and the
scientific literals (sci_string, from_sci_string) that carry ln floats out
of the library and back: sums are the kernel's, on ln floats. The
LogScalar shim has no arithmetic, and no module but logscalar names it."""

import ast
import functools
import math
import operator

import mpmath
import pytest
from hypothesis import given, strategies as st

from enstrophy_bounds.logscalar import (LogScalar, from_sci_string, ln_add,
                                        sci_string)

from conftest import ROOT

positive = st.floats(min_value=1e-300, max_value=1e12,
                     allow_nan=False, allow_infinity=False)
nonnegative = st.one_of(st.just(0.0), positive)


def close(a: float, b: float, rel: float = 1e-13) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def test_float_round_trip():
    # a float's literal read back as an ln: the trip costs |ln x| * eps
    # relative, ~2e-14 at the float range edge
    for x in (1.0, 3.5, 0.0025, 1e300, 1e-300, 7.0):
        assert math.exp(from_sci_string(repr(x))) \
            == pytest.approx(x, rel=1e-13)
        assert math.exp(from_sci_string(sci_string(math.log(x)))) \
            == pytest.approx(x, rel=1e-13)
    assert from_sci_string("0.0") == -math.inf
    assert sci_string(-math.inf) == "0.0"


def test_negative_values_are_refused():
    # every value that leaves the library is an energy or an enstrophy
    for bad in ("-1e3", "-0.5", "-1"):
        with pytest.raises(ValueError, match="malformed"):
            from_sci_string(bad)


def _ln(x: float) -> float:
    return math.log(x) if x else -math.inf


def _value(ln: float) -> float:
    return math.exp(ln)


def test_add_against_floats():
    pairs = [(3.0, 4.0), (1e10, 1.0), (2.5, 2.5), (1e-30, 1e30), (0.0, 5.0)]
    for x, y in pairs:
        got = _value(ln_add(_ln(x), _ln(y)))
        assert got == pytest.approx(x + y, rel=1e-13, abs=1e-280)


def test_values_carry_no_arithmetic():
    a = LogScalar(0.0)
    for op in (operator.add, operator.mul, operator.truediv, operator.pow):
        with pytest.raises(TypeError):
            op(a, a)
    with pytest.raises(TypeError):
        sum([a, a], LogScalar(-math.inf))


def test_same_sign_add_lossless():
    total, lost = LogScalar(0.0).add_with_cancellation(
        LogScalar(math.log(1e-200)))
    assert lost == 0.0
    assert total.ln == ln_add(0.0, math.log(1e-200))


@given(nonnegative, nonnegative)
def test_hypothesis_add_commutes(x, y):
    a, b = _ln(x), _ln(y)
    assert close(_value(ln_add(a, b)), _value(ln_add(b, a)))


@given(positive, positive, positive)
def test_hypothesis_add_associates(x, y, z):
    a, b, c = (_ln(v) for v in (x, y, z))
    left = _value(ln_add(ln_add(a, b), c))
    right = _value(ln_add(a, ln_add(b, c)))
    # positive terms cannot cancel: roundoff relative to the sum
    assert abs(left - right) <= 1e-12 * (x + y + z)


@given(st.lists(nonnegative, min_size=0, max_size=20))
def test_hypothesis_sum_matches_floats(xs):
    # a sum is an ln_add fold from ln 0, as taylor forms its means
    got = _value(functools.reduce(ln_add, map(_ln, xs), -math.inf))
    assert abs(got - math.fsum(xs)) <= 1e-11 * (math.fsum(xs) or 1.0)


def test_ordering_of_values():
    # a value's ln orders it, zero (ln -inf) below every other
    vals = [0.0, 1e-300, 0.5, 2.0, 1e300]
    lns = [from_sci_string(repr(v)) for v in vals]
    assert sorted(reversed(lns)) == lns
    assert len(set(lns)) == len(lns)
    assert -math.inf < from_sci_string("1e-1000000") < lns[1]


def test_sci_string_format():
    # 17 significant digits, the last 1-2 subject to the ln round trip
    s = sci_string(math.log(0.0025))
    assert s.startswith("2.50000000000000") and s.endswith("e-03")
    assert len(s) == len("2.5000000000000000e-03")
    assert sci_string(-math.inf) == "0.0"
    # way outside float range: exponent computed from the log directly
    assert sci_string(-8248.908704754842).endswith("e-3583")
    assert sci_string(5000.0).endswith("e+2171")


def test_sci_string_round_trip():
    cases = [math.log(0.0025), math.log(123.456), 1e5, -8248.9087, 255.4961]
    for ln in cases:
        back = from_sci_string(sci_string(ln))
        assert back == pytest.approx(ln, rel=1e-13, abs=1e-12)
    assert from_sci_string("0.0") == -math.inf
    assert math.exp(from_sci_string(" 1e3 ")) \
        == pytest.approx(1000.0, rel=1e-14)


def test_from_sci_string_rejects_garbage():
    # "1e" is tolerated (empty exponent reads as 0), per the docstring's
    # any-float-style-literal promise; these are not
    for bad in ("", "abc", "--1e3", "1e+", "nan", "inf"):
        with pytest.raises(ValueError):
            from_sci_string(bad)


def test_from_sci_string_refuses_a_non_finite_ln():
    # the exponent is an exact int, so its product with ln 10 could
    # overflow or leave float range; either is refused like garbage
    for bad in ("1e" + "9" * 400, "1e-" + "9" * 400, "1e" + "9" * 308):
        with pytest.raises(ValueError, match="malformed"):
            from_sci_string(bad)
    assert from_sci_string("1e299999") \
        == pytest.approx(299999 * math.log(10.0), rel=1e-15)
    assert from_sci_string("0e" + "9" * 400) == -math.inf


@given(st.floats(min_value=-5000.0, max_value=5000.0,
                 allow_nan=False, allow_infinity=False))
def test_hypothesis_sci_round_trip_in_ln(ln):
    # at most 2.9 ulps were seen over 300,000 seeded draws with |ln| from
    # 1e-6 to 1e9, and 2.5 over 100,000 examples of this strategy
    back = from_sci_string(sci_string(ln))
    assert abs(back - ln) <= 4.0 * math.ulp(max(1.0, abs(ln)))


# -- the kernel ------------------------------------------------------------

_BIGS = (0.0, -1.0, 3.5, 700.0, -745.0, 1e4, -1e4, 1e6, -1e6)


def _ulps(*xs: float) -> float:
    return 4.0 * math.ulp(max(1.0, *map(abs, xs)))


@pytest.mark.parametrize("gap", [0.0, 1e-300, 1e-17, 1.0, 40.0, 800.0])
def test_kernel_against_mpmath(gap):
    # the gap as the floats hold it: 1e-300 and 1e-17 survive only next to
    # ln 0
    with mpmath.workdps(50):
        for big in _BIGS:
            small = big - gap
            b, s = mpmath.mpf(big), mpmath.mpf(small)
            got = ln_add(big, small)
            assert got == ln_add(small, big)
            assert abs(got - mpmath.log(mpmath.exp(b) + mpmath.exp(s))) \
                <= _ulps(big)


@pytest.mark.parametrize("big", _BIGS)
def test_kernel_with_an_empty_term(big):
    assert ln_add(big, -math.inf) == big
    assert ln_add(-math.inf, big) == big


def _names(tree: ast.AST):
    """Every name, attribute and imported name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_module_but_logscalar_names_log_scalar():
    # values leave the library as ln floats: the LogScalar shim stays only
    # for the benchmark's call counter, and no other module builds, imports
    # or reads one
    for path in sorted((ROOT / "src" / "enstrophy_bounds").glob("*.py")):
        names = set(_names(ast.parse(path.read_text())))
        assert ("LogScalar" in names) == (path.name == "logscalar.py"), \
            path.name
