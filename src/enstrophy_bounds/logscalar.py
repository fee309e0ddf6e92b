"""Log-domain arithmetic.

The curves this package emits span hundreds to thousands of decades on both
axes (enstrophy grows like exp(c G^2), the energy floor decays like
exp(-c' G^2)), so float64 magnitudes are not usable. Every positive
quantity travels as its ln, a plain float (-inf for zero), inside the
construction and out of it alike: branch values, breakpoints, bounds and
g are returned as their ln. Sums and differences go through the one
kernel ln_add / ln_sub; products, quotients and powers are sums,
differences and multiples of lns. sci_string renders an ln in scientific
notation and from_sci_string reads one back.
"""

from __future__ import annotations

import math

_LN10 = math.log(10.0)

# the mantissa of sci_string: 17 significant digits, enough to
# round-trip a float64
_MANTISSA = ".16f"


def ln_add(a: float, b: float) -> float:
    """ln(e^a + e^b); either argument may be -inf."""
    big, small = (a, b) if a >= b else (b, a)
    if small == -math.inf:
        return big
    return big + math.log1p(math.exp(small - big))


def sci_string(ln: float) -> str:
    """exp(ln) in deterministic scientific notation with 17 significant
    digits, exact even when exp(ln) overflows or underflows float64."""
    if ln == -math.inf:
        return "0.0"
    lg = ln / _LN10
    exp10 = math.floor(lg)
    mant = 10.0 ** (lg - exp10)
    mant_str = format(mant, _MANTISSA)
    if mant_str.startswith("10."):
        # rounding pushed the mantissa out of [1, 10)
        exp10 += 1
        mant_str = format(mant / 10.0, _MANTISSA)
    return f"{mant_str}e{exp10:+03d}"


def from_sci_string(text: str) -> float:
    """The ln of a float-style literal that is not negative (-inf for
    zero): the inverse of sci_string.

    The mantissa is parsed in float64 and the decimal exponent moved
    into the log, so values far outside float range round-trip with
    ~1e-13 relative accuracy in ln space. A negative, NaN or infinite
    mantissa, or a decimal exponent of magnitude 1e300 or more, where
    the ln stops being finite, is ValueError.
    """
    s = text.strip()
    mant_str, _, exp_str = s.partition("e" if "e" in s else "E")
    mant = float(mant_str)
    if mant == 0.0:
        return -math.inf
    exp10 = int(exp_str) if exp_str else 0
    # |exp10| >= 1e300 is refused: exp10 ln 10 is infinite from about
    # 7.8e307 on, and an int past float range overflows the product
    if not (0.0 < mant < math.inf and abs(exp10) < 1e300):
        raise ValueError(f"malformed scientific literal {text!r}")
    return math.log(mant) + exp10 * _LN10


def ln_sub(big: float, small: float) -> tuple[float, float]:
    """(ln(e^big - e^small), decimal digits lost), for small <= big."""
    d = small - big
    if d == 0.0:
        return -math.inf, math.inf
    if math.exp(d) == 1.0:
        # |d| under half an ulp of 1: log1p(-exp(d)) would be log1p(-1)
        ln = big + math.log(-math.expm1(d))
    else:
        ln = big + math.log1p(-math.exp(d))
    return ln, max(0.0, (big - ln) / _LN10)


class LogScalar:
    """A value >= 0 held as its ln. No code in the package builds one: it
    stays only because the benchmark's tracer counts calls of
    add_with_cancellation by name (bench/spans.py, COUNTED_METHOD), and
    goes once the benchmark drops that counter."""

    def __init__(self, ln: float):
        self.ln = ln

    def add_with_cancellation(self, other: "LogScalar") -> tuple["LogScalar", float]:
        """The sum and the decimal digits it lost: 0.0, as both terms are
        positive. Differences, which can lose digits, are ln_sub's."""
        return LogScalar(ln_add(self.ln, other.ln)), 0.0
