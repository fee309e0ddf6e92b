"""Log-domain arithmetic.

The curves this package emits span hundreds to thousands of decades on both
axes (enstrophy grows like exp(c G^2), the energy floor decays like
exp(-c' G^2)), so float64 magnitudes are not usable. Inside the
construction every positive quantity travels as its ln, a plain float, and
sums and differences go through the one kernel ln_add / ln_sub. A
LogScalar holds the ln of a value >= 0 (-inf for zero): it is the type
energies and enstrophies carry when they leave the library (branch values,
breakpoints, bounds), and its addition is the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_LN10 = math.log(10.0)

# exp() overflows just above this; used by to_float only
_EXP_MAX = 709.0

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


@dataclass(frozen=True, slots=True, order=True)
class LogScalar:
    """A value >= 0 held as its ln; order=True compares ln, which orders
    the values."""

    ln: float

    # -- construction -------------------------------------------------

    @staticmethod
    def from_float(x: float) -> "LogScalar":
        if x == 0.0:
            return ZERO
        if not x > 0.0:
            raise ValueError(f"{x} is not a nonnegative number")
        return LogScalar(math.log(x))

    @staticmethod
    def from_ln(ln: float) -> "LogScalar":
        return LogScalar(ln)

    @staticmethod
    def from_sci_string(text: str) -> "LogScalar":
        """Inverse of sci_string, tolerant of any float-style literal
        that is not negative.

        The mantissa is parsed in float64 and the decimal exponent moved
        into the log, so values far outside float range round-trip with
        ~1e-13 relative accuracy in ln space.
        """
        s = text.strip()
        mant_str, _, exp_str = s.partition("e" if "e" in s else "E")
        mant = float(mant_str)
        if mant == 0.0:
            return ZERO
        if not 0.0 < mant < math.inf:
            raise ValueError(f"malformed scientific literal {text!r}")
        exp10 = int(exp_str) if exp_str else 0
        return LogScalar(math.log(mant) + exp10 * _LN10)

    # -- conversion ----------------------------------------------------

    def to_float(self) -> float:
        return math.inf if self.ln > _EXP_MAX else math.exp(self.ln)

    def log10(self) -> float:
        return self.ln / _LN10

    def to_sci_string(self) -> str:
        """sci_string of the value."""
        return sci_string(self.ln)

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "LogScalar") -> "LogScalar":
        return LogScalar(self.ln + other.ln)

    def __truediv__(self, other: "LogScalar") -> "LogScalar":
        if other.ln == -math.inf:
            raise ZeroDivisionError("LogScalar division by zero")
        return LogScalar(self.ln - other.ln)

    def __pow__(self, p: float) -> "LogScalar":
        if self.ln == -math.inf:
            if p < 0:
                raise ZeroDivisionError("0 to a negative power")
            return ONE if p == 0 else ZERO
        return LogScalar(self.ln * p)

    def __add__(self, other: "LogScalar") -> "LogScalar":
        return self.add_with_cancellation(other)[0]

    def add_with_cancellation(self, other: "LogScalar") -> tuple["LogScalar", float]:
        """The sum and the decimal digits it lost: 0.0, as both terms are
        positive. Differences, which can lose digits, are ln_sub's."""
        return LogScalar(ln_add(self.ln, other.ln)), 0.0


ZERO = LogScalar(-math.inf)
ONE = LogScalar(0.0)
