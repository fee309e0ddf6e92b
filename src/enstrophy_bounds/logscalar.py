"""Log-domain arithmetic.

The curves this package emits span hundreds to thousands of decades on both
axes (enstrophy grows like exp(c G^2), the energy floor decays like
exp(-c' G^2)), so float64 magnitudes are not usable. Inside the
construction every positive quantity travels as its ln, a plain float, and
sums and differences go through the one kernel ln_add / ln_sub. A
LogScalar stores a sign in {-1, 0, +1} and ln|x|: it is the type values
carry when they leave the library (branch values, breakpoints, bounds),
and its addition is the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

_LN10 = math.log(10.0)

# exp() overflows just above this; used by to_float only
_EXP_MAX = 709.0

# significant digits of to_sci_string: enough to round-trip a float64
_SIG = 17


def ln_add(a: float, b: float) -> float:
    """ln(e^a + e^b); either argument may be -inf."""
    big, small = (a, b) if a >= b else (b, a)
    if small == -math.inf:
        return big
    return big + math.log1p(math.exp(small - big))


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


@dataclass(frozen=True, slots=True)
class LogScalar:
    sign: int
    ln: float

    # -- construction -------------------------------------------------

    @staticmethod
    def from_float(x: float) -> "LogScalar":
        if x == 0.0:
            return ZERO
        if math.isnan(x):
            raise ValueError("NaN has no log representation")
        return LogScalar(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_ln(ln: float, sign: int = 1) -> "LogScalar":
        if sign == 0 or ln == -math.inf:
            return ZERO
        if sign not in (-1, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {sign}")
        return LogScalar(sign, ln)

    @staticmethod
    def from_sci_string(text: str) -> "LogScalar":
        """Inverse of to_sci_string, tolerant of any float-style literal.

        The mantissa is parsed in float64 and the decimal exponent moved
        into the log, so values far outside float range round-trip with
        ~1e-13 relative accuracy in ln space.
        """
        s = text.strip()
        if not s:
            raise ValueError("empty numeric string")
        sign = 1
        if s[0] in "+-":
            sign = -1 if s[0] == "-" else 1
            s = s[1:]
        mant_str, _, exp_str = s.partition("e" if "e" in s else "E")
        mant = float(mant_str)
        if mant == 0.0:
            return ZERO
        if mant < 0.0 or math.isnan(mant) or math.isinf(mant):
            raise ValueError(f"malformed scientific literal {text!r}")
        exp10 = int(exp_str) if exp_str else 0
        return LogScalar(sign, math.log(mant) + exp10 * _LN10)

    # -- conversion ----------------------------------------------------

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.ln > _EXP_MAX:
            return self.sign * math.inf
        return self.sign * math.exp(self.ln)

    def log10(self) -> float:
        if self.sign < 0:
            raise ValueError("log10 of a negative value")
        if self.sign == 0:
            return -math.inf
        return self.ln / _LN10

    def to_sci_string(self) -> str:
        """Deterministic scientific notation with _SIG significant digits,
        exact even when exp(ln) overflows or underflows float64."""
        if self.sign == 0:
            return "0.0"
        lg = self.ln / _LN10
        exp10 = math.floor(lg)
        mant = 10.0 ** (lg - exp10)
        mant_str = f"{mant:.{_SIG - 1}f}"
        if mant_str.startswith("10."):
            # rounding pushed the mantissa out of [1, 10)
            exp10 += 1
            mant_str = f"{mant / 10.0:.{_SIG - 1}f}"
        prefix = "-" if self.sign < 0 else ""
        return f"{prefix}{mant_str}e{exp10:+03d}"

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "LogScalar":
        return LogScalar(-self.sign, self.ln)

    def __mul__(self, other: "LogScalar") -> "LogScalar":
        s = self.sign * other.sign
        if s == 0:
            return ZERO
        return LogScalar(s, self.ln + other.ln)

    def __truediv__(self, other: "LogScalar") -> "LogScalar":
        if other.sign == 0:
            raise ZeroDivisionError("LogScalar division by zero")
        if self.sign == 0:
            return ZERO
        return LogScalar(self.sign * other.sign, self.ln - other.ln)

    def __pow__(self, p: float) -> "LogScalar":
        if self.sign == 0:
            if p > 0:
                return ZERO
            if p == 0:
                return ONE
            raise ZeroDivisionError("0 to a negative power")
        if self.sign < 0:
            if p != int(p):
                raise ValueError("fractional power of a negative value")
            s = -1 if int(p) % 2 else 1
            return LogScalar(s, self.ln * p)
        return LogScalar(1, self.ln * p)

    def __add__(self, other: "LogScalar") -> "LogScalar":
        return self.add_with_cancellation(other)[0]

    def __sub__(self, other: "LogScalar") -> "LogScalar":
        return self.add_with_cancellation(-other)[0]

    def add_with_cancellation(self, other: "LogScalar") -> tuple["LogScalar", float]:
        """Add, reporting decimal digits lost to cancellation.

        Same-sign sums lose nothing (returns 0.0). Opposite-sign sums
        return (ln max - ln result)/ln 10; an exact cancellation reports
        inf digits lost. ZERO, whose ln is -inf, needs no case of its
        own: the kernel takes -inf as an empty term.
        """
        big, small = (self, other) if self.ln >= other.ln else (other, self)
        if self.sign == other.sign:
            return LogScalar.from_ln(ln_add(big.ln, small.ln), big.sign), 0.0
        ln, lost = ln_sub(big.ln, small.ln)
        return LogScalar.from_ln(ln, big.sign), lost

    # -- order ---------------------------------------------------------

    def _cmp(self, other: "LogScalar") -> int:
        if self.sign != other.sign:
            return -1 if self.sign < other.sign else 1
        if self.sign == 0:
            return 0
        # same nonzero sign: for negatives the larger magnitude is smaller
        a, b = self.ln, other.ln
        if a == b:
            return 0
        lt = a < b if self.sign > 0 else a > b
        return -1 if lt else 1

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0


ZERO = LogScalar(0, -math.inf)
ONE = LogScalar(1, 0.0)


def ls_sum(items: Iterable[LogScalar]) -> LogScalar:
    total = ZERO
    for it in items:
        total = total + it
    return total
