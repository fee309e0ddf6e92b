"""Series kernels shared by the bounding curves.

The central object is

    g(alpha, x) = sum_{n>=0} x^n / (n! (alpha + n)),   alpha > 0, x >= 0,

an entire function with g(alpha, 0) = 1/alpha and g(alpha, x) ~ e^x / x for
large x. Every closed-form curve in this package reduces to weighted
exponential integrals

    int_{e_lo}^{e_hi} s^(-a) e^(b s) ds  =  S(e_hi) - S(e_lo),
    S(e) = e^(1-a) g(1-a, b e),

so g is evaluated once per endpoint instead of quadrature per sample.
Results are LogScalars because b*e reaches a few times G^2 and the answer
overflows float64 long before the interesting parameter range ends. The
series is summed to the fixed relative accuracy _REL_TOL = 1e-12, the
tolerance the quadrature fallback is held to as well.
"""

from __future__ import annotations

import math

from .errors import NonConvergence
from .logscalar import ZERO, LogScalar, ls_sum
from .solver import integrate_adaptive

_RESCALE = 1e250
_LN_RESCALE = math.log(_RESCALE)

# relative accuracy asked of every series evaluation
_REL_TOL = 1e-12

# largest series argument accepted: the series needs about x terms, so
# this caps one call at about a million of them
_MAX_X = 1e6

# below this value of b*e_hi the direct series for S(e_hi)-S(e_lo) is pure
# cancellation; the short expansion in _tiny_integral is exact to ~1e-33
_TINY_X = 1e-8

# digits of cancellation tolerated in S(e_hi) - S(e_lo) before falling back
# to quadrature
_MAX_LOST_DIGITS = 3.0


def gamma_series_factor(alpha: float, x: float,
                        n_terms: int | None = None) -> LogScalar:
    """Evaluate g(alpha, x) by its power series.

    Terms are generated by the ratio recurrence
        t_{n+1} = t_n * x (alpha+n) / ((n+1)(alpha+n+1))
    and summed with Kahan compensation; the partial sum is rescaled by
    1e-250 (tracked as a log offset) whenever it threatens overflow. The
    sum stops once a term past the peak n ~ x falls below _REL_TOL / 10 of
    it, and NonConvergence is raised when that takes more than 10 x + 200
    terms or x is not finite or above _MAX_X. With n_terms the partial sum
    of exactly the first n_terms terms is returned instead, with no
    convergence check: that reproduces what a hard truncation of the
    series does to the curve it feeds.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if not x <= _MAX_X:
        raise NonConvergence(
            f"g({alpha}, {x}): argument not finite or above {_MAX_X:g}, "
            f"the largest the series is summed for")
    if n_terms is None:
        # the terms peak near n = x; only trust smallness past the peak
        limit, past = int(10.0 * x) + 200, x
    elif n_terms < 1:
        raise ValueError(f"need at least one term, got {n_terms}")
    else:
        limit, past = n_terms - 1, math.inf
    tol = _REL_TOL / 10.0

    t = 1.0 / alpha
    s = t
    comp = 0.0
    offset = 0.0
    n = 0
    while n < limit:
        t *= x * (alpha + n) / ((n + 1.0) * (alpha + n + 1.0))
        n += 1
        y = t - comp
        tmp = s + y
        comp = (tmp - s) - y
        s = tmp
        if n > past and t <= s * tol:
            return LogScalar.from_ln(math.log(s) + offset)
        if s > _RESCALE:
            t /= _RESCALE
            s /= _RESCALE
            comp /= _RESCALE
            offset += _LN_RESCALE
    if n_terms is not None:
        return LogScalar.from_ln(math.log(s) + offset)
    raise NonConvergence(f"g({alpha}, {x}) did not converge in {limit} terms")


def _tiny_integral(a: float, b: float, ln_lo: float, ln_hi: float) -> LogScalar:
    # expand e^(bs): int s^(k-a) ds term by term, four terms suffice for
    # b e_hi <= _TINY_X; each power difference goes through expm1 so nearby
    # bounds cost no digits
    terms = []
    for k in range(4):
        if k > 0 and b == 0.0:
            break
        p = k + 1.0 - a
        diff_ln = math.log(-math.expm1(p * (ln_lo - ln_hi))) if ln_lo != -math.inf else 0.0
        ln_term = (k * math.log(b) if k else 0.0) + p * ln_hi + diff_ln \
            - math.log(math.factorial(k) * p)
        terms.append(LogScalar.from_ln(ln_term))
    return ls_sum(terms)


def weighted_exp_integral_ln(a: float, b: float, ln_lo: float,
                             ln_hi: float) -> LogScalar:
    """int s^(-a) e^(b s) ds over [exp(ln_lo), exp(ln_hi)], as a LogScalar.

    Bounds are taken in the log so the routine stays exact for abscissas
    far outside float64 range (ln_lo = -inf means a zero lower bound).
    Requires 0 < a < 1 and b >= 0.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must lie in (0, 1), got {a}")
    if b < 0.0:
        raise ValueError(f"b must be nonnegative, got {b}")
    if ln_lo > ln_hi:
        raise ValueError("lower bound above upper bound")
    if ln_lo == ln_hi:
        return ZERO

    x_hi = math.exp(ln_hi + math.log(b)) if b > 0.0 else 0.0
    if x_hi <= _TINY_X:
        return _tiny_integral(a, b, ln_lo, ln_hi)

    s_hi = LogScalar.from_ln((1.0 - a) * ln_hi) \
        * gamma_series_factor(1.0 - a, x_hi)
    if ln_lo == -math.inf:
        return s_hi
    x_lo = math.exp(ln_lo + math.log(b))
    s_lo = LogScalar.from_ln((1.0 - a) * ln_lo) \
        * gamma_series_factor(1.0 - a, x_lo)
    result, lost = s_hi.add_with_cancellation(-s_lo)
    if lost <= _MAX_LOST_DIGITS:
        return result

    # close bounds: integrate the rescaled integrand u^(-a) e^(x_hi (u-1))
    # on [e_lo/e_hi, 1] instead of trading digits in the subtraction, in
    # v = ln u so that a lower bound within one ulp of 1 keeps its digits
    def f(v: float) -> float:
        return math.exp((1.0 - a) * v + x_hi * math.expm1(v))

    quad = integrate_adaptive(f, ln_lo - ln_hi, 0.0)
    return LogScalar.from_ln((1.0 - a) * ln_hi + x_hi + math.log(quad))
