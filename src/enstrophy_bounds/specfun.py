"""Series kernels shared by the bounding curves.

The central object is

    g(alpha, x) = sum_{n>=0} x^n / (n! (alpha + n)),   alpha > 0, x >= 0,

an entire function with g(alpha, 0) = 1/alpha and g(alpha, x) ~ e^x / x for
large x. Every closed-form curve in this package reduces to weighted
exponential integrals. With alpha = 1 - a, x = b e_hi and r = e_lo / e_hi,
expanding e^(bs) and integrating term by term gives

    int_{e_lo}^{e_hi} s^(-a) e^(b s) ds  =  e_hi^alpha sum_n t_n v_n,
    t_n = x^n / (n! (alpha + n)),   v_n = 1 - r^(alpha + n),

and g is the case r = 0. Every term is positive, so one loop serves close
bounds, b = 0, tiny x and a zero lower bound alike: the difference of the
endpoint values is taken inside each weight v_n = -expm1((alpha+n) ln r),
where it costs no digits, and never between two large sums. That loop
needs about x terms, a few times G^2, so wide spans take the endpoint
difference e_hi^alpha (G - H), G = g(alpha, x), H = r^alpha g(alpha, r x),
with g from its few-term large-argument form and ln G memoised per upper
end. The weighted integral is returned as its ln, a float, because it
overflows float64 long before the interesting parameter range ends;
gamma_series_factor, a public entry point, returns a LogScalar.
weighted_exp_integral_to prepares the integral once per upper end, as a
function of the lower end, so every sample of a branch shares alpha, x
and its gate. Every arm is summed to the fixed relative accuracy
_REL_TOL = 1e-12.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import NonConvergence
from .logscalar import LogScalar

_RESCALE = 1e250
_LN_RESCALE = math.log(_RESCALE)

# relative accuracy asked of every series evaluation
_REL_TOL = 1e-12

# largest series argument accepted: the series needs about x terms, so
# this caps one call at about a million of them
_MAX_X = 1e6
_LN_MAX_X = math.log(_MAX_X)

# largest bound on H / (G - H) for which G - H is taken as a difference
_LN_SEVENTH = math.log(1.0 / 7.0)


def _series_ln(alpha: float, x: float, ln_r: float,
               n_terms: int | None = None) -> float:
    """ln of sum_n t_n v_n, t_n = x^n/(n! (alpha+n)), v_n = 1 - r^(alpha+n).

    Terms t_n come from the ratio recurrence
        t_{n+1} = t_n * x (alpha+n) / ((n+1)(alpha+n+1))
    and are summed with Kahan compensation; the partial sum is divided by
    1e250 whenever it or the term threatens overflow, and the k divisions
    are added back once as k ln(1e250). The sum stops once a term past the
    peak n ~ x falls below _REL_TOL / 10 of it: v_n / (alpha+n) never
    grows with n, so the weighted terms past the peak fall at least as
    fast as x^n/n!. NonConvergence is raised when that takes more than
    10 x + 200 terms or x is not finite or above _MAX_X. With n_terms the
    partial sum of exactly the first n_terms terms is returned instead,
    with no convergence check.
    """
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

    weighted = ln_r > -math.inf  # r = 0: every weight is exactly 1
    t = 1.0 / alpha
    s = t * -math.expm1(alpha * ln_r)
    comp = 0.0
    k = 0
    n = 0
    while n < limit:
        t *= x * (alpha + n) / ((n + 1.0) * (alpha + n + 1.0))
        n += 1
        term = t * -math.expm1((alpha + n) * ln_r) if weighted else t
        y = term - comp
        tmp = s + y
        comp = (tmp - s) - y
        s = tmp
        if n > past and term <= s * tol:
            return math.log(s) + k * _LN_RESCALE
        if s > _RESCALE or t > _RESCALE:
            t /= _RESCALE
            s /= _RESCALE
            comp /= _RESCALE
            k += 1
    if n_terms is not None:
        return math.log(s) + k * _LN_RESCALE
    raise NonConvergence(f"g({alpha}, {x}) did not converge in {limit} terms")


def _g_ln(alpha: float, x: float) -> float:
    """ln g(alpha, x). For alpha < 1 the large-argument form
    g ~ e^x/x sum_s (1 - alpha)_s x^(-s) (DLMF 13.7.2), all terms positive,
    is taken where the part it drops, about Gamma(alpha) x^(1-alpha) e^(-x)
    relative, is below _REL_TOL / 10; its smallest term is smaller still,
    so it converges while its terms fall. Elsewhere the r = 0 series.
    """
    tol = _REL_TOL / 10.0
    if alpha < 1.0 and 1.0 < x <= _MAX_X and math.lgamma(alpha) \
            + (1.0 - alpha) * math.log(x) - x < math.log(tol):
        term, tail, k = 1.0, 0.0, 1.0 - alpha
        while term > tol * (1.0 + tail):
            term *= k / x
            tail += term
            k += 1.0
        return x - math.log(x) + math.log1p(tail)
    return _series_ln(alpha, x, -math.inf)


_g_ln_cached = lru_cache(maxsize=64)(_g_ln)


def gamma_series_factor(alpha: float, x: float,
                        n_terms: int | None = None) -> LogScalar:
    """Evaluate g(alpha, x) to _REL_TOL (see _g_ln). With n_terms the
    partial power series of exactly the first n_terms terms is returned,
    with no convergence check: that reproduces what a hard truncation of
    the series does to the curve it feeds. Raises NonConvergence for x not
    finite or above _MAX_X.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if n_terms is None:
        return LogScalar(_g_ln(alpha, x))
    return LogScalar(_series_ln(alpha, x, -math.inf, n_terms))


def weighted_exp_integral_to(a: float, b: float, ln_hi: float):
    """The function ln_lo -> ln of int s^(-a) e^(b s) ds over
    [exp(ln_lo), exp(ln_hi)] (-inf for an empty interval), prepared once
    per upper end.

    Bounds are taken in the log so the routine stays exact for abscissas
    far outside float64 range (ln_lo = -inf means a zero lower bound).
    Requires 0 < a < 1 and b >= 0.

    It is e_hi^alpha (G - H), with G, H the integrals of t^(-a) e^(xt)
    over [0, 1] and [0, r], x = b e_hi, r = e_lo/e_hi. Bounding t^(-a) by
    1 on [r, 1] gives H/(G - H) <= x r^(1-a) / ((1-a)(e^(x(1-r)) - 1))
    before any sum; where that is at most 1/7 the difference is taken
    (under 0.07 digits lost), else the positive-term series is summed.
    alpha, x and its gate, ln(x/alpha) and alpha ln e_hi depend on the
    upper end alone and are formed here; ln G is memoised per upper end.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must lie in (0, 1), got {a}")
    if b < 0.0:
        raise ValueError(f"b must be nonnegative, got {b}")
    alpha, ln_lead = 1.0 - a, (1.0 - a) * ln_hi
    ln_x = ln_hi + math.log(b) if b > 0.0 else -math.inf
    x = math.inf if ln_x > _LN_MAX_X else math.exp(ln_x)
    ln_x_alpha = math.log(x / alpha) if x > 0.0 else -math.inf

    def ln_w(ln_lo: float) -> float:
        if ln_lo > ln_hi:
            raise ValueError("lower bound above upper bound")
        if ln_lo == ln_hi:
            return -math.inf
        if x == math.inf:
            raise NonConvergence(
                f"x = exp({ln_x:.6g}) is above {_MAX_X:g}, the largest the "
                f"series is summed for")
        ln_r = ln_lo - ln_hi
        gap = -x * math.expm1(ln_r)  # x (1 - r)
        if gap > 0.0 and ln_x_alpha + alpha * ln_r - gap \
                - math.log(-math.expm1(-gap)) <= _LN_SEVENTH:
            ln_g = _g_ln_cached(alpha, x)
            ln_h = alpha * ln_r + _g_ln(alpha, x * math.exp(ln_r))
            return ln_lead + ln_g + math.log(-math.expm1(ln_h - ln_g))
        return ln_lead + _series_ln(alpha, x, ln_r)

    return ln_w


def weighted_exp_integral_ln(a: float, b: float, ln_lo: float,
                             ln_hi: float) -> float:
    """ln of int s^(-a) e^(b s) ds over [exp(ln_lo), exp(ln_hi)]: the
    function weighted_exp_integral_to prepares for ln_hi, at ln_lo."""
    return weighted_exp_integral_to(a, b, ln_hi)(ln_lo)
