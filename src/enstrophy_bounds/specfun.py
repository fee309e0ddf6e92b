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
bounds, tiny x and a zero lower bound alike: the difference of the
endpoint values is taken inside each weight v_n = -expm1((alpha+n) ln r),
where it costs no digits, and never between two large sums. At b = 0
(x = 0) the sum is its first term, (1 - r^alpha)/alpha, and no loop runs.
The loop needs about x terms, a few times G^2, so wide spans take the
endpoint difference e_hi^alpha (G - H), G = g(alpha, x),
H = r^alpha g(alpha, r x), with g from its few-term large-argument form,
which needs no cap on x.
Only the power series is capped, at x = _MAX_X = 1e6: a span that still
needs it past that, or past float range, is refused there with
NonConvergence. The weighted integral is returned as its ln, a float,
because it overflows float64 long before the interesting parameter range
ends, and so is gamma_series_factor, a public entry point. A caller that
wants a fixed partial sum of g forms it itself
(critical.truncation_comparison).
weighted_exp_integral_to prepares the integral once per upper end, as a
function of the lower end, so every sample of a branch shares alpha, x,
its gate and ln G, which that function forms on first use and keeps
(there is no module-level cache). Every arm is summed to the fixed
relative accuracy _REL_TOL = 1e-12.

The integral's only caller is the solution of the linear field
dy/de = (a/e - b) y - c, y = E^p (Field), which every closed-form curve
family solves: the critical (b > 0) and subcritical (b = 0) branches of
the branches module, and the scaling curve (b = 0, p = 1). One record,
Branch, holds that solution through one anchor: it prepares the integral
once, keeps the bounds lead and top of the solution's inner term, and
gives ln y, the test of a point against the branch, the b = 0 maximum in
closed form and ln E with d ln E/d ln e on a grid. Each family keeps its
own refusals.
"""

from __future__ import annotations

import math

from .errors import NonConvergence, OutsideDomain
from .logscalar import ln_add
from .params import exp_clamped

_RESCALE = 1e250
_LN_RESCALE = math.log(_RESCALE)

# relative accuracy asked of every series evaluation
_REL_TOL = 1e-12

# largest argument the power series is summed for: it needs about x
# terms, so this caps one call at about a million of them
_MAX_X = 1e6

# largest bound on H / (G - H) for which G - H is taken as a difference
_LN_SEVENTH = math.log(1.0 / 7.0)


def _series_ln(alpha: float, x: float, ln_r: float) -> float:
    """ln of sum_n t_n v_n, t_n = x^n/(n! (alpha+n)), v_n = 1 - r^(alpha+n).

    Terms t_n come from the ratio recurrence
        t_{n+1} = t_n * x (alpha+n) / ((n+1)(alpha+n+1))
    and are summed with Kahan compensation; the partial sum is divided by
    1e250 whenever it or the term threatens overflow, and the k divisions
    are added back once as k ln(1e250). The sum stops once a term past the
    peak n ~ x falls below _REL_TOL / 10 of it: v_n / (alpha+n) never
    grows with n, so the weighted terms past the peak fall at least as
    fast as x^n/n!. NonConvergence is raised when that takes more than
    10 x + 200 terms or x is not finite or above _MAX_X. At x = 0 every
    term past the first is exactly 0, so the sum is its first term,
    (1 - r^alpha)/alpha, returned without the loop (the bits the loop
    gives).
    """
    if not x <= _MAX_X:
        raise NonConvergence(
            f"g({alpha}, {x}): argument not finite or above {_MAX_X:g}, "
            f"the largest the series is summed for")
    if x == 0.0:
        return math.log((1.0 / alpha) * -math.expm1(alpha * ln_r))
    # the terms peak near n = x; only trust smallness past the peak
    limit = int(10.0 * x) + 200
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
        if n > x and term <= s * tol:
            return math.log(s) + k * _LN_RESCALE
        if s > _RESCALE or t > _RESCALE:
            t /= _RESCALE
            s /= _RESCALE
            comp /= _RESCALE
            k += 1
    raise NonConvergence(f"g({alpha}, {x}) did not converge in {limit} terms")


def _g_ln(alpha: float, x: float) -> float:
    """ln g(alpha, x). For alpha < 1 the large-argument form
    g ~ e^x/x sum_s (1 - alpha)_s x^(-s) (DLMF 13.7.2), all terms positive,
    is taken where the part it drops, about Gamma(alpha) x^(1-alpha) e^(-x)
    relative, is below _REL_TOL / 10; its smallest term is smaller still,
    so it converges while its terms fall. That bound alone picks the arm
    for every x > 1, however large; elsewhere the r = 0 series, which
    refuses an x infinite or above _MAX_X.
    """
    tol = _REL_TOL / 10.0
    if alpha < 1.0 and x > 1.0 and math.lgamma(alpha) \
            + (1.0 - alpha) * math.log(x) - x < math.log(tol):
        term, tail, k = 1.0, 0.0, 1.0 - alpha
        while term > tol * (1.0 + tail):
            term *= k / x
            tail += term
            k += 1.0
        return x - math.log(x) + math.log1p(tail)
    return _series_ln(alpha, x, -math.inf)


def gamma_series_factor(alpha: float, x: float) -> float:
    """ln g(alpha, x), to _REL_TOL (see _g_ln). Raises OutsideDomain for
    alpha not above 0, not finite or with 1/alpha not finite, or x not at
    least 0 (NaN included), and NonConvergence for x infinite, or above
    _MAX_X where the power series is summed (alpha >= 1).
    """
    if not (0.0 < alpha < math.inf and 1.0 / alpha < math.inf):
        raise OutsideDomain(f"g needs a finite alpha > 0 with a finite "
                            f"1/alpha, got alpha = {alpha}")
    if not x >= 0.0:
        raise OutsideDomain(f"g needs x >= 0, got x = {x}")
    return _g_ln(alpha, x)


def weighted_exp_integral_to(a: float, b: float, ln_hi: float):
    """The function ln_lo -> ln of int s^(-a) e^(b s) ds over
    [exp(ln_lo), exp(ln_hi)] (-inf for an empty interval), prepared once
    per upper end.

    Bounds are taken in the log so the routine stays exact for abscissas
    far outside float64 range (ln_lo = -inf means a zero lower bound).
    Raises OutsideDomain, naming the value, unless 0 < a < 1, b >= 0 and
    ln_lo <= ln_hi (NaN included).

    It is e_hi^alpha (G - H), with G, H the integrals of t^(-a) e^(xt)
    over [0, 1] and [0, r], x = b e_hi, r = e_lo/e_hi. Bounding t^(-a) by
    1 on [r, 1] gives H/(G - H) <= x r^(1-a) / ((1-a)(e^(x(1-r)) - 1))
    before any sum; where that is at most 1/7 the difference is taken
    (under 0.07 digits lost), else the positive-term series is summed.
    Only that series is capped: a span that needs it with x above _MAX_X,
    or with x past float range (inf there, params.exp_clamped), is
    NonConvergence there. alpha, x and its gate, ln(x/alpha) and alpha
    ln e_hi depend on the upper end alone and are formed here; ln G is
    formed on first use and kept in the returned function, so it lives
    as long as that does.
    """
    if not 0.0 < a < 1.0:
        raise OutsideDomain(f"weighted integral needs 0 < a < 1, got a = {a}")
    if not b >= 0.0:
        raise OutsideDomain(f"weighted integral needs b >= 0, got b = {b}")
    alpha, ln_lead = 1.0 - a, (1.0 - a) * ln_hi
    ln_x = ln_hi + math.log(b) if b > 0.0 else -math.inf
    x = exp_clamped(ln_x)
    ln_x_alpha = math.log(x / alpha) if x > 0.0 else -math.inf
    ln_g = None

    def ln_w(ln_lo: float) -> float:
        nonlocal ln_g
        if not ln_lo <= ln_hi:
            raise OutsideDomain(f"weighted integral needs ln_lo <= ln_hi, "
                                f"got ln_lo = {ln_lo}, ln_hi = {ln_hi}")
        if ln_lo == ln_hi:
            return -math.inf
        ln_r = ln_lo - ln_hi
        gap = -x * math.expm1(ln_r)  # x (1 - r)
        if gap > 0.0 and ln_x_alpha + alpha * ln_r - gap \
                - math.log(-math.expm1(-gap)) <= _LN_SEVENTH:
            if ln_g is None:
                ln_g = _g_ln(alpha, x)
            ln_h = alpha * ln_r + _g_ln(alpha, x * math.exp(ln_r))
            return ln_lead + ln_g + math.log(-math.expm1(ln_h - ln_g))
        return ln_lead + _series_ln(alpha, x, ln_r)

    return ln_w


def weighted_exp_integral_ln(a: float, b: float, ln_lo: float,
                             ln_hi: float) -> float:
    """ln of int s^(-a) e^(b s) ds over [exp(ln_lo), exp(ln_hi)]: the
    function weighted_exp_integral_to prepares for ln_hi, at ln_lo."""
    return weighted_exp_integral_to(a, b, ln_hi)(ln_lo)


# -- the linear field and its solution ---------------------------------------

class Field:
    """Constants of one linear field dy/de = (a/e - b) y - c, y = E^p,
    and ln c (-inf at c = 0); its slope in ln E (dlnE_de)."""

    def __init__(self, a: float, b: float, c: float, p: float):
        self.a, self.b, self.c, self.p = a, b, c, p
        self.ln_c = math.log(c) if c != 0.0 else -math.inf

    def dlnE_de(self):
        """The field as d ln E/de at (e, ln E): q (a/e - b) - q c E^-p,
        q = 1/p, the slope an integrator in e follows."""
        a, b, c, p, q = self.a, self.b, self.c, self.p, 1.0 / self.p

        def field(e: float, ln_E: float) -> float:
            return q * (a / e - b) - q * c * math.exp(-p * ln_E)

        return field

    @property
    def e_a(self) -> float:
        """Where a/e - b changes sign: the asymptote of the nullcline."""
        return self.a / self.b if self.b > 0.0 else math.inf


class Branch:
    """The exact solution of dy/de = (a/e - b) y - c through its anchor
    (ln_e_ref, ln_y_ref), at or left of it, with its integral prepared
    once.

    y(e) = e^a e^(-be) [e_ref^-a e^(b e_ref) y_ref + c W], W the weighted
    exponential integral from e up to e_ref: ln y = base + inner, with
    base = a ln e - b e. Moving left the drift c W only adds, so inner
    lies between lead, its value at the anchor, and its limit at e = 0,
    top = lead (+) ln c + ln W(0, e_ref), taken from the one prepared W
    (weighted_exp_integral_to), whose ln G then serves later evaluations.
    At b = 0 the solution is (y_ref - k e_ref)(e/e_ref)^a + k e,
    k = -c/(1 - a). How ln y is summed is written here alone.
    """

    def __init__(self, field: Field, ln_e_ref: float, ln_y_ref: float):
        a, b = field.a, field.b
        self.field, self.ln_e_ref, self.q = field, ln_e_ref, 1.0 / field.p
        self.lead = lead = b * math.exp(ln_e_ref) - a * ln_e_ref + ln_y_ref
        self._ln_w = ln_w = weighted_exp_integral_to(a, b, ln_e_ref)
        self.top = ln_add(lead, field.ln_c + ln_w(-math.inf))

    def ln_y(self, ln_e: float) -> float:
        """ln y at ln e, at or left of the anchor; right of it is
        OutsideDomain. At c = 0 the drift is not summed."""
        if ln_e > self.ln_e_ref:
            raise OutsideDomain(f"a branch is only defined at or left of "
                                f"its anchor, ln e = {self.ln_e_ref:.6g}")
        f, inner = self.field, self.lead
        if f.c and ln_e != self.ln_e_ref:
            inner = ln_add(inner, f.ln_c + self._ln_w(ln_e))
        return f.a * ln_e - f.b * math.exp(ln_e) + inner

    def at_or_above(self, ln_e: float, ln_E: float) -> bool:
        """Whether E = y^(1/p) at ln e, at or left of the anchor, is at or
        above the branch, decided from lead and top outside the band
        between them and from ln_y only inside it (q = 1/p).

        ln E below (base + lead) q is below: the test is exact, as ln_y
        sums base and inner as here, ln_add never returns less than its
        larger argument and rounding is monotone. ln E at or above
        (base + top + m) q is above, with m = _REL_TOL (2 + |base| +
        2 |top|) in ln y: top sums W from 0, possibly on another arm than
        ln_y, so 2 _REL_TOL covers the two evaluations, each to _REL_TOL,
        and the rest covers, many times over, the few units of 2^-53 that
        rounding leaves in top, inner and their sums with base. A point
        outside the band is placed even where ln_y would refuse (the
        series cap just left of the anchor).
        """
        f, q = self.field, self.q
        base = f.a * ln_e - f.b * math.exp(ln_e)
        if ln_E < (base + self.lead) * q:
            return False
        return ln_E >= (base + self.top + _REL_TOL * (
            2.0 + abs(base) + 2.0 * abs(self.top))) * q \
            or ln_E >= self.ln_y(ln_e) * q

    def peak_ln_e(self) -> float:
        """ln e where the b = 0 solution meets its nullcline y = (c/a) e,
        its one stationary point: the solution is
        e^a (e^top - c e^(1-a)/(1-a)), so (1 - a) ln e = top + ln a +
        ln(1 - a) - ln c, +inf at c = 0, where it only rises. The caller
        refuses a peak that is not left of the anchor.
        """
        f = self.field
        return (self.top + math.log(f.a) + math.log1p(-f.a) - f.ln_c) \
            / (1.0 - f.a)

    def sample(self, grid: list[float]) -> tuple[list[float], list[float]]:
        """(ln E, d ln E/d ln e) at each ln e of grid: ln E = q ln y and
        the slope q (a - b e - c e/y) of the field itself."""
        a, b, ln_c, q = self.field.a, self.field.b, self.field.ln_c, self.q
        ln_E, slope = [], []
        for v in grid:
            ln_y_v = self.ln_y(v)
            # c e / y, saturated outside float range
            drag = exp_clamped(ln_c + v - ln_y_v)
            ln_E.append(q * ln_y_v)
            slope.append(q * (a - b * math.exp(v) - drag))
        return ln_E, slope
