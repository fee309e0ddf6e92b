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
H = r^alpha g(alpha, r x), with g from its few-term large-argument form
e^x/x sum_s (1 - alpha)_s x^(-s) (DLMF 13.7.2). H is not summed where
g(alpha, y) <= e^y/alpha bounds ln(H/G) below -37.5: e^-37.5 is under
2^-54, half an ulp of 1, so 1 - H/G rounds to exactly 1.0 and the
difference is G, with the bits the sum gives. Integrated by parts from
t = 1 down, that form also gives the integral over [r, 1] once each term
carries b_s = 1 - r^(-(1-alpha+s)) e^(-x(1-r)), the share the lower end
leaves, and it sums the short spans next to the upper end that the
difference leaves at x from params._LN_RANGE (708) on. So the power
series is summed only below 708, where its terms stay in float range,
and nothing is capped but float range itself: an x not below 708 that
reaches the series (x infinite, or g with alpha >= 1) is refused there
with NonConvergence. The weighted integral is returned as its ln, a float,
because it overflows float64 long before the interesting parameter range
ends, and so is gamma_series_factor, a public entry point. A caller that
wants a fixed partial sum of g forms it itself.
weighted_exp_integral_to prepares the integral once per upper end, as a
function of the lower end, so every sample of a branch shares alpha, x,
its gate and ln G, which that function forms on first use and keeps
(there is no module-level cache). Every arm is summed to the fixed
relative accuracy _REL_TOL = 1e-12.

The integral's only caller is the solution of the linear field
dy/de = (a/e - b) y - c, y = E^p (Field), which every closed-form curve
family solves: the critical (b > 0) and subcritical (b = 0) branches of
the branches module, and the scaling curve (b = 0, p = 1). One record,
Branch, owns that solution through one anchor: it prepares the integral
once, keeps the bounds lead and top of the solution's inner term (no
other module reads them), and gives ln y, the test of a point against
the branch, the peak where the solution meets its nullcline (closed
form at b = 0, a bracketed root in w = ln(1 - e/e_a) at b > 0, with the
peak variable and the nullcline from Field), the bracket of its crossing
of a level, and its segment: ln E with d ln E/d ln e on the distinct
abscissas of a log grid. Each caller keeps its own refusals.
"""

from __future__ import annotations

import math

from .curves import CurveSegment, log_grid
from .errors import NonConvergence, OutsideDomain
from .logscalar import ln_add
from .params import _LN_RANGE, exp_clamped

# relative accuracy asked of every series evaluation
_REL_TOL = 1e-12

# largest bound on H / (G - H) for which G - H is taken as a difference
_LN_SEVENTH = math.log(1.0 / 7.0)

# bound on ln(H/G) below which H is not summed: e^-37.5 is under 2^-54,
# half an ulp of 1, so 1 - H/G rounds to exactly 1.0 there
_LN_HALF_ULP = -37.5


def _series_ln(alpha: float, x: float, ln_r: float) -> float:
    """ln of sum_n t_n v_n, t_n = x^n/(n! (alpha+n)), v_n = 1 - r^(alpha+n).

    Terms t_n come from the ratio recurrence
        t_{n+1} = t_n * x (alpha+n) / ((n+1)(alpha+n+1))
    and are summed with Kahan compensation. The sum stops once a term
    past the peak n ~ x falls below _REL_TOL / 10 of it: v_n / (alpha+n)
    never grows with n, so the weighted terms past the peak fall at least
    as fast as x^n/n!. It is summed only for x below params._LN_RANGE,
    where every term past the first is below e^x and stays in float
    range; an x not below it (inf and NaN included) is NonConvergence.
    At x = 0 every term past the first is exactly 0, so the sum is its
    first term, (1 - r^alpha)/alpha, returned without the loop (the bits
    the loop gives).
    """
    if not x < _LN_RANGE:
        raise NonConvergence(
            f"g({alpha}, {x}): argument not below {_LN_RANGE:g}, past which "
            f"the series' terms leave float range")
    if x == 0.0:
        return math.log((1.0 / alpha) * -math.expm1(alpha * ln_r))
    tol = _REL_TOL / 10.0

    weighted = ln_r > -math.inf  # r = 0: every weight is exactly 1
    t = 1.0 / alpha
    s = t * -math.expm1(alpha * ln_r)
    comp, n = 0.0, 0
    while True:
        t *= x * (alpha + n) / ((n + 1.0) * (alpha + n + 1.0))
        n += 1
        term = t * -math.expm1((alpha + n) * ln_r) if weighted else t
        y = term - comp
        tmp = s + y
        comp = (tmp - s) - y
        s = tmp
        if n > x and term <= s * tol:
            return math.log(s)


def _large_ln(alpha: float, x: float, ln_r: float) -> float:
    """ln of int_r^1 t^(alpha-1) e^(xt) dt, x > 0, from its large-argument
    form e^x/x sum_s (1 - alpha)_s x^(-s) b_s: integration by parts from
    t = 1 down, each term carrying b_s = 1 - r^(-(1-alpha+s)) e^(-x(1-r)),
    the share the lower end leaves. At r = 0 every b_s is 1 and the sum
    is g's expansion (DLMF 13.7.2), whose dropped part is about
    Gamma(alpha) x^(1-alpha) e^(-x) relative (_g_ln's gate). At r > 0
    nothing is dropped, and the terms stay positive and fall while
    1 - alpha + s is well below x r and x (1-r)/(-ln r), as on the short
    spans (1 - r below about 0.07) the difference gate leaves at x past
    params._LN_RANGE. Summed until a term is below _REL_TOL / 10 of the
    sum; at r = 0 no weight is formed, so g keeps its bits.
    """
    tol = _REL_TOL / 10.0
    weighted = ln_r > -math.inf
    gap = -x * math.expm1(ln_r)  # x (1 - r)
    k = 1.0 - alpha
    lead = -math.expm1(-k * ln_r - gap) if weighted else 1.0
    term, tail, w = 1.0, 0.0, lead
    while w > tol * (lead + tail):
        term *= k / x
        k += 1.0
        w = term * -math.expm1(-k * ln_r - gap) if weighted else term
        tail += w
    if weighted:  # one rounding at the scale of x
        return x + (math.log(lead) - math.log(x) + math.log1p(tail / lead))
    return x - math.log(x) + math.log1p(tail)


def _g_ln(alpha: float, x: float) -> float:
    """ln g(alpha, x). For alpha < 1 the large-argument form (_large_ln at
    r = 0), all terms positive, is taken where the part it drops, about
    Gamma(alpha) x^(1-alpha) e^(-x) relative, is below _REL_TOL / 10; its
    smallest term is smaller still, so it converges while its terms fall.
    That bound alone picks the arm for every x > 1, however large;
    elsewhere the r = 0 series, which refuses an x not below
    params._LN_RANGE.
    """
    if alpha < 1.0 and x > 1.0 and math.lgamma(alpha) \
            + (1.0 - alpha) * math.log(x) - x < math.log(_REL_TOL / 10.0):
        return _large_ln(alpha, x, -math.inf)
    return _series_ln(alpha, x, -math.inf)


def gamma_series_factor(alpha: float, x: float) -> float:
    """ln g(alpha, x), to _REL_TOL (see _g_ln). Raises OutsideDomain for
    alpha not above 0, not finite or with 1/alpha not finite, or x not at
    least 0 (NaN included), and NonConvergence, naming the bound, for x
    not below params._LN_RANGE where the power series is what g needs:
    x infinite, alpha >= 1, or an alpha so small (below about 1e-292)
    that the large-argument form's gate stays shut a little past it.
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
    (under 0.07 digits lost). There g(alpha, y) <= e^y/alpha gives
    ln H - ln G <= alpha ln r + r x - ln alpha - ln G; where that is below
    -37.5 (_LN_HALF_ULP), H is not summed and the value is
    alpha ln e_hi + ln G: e^-37.5 is under 2^-54, so
    log(-expm1(ln H - ln G)) would be exactly 0.0. ln G is formed before
    that test, so its refusals come in the same order. What the
    difference arm leaves is summed with positive terms: by the power
    series below x = params._LN_RANGE, and past it by the large-argument
    form (_large_ln), since the gate then leaves only short spans, 1 - r
    at most (ln(x/alpha) + 3)/x, below 0.07. An x past float range
    (inf, params.exp_clamped) is the series' refusal, NonConvergence.
    alpha, ln alpha, x and the arms it picks, ln(x/alpha) and
    alpha ln e_hi depend on the upper end alone and are formed here; ln G
    is formed on first use and kept in the returned function, so it lives
    as long as that does.
    """
    if not 0.0 < a < 1.0:
        raise OutsideDomain(f"weighted integral needs 0 < a < 1, got a = {a}")
    if not b >= 0.0:
        raise OutsideDomain(f"weighted integral needs b >= 0, got b = {b}")
    alpha, ln_lead = 1.0 - a, (1.0 - a) * ln_hi
    ln_alpha = math.log(alpha)
    ln_x = ln_hi + math.log(b) if b > 0.0 else -math.inf
    x = exp_clamped(ln_x)
    ln_x_alpha = math.log(x / alpha) if x > 0.0 else -math.inf
    rest = _large_ln if _LN_RANGE <= x < math.inf else _series_ln
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
            rx = x * math.exp(ln_r)
            if alpha * ln_r + rx - ln_alpha - ln_g < _LN_HALF_ULP:
                return ln_lead + ln_g
            ln_h = alpha * ln_r + _g_ln(alpha, rx)
            return ln_lead + ln_g + math.log(-math.expm1(ln_h - ln_g))
        return ln_lead + rest(alpha, x, ln_r)

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

    def ln_e_at(self, x: float) -> float:
        """ln e at the peak variable x: w = ln(1 - e/e_a) < 0 when b > 0,
        ln e itself when b = 0."""
        if self.b > 0.0:
            if x >= 0.0:
                raise OutsideDomain(f"w = {x:.6g} puts e at or left of 0")
            return math.log(self.e_a) + math.log1p(-math.exp(x))
        return x

    def ln_null(self, x: float) -> float:
        """ln of the nullcline y = c e/(a - b e) at the peak variable x."""
        if self.b > 0.0:
            return math.log(self.c / self.b) + math.log1p(-math.exp(x)) - x
        return math.log(self.c / self.a) + x


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
        outside the band is placed even where ln_y would refuse.
        """
        f, q = self.field, self.q
        base = f.a * ln_e - f.b * math.exp(ln_e)
        if ln_E < (base + self.lead) * q:
            return False
        return ln_E >= (base + self.top + _REL_TOL * (
            2.0 + abs(base) + 2.0 * abs(self.top))) * q \
            or ln_E >= self.ln_y(ln_e) * q

    def peak_gap(self, x: float) -> float:
        """ln y - ln y_null in the peak variable x (Field.ln_e_at); the
        peak is its root."""
        f = self.field
        return self.ln_y(f.ln_e_at(x)) - f.ln_null(x)

    def peak(self, find_root=None) -> tuple[float, float]:
        """(x*, ln e*): where the solution meets its nullcline, its one
        stationary point, x* in the peak variable (Field.ln_e_at).

        At b = 0 it is closed form: the solution is
        e^a (e^top - c e^(1-a)/(1-a)), so (1 - a) ln e = top + ln a +
        ln(1 - a) - ln c, +inf at c = 0, where it only rises. At b > 0,
        with lead <= inner <= top and b e_a = a, peak_gap is
        k + inner + w + (a - 1) ln(1 - e^w) + a e^w in w, with
        k = a ln e_a - a - ln(c/b). At or below ln 1/2 it is under
        -1 + (1 - a) ln 2 + a/2 < 0 from w = -k - top - 1 down, and it is
        at least 1 from w = 1 - k - lead up: those two ends bracket the
        root, found by the caller's find_root (solver.find_root), which a
        b = 0 caller need not pass, so that it executes no solver. The
        caller refuses a peak it cannot use.
        """
        f = self.field
        if f.b > 0.0:
            k = f.a * math.log(f.e_a) - f.a - f.ln_c + math.log(f.b)
            x = find_root(self.peak_gap,
                          min(-k - self.top - 1.0, math.log(0.5)),
                          min(1.0 - k - self.lead, math.log1p(-1e-9)))
        else:
            x = (self.top + math.log(f.a) + math.log1p(-f.a) - f.ln_c) \
                / (1.0 - f.a)
        return x, f.ln_e_at(x)

    def crossing(self, ln_y: float) -> tuple[float, float]:
        """(lo, hi) in ln e bracketing where the solution meets the level
        ln y left of its anchor: there ln y lies between
        a v - b e_ref + lead and a v + top, so the gap is below -1 from
        v = (ln y - top - 1)/a down and above 1 from
        v = (ln y - lead + b e_ref + 1)/a up, or positive at the anchor if
        that comes first."""
        f = self.field
        return (ln_y - self.top - 1.0) / f.a, min(
            (ln_y - self.lead + f.b * math.exp(self.ln_e_ref) + 1.0) / f.a,
            self.ln_e_ref)

    def segment(self, tag: str, ln_lo: float, ln_hi: float,
                samples: int) -> CurveSegment:
        """The solution sampled on the distinct abscissas of
        log_grid(ln_lo, ln_hi, samples), as full_nse.Funnel.segment
        samples: ln E = q ln y and the slope q (a - b e - c e/y) of the
        field itself, with c e/y saturated outside float range."""
        a, b, ln_c, q = self.field.a, self.field.b, self.field.ln_c, self.q
        grid = list(dict.fromkeys(log_grid(ln_lo, ln_hi, samples)))
        ln_E, slope = [], []
        for v in grid:
            y = self.ln_y(v)  # ln y at v
            ln_E.append(q * y)
            slope.append(q * (a - b * math.exp(v) - exp_clamped(ln_c + v - y)))
        return CurveSegment(tag, grid, ln_E, slope)
