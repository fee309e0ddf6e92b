"""Unconditional bounding region in the energy-enstrophy plane.

No coherence assumption here: the region is carved out by three analytic
curves. The nose, e = psi(E) = nu^4 E^2/(2 (nu f)^2 + c1 E^3), is where
the enstrophy growth bound changes sign; every point inside it has
dE/dt <= 0. The parabola E = eta (f/nu) sqrt(e) (eta > 1) marks where
the energy decays fast enough to push trajectories leftward. Crossing
the two rate bounds above the parabola gives a Bernoulli slope field
whose solutions are the funnel curves (Funnel): anchored on the parabola
at (e0, E0) they form a wall with a vertical asymptote at e_star just
left of e0; anchored at the nose apex (e1, E1) they descend and re-enter
the parabola at e2. Together the curves split the quadrant into four
regions (classify_full).

Every curve and breakpoint is formed in logs from closed forms, with no
search: e2/e1 depends on eta alone (solve_e2), and left of the apex the
apex level E1 parts II from III (classify_full). A value outside float
range is InvalidRegime where it is used: e1, E1 and e2 in geometry, the
nine breakpoints and the funnel slopes in assemble_full. Each funnel is
one record (Funnel) that forms its constants (alpha, p, ln beta, ln t,
ln k) once and evaluates the curve, its slope and its segment; the nose's
constants come from _nose and are evaluated by _ln_psi. The region is one
model (FullNseGeometry), held on the params object (geometry): its
breakpoints, the wall funnel that assemble_full samples, and what
classify_full reads, the parabola coefficient, the nose constants and
the apex funnel. Each curve has this one evaluation: no pointwise
function forms its constants again, and no other funnel is built.
"""

from __future__ import annotations

import math

from .curves import CurveBundle, CurveSegment, log_grid, power_law
from .errors import (CancellationLoss, InvalidRegime, NoBracket,
                     OutsideDomain, RegimeViolation)
from .logscalar import ln_add
from .params import _LN_RANGE, ForcingParams, held
from .solver import find_root

# the region's breakpoints, in the order the bundle lists them
_BREAKPOINTS = ("e0", "E0", "e1", "E1", "E_under", "e_under", "e_star", "e2",
                "E2")


def _exp(v: float) -> float:
    """exp(v); 0 or inf where |v| reaches _LN_RANGE, for _gate to refuse
    where the value is used."""
    if abs(v) < _LN_RANGE:
        return math.exp(v)
    return math.inf if v > 0.0 else 0.0


def _gate(geo: FullNseGeometry, names) -> dict[str, float]:
    """The logs of the named fields; one outside float range (0 or inf,
    see _exp) is InvalidRegime."""
    for name in names:
        if not 0.0 < getattr(geo, name) < math.inf:
            raise InvalidRegime(f"{name} is outside float range")
    return {name: math.log(getattr(geo, name)) for name in names}


def _nose(params: ForcingParams) -> tuple[float, float, float]:
    """The constants of _ln_psi: ln nu^4, ln 2 (nu f)^2 and ln c1."""
    ln_nu, ln_f = math.log(params.nu), math.log(params.f_norm)
    return 4.0 * ln_nu, math.log(2.0) + 2.0 * (ln_nu + ln_f), \
        math.log(params.c1)


def _ln_psi(ln_E: float, nose: tuple[float, float, float]) -> float:
    """ln of the nose psi(E) = nu^4 E^2 / (2 (nu f)^2 + c1 E^3) at
    E = exp(ln_E), with its constants from _nose: E^3 and (nu f)^2 may each
    leave float range where psi does not."""
    ln_nu4, ln_drive, ln_c1 = nose
    return ln_nu4 + 2.0 * ln_E - ln_add(ln_drive, ln_c1 + 3.0 * ln_E)


def _ln_apex(params: ForcingParams) -> tuple[float, float]:
    """(ln e1, ln E1): the nose psi peaks where E1^3 = 4 (nu f)^2/c1, at
    e1 = nu^2 E1^2/(6 f^2)."""
    ln_nu, ln_f = math.log(params.nu), math.log(params.f_norm)
    ln_E1 = (math.log(4.0) - math.log(params.c1) + 2.0 * (ln_nu + ln_f)) / 3.0
    return 2.0 * (ln_nu + ln_E1 - ln_f) - math.log(6.0), ln_E1


class Funnel:
    """The funnel through (e0, E0) = (exp(ln_e0), exp(ln_E0)), with its
    constants formed once.

    The slope field is d ln E/d ln e = alpha/2 - beta k E^2 sqrt(e), with
    alpha = eta/(eta - 1), beta = 4 c1/((3 eta - 1) nu^3 f) and
    k = alpha (3 - 1/eta)/4, so that beta k = c1/((eta - 1) nu^3 f). Its
    solution is E^-2 = beta sqrt(e) (t u + 1 - u), with u = (e0/e)^p,
    p = alpha + 1/2 and t = e0^(-1/2)/(beta E0^2). A funnel needs t < 1,
    which gives it a vertical asymptote at e_star = e0 (1 - t)^(1/p), left
    of which the bracket is negative; an anchor with t >= 1 is
    RegimeViolation. Both funnels of the region have one: the wall's is
    checked here, and the apex funnel's t1 = sqrt(6) (3 eta - 1)/16 is
    below 1 wherever solve_e2 answers (eta < sqrt(6)).
    """

    def __init__(self, ln_e0: float, ln_E0: float, params: ForcingParams):
        eta = params.eta
        self.ln_e0, self.ln_E0 = ln_e0, ln_E0
        self.alpha = alpha = eta / (eta - 1.0)
        self.p = alpha + 0.5
        self.ln_beta = math.log(4.0 * params.c1 / (3.0 * eta - 1.0)) \
            - 3.0 * math.log(params.nu) - math.log(params.f_norm)
        self.ln_t = -0.5 * ln_e0 - 2.0 * ln_E0 - self.ln_beta
        if self.ln_t >= 0.0:
            raise RegimeViolation("parabola anchor admits no asymptote: "
                                  f"ln t = {self.ln_t:.6g} >= 0")
        self.ln_k = math.log(0.25 * alpha * (3.0 - 1.0 / eta))

    def ln_E(self, v: float) -> float:
        """ln E at ln e = v; OutsideDomain at or left of the asymptote."""
        ln_e0, ln_t = self.ln_e0, self.ln_t
        if v == ln_e0:  # where the bracket below is t, which may underflow
            return self.ln_E0
        # the bracket t u + 1 - u, whose terms cancel only at e_star
        ln_u = self.p * (ln_e0 - v)
        try:
            shifted = math.exp(ln_t + ln_u) - math.expm1(ln_u)
        except OverflowError:
            # u past float range: as t < 1, u (1 - t) > 1 and the point
            # lies left of the asymptote
            shifted = 0.0
        if shifted <= 0.0:
            raise OutsideDomain(
                f"e = exp({v}) is at or left of the funnel asymptote")
        return -0.5 * (self.ln_beta + 0.5 * v + math.log(shifted))

    def slope(self, v: float, ln_E: float) -> float:
        """d ln E/d ln e of the slope field at (e, E) = (e^v, e^ln_E)."""
        return 0.5 * self.alpha \
            - _exp(self.ln_beta + 2.0 * ln_E + 0.5 * v + self.ln_k)

    def segment(self, tag: str, ln_lo: float, ln_hi: float,
                samples: int) -> CurveSegment:
        """The funnel sampled on the distinct abscissas of
        log_grid(ln_lo, ln_hi, samples), so that ln e rises strictly where
        the span holds fewer floats than samples (a wall collapsed onto its
        anchor); a slope outside float range is InvalidRegime."""
        grid = list(dict.fromkeys(log_grid(ln_lo, ln_hi, samples)))
        ln_E = [self.ln_E(v) for v in grid]
        slope = [self.slope(v, u) for v, u in zip(grid, ln_E)]
        if -math.inf in slope:
            raise InvalidRegime(
                f"{tag}: a slope d ln E/d ln e is outside float range")
        return CurveSegment(tag, grid, ln_E, slope)


def eta_threshold(c1: float) -> float:
    """Largest funnel steepness solve_e2 accepts."""
    return 1.0 + (4.0 * c1 / (3.0 * math.sqrt(6.0))) * (4.0 / c1) ** (5.0 / 6.0)


def _apex_t(eta: float) -> float:
    """t1 = e1^(-1/2)/(beta E1^2) of the apex funnel: with the apex put in,
    sqrt(6) (3 eta - 1)/16, whatever the forcing."""
    return math.sqrt(6.0) * (3.0 * eta - 1.0) / 16.0


def e2_lower_bound(params: ForcingParams) -> float:
    """Sign-aware closed-form floor for the e2 root,
    sign(delta) |delta|^(1/p) (nu f)^(2/3)/lam with delta = e1^p (t1 - 1).

    Nonpositive (hence vacuous) whenever delta is negative, that is for
    every eta at which e2 exists (eta < sqrt(6), see solve_e2).
    """
    alpha = params.eta / (params.eta - 1.0)
    d = _apex_t(params.eta) - 1.0
    e1 = _exp(_ln_apex(params)[0])
    scale = (params.nu * params.f_norm) ** (2.0 / 3.0) / params.lam
    return math.copysign(e1 * abs(d) ** (1.0 / (alpha + 0.5)) * scale, d)


def solve_e2(params: ForcingParams) -> float:
    """Energy where the apex-anchored funnel re-enters the parabola.

    In x = e/e1 the funnel meets the parabola where
    x^(3/2) = gamma - delta x^(1 - alpha), with gamma = 6 t1/eta^2,
    delta = t1 - 1 and t1 the apex funnel's t (_apex_t): e2/e1 depends on
    eta alone. At x = 1 the two sides differ by t1 (1 - 6/eta^2), so from
    eta = sqrt(6) on the parabola tops the apex and no root lies right of
    e1 (where t1 > 1 the difference is convex and least left of x = 1):
    NoBracket. Below sqrt(6), t1 < 1 and the right side falls as x grows:
    the one root lies in y = ln x^(3/2) between ln gamma and
    ln(gamma + |delta| gamma^(2/3 (1 - alpha))). Both ends are formed from
    the same ln gamma, so they cannot cross, and where delta is
    negligible they coincide on the root. 0 or inf outside float range.
    """
    eta = params.eta
    if eta >= eta_threshold(params.c1):
        raise RegimeViolation(
            f"eta = {eta} is at or above the admissible bound "
            f"{eta_threshold(params.c1):.6g}")
    if eta >= math.sqrt(6.0):
        raise NoBracket("funnel/parabola crossing not bracketed beyond the "
                        "apex: at eta >= sqrt(6) the parabola tops it")
    t1 = _apex_t(eta)
    ln_gamma, ln_delta = math.log(6.0 * t1 / (eta * eta)), math.log1p(-t1)
    k = -2.0 / (3.0 * (eta - 1.0))  # x^(1 - alpha) = exp(k y)

    def gap(y: float) -> float:
        return y - ln_add(ln_gamma, ln_delta + k * y)

    lo, hi = ln_gamma, ln_add(ln_gamma, ln_delta + k * ln_gamma)
    y = lo if lo == hi else find_root(gap, lo, hi)
    return _exp(_ln_apex(params)[0] + 2.0 / 3.0 * y)


class FullNseGeometry:
    """The region of one parameter set, resolved once: the parabola anchor
    (e0, E0 = eta lam e0), the nose apex (e1, E1), E_under = 2^(-1/3) E1
    and its parabola abscissa e_under, the wall asymptote e_star
    (parabola-anchored funnel) and the apex funnel's re-entry (e2, E2),
    the _BREAKPOINTS; the wall Funnel (wall), which assemble_full
    samples; then what classify_full reads: the parabola coefficient
    eta f/nu (coef), the nose constants (nose) and the apex Funnel
    (apex). A parabola anchor with no asymptote is RegimeViolation (see
    Funnel); e1, E1 and e2 outside float range are InvalidRegime, the
    other breakpoints are left 0 or inf for assemble_full."""

    def __init__(self, params: ForcingParams):
        ln_e0 = math.log(params.e0)
        ln_E0 = math.log(params.eta) + math.log(params.lam) + ln_e0
        self.wall = wall = Funnel(ln_e0, ln_E0, params)
        ln_e1, ln_E1 = _ln_apex(params)
        ln_E_under = ln_E1 - math.log(2.0) / 3.0
        e2 = solve_e2(params)
        self.e0, self.E0 = params.e0, _exp(ln_E0)
        self.e1, self.E1 = _exp(ln_e1), _exp(ln_E1)
        self.E_under = _exp(ln_E_under)
        # the parabola through the anchor is E = E0 (e/e0)^(1/2)
        self.e_under = _exp(ln_e0 + 2.0 * (ln_E_under - ln_E0))
        # e_star = e0 (1 - t)^(1/p)
        self.e_star = _exp(ln_e0 + math.log(-math.expm1(wall.ln_t)) / wall.p)
        self.coef = params.eta * params.f_norm / params.nu
        self.e2, self.E2 = e2, self.coef * math.sqrt(e2)
        _gate(self, ("e1", "E1", "e2"))
        self.nose = _nose(params)
        self.apex = Funnel(math.log(self.e1), math.log(self.E1), params)


@held
def geometry(params: ForcingParams) -> FullNseGeometry:
    """The region of params (FullNseGeometry), held on params."""
    return FullNseGeometry(params)


def classify_full(e: float, E: float, params: ForcingParams) -> str:
    """Region of (e, E), tie-breaking boundaries toward the larger numeral.

    IV: inside the nose at or above the parabola (both rates nonpositive).
    I: strictly below the parabola. Above it, II is separated from III by
    the apex level E1 left of the apex (outside the nose, E lies under its
    lower branch, below E1, or over its upper one, above E1), by the apex
    funnel for e1 <= e <= e2, and by nothing at all past e2, where the
    corridor opens up. Each curve is evaluated with the constants geometry
    holds: the parabola by coef, the nose by _ln_psi, the apex funnel by
    its Funnel.
    """
    if not (0.0 < e < math.inf and 0.0 < E < math.inf):
        raise OutsideDomain("classification needs e > 0 and E > 0")
    geo = geometry(params)
    if E < geo.coef * math.sqrt(e):
        return "I"
    if e <= math.exp(_ln_psi(math.log(E), geo.nose)):
        return "IV"
    if e < geo.e1:
        return "II" if E > geo.E1 else "III"
    if e <= geo.e2:
        return "II" if E > math.exp(geo.apex.ln_E(math.log(e))) else "III"
    return "II"


def assemble_full(params: ForcingParams, samples: int = 512) -> CurveBundle:
    """Sample the region's curves into a CurveBundle.

    phi1 is the wall (parabola anchor, huge near its asymptote), phi2 the
    apex branch between e1 and e2. The two are separate solutions, not a
    piecewise curve, so no join continuity is implied. Both are the
    funnels geometry holds (wall, apex). The nose is emitted as two
    barrier segments (lower and upper branch). A breakpoint outside float
    range is InvalidRegime, and a wall whose first abscissa is not right
    of its asymptote (eta within about 1e-10 of 1 puts ln e_star a few
    ulps from ln e0) is CancellationLoss. A wall whose span holds fewer
    floats than samples keeps fewer, distinct samples, down to its anchor
    alone (Funnel.segment).
    """
    geo = geometry(params)
    # the logs of the float breakpoints, which the bundle carries
    ln = _gate(geo, _BREAKPOINTS)
    # formed first, so that fewer than two samples is refused as such
    # (log_grid) before the wall's grid is evaluated
    par_grid = log_grid(ln["e_under"] - 2.0, ln["e0"], samples)
    # the wall starts a relative 1e-6 right of its asymptote, or halfway
    # to its anchor where that is closer, both taken from the logs of the
    # float breakpoints; the grid rises from there, so only its first
    # sample can lie at or left of the asymptote
    ln_star, ln_e0 = ln["e_star"], ln["e0"]
    wall_lo = ln_star + min(math.log1p(1e-6), 0.5 * (ln_e0 - ln_star))
    try:
        segs = [geo.wall.segment("phi1", wall_lo, ln_e0, samples)]
    except OutsideDomain:
        raise CancellationLoss(
            f"the wall's grid cannot start right of its asymptote: ln e_star "
            f"= {ln_star!r} and ln e0 = {ln_e0!r} are "
            f"{(ln_e0 - ln_star) / math.ulp(ln_e0):.3g} ulp apart") from None
    segs.append(geo.apex.segment("phi2", ln["e1"], ln["e2"], samples))

    # the nose by E, each branch gridded so that ln e increases: the lower
    # one up to the apex, the upper one down to it
    ln_E1, ln_100 = ln["E1"], math.log(100.0)
    for start in (ln_E1 - ln_100, ln_E1 + ln_100):
        grid_E = log_grid(start, ln_E1, samples)
        segs.append(CurveSegment(
            "barrier", [_ln_psi(u, geo.nose) for u in grid_E], grid_E))

    # the parabola through the anchor is E = E0 (e/e0)^(1/2)
    segs.append(power_law("parabola", par_grid, ln["E0"] - 0.5 * ln["e0"],
                          0.5))
    segs.append(power_law("lower_boundary", par_grid, math.log(params.lam0),
                          1.0))

    # e2 exists only where delta < 0 (solve_e2), so its floor is vacuous
    flags = [f"eta={params.eta:.12g}", "e2_floor_vacuous"]
    return CurveBundle("full", params, segs, ln, flags)
