"""Unconditional bounding region in the energy-enstrophy plane.

No coherence assumption here: the region is carved out by three analytic
curves. The nose, e = psi_of_E(E), is where the enstrophy growth bound
changes sign; every point inside it has dE/dt <= 0. The parabola
E = eta (f/nu) sqrt(e) (eta > 1) marks where the energy decays
fast enough to push trajectories leftward. Crossing the two rate bounds
above the parabola gives a Bernoulli slope field whose solutions are the
funnel curves phi_of_e: anchored on the parabola at (e0, E0) they form a
wall with a vertical asymptote at e_star just left of e0; anchored at the
nose apex (e1, E1) they descend and re-enter the parabola at e2.
Together the curves split the quadrant into four regions (classify_full).

Every curve and breakpoint is formed in logs from closed forms, with no
search: e2/e1 depends on eta alone (solve_e2), and left of the apex the
apex level E1 parts II from III (classify_full). A value outside float
range is InvalidRegime where it is used: e1, E1 and e2 in geometry, the
nine breakpoints and the funnel slopes in assemble_full. Each curve's
constants (alpha, ln beta, ln t, the slope and nose constants) are formed
by one function (_funnel, _slope, _nose) and evaluated by another
(_ln_phi, _ln_slope, _ln_psi): a segment forms them once for all its
samples, classify_full once per params (_point), and the pointwise
phi_of_e and psi_of_E for their one point. geometry and _point are held
on the params object (params.held).
"""

from __future__ import annotations

import math

from .curves import CurveBundle, CurveSegment, log_grid, power_law
from .errors import InvalidRegime, NoBracket, OutsideDomain, RegimeViolation
from .logscalar import LogScalar, ln_add
from .params import _LN_RANGE, ForcingParams, held
from .solver import find_root


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
    """ln of the nose at E = exp(ln_E), with its constants from _nose:
    E^3 and (nu f)^2 may each leave float range where psi does not."""
    ln_nu4, ln_drive, ln_c1 = nose
    return ln_nu4 + 2.0 * ln_E - ln_add(ln_drive, ln_c1 + 3.0 * ln_E)


def psi_of_E(E: float, params: ForcingParams) -> float:
    """Nose curve: the energy below which enstrophy cannot grow at level E,
    nu^4 E^2 / (2 (nu f)^2 + c1 E^3), divided through by E^2."""
    if E < 0.0:
        raise ValueError("enstrophy must be nonnegative")
    return math.exp(_ln_psi(math.log(E), _nose(params))) if E else 0.0


def _ln_apex(params: ForcingParams) -> tuple[float, float]:
    """(ln e1, ln E1): psi_of_E peaks where E1^3 = 4 (nu f)^2/c1, at
    e1 = nu^2 E1^2/(6 f^2)."""
    ln_nu, ln_f = math.log(params.nu), math.log(params.f_norm)
    ln_E1 = (math.log(4.0) - math.log(params.c1) + 2.0 * (ln_nu + ln_f)) / 3.0
    return 2.0 * (ln_nu + ln_E1 - ln_f) - math.log(6.0), ln_E1


def nose_apex(params: ForcingParams) -> tuple[float, float]:
    """(e1, E1): the rightmost point of the nose, where psi_of_E peaks;
    0 or inf outside float range (geometry refuses those)."""
    return tuple(_exp(v) for v in _ln_apex(params))


def parabola_E(e: float, params: ForcingParams) -> float:
    return params.eta * params.f_norm / params.nu * math.sqrt(e)


def _alpha_ln_beta(params: ForcingParams) -> tuple[float, float]:
    """alpha = eta/(eta - 1) and ln beta, beta = 4 c1/((3 eta - 1) nu^3 f):
    the exponent and the rate of the funnels' Bernoulli equation."""
    eta = params.eta
    return eta / (eta - 1.0), math.log(4.0 * params.c1 / (3.0 * eta - 1.0)) \
        - 3.0 * math.log(params.nu) - math.log(params.f_norm)


def _ln_t(ln_e0: float, ln_E0: float, ln_beta: float) -> float:
    """ln t, t = e0^(-1/2)/(beta E0^2), of the funnel through (e0, E0)."""
    return -0.5 * ln_e0 - 2.0 * ln_E0 - ln_beta


def _funnel(ln_e0: float, ln_E0: float, params: ForcingParams) -> tuple:
    """The constants of _ln_phi on the funnel through (e0, E0): ln e0,
    ln E0, the power p = alpha + 1/2, ln t and ln beta."""
    alpha, ln_beta = _alpha_ln_beta(params)
    return ln_e0, ln_E0, alpha + 0.5, _ln_t(ln_e0, ln_E0, ln_beta), ln_beta


def _ln_phi(v: float, funnel: tuple) -> float:
    """ln E at ln e = v of the funnel with the constants _funnel formed."""
    ln_e0, ln_E0, p, ln_t, ln_beta = funnel
    if v == ln_e0:  # where the bracket below is t, which may underflow
        return ln_E0
    # bracket of the -1/2 power, beta e^-alpha (e^p - e0^p (1 - t)), over
    # e^p: t u + 1 - u, u = (e0/e)^p, whose terms cancel only at e_star
    ln_u = p * (ln_e0 - v)
    shifted = math.exp(ln_t + ln_u) - math.expm1(ln_u)
    if shifted <= 0.0:
        raise OutsideDomain(
            f"e = exp({v}) is at or left of the funnel asymptote")
    return -0.5 * (ln_beta + 0.5 * v + math.log(shifted))


def phi_of_e(e: float, e0_init: float, E0_init: float,
             params: ForcingParams) -> float:
    """Funnel solution through (e0_init, E0_init), evaluated at e.

    Valid on (e_star, oo): the same expression continues smoothly past the
    anchor, which is how the apex-anchored branch reaches the parabola.
    """
    if e <= 0.0:
        raise OutsideDomain("energy must be positive")
    return math.exp(_ln_phi(math.log(e), _funnel(
        math.log(e0_init), math.log(E0_init), params)))


def _slope(params: ForcingParams) -> tuple[float, float, float]:
    """The constants of _ln_slope: alpha/2, ln beta and ln k, where
    c1/((eta - 1) nu^3 f) = beta (3 eta - 1)/(4 (eta - 1)) = beta k,
    k = alpha (3 - 1/eta)/4."""
    alpha, ln_beta = _alpha_ln_beta(params)
    return 0.5 * alpha, ln_beta, math.log(
        0.25 * alpha * (3.0 - 1.0 / params.eta))


def _ln_slope(v: float, ln_E: float, slope: tuple) -> float:
    """d ln E/d ln e of the funnel slope field at (e, E) = (e^v, e^ln_E),
    alpha/2 - c1 E^2 sqrt(e)/((eta - 1) nu^3 f), with the constants
    _slope formed."""
    half, ln_beta, ln_k = slope
    return half - _exp(ln_beta + 2.0 * ln_E + 0.5 * v + ln_k)


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
    e1, _ = nose_apex(params)
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
    """Every derived quantity of the region, computed once: the parabola
    anchor (e0, E0 = eta lam e0), the nose apex (e1, E1), E_under =
    2^(-1/3) E1 and its parabola abscissa e_under, the wall asymptote
    e_star (parabola-anchored funnel) and the apex funnel's re-entry
    (e2, E2). The fields are set in that order, which vars() keeps."""

    def __init__(self, e0: float, E0: float, e1: float, E1: float,
                 E_under: float, e_under: float, e_star: float, e2: float,
                 E2: float):
        self.e0, self.E0, self.e1, self.E1 = e0, E0, e1, E1
        self.E_under, self.e_under, self.e_star = E_under, e_under, e_star
        self.e2, self.E2 = e2, E2


@held
def geometry(params: ForcingParams) -> FullNseGeometry:
    """The region's breakpoints, held on params; e1, E1 and e2 outside
    float range are InvalidRegime, the others are left 0 or inf for
    assemble_full."""
    ln_e0 = math.log(params.e0)
    ln_E0 = math.log(params.eta) + math.log(params.lam) + ln_e0
    alpha, ln_beta = _alpha_ln_beta(params)
    ln_t0 = _ln_t(ln_e0, ln_E0, ln_beta)
    if ln_t0 >= 0.0:
        raise RegimeViolation("parabola anchor admits no asymptote")
    ln_e1, ln_E1 = _ln_apex(params)
    ln_E_under = ln_E1 - math.log(2.0) / 3.0
    e2 = solve_e2(params)
    geo = FullNseGeometry(
        e0=params.e0, E0=_exp(ln_E0), e1=_exp(ln_e1), E1=_exp(ln_E1),
        E_under=_exp(ln_E_under),
        # the parabola through the anchor is E = E0 (e/e0)^(1/2)
        e_under=_exp(ln_e0 + 2.0 * (ln_E_under - ln_E0)),
        # e_star = e0 (1 - t)^(1/p), p = alpha + 1/2
        e_star=_exp(ln_e0 + math.log(-math.expm1(ln_t0)) / (alpha + 0.5)),
        e2=e2, E2=parabola_E(e2, params))
    _gate(geo, ("e1", "E1", "e2"))
    return geo


@held
def _point(params: ForcingParams) -> tuple:
    """What classify_full forms once per params, kept off vars(geometry),
    which assemble_full turns into breakpoints: the geometry, the
    parabola coefficient eta f/nu, the nose constants and the apex
    funnel's constants."""
    geo = geometry(params)
    return (geo, params.eta * params.f_norm / params.nu, _nose(params),
            _funnel(math.log(geo.e1), math.log(geo.E1), params))


def classify_full(e: float, E: float, params: ForcingParams) -> str:
    """Region of (e, E), tie-breaking boundaries toward the larger numeral.

    IV: inside the nose at or above the parabola (both rates nonpositive).
    I: strictly below the parabola. Above it, II is separated from III by
    the apex level E1 left of the apex (outside the nose, E lies under its
    lower branch, below E1, or over its upper one, above E1), by the apex
    funnel for e1 <= e <= e2, and by nothing at all past e2, where the
    corridor opens up. Each curve is evaluated as parabola_E, psi_of_E
    and phi_of_e do, with the constants _point formed.
    """
    if not (0.0 < e < math.inf and 0.0 < E < math.inf):
        raise OutsideDomain("classification needs e > 0 and E > 0")
    geo, coef, nose, apex = _point(params)
    if E < coef * math.sqrt(e):
        return "I"
    if e <= math.exp(_ln_psi(math.log(E), nose)):
        return "IV"
    if e < geo.e1:
        return "II" if E > geo.E1 else "III"
    if e <= geo.e2:
        return "II" if E > math.exp(_ln_phi(math.log(e), apex)) else "III"
    return "II"


def _funnel_segment(tag, ln_lo, ln_hi, ln_e0, ln_E0, params, samples):
    grid = log_grid(ln_lo, ln_hi, samples)
    funnel, field = _funnel(ln_e0, ln_E0, params), _slope(params)
    ln_E = [_ln_phi(v, funnel) for v in grid]
    slope = [_ln_slope(v, u, field) for v, u in zip(grid, ln_E)]
    if -math.inf in slope:
        raise InvalidRegime(
            f"{tag}: a slope d ln E/d ln e is outside float range")
    return CurveSegment(tag, grid, ln_E, slope)


def assemble_full(params: ForcingParams, samples: int = 512) -> CurveBundle:
    """Sample the region's curves into a CurveBundle.

    phi1 is the wall (parabola anchor, huge near its asymptote), phi2 the
    apex branch between e1 and e2. The two are separate solutions, not a
    piecewise curve, so no join continuity is implied. The nose is emitted
    as two barrier segments (lower and upper branch). A breakpoint
    outside float range is InvalidRegime.
    """
    geo = geometry(params)
    ln = _gate(geo, vars(geo))
    # the wall starts a relative 1e-6 right of its asymptote, or halfway
    # to its anchor where that is closer
    wall_lo = ln["e_star"] + min(math.log1p(1e-6),
                                 0.5 * (ln["e0"] - ln["e_star"]))
    segs = [
        _funnel_segment("phi1", wall_lo, ln["e0"], ln["e0"], ln["E0"],
                        params, samples),
        _funnel_segment("phi2", ln["e1"], ln["e2"], ln["e1"], ln["E1"],
                        params, samples)]

    # the nose by E, each branch gridded so that ln e increases: the lower
    # one up to the apex, the upper one down to it
    ln_E1, ln_100, nose = ln["E1"], math.log(100.0), _nose(params)
    for start in (ln_E1 - ln_100, ln_E1 + ln_100):
        grid_E = log_grid(start, ln_E1, samples)
        segs.append(CurveSegment(
            "barrier", [_ln_psi(u, nose) for u in grid_E], grid_E))

    par_grid = log_grid(ln["e_under"] - 2.0, ln["e0"], samples)
    # the parabola through the anchor is E = E0 (e/e0)^(1/2)
    segs.append(CurveSegment(
        "parabola", par_grid,
        [ln["E0"] + 0.5 * (v - ln["e0"]) for v in par_grid], [0.5] * samples))

    segs.append(power_law("lower_boundary", par_grid, math.log(params.lam0),
                          1.0))

    breakpoints = {k: LogScalar.from_float(v) for k, v in vars(geo).items()}
    # e2 exists only where delta < 0 (solve_e2), so its floor is vacuous
    flags = [f"eta={params.eta:.12g}", "e2_floor_vacuous"]
    return CurveBundle("full", params, segs, breakpoints, flags)
