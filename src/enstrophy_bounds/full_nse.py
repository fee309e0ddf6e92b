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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .curves import CurveBundle, CurveSegment, log_grid
from .errors import NoBracket, OutsideDomain, RegimeViolation
from .logscalar import LogScalar
from .params import ForcingParams
from .solver import find_root

REGIONS = ("I", "II", "III", "IV")


def psi_of_E(E: float, params: ForcingParams) -> float:
    """Nose curve: the energy below which enstrophy cannot grow at level E,
    nu^4 E^2 / (2 (nu f)^2 + c1 E^3), divided through by E^2."""
    if E < 0.0:
        raise ValueError("enstrophy must be nonnegative")
    if E == 0.0:
        return 0.0
    x = params.nu * params.f_norm / E
    return params.nu ** 4 / (2.0 * x * x + params.c1 * E)


def nose_apex(params: ForcingParams) -> tuple[float, float]:
    """(e1, E1): the rightmost point of the nose, where psi_of_E peaks."""
    nf = params.nu * params.f_norm
    E1 = (4.0 / params.c1) ** (1.0 / 3.0) * nf ** (2.0 / 3.0)
    e1 = (4.0 / params.c1) ** (2.0 / 3.0) * params.nu ** 4 \
        * nf ** (-2.0 / 3.0) / 6.0
    return e1, E1


def parabola_E(e: float, params: ForcingParams) -> float:
    return params.eta * params.f_norm / params.nu * math.sqrt(e)


def _alpha_beta(params: ForcingParams) -> tuple[float, float]:
    eta = params.eta
    return eta / (eta - 1.0), 4.0 * params.c1 / (
        (3.0 * eta - 1.0) * params.nu ** 3 * params.f_norm)


def _ln_t(e0_init: float, E0_init: float, params: ForcingParams) -> float:
    """ln t, t = e0^(-1/2)/(beta E0^2), formed in logs: beta, e0^p and E0^2
    may each leave float range where t does not."""
    return math.log((3.0 * params.eta - 1.0) / (4.0 * params.c1)) \
        + 3.0 * math.log(params.nu) + math.log(params.f_norm) \
        - 0.5 * math.log(e0_init) - 2.0 * math.log(E0_init)


def asymptote_e_star(e0_init: float, E0_init: float,
                     params: ForcingParams) -> float | None:
    """Vertical-asymptote abscissa of the funnel through (e0_init, E0_init),
    e_star = e0 (1 - t)^(1/p), p = alpha + 1/2; None when t >= 1 (the
    funnel then reaches e = 0)."""
    ln_t = _ln_t(e0_init, E0_init, params)
    if ln_t >= 0.0:
        return None
    alpha, _ = _alpha_beta(params)
    return e0_init * (-math.expm1(ln_t)) ** (1.0 / (alpha + 0.5))


def phi_of_e(e: float, e0_init: float, E0_init: float,
             params: ForcingParams) -> float:
    """Funnel solution through (e0_init, E0_init), evaluated at e.

    Valid on (e_star, oo): the same expression continues smoothly past the
    anchor, which is how the apex-anchored branch reaches the parabola.
    """
    if e <= 0.0:
        raise OutsideDomain("energy must be positive")
    alpha, beta = _alpha_beta(params)
    # bracket of the -1/2 power, beta e^-alpha (e^p - e0^p (1 - t)), over
    # e^p: t u + 1 - u, u = (e0/e)^p, whose terms cancel only at e_star
    ln_u = (alpha + 0.5) * math.log(e0_init / e)
    shifted = math.exp(_ln_t(e0_init, E0_init, params) + ln_u) \
        - math.expm1(ln_u)
    if shifted <= 0.0:
        raise OutsideDomain(
            f"e = {e} is at or left of the funnel asymptote")
    return 1.0 / math.sqrt(beta * math.sqrt(e) * shifted)


def phi_slope(e: float, E: float, params: ForcingParams) -> float:
    """dE/de of the funnel slope field at (e, E)."""
    alpha, _ = _alpha_beta(params)
    return 0.5 * alpha * E / e - params.c1 * E ** 3 / (
        (params.eta - 1.0) * params.nu ** 3 * params.f_norm * math.sqrt(e))


def eta_threshold(c1: float) -> float:
    """Largest funnel steepness solve_e2 accepts."""
    return 1.0 + (4.0 * c1 / (3.0 * math.sqrt(6.0))) * (4.0 / c1) ** (5.0 / 6.0)


def _gamma_delta(params: ForcingParams) -> tuple[float, float]:
    alpha, beta = _alpha_beta(params)
    e1, E1 = nose_apex(params)
    eta, fn = params.eta, params.f_norm / params.nu
    gamma = 1.0 / (beta * eta * eta * fn * fn)
    delta = e1 ** alpha / (beta * E1 * E1) - e1 ** (alpha + 0.5)
    return gamma, delta


def e2_lower_bound(params: ForcingParams) -> float:
    """Sign-aware closed-form floor for the e2 root.

    Nonpositive (hence vacuous) whenever the delta coefficient of the root
    equation is negative, which covers the default eta = 2 regime.
    """
    alpha, _ = _alpha_beta(params)
    _, delta = _gamma_delta(params)
    mag = abs(delta) ** (2.0 / (2.0 * alpha + 1.0))
    scale = (params.nu * params.f_norm) ** (2.0 / 3.0) / params.lam
    return math.copysign(mag * scale, delta)


def solve_e2(params: ForcingParams) -> float:
    """Energy where the apex-anchored funnel re-enters the parabola.

    Root of F(e) = e^(1/2+alpha) - gamma e^(alpha-1) + delta, located by a
    log-grid scan for the last sign change on [e1, 1e12 e1] and polished
    with find_root.
    """
    if params.eta >= eta_threshold(params.c1):
        raise RegimeViolation(
            f"eta = {params.eta} is at or above the admissible bound "
            f"{eta_threshold(params.c1):.6g}")
    alpha, _ = _alpha_beta(params)
    gamma, delta = _gamma_delta(params)
    e1, _ = nose_apex(params)

    def F(e: float) -> float:
        return e ** (0.5 + alpha) - gamma * e ** (alpha - 1.0) + delta

    lns = log_grid(math.log(e1), math.log(e1) + 12.0 * math.log(10.0), 481)
    vals = [F(math.exp(v)) for v in lns]
    bracket = None
    for i in range(len(vals) - 1):
        if vals[i] == 0.0:
            bracket = (lns[i], lns[i])
        elif vals[i] * vals[i + 1] < 0.0:
            bracket = (lns[i], lns[i + 1])
    if bracket is None:
        raise NoBracket("funnel/parabola crossing not bracketed beyond the apex")
    if bracket[0] == bracket[1]:
        return math.exp(bracket[0])
    return math.exp(find_root(lambda v: F(math.exp(v)), *bracket,
                              x_tol=1e-14))


@dataclass(frozen=True)
class FullNseGeometry:
    """Every derived quantity of the region, computed once."""
    e0: float
    E0: float          # parabola anchor, eta lam e0
    e1: float
    E1: float
    E_under: float     # 2^(-1/3) E1
    e_under: float     # parabola abscissa at E_under
    e_star: float      # wall asymptote (parabola-anchored funnel)
    e2: float
    E2: float


@lru_cache(maxsize=64)
def geometry(params: ForcingParams) -> FullNseGeometry:
    e0 = params.e0
    E0 = params.eta * params.lam * e0
    star = asymptote_e_star(e0, E0, params)
    if star is None:
        raise RegimeViolation("parabola anchor admits no asymptote")
    e1, E1 = nose_apex(params)
    E_under = 2.0 ** (-1.0 / 3.0) * E1
    # the parabola through the anchor is E = E0 (e/e0)^(1/2)
    e_under = e0 * (E_under / E0) ** 2
    e2 = solve_e2(params)
    return FullNseGeometry(
        e0=e0, E0=E0, e1=e1, E1=E1, E_under=E_under, e_under=e_under,
        e_star=star, e2=e2, E2=parabola_E(e2, params))


def upper_nose_branch(e: float, params: ForcingParams) -> float:
    """Larger enstrophy with psi_of_E(E) = e; defined for 0 < e < e1."""
    e1, E1 = nose_apex(params)
    if not 0.0 < e < e1:
        raise OutsideDomain(f"upper branch needs 0 < e < {e1}")
    hi = 1.1 * params.nu ** 4 / (params.c1 * e)
    return find_root(lambda E: psi_of_E(E, params) - e, E1, hi, x_tol=1e-13)


def classify_full(e: float, E: float, params: ForcingParams) -> str:
    """Region of (e, E), tie-breaking boundaries toward the larger numeral.

    IV: inside the nose at or above the parabola (both rates nonpositive).
    I: strictly below the parabola. Above it, II is separated from III by
    the upper nose branch (e < e1), the apex funnel (e1 <= e <= e2), and
    nothing at all past e2, where the corridor opens up.
    """
    if not (0.0 < e < math.inf and 0.0 < E < math.inf):
        raise OutsideDomain("classification needs e > 0 and E > 0")
    geo = geometry(params)
    par = parabola_E(e, params)
    if e <= psi_of_E(E, params) and E >= par:
        return "IV"
    if E < par:
        return "I"
    if e < geo.e1:
        return "II" if E > upper_nose_branch(e, params) else "III"
    if e <= geo.e2:
        return "II" if E > phi_of_e(e, geo.e1, geo.E1, params) else "III"
    return "II"


def _funnel_segment(tag, ln_lo, ln_hi, anchor_e, anchor_E, params, samples):
    grid = log_grid(ln_lo, ln_hi, samples)
    ln_E, slope = [], []
    for v in grid:
        e = math.exp(v)
        E = phi_of_e(e, anchor_e, anchor_E, params)
        ln_E.append(math.log(E))
        slope.append(phi_slope(e, E, params) * e / E)
    return CurveSegment(tag, grid, ln_E, slope)


def assemble_full(params: ForcingParams, samples: int = 512) -> CurveBundle:
    """Sample the region's curves into a CurveBundle.

    phi1 is the wall (parabola anchor, huge near its asymptote), phi2 the
    apex branch between e1 and e2. The two are separate solutions, not a
    piecewise curve, so no join continuity is implied. The nose is emitted
    as two barrier segments (lower and upper branch).
    """
    geo = geometry(params)
    segs = []

    wall_lo = math.log(geo.e_star) + math.log1p(1e-6)
    segs.append(_funnel_segment("phi1", wall_lo, math.log(geo.e0),
                                geo.e0, geo.E0, params, samples))
    segs.append(_funnel_segment("phi2", math.log(geo.e1), math.log(geo.e2),
                                geo.e1, geo.E1, params, samples))

    # nose: parameterize by E, emit with increasing ln e
    for lo, hi, reverse in ((geo.E1 * 1e-2, geo.E1, False),
                            (geo.E1, geo.E1 * 1e2, True)):
        grid_E = log_grid(math.log(lo), math.log(hi), samples)
        ln_e = [math.log(psi_of_E(math.exp(u), params)) for u in grid_E]
        if reverse:
            grid_E, ln_e = grid_E[::-1], ln_e[::-1]
        segs.append(CurveSegment("barrier", ln_e, grid_E))

    par_grid = log_grid(math.log(geo.e_under) - 2.0, math.log(geo.e0), samples)
    par_pre = math.log(params.eta * params.f_norm / params.nu)
    segs.append(CurveSegment("parabola", par_grid,
                             [par_pre + 0.5 * v for v in par_grid],
                             [0.5] * samples))

    ln_low = math.log(params.lam0)
    segs.append(CurveSegment("lower_boundary", par_grid,
                             [ln_low + v for v in par_grid],
                             [1.0] * samples))

    breakpoints = {k: LogScalar.from_float(v) for k, v in vars(geo).items()}
    flags = [f"eta={params.eta:.12g}"]
    if e2_lower_bound(params) <= 0.0:
        flags.append("e2_floor_vacuous")
    return CurveBundle("full", params, segs, breakpoints, flags)
