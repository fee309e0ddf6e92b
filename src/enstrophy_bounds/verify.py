"""Independent correctness harness.

Two families of checks, both reporting rows of
    {check, segment, samples, worst_margin, pass}:

* containment_check: re-derives, at sampled curve points, the two growth
  rates whose quotient defined each segment, and asserts the extremal flow
  never crosses the curve outward. Each rate bound is a table of monomials
  c e^a E^b. Every term is divided by the monomial of the lhs (E^2/e on
  the coherence families, E e^(-1/2) on the full model) and summed in
  floats, so the terms that balance carry no rounding of ln e or ln E,
  which grow like G^2. On constructed segments the margin is then zero to
  roundoff at any G, and "non-outward" carries a 1e-9 relative tolerance.
  The halved curve (halved_curve) is a negative control only at small G:
  above G ~ 10 every term but the drive is homogeneous of degree 2 in E,
  so halving E leaves the margin where it was.
* oracle_suite: series vs tanh-sinh quadrature for the special function,
  the closed-form rising branch vs a Dormand-Prince 5(4) integration of
  its slope field at 513 evenly spaced points, and root locations vs
  sign-change scans on independent grids.

The Taylor-wavenumber diagnostic of an emitted curve is the CLI's taylor
subcommand.

Everything here is deliberately redundant with the construction modules;
agreement is the point.
"""

from __future__ import annotations

import math

from . import critical, full_nse, subcritical
from .curves import CurveBundle, CurveSegment, log_grid
from .errors import EnstrophyBoundsError, OutsideDomain, RegimeViolation
from .params import ForcingParams
from .solver import integrate_adaptive, rk4_path

_REL_TOL = 1e-9  # sign-margin tolerance: constructed margins are exact zeros


def halved_curve(curve: CurveBundle) -> CurveBundle:
    """Negative-control probe: the same curve pulled inward by a factor 2."""
    segs = []
    for seg in curve.segments:
        if seg.tag.startswith("phi"):
            segs.append(CurveSegment(seg.tag, seg.ln_e,
                                     [v - math.log(2.0) for v in seg.ln_E],
                                     seg.dlnE_dlne))
        else:
            segs.append(seg)
    return CurveBundle(curve.model, curve.params, segs,
                       dict(curve.breakpoints), list(curve.flags))


def _rate_tables(curve: CurveBundle, params: ForcingParams):
    """tag -> (B, T1, cond), every term c e^a E^b written as a row (c, a, b).

    B is the de/dt bound (one row), T1 the dE/dt upper bound (a table of
    rows) and cond the side condition, which holds where its row is at
    most 1. The rows reproduce exactly the quotients that defined each
    segment, so constructed margins vanish identically; the constants are
    written out here, not read from the construction, so that containment
    checks it against an independent derivation. Only the floor, where
    phi2 hands over to phi3, is read from the family's chain.
    """
    nu, lam, mu = params.nu, params.lam, params.mu
    eps, rho = params.eps, params.rho
    lo, hi = 1.0 - 1e-12, 1.0 + 1e-12

    if curve.model == "full":
        eta, pull = params.eta, nu ** 2 * lam ** 0.75 * params.grashof
        b_full = (-2.0 * (eta - 1.0) * pull, 0.5, 0.0)
        t1_full = ((2.0 * params.c1 / nu ** 3, 0.0, 3.0),
                   (-eta * pull, -0.5, 1.0))
        cond_full = (eta * pull / nu * lo, 0.5, -1.0)
        return {"phi1": (b_full, t1_full, cond_full),
                "phi2": (b_full, t1_full, cond_full)}

    # (quad_b, drive, power): the two coherence families, with the
    # production term drive E^power; quad_b = 0 off r = 1/2
    if curve.model == "critical":
        family = critical
        quad_b = params.c2 * math.sqrt(lam) / (eps * nu)
        drive = 6.0 * params.c2 * (mu * lam) ** 0.8 * nu ** 0.2 / eps ** 0.6
        power = 1.4
    elif curve.model == "subcritical":
        family = subcritical
        quad_b = 0.0
        drive = 0.5 * nu * subcritical.big_c_s(params)
        power = 2.0 - subcritical.sigma_of(params.r)
    else:
        raise OutsideDomain(
            f"containment has no rate bounds for model {curve.model!r}")
    floor = family.chain(params).floor
    quad = ((quad_b, 0.0, 2.0), (-0.25 * nu * (1.0 - rho), -1.0, 2.0))
    rise = quad + ((drive, 0.0, power),)
    tail = quad + ((6.0 * params.curlF_norm, 0.0, 0.5),)
    down = (-0.5 * nu * params.big_c_omega, 0.0, 1.0)
    return {
        "phi1": ((-0.5 * nu, 0.0, 1.0), rise,
                 (4.0 * params.f_norm / nu * lo, 0.5, -1.0)),
        "phi2": (down, rise, (floor * lo, 0.0, -1.0)),
        "phi3": (down, tail, (1.0 / floor / hi, 0.0, 1.0)),
    }


def _spread_indices(total: int, n: int) -> list[int]:
    """min(n, total) points spread evenly over range(total), rounded to
    distinct indices in increasing order."""
    m = min(n, total)
    if m < 0:
        raise OutsideDomain(f"containment needs n_points >= 0, got {n}")
    if m < 2:
        return list(range(m))
    return sorted({round(v) for v in log_grid(0, total - 1, m)})


def _margins(seg: CurveSegment, table, n_points: int):
    """(i, margin / gauge) at each of n_points samples i of seg where the
    side condition holds.

    The margin is lhs - T1 with lhs = slope (E/e) B, and the gauge the sum
    of the magnitudes of its terms: at a curve peak both the slope and T1
    cross zero together, so a margin can only be judged relative to the
    terms that cancelled. Each term is divided by the lhs monomial and
    evaluated as exp(ln term - ln largest). The terms that balance the lhs
    then have exponents (0, 0), so ln e (-1.6e8 at G = 280) drops out of
    them exactly instead of leaving one ulp of itself in the margin.
    """
    (c_b, a_b, b_b), t1, (c_c, a_c, b_c) = table
    a_0, b_0 = a_b - 1.0, b_b + 1.0
    ln_b = math.log(abs(c_b))
    terms = [(-math.copysign(1.0, c), math.log(abs(c)), a - a_0, b - b_0)
             for c, a, b in t1 if c != 0.0]
    ln_c = math.log(c_c)
    for i in _spread_indices(len(seg.ln_e), n_points):
        ln_e, ln_E, slope = seg.ln_e[i], seg.ln_E[i], seg.dlnE_dlne[i]
        if ln_c + a_c * ln_e + b_c * ln_E > 0.0:
            continue
        signed = [(s, ln + a * ln_e + b * ln_E) for s, ln, a, b in terms]
        if slope:
            signed.append((math.copysign(1.0, c_b * slope),
                           ln_b + math.log(abs(slope))))
        top = max(ln for _, ln in signed)
        vals = [s * math.exp(ln - top) for s, ln in signed]
        yield i, math.fsum(vals) / math.fsum(map(abs, vals))


def containment_check(curve: CurveBundle, params: ForcingParams,
                      n_points: int = 1000) -> list[dict]:
    """Outward-crossing check on every phi segment of an assembled bundle."""
    tables = _rate_tables(curve, params)
    rows = []
    for seg in curve.main_segments():
        ratios = [r for _, r in _margins(seg, tables[seg.tag], n_points)]
        worst = min(ratios, default=0.0)
        rows.append({"check": "containment", "segment": seg.tag,
                     "samples": len(ratios), "worst_margin": worst,
                     "pass": worst >= -_REL_TOL})
    return rows


# -- oracle suite -------------------------------------------------------

_ALPHAS = (0.03, 0.5, 0.97, 1.5)
_XS = (0.0, 1.0, 10.0, 48.0, 100.0)


def _g_quadrature(alpha: float, x: float) -> float:
    """int_0^1 t^(alpha-1) e^(xt) dt by substitution, independent of the
    series code path entirely."""
    if alpha <= 1.0:
        # t = u^(1/alpha) flattens the endpoint singularity exactly
        inv = 1.0 / alpha
        return inv * integrate_adaptive(
            lambda u: math.exp(x * u ** inv), 0.0, 1.0)
    return integrate_adaptive(
        lambda t: t ** (alpha - 1.0) * math.exp(x * t), 0.0, 1.0)


def _specfun_row() -> dict:
    from .specfun import gamma_series_factor
    worst = 0.0
    for alpha in _ALPHAS:
        for x in _XS:
            series = gamma_series_factor(alpha, x).to_float()
            quad = _g_quadrature(alpha, x)
            worst = max(worst, abs(series - quad) / abs(quad))
    return {"check": "series_vs_quadrature", "segment": "specfun",
            "samples": len(_ALPHAS) * len(_XS), "worst_margin": worst,
            "pass": worst <= 1e-10}


def _chain(params: ForcingParams):
    family = critical if params.r == 0.5 else subcritical
    return family.chain(params)


def _rk4_row(params: ForcingParams) -> dict:
    """Closed-form rising branch vs direct integration of its slope field.
    rk4_path's step error bound is relative and ln E reaches ~1e2, so
    tol = 1e-12 keeps the path within about 1e-9 in ln E."""
    ch = _chain(params)
    e_stop, _ = ch.peak_point()
    es, lnEs = rk4_path(ch.slope_field("phi1"), params.e0, math.log(ch.E0),
                        e_stop, tol=1e-12, n_out=512)
    worst = 0.0
    for e, ln_E in zip(es, lnEs):
        closed = ch.value(0, math.log(e))
        worst = max(worst, abs(closed - ln_E))
    return {"check": "closed_form_vs_rk4", "segment": "phi1",
            "samples": len(es), "worst_margin": worst,
            "pass": worst <= 1e-6}


def _scan_row(name: str, gap, center: float, half_width: float = 2.0,
              n: int = 201) -> dict:
    """Verify a found root by locating a sign change on an independent grid
    around it and checking the claim falls inside that bracket. Grid points
    outside a curve's own domain are skipped, not fatal."""
    # offsets scaled onto center keep the middle node exactly at center
    grid = [center + half_width * u for u in log_grid(-1.0, 1.0, n)]
    vals = []
    for v in grid:
        try:
            vals.append(gap(v))
        except EnstrophyBoundsError:
            vals.append(math.nan)
    dist = math.inf
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if math.isnan(fa) or math.isnan(fb):
            continue
        if fa == 0.0 or fa * fb < 0.0:
            if a <= center <= b:
                dist = 0.0
                break
            dist = min(dist, abs(center - a), abs(center - b))
    return {"check": "root_vs_gridscan", "segment": name, "samples": n,
            "worst_margin": dist, "pass": bool(dist == 0.0)}


def _scan_rows(params: ForcingParams) -> list[dict]:
    """The peak (rise against its nullcline, in the chain's peak variable)
    and the floor crossing (curve against the floor, in ln e)."""
    ch = _chain(params)
    x_star, _, _ = ch.peak
    e_peak, _, e_floor, _ = ch.names
    ln_floor = math.log(ch.floor)

    def gap_floor(v: float) -> float:
        return ch.curve_value(v) - ln_floor

    return [_scan_row(e_peak, ch.peak_gap, x_star),
            _scan_row(e_floor, gap_floor, ch.ln_floor)]


def _full_scan_row(params: ForcingParams) -> dict:
    geo = full_nse.geometry(params)

    def gap(v: float) -> float:
        e = math.exp(v)
        apex = full_nse.phi_of_e(e, geo.e1, geo.E1, params)
        return math.log(apex) - math.log(full_nse.parabola_E(e, params))

    return _scan_row("e2", gap, math.log(geo.e2))


def _has_curve(params: ForcingParams) -> bool:
    """Every curve is anchored at e0: degenerate forcing leaves none."""
    try:
        return params.e0 > 0.0
    except RegimeViolation:
        return False


def oracle_suite(params: ForcingParams) -> list[dict]:
    """Cross-checks at the given parameter set; degenerate forcing (no
    curve, see _has_curve) skips everything that needs one."""
    rows = [_specfun_row()]
    if not _has_curve(params):
        return rows
    rows.append(_rk4_row(params))
    rows.extend(_scan_rows(params))
    try:
        rows.append(_full_scan_row(params))
    except EnstrophyBoundsError as exc:
        rows.append({"check": "root_vs_gridscan", "segment": "e2",
                     "samples": 0, "worst_margin": math.inf, "pass": False,
                     "note": f"{type(exc).__name__}: {exc}"})
    return rows


def report(params: ForcingParams, n_points: int = 512) -> list[dict]:
    """The verify report: containment of the coherence family's curve and
    of the unconditional region at n_points samples per segment, then
    the oracle suite. Degenerate forcing leaves no curve to check."""
    if not _has_curve(params):
        rows = [{"check": "containment", "segment": "", "samples": 0,
                 "worst_margin": 0.0, "pass": True,
                 "note": "degenerate forcing, no curve to check"}]
    else:
        assemble = critical.assemble_critical if params.r == 0.5 \
            else subcritical.assemble_subcritical
        rows = containment_check(assemble(params), params, n_points)
        rows += containment_check(full_nse.assemble_full(params), params,
                                  n_points)
    return rows + oracle_suite(params)


def all_pass(report: list[dict]) -> bool:
    return all(row["pass"] for row in report)
