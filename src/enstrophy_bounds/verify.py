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
  Rows that check phi2 and phi3 against their slope field are an open
  item (ROADMAP.md, item 3).
* oracle_suite: series vs tanh-sinh quadrature for the special function,
  the assembled rising branch vs a Dormand-Prince 5(4) integration of its
  slope field that lands on each of the branch's samples, and root
  locations vs sign-change scans on independent grids. It takes the
  coherence family's bundle.

report runs both. Degenerate forcing leaves no curve to check, and
report alone answers it: a noted containment row, then the special
function's row.

The Taylor-wavenumber diagnostic of an emitted curve is the CLI's taylor
subcommand.

Everything here is deliberately redundant with the construction modules;
agreement is the point. branches.family chooses the coherence family
and imports only its module, so a report executes only the family it
checks. Every row is built by _row.
"""

from __future__ import annotations

import math

from . import full_nse
from .branches import family
from .curves import CurveBundle, CurveSegment, log_grid
from .errors import EnstrophyBoundsError, OutsideDomain, RegimeViolation
from .params import ForcingParams
from .solver import integrate_adaptive, rk4_path

_REL_TOL = 1e-9  # sign-margin tolerance: constructed margins are exact zeros
# the root scan's grid: its half width in the root's variable, its nodes
_SCAN_HALF_WIDTH, _SCAN_N = 2.0, 201


def _row(check: str, segment: str, samples: int, worst: float,
         passed: bool, note: str | None = None) -> dict:
    """One report row; it has a "note" only when one is given. A
    non-finite worst margin is None, which JSON writes as null."""
    row = {"check": check, "segment": segment, "samples": samples,
           "worst_margin": worst if math.isfinite(worst) else None,
           "pass": passed}
    return row if note is None else {**row, "note": note}


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
        from .critical import chain
        quad_b = params.c2 * math.sqrt(lam) / (eps * nu)
        drive = 6.0 * params.c2 * (mu * lam) ** 0.8 * nu ** 0.2 / eps ** 0.6
        power = 1.4
    elif curve.model == "subcritical":
        from .subcritical import chain
        r, quad_b = params.r, 0.0
        # C_s = 12 c k_r/nu, k_r = (lam^(2r)/(eps nu)^(3-2r))^(1/(1+2r))
        ln_k_r = (2.0 * r * math.log(lam) - (3.0 - 2.0 * r)
                  * (math.log(eps) + math.log(nu))) / (1.0 + 2.0 * r)
        ln_c = math.log(12.0 * params.c) if params.c else -math.inf
        drive = 0.5 * nu * math.exp(ln_c + ln_k_r - math.log(nu))
        # 2 - sigma, sigma = (2r - 1)/(1 + 2r)
        power = 2.0 - (2.0 * r - 1.0) / (1.0 + 2.0 * r)
    else:
        raise OutsideDomain(
            f"containment has no rate bounds for model {curve.model!r}")
    floor = chain(params).floor
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
    """Outward-crossing check on every phi segment of an assembled bundle.
    A segment that has collapsed onto its anchor, one abscissa (a wall at
    large G or with eta near 1), has no shape to check: its row passes or
    fails on that one point as any other, and says so in a note."""
    tables = _rate_tables(curve, params)
    rows = []
    for seg in curve.main_segments():
        ratios = [r for _, r in _margins(seg, tables[seg.tag], n_points)]
        worst = min(ratios, default=0.0)
        rows.append(_row("containment", seg.tag, len(ratios), worst,
                         worst >= -_REL_TOL, None if len(seg.ln_e) > 1
                         else "segment collapsed onto its anchor: 1 sample"))
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
        return inv * integrate_adaptive(lambda u: math.exp(x * u ** inv))
    return integrate_adaptive(lambda t: t ** (alpha - 1.0) * math.exp(x * t))


def _specfun_row() -> dict:
    from .specfun import gamma_series_factor
    worst = 0.0
    for alpha in _ALPHAS:
        for x in _XS:
            series = math.exp(gamma_series_factor(alpha, x))
            quad = _g_quadrature(alpha, x)
            worst = max(worst, abs(series - quad) / abs(quad))
    return _row("series_vs_quadrature", "specfun", len(_ALPHAS) * len(_XS),
                worst, worst <= 1e-10)


def _rk4_row(params: ForcingParams, curve: CurveBundle) -> dict:
    """The assembled rising branch vs direct integration of its slope
    field: from the anchor (e0, E0) the path lands on every phi1 sample of
    curve, right to left, and each sample's ln E is compared with it.
    rk4_path's step bound is relative: a step may err by up to
    tol max(1, |ln E|). On the presets ln E stays below about 1e2, so
    tol = 1e-12 keeps the path within about 1e-9 in ln E. At large G,
    ln E_max is about 20 G^2 (1.6e6 at G = 280, 1.8e8 at G = 3000), so
    the fixed 1e-6 bound in ln E is a relative 6e-13 of it at G = 280
    and 6e-15, about 34 ulps, at G = 3000; near G = 1e4 (ln E about
    2e9) the path's rounding alone, 16 to 18 ulps, passes it."""
    ch = family(params)
    seg = curve.segment("phi1")
    # the path starts on e0 itself, of which exp(ln e0) may miss an ulp
    es = [params.e0] + [math.exp(v) for v in reversed(seg.ln_e[:-1])]
    path = rk4_path(ch.rise.dlnE_de(), es, math.log(ch.E0), tol=1e-12)
    worst = max(abs(a - b) for a, b in zip(reversed(seg.ln_E), path))
    return _row("closed_form_vs_rk4", "phi1", len(path), worst, worst <= 1e-6)


def _scan_row(name: str, gap, center: float, room: float = math.inf) -> dict:
    """Verify a found root by locating a sign change on an independent grid
    of _SCAN_N nodes around it and checking the claim falls inside that
    bracket. The grid reaches _SCAN_HALF_WIDTH to the left and at most
    room, where the gap's domain ends, to the right. Grid points outside a
    curve's own domain are skipped, not fatal."""
    # offsets scaled onto center keep the middle node exactly at center
    grid = [center + (min(_SCAN_HALF_WIDTH, room) if u > 0.0
                      else _SCAN_HALF_WIDTH) * u
            for u in log_grid(-1.0, 1.0, _SCAN_N)]
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
    return _row("root_vs_gridscan", name, _SCAN_N, dist, dist == 0.0)


def _scan_rows(params: ForcingParams) -> list[dict]:
    """The peak (rise against its nullcline, in the chain's peak variable)
    and the floor crossing (curve against the floor, in ln e). At b = 0
    the peak variable is ln e, and the rise stops at its anchor e0: the
    peak grid ends there, so a peak close to e0 keeps its right cells."""
    ch = family(params)
    x_star, _, _ = ch.peak
    room = math.inf if ch.rise.b > 0.0 else ch.ln_e0 - x_star
    e_peak, _, e_floor, _ = ch.names
    ln_floor = math.log(ch.floor)

    def gap_floor(v: float) -> float:
        return ch.curve_value(v) - ln_floor

    return [_scan_row(e_peak, ch.prepared(0).peak_gap, x_star, room),
            _scan_row(e_floor, gap_floor, ch.ln_floor)]


def _full_scan_row(params: ForcingParams) -> dict:
    """The apex funnel against the parabola ln coef + ln e / 2, in logs."""
    geo = full_nse.geometry(params)
    ln_coef = math.log(geo.coef)

    def gap(v: float) -> float:
        return geo.apex.ln_E(v) - (ln_coef + 0.5 * v)

    return _scan_row("e2", gap, math.log(geo.e2))


def _has_curve(params: ForcingParams) -> bool:
    """Every curve is anchored at e0: degenerate forcing leaves none."""
    try:
        return params.e0 > 0.0
    except RegimeViolation:
        return False


def oracle_suite(params: ForcingParams, curve: CurveBundle) -> list[dict]:
    """Cross-checks at the given parameter set, the rise's against curve,
    the coherence family's bundle."""
    rows = [_specfun_row(), _rk4_row(params, curve), *_scan_rows(params)]
    try:
        rows.append(_full_scan_row(params))
    except EnstrophyBoundsError as exc:
        rows.append(_row("root_vs_gridscan", "e2", 0, math.inf, False,
                         f"{type(exc).__name__}: {exc}"))
    return rows


def report(params: ForcingParams, n_points: int = 512) -> list[dict]:
    """The verify report: containment of the coherence family's curve and
    of the unconditional region at n_points samples per segment, then
    the oracle suite. Degenerate forcing (see _has_curve) leaves no curve
    to check: its report is a noted containment row and the special
    function's check, which needs no curve."""
    if not _has_curve(params):
        return [_row("containment", "", 0, 0.0, True,
                     "degenerate forcing, no curve to check"), _specfun_row()]
    curve = family(params).assemble()
    rows = containment_check(curve, params, n_points)
    rows += containment_check(full_nse.assemble_full(params), params,
                              n_points)
    return rows + oracle_suite(params, curve)


def all_pass(report: list[dict]) -> bool:
    return all(row["pass"] for row in report)
