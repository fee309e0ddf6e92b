"""Independent correctness harness.

Two families of checks, both reporting rows of
    {check, segment, samples, worst_margin, pass}:

* containment_check: re-derives, at sampled curve points, the two growth
  rates whose quotient defined each segment, and asserts the extremal flow
  never crosses the curve outward. On constructed segments the margin is
  zero to roundoff by design, so "non-outward" carries a 1e-9 relative
  tolerance; a genuinely misplaced curve (see halved_curve) fails loudly.
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
from .errors import EnstrophyBoundsError, OutsideDomain
from .logscalar import LogScalar, ZERO as _Z, ls_sum
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


def _rate_pairs(curve: CurveBundle, params: ForcingParams):
    """tag -> (T1, B, cond): dE/dt upper bound, de/dt bound, side condition.

    T1 takes (e, E) as LogScalar and returns (value, gauge) where gauge is
    the sum of the magnitudes of its terms: at a curve peak both the slope
    and T1 cross zero together, so a margin can only be judged relative to
    the terms that cancelled, never to the cancelled results. B returns a
    LogScalar, cond a bool. The pairs reproduce exactly the quotients that
    defined each segment, so constructed margins vanish identically; the
    constants are written out here, not read from the construction, so
    that containment checks it against an independent derivation.
    """
    nu, lam, mu = params.nu, params.lam, params.mu
    eps, rho = params.eps, params.rho
    half_nu = LogScalar.from_float(-0.5 * nu)
    big_half = LogScalar.from_float(-0.5 * nu * params.big_c_omega)

    if curve.model == "full":
        eta = params.eta
        cube = LogScalar.from_float(2.0 * params.c1 / nu ** 3)
        pull = LogScalar.from_float(
            eta * nu ** 2 * lam ** 0.75 * params.grashof)
        drain = LogScalar.from_float(
            -2.0 * (eta - 1.0) * nu ** 2 * lam ** 0.75 * params.grashof)
        par_full = LogScalar.from_float(eta * nu * lam ** 0.75 * params.grashof)

        def t1_full(e, E):
            terms = (cube * E ** 3.0, -(pull * E / e ** 0.5))
            return sum(terms, start=_Z), ls_sum(map(abs, terms))

        def b_full(e, E):
            return drain * e ** 0.5

        def cond_full(e, E):
            return E >= par_full * e ** 0.5 * LogScalar.from_float(1.0 - 1e-12)

        return {"phi1": (t1_full, b_full, cond_full),
                "phi2": (t1_full, b_full, cond_full)}

    # (quad_b, drive, power): the two coherence families, with the
    # production term drive E^power; quad_b = 0 off r = 1/2
    if curve.model == "critical":
        quad_b = params.c2 * math.sqrt(lam) / (eps * nu)
        drive = 6.0 * params.c2 * (mu * lam) ** 0.8 * nu ** 0.2 / eps ** 0.6
        power = 1.4
        floor = critical.enstrophy_floor(params)[0]
    elif curve.model == "subcritical":
        quad_b = 0.0
        drive = 0.5 * nu * subcritical.big_c_s(params)
        power = 2.0 - subcritical.sigma_of(params.r)
        floor = subcritical.enstrophy_floor(params)[0]
    else:
        raise ValueError(f"no containment pairs for model {curve.model!r}")
    quad_b = LogScalar.from_float(quad_b)
    quad_a = LogScalar.from_float(0.25 * nu * (1.0 - rho))
    drive = LogScalar.from_float(drive)
    curl = LogScalar.from_float(6.0 * params.curlF_norm)
    par = LogScalar.from_float(4.0 * params.f_norm / nu)
    floor = LogScalar.from_float(floor)
    slack_lo = LogScalar.from_float(1.0 - 1e-12)
    slack_hi = LogScalar.from_float(1.0 + 1e-12)

    def t1_rise(e, E):
        terms = (quad_b * E * E, -(quad_a * E * E / e), drive * E ** power)
        return sum(terms, start=_Z), ls_sum(map(abs, terms))

    def t1_tail(e, E):
        terms = (quad_b * E * E, -(quad_a * E * E / e), curl * E ** 0.5)
        return sum(terms, start=_Z), ls_sum(map(abs, terms))

    return {
        "phi1": (t1_rise, lambda e, E: half_nu * E,
                 lambda e, E: E >= par * e ** 0.5 * slack_lo),
        "phi2": (t1_rise, lambda e, E: big_half * E,
                 lambda e, E: E >= floor * slack_lo),
        "phi3": (t1_tail, lambda e, E: big_half * E,
                 lambda e, E: E <= floor * slack_hi),
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


def containment_check(curve: CurveBundle, params: ForcingParams,
                      n_points: int = 1000) -> list[dict]:
    """Outward-crossing check on every phi segment of an assembled bundle."""
    pairs = _rate_pairs(curve, params)
    rows = []
    for seg in curve.main_segments():
        t1_fn, b_fn, cond = pairs[seg.tag]
        worst = math.inf
        ok = True
        used = 0
        for i in _spread_indices(len(seg.ln_e), n_points):
            e = LogScalar.from_ln(seg.ln_e[i])
            E = LogScalar.from_ln(seg.ln_E[i])
            if not cond(e, E):
                continue
            used += 1
            lhs = LogScalar.from_float(seg.dlnE_dlne[i]) \
                * (E / e) * b_fn(e, E)
            t1, gauge = t1_fn(e, E)
            margin = lhs - t1
            scale = abs(lhs) + gauge
            if scale.sign == 0:
                continue
            ratio = (margin / scale).to_float()
            worst = min(worst, ratio)
            if ratio < -_REL_TOL:
                ok = False
        rows.append({"check": "containment", "segment": seg.tag,
                     "samples": used,
                     "worst_margin": worst if used else 0.0, "pass": ok})
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
        closed = ch.value(0, math.log(e)).ln
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
        return ch.curve_value(v).ln - ln_floor

    return [_scan_row(e_peak, ch.peak_gap, x_star),
            _scan_row(e_floor, gap_floor, ch.ln_floor)]


def _full_scan_row(params: ForcingParams) -> dict:
    geo = full_nse.geometry(params)

    def gap(v: float) -> float:
        e = math.exp(v)
        apex = full_nse.phi_of_e(e, geo.e1, geo.E1, params)
        return math.log(apex) - math.log(full_nse.parabola_E(e, params))

    return _scan_row("e2", gap, math.log(geo.e2))


def oracle_suite(params: ForcingParams) -> list[dict]:
    """Cross-checks at the given parameter set; degenerate forcing (G = 0)
    skips everything that needs a curve."""
    rows = [_specfun_row()]
    if params.grashof <= 0.0:
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


def all_pass(report: list[dict]) -> bool:
    return all(row["pass"] for row in report)
