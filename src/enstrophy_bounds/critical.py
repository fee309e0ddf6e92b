"""Bounding curve at the critical coherence exponent r = 1/2.

At critical coherence the worst-case crossing slope turns into a linear
ODE for xi = E^(3/5),

    dxi/de = (a/e - b) xi - C,

solved exactly through a weighted exponential integral (specfun). Anchored
on the forcing parabola at (e0, E0) the solution rises steeply leftward
(phi1) until it meets the vorticity barrier at (e_max, E_max); re-anchored
there with all three coefficients divided by C_Omega it descends (phi2) to
the enstrophy floor E_min; below the floor the curl forcing takes over and
the curve follows x = E^(3/2) dynamics (phi3) down to zero. That tail is
linear too: the same weighted integral in closed form, which far below
float range is the short expansion of specfun._tiny_integral. chain()
resolves the two root solves (peak, floor crossing) once per parameter set.

Magnitudes are extreme on both axes: E_max grows like exp(c G^2) and e_min
shrinks like exp(-c' G^2), so abscissas travel as ln e and ordinates as
LogScalar everywhere. The float boundary is crossed only on output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .curves import CurveBundle, CurveSegment, log_grid, max_join_gap
from .errors import (AssumptionViolated, CancellationLoss, InvalidRegime,
                     NoBracket, OutsideDomain, RegimeViolation)
from .logscalar import LogScalar
from .params import ForcingParams
from .solver import find_root
from .specfun import weighted_exp_integral_ln

_LN6 = math.log(6.0)


def _require_critical(params: ForcingParams) -> None:
    if params.r != 0.5:
        raise InvalidRegime(
            f"critical curve family needs r = 1/2, got r = {params.r}")


def enstrophy_floor(params: ForcingParams) -> tuple[float, bool]:
    """(E_min, curl_dominant).

    The floor is the larger of the boundary-splitting threshold and the
    curl-forcing threshold; the piecewise construction below E_min is only
    carried out when the curl branch wins (curl_dominant True).
    """
    nu, lam, mu = params.nu, params.lam, params.mu
    split = params.eps ** 1.5 * math.sqrt(lam) * nu ** 2 \
        * (mu + params.psi_inf) ** 2.5 / mu ** 2
    curl = params.eps ** (2.0 / 3.0) * params.curlF_norm ** (10.0 / 9.0) \
        / (params.c2 ** (10.0 / 9.0) * (mu * lam) ** (8.0 / 9.0)
           * nu ** (2.0 / 9.0))
    return max(split, curl), curl >= split


def curl_threshold(params: ForcingParams) -> float:
    """Smallest curl-forcing amplitude for which the floor is curl-dominated.

    Closed form of the crossover in enstrophy_floor; equality of the two
    floor expressions solves to this value.
    """
    return params.c2 * params.eps ** 0.75 * params.lam ** 1.25 \
        * params.nu ** 2 * (params.mu + params.psi_inf) ** 2.25 / params.mu


@dataclass(frozen=True)
class CriticalCoefficients:
    """Constants of one linear slope field dxi/de = (a/e - b) xi - big_c.

    alpha_g is the series parameter 1 - a of the weighted integral; e_a is
    the abscissa where a/e - b changes sign (also the barrier asymptote,
    invariant under the C_Omega division). E_min, e0, E0 ride along so
    CriticalChain needs no other anchor data.
    """
    a: float
    b: float
    big_c: float
    alpha_g: float
    e_a: float
    E_min: float
    e0: float
    E0: float

    def scaled(self, factor: float) -> "CriticalCoefficients":
        return replace(self, a=self.a * factor, b=self.b * factor,
                       big_c=self.big_c * factor,
                       alpha_g=1.0 - self.a * factor)


def coefficients(params: ForcingParams) -> CriticalCoefficients:
    _require_critical(params)
    nu, lam = params.nu, params.lam
    a = 0.3 * (1.0 - params.rho)
    b = 1.2 * params.c2 * math.sqrt(lam) / (params.eps * nu ** 2)
    big_c = 7.2 * params.c2 * (params.mu * lam) ** 0.8 \
        / (params.eps ** 0.6 * nu ** 0.8)
    floor, _ = enstrophy_floor(params)
    e0 = params.e0
    return CriticalCoefficients(
        a=a, b=b, big_c=big_c, alpha_g=1.0 - a, e_a=a / b, E_min=floor,
        e0=e0, E0=max(4.0 * params.f_norm * math.sqrt(e0) / nu, floor))


def _barrier_ln_prefactor(params: ForcingParams) -> float:
    return (2.0 / 3.0) * math.log(params.eps) \
        + (4.0 / 3.0) * math.log(params.mu) \
        + 0.5 * math.log(params.lam) + 2.0 * math.log(params.nu)


def barrier(e: float, params: ForcingParams) -> float:
    """Enstrophy ceiling with a vertical asymptote at e_a.

    Convention: exactly at e_a the ceiling is +inf, so root brackets may
    close on e_a itself.
    """
    e_a = chain(params).co.e_a
    if not 0.0 < e <= e_a:
        raise OutsideDomain(f"barrier is defined on (0, {e_a}], got e = {e}")
    if e == e_a:
        return math.inf
    pre = params.eps ** (2.0 / 3.0) * params.mu ** (4.0 / 3.0) \
        * math.sqrt(params.lam) * params.nu ** 2
    return pre * (6.0 * e / (e_a - e)) ** (5.0 / 3.0)


def xi_solution(ln_e: float, coeffs: CriticalCoefficients, ln_e_ref: float,
                xi_ref: LogScalar, rel_tol: float = 1e-12) -> LogScalar:
    """Exact solution of dxi/de = (a/e - b) xi - big_c through (e_ref, xi_ref).

    xi(e) = e^a e^(-be) [e_ref^-a e^(b e_ref) xi_ref - C W], W the weighted
    exponential integral from e_ref to e. For e < e_ref the integral term
    is positive, so the bracket only grows moving left; evaluation right of
    the anchor is allowed but guarded against catastrophic cancellation.
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.big_c
    lead = LogScalar.from_ln(b * math.exp(ln_e_ref) - a * ln_e_ref) * xi_ref
    if c == 0.0 or ln_e == ln_e_ref:
        inner = lead
    else:
        if ln_e < ln_e_ref:
            drift = LogScalar.from_float(c) \
                * weighted_exp_integral_ln(a, b, ln_e, ln_e_ref, rel_tol)
        else:
            drift = -(LogScalar.from_float(c)
                      * weighted_exp_integral_ln(a, b, ln_e_ref, ln_e,
                                                 rel_tol))
        inner, lost = lead.add_with_cancellation(drift)
        if lost > 10.0:
            raise CancellationLoss(
                f"xi bracket lost {lost:.1f} digits at ln e = {ln_e:.6g}")
    if inner.sign <= 0:
        raise OutsideDomain("xi solution crossed zero right of the anchor")
    return LogScalar.from_ln(a * ln_e - b * math.exp(ln_e)) * inner


def _as_ln(e) -> float:
    if isinstance(e, LogScalar):
        if e.sign <= 0:
            raise OutsideDomain("energy must be positive")
        return e.ln
    if e <= 0.0:
        raise OutsideDomain("energy must be positive")
    return math.log(e)


def phi1(e, params: ForcingParams) -> LogScalar:
    """Right branch: anchored at (e0, E0), decreasing in e on [e_max, e0]."""
    co = chain(params).co
    ln_e = _as_ln(e)
    ln_e0 = math.log(co.e0)
    if ln_e > ln_e0 + 1e-9:
        raise OutsideDomain("phi1 is only defined up to the anchor energy e0")
    xi0 = LogScalar.from_float(co.E0) ** 0.6
    return xi_solution(ln_e, co, ln_e0, xi0) ** (5.0 / 3.0)


@dataclass(frozen=True)
class CriticalChain:
    """The anchor chain of one parameter set: the fields of phi1 (co), phi2
    (co2) and phi3 (tail, from x_min = E_min^(3/2)). The peak and the floor
    crossing are solved on first use and kept; a failed solve raises again
    on every use, so callers that never reach a breakpoint never see it.
    """
    params: ForcingParams
    co: CriticalCoefficients
    co2: CriticalCoefficients
    tail: CriticalCoefficients
    x_min: LogScalar

    @cached_property
    def peak(self) -> tuple[float, float, LogScalar]:
        """(w_star, ln_e_max, E_max) with w = ln((e_a - e)/e_a).

        The barrier-curve crossing sits a sub-float distance left of e_a,
        so the root is located in w space where the barrier is exact:
        ln barrier = pre + (5/3)(ln 6 + log1p(-exp w) - w).
        """
        co = self.co
        if self.params.grashof <= 0.0 or co.e0 <= co.e_a:
            raise RegimeViolation(
                f"anchor energy e0 = {co.e0} must exceed the barrier "
                f"asymptote e_a = {co.e_a}")
        ln_e0 = math.log(co.e0)
        ln_e_a = math.log(co.e_a)
        xi0 = LogScalar.from_float(co.E0) ** 0.6
        pre = _barrier_ln_prefactor(self.params)

        def gap(w: float) -> float:
            ln_e = ln_e_a + math.log1p(-math.exp(w))
            ln_curve = (5.0 / 3.0) * xi_solution(ln_e, co, ln_e0, xi0).ln
            return ln_curve - pre - (5.0 / 3.0) * (
                _LN6 + math.log1p(-math.exp(w)) - w)

        # estimate the crossing from the curve value at e_a, then bracket it
        w_est = _LN6 - 0.6 * ((5.0 / 3.0)
                              * xi_solution(ln_e_a, co, ln_e0, xi0).ln - pre)
        lo = min(w_est - 60.0, math.log(0.5))
        hi = math.log1p(-1e-9)
        w_star = find_root(gap, lo, hi, x_tol=1e-12)
        ln_e_max = ln_e_a + math.log1p(-math.exp(w_star))
        E_max = xi_solution(ln_e_max, co, ln_e0, xi0) ** (5.0 / 3.0)
        return w_star, ln_e_max, E_max

    @cached_property
    def ln_e_min(self) -> float:
        """ln e_min: where the middle branch descends to the floor E_min."""
        _, ln_e_max, E_max = self.peak
        E_min = LogScalar.from_float(self.co.E_min)
        if not E_min < E_max:
            raise NoBracket(
                "enstrophy floor meets or exceeds the curve maximum")
        co2 = self.co2
        xi_max = E_max ** 0.6

        def gap(v: float) -> float:
            return (5.0 / 3.0) * xi_solution(v, co2, ln_e_max, xi_max).ln \
                - E_min.ln

        step = 1000.0
        lo = ln_e_max - step
        for _ in range(40):
            if gap(lo) < 0.0:
                break
            step *= 2.0
            lo = ln_e_max - step
        else:
            raise NoBracket("floor crossing deeper than the bracket guard")
        return find_root(gap, lo, ln_e_max, x_tol=1e-12)


@lru_cache(maxsize=64)
def chain(params: ForcingParams) -> CriticalChain:
    """The memoised anchor chain of params (raises InvalidRegime off r = 1/2)."""
    co = coefficients(params)
    big = params.big_c_omega
    a3 = 0.75 * (1.0 - params.rho) / big
    b3 = 3.0 * params.c2 * math.sqrt(params.lam) \
        / (big * params.eps * params.nu ** 2)
    g3 = 18.0 * params.curlF_norm / (params.nu * big)
    tail = replace(co, a=a3, b=b3, big_c=g3, alpha_g=1.0 - a3)
    return CriticalChain(params, co, co.scaled(1.0 / big), tail,
                         LogScalar.from_float(co.E_min) ** 1.5)


def find_e_max(params: ForcingParams) -> tuple[float, LogScalar]:
    """(e_max, E_max): intersection of phi1 with the barrier.

    The float e_max typically equals e_a to machine precision (the true
    crossing sits exponentially close to the asymptote); the sub-float
    offset is resolved internally and E_max reflects it.
    """
    ch = chain(params)
    _, ln_e_max, E_max = ch.peak
    return min(math.exp(ln_e_max), ch.co.e_a), E_max


def phi2(e, params: ForcingParams) -> LogScalar:
    """Middle branch: C_Omega-damped field re-anchored at (e_max, E_max)."""
    ch = chain(params)
    _, ln_e_max, E_max = ch.peak
    ln_e = _as_ln(e)
    if ln_e > ln_e_max + 1e-9:
        raise OutsideDomain("phi2 is only defined left of e_max")
    return xi_solution(ln_e, ch.co2, ln_e_max, E_max ** 0.6) ** (5.0 / 3.0)


def find_e_min(params: ForcingParams) -> LogScalar:
    """Lower breakpoint, far below float range (ln e_min is the payload)."""
    return LogScalar.from_ln(chain(params).ln_e_min)


def _phi3_ln(ln_e: float, tail: CriticalCoefficients, ln_e_min: float,
             x_min: LogScalar) -> LogScalar:
    a3, b3, g3 = tail.a, tail.b, tail.big_c
    hom = LogScalar.from_ln(
        x_min.ln + a3 * (ln_e - ln_e_min)
        + b3 * (math.exp(ln_e_min) - math.exp(ln_e)))
    if g3 == 0.0 or ln_e == ln_e_min:
        x = hom
    else:
        # int_e^{e_min} (e/t)^a3 e^(b3 (t - e)) dt
        #   = e^a3 e^(-b3 e) W(a3, b3; e, e_min), negative above e_min
        part = LogScalar.from_ln(
            math.log(g3) + a3 * ln_e - b3 * math.exp(ln_e),
            1 if ln_e < ln_e_min else -1) * weighted_exp_integral_ln(
                a3, b3, min(ln_e, ln_e_min), max(ln_e, ln_e_min))
        x = hom + part
    return x ** (2.0 / 3.0)


def phi3(e, params: ForcingParams) -> LogScalar:
    """Tail branch below the floor, in the x = E^(3/2) variable.

    x(e) = x_min (e/e_min)^a3 e^(b3 (e_min - e)) + g3 times the tail
    integral, which is the weighted exponential integral W(a3, b3; e, e_min)
    in closed form (0 < a3 < 0.15 and b3 > 0 for every valid parameter
    set). Requires the curl-dominated floor; the regimes where the curl
    forcing is too weak to control the tail are rejected rather than
    guessed.
    """
    ch = chain(params)
    _, curl_dominant = enstrophy_floor(params)
    if not curl_dominant:
        raise AssumptionViolated(
            "curl forcing below the floor-dominance threshold "
            f"({params.curlF_norm} < {curl_threshold(params)})")
    ln_e_min = ch.ln_e_min
    ln_e = _as_ln(e)
    if ln_e > ln_e_min + 1e-9:
        raise OutsideDomain("phi3 is only defined at or below e_min")
    return _phi3_ln(ln_e, ch.tail, ln_e_min, ch.x_min)


def slope_field(params: ForcingParams, tag: str = "phi1"):
    """d(lnE)/de of the named segment's defining field; oracle plumbing."""
    ch = chain(params)
    if tag in ("phi1", "phi2"):
        co = ch.co if tag == "phi1" else ch.co2
        power, shrink = 5.0 / 3.0, 0.6
    elif tag == "phi3":
        co = ch.tail
        power, shrink = 2.0 / 3.0, 1.5
    else:
        raise ValueError(f"no slope field for tag {tag!r}")
    a, b, c = co.a, co.b, co.big_c

    def field(e: float, ln_E: float) -> float:
        return power * (a / e - b) - power * c * math.exp(-shrink * ln_E)

    return field


def truncation_comparison(params: ForcingParams, n_terms: int) -> float:
    """Max |Delta ln E| between the n-term truncated-series curve and a
    step-doubled RK4 reference, both anchored at the series initial value
    E0 = 2 nu^3 lam^(1/2) G^2.

    Measures how badly a short series truncation diverges from the true
    solution as the curve climbs toward the barrier.
    """
    from .solver import rk4_path
    from .specfun import gamma_series_truncated

    co = chain(params).co
    E0s = 2.0 * params.nu ** 3 * math.sqrt(params.lam) * params.grashof ** 2
    ln_e0 = math.log(co.e0)
    xi0 = LogScalar.from_float(E0s) ** 0.6
    a, b, c = co.a, co.b, co.big_c

    def s_trunc(e: float) -> LogScalar:
        # truncated weighted-integral antiderivative e^(1-a) g_N(1-a, be)
        return LogScalar.from_ln((1.0 - a) * math.log(e)) \
            * gamma_series_truncated(1.0 - a, b * e, n_terms)

    s_ref = s_trunc(co.e0)
    lead = LogScalar.from_ln(b * co.e0 - a * ln_e0) * xi0
    c_ls = LogScalar.from_float(c)

    field = slope_field(params, "phi1")
    e_stop = co.e_a * 1.05
    es, lnEs = rk4_path(field, co.e0, math.log(E0s), e_stop,
                        tol=1e-7, n0=8192)
    worst = 0.0
    for e, ln_E in zip(es, lnEs):
        inner = lead + c_ls * (s_ref - s_trunc(e))
        if inner.sign <= 0:
            return math.inf  # truncated curve collapsed entirely
        ln_trunc = (5.0 / 3.0) * (a * math.log(e) - b * e + inner.ln)
        worst = max(worst, abs(ln_trunc - ln_E))
    return worst


def _segment(tag: str, grid: np.ndarray, values, slopes) -> CurveSegment:
    return CurveSegment(tag, grid, np.asarray(values), np.asarray(slopes))


def assemble_critical(params: ForcingParams, samples: int = 512) -> CurveBundle:
    """Sample the full piecewise curve plus its frame into a CurveBundle.

    Segments: phi1 [e_max, e0], phi2 [e_min, e_max], phi3 spanning twenty
    decades below e_min, the barrier, the forcing parabola, and the lower
    boundary lambda_lower * e. Construction invariants (continuity, the
    parabola condition along the curve, curve above the lower boundary)
    are asserted before returning.
    """
    ch = chain(params)
    co, co2, tail = ch.co, ch.co2, ch.tail
    floor, curl_dominant = enstrophy_floor(params)
    if not curl_dominant:
        raise AssumptionViolated(
            "curl forcing below the floor-dominance threshold; "
            "the tail construction does not apply")
    w_star, ln_e_max, E_max = ch.peak
    ln_e0 = math.log(co.e0)
    xi0 = LogScalar.from_float(co.E0) ** 0.6
    ln_e_min = ch.ln_e_min
    xi_max = E_max ** 0.6

    def xi_segment(tag, ln_lo, ln_hi, cc, ln_ref, xi_ref):
        grid = log_grid(ln_lo, ln_hi, samples)
        ln_E, slope = [], []
        for v in grid:
            xi = xi_solution(v, cc, ln_ref, xi_ref)
            e = math.exp(v)
            ln_E.append((5.0 / 3.0) * xi.ln)
            drag = (LogScalar.from_float(cc.big_c)
                    * LogScalar.from_ln(v) / xi).to_float()
            slope.append((5.0 / 3.0) * (cc.a - cc.b * e - drag))
        return _segment(tag, grid, ln_E, slope)

    segs = [xi_segment("phi1", ln_e_max, ln_e0, co, ln_e0, xi0),
            xi_segment("phi2", ln_e_min, ln_e_max, co2, ln_e_max, xi_max)]

    grid3 = log_grid(ln_e_min - 20.0 * math.log(10.0), ln_e_min, samples)
    ln_E3, slope3 = [], []
    for v in grid3:
        E = _phi3_ln(v, tail, ln_e_min, ch.x_min)
        x = E ** 1.5
        e = math.exp(v)
        drag = (LogScalar.from_float(tail.big_c)
                * LogScalar.from_ln(v) / x).to_float()
        ln_E3.append(E.ln)
        slope3.append((2.0 / 3.0) * (tail.a - tail.b * e - drag))
    segs.append(_segment("phi3", grid3, ln_E3, slope3))

    low_grid = log_grid(grid3[0], ln_e0, samples)
    segs.append(_segment("lower_boundary", low_grid,
                         math.log(params.lam_under) + low_grid,
                         np.ones(samples)))

    # barrier in the resolved w = ln(1 - e/e_a) variable, emitted left of e_a
    ln_e_a = math.log(co.e_a)
    pre = _barrier_ln_prefactor(params)
    w_grid = log_grid(w_star - math.log(100.0), math.log(0.5), samples)[::-1]
    bar_e = np.array([ln_e_a + math.log1p(-math.exp(w)) for w in w_grid])
    bar_E = np.array([pre + (5.0 / 3.0) * (_LN6 + math.log1p(-math.exp(w)) - w)
                      for w in w_grid])
    segs.append(CurveSegment("barrier", bar_e, bar_E))

    par_grid = log_grid(ln_e_a, ln_e0, samples)
    segs.append(_segment("parabola", par_grid,
                         math.log(4.0 * params.f_norm / params.nu)
                         + 0.5 * par_grid, np.full(samples, 0.5)))

    bundle = CurveBundle(
        "critical", params, segs,
        breakpoints={"e0": LogScalar.from_float(co.e0),
                     "E0": LogScalar.from_float(co.E0),
                     "e_max": LogScalar.from_ln(ln_e_max),
                     "E_max": E_max,
                     "e_min": LogScalar.from_ln(ln_e_min),
                     "E_min": LogScalar.from_float(floor)})

    gap = max_join_gap(bundle)
    assert gap <= 1e-8, f"segment join gap {gap:.3e} exceeds 1e-8"
    ln_par = math.log(4.0 * params.f_norm / params.nu)
    ln_low = math.log(params.lam_under)
    for seg in bundle.main_segments():
        for v, ln_E in zip(seg.ln_e, seg.ln_E):
            assert ln_E + 1e-9 >= ln_par + 0.5 * v, \
                f"{seg.tag} dips below the forcing parabola at ln e = {v:.6g}"
            assert ln_E + 1e-9 >= ln_low + v, \
                f"{seg.tag} dips below the lower boundary at ln e = {v:.6g}"
    return bundle


def curve_value(ln_e: float, params: ForcingParams) -> LogScalar:
    """Piecewise curve evaluated exactly (not interpolated) at ln e."""
    ch = chain(params)
    _, ln_e_max, _ = ch.peak
    if ln_e > math.log(ch.co.e0):
        raise OutsideDomain("the bounding curve stops at e0")
    if ln_e >= ln_e_max:
        return phi1(LogScalar.from_ln(ln_e), params)
    if ln_e >= ch.ln_e_min:
        return phi2(LogScalar.from_ln(ln_e), params)
    return _phi3_ln(ln_e, ch.tail, ch.ln_e_min, ch.x_min)


def classify_critical(e: float, E: float, params: ForcingParams) -> str:
    """Three-region label: I below the forcing parabola (recurrent), III at
    or above the bounding curve, II between. Right of e0 the curve is gone
    and everything at or above the parabola is II."""
    if e <= 0.0 or E <= 0.0:
        raise OutsideDomain("classification needs e > 0 and E > 0")
    if params.nu * E < 4.0 * params.f_norm * math.sqrt(e):
        return "I"
    ln_e = math.log(e)
    if ln_e > math.log(chain(params).co.e0):
        return "II"
    return "III" if LogScalar.from_float(E) >= curve_value(ln_e, params) \
        else "II"
