"""Bounding curve at the critical coherence exponent r = 1/2.

At critical coherence the worst-case crossing slope turns into a linear
field for xi = E^(3/5),

    dxi/de = (a/e - b) xi - C,

with b > 0: the exponential weight e^(-be) is what makes the maximal
enstrophy grow like exp(c G^2) while the floor crossing shrinks like
exp(-c' G^2). The curve is the three-branch construction of the branches
module: the rise phi1 from the forcing anchor (e0, E0) to the barrier, the
C_Omega-damped descent phi2 to the enstrophy floor E_min, and the curl
tail phi3 in x = E^(3/2), whose field (a3, b3, g3) also has b3 > 0. The
barrier is the rise's nullcline raised to the power 5/3, with a vertical
asymptote at e_a = a/b; the peak (e_max, E_max) is where phi1 meets it.

This module holds what is particular to r = 1/2: the regime check, the
logs of the candidate floors and the field constants. chain() builds the
chain once per params object and holds it there (params.held); the chain
solves the peak and the floor crossing on first use.
"""

from __future__ import annotations

import math

from .branches import Chain, Field
from .curves import CurveBundle
from .errors import InvalidRegime, OutsideDomain
from .logscalar import LogScalar, ln_add, ln_sub
from .params import ForcingParams, exp_in_range, held


def ln_floors(params: ForcingParams) -> tuple[float, float]:
    """ln of the two candidate enstrophy floors (splitting, curl); the
    chain takes the larger as E_min and builds the tail below it only
    when the curl candidate wins."""
    l_eps, l_lam, l_nu, l_mu = (math.log(v) for v in (
        params.eps, params.lam, params.nu, params.mu))
    l_curl = math.log(params.curlF_norm) if params.curlF_norm else -math.inf
    return (1.5 * l_eps + 0.5 * l_lam + 2.0 * l_nu - 2.0 * l_mu
            + 2.5 * math.log(params.mu + params.psi_inf),
            (6.0 * l_eps - 8.0 * (l_mu + l_lam) - 2.0 * l_nu
             + 10.0 * (l_curl - math.log(params.c2))) / 9.0)


def coefficients(params: ForcingParams) -> Field:
    """The rise field (a, b, C, p = 3/5) of xi = E^(3/5); C, formed in
    logs, above float range is InvalidRegime."""
    if params.r != 0.5:
        raise InvalidRegime(
            f"critical curve family needs r = 1/2, got r = {params.r}")
    nu, lam = params.nu, params.lam
    ln_c = math.log(7.2 * params.c2) + 0.8 * (
        math.log(params.mu) + math.log(lam) - math.log(nu)) \
        - 0.6 * math.log(params.eps)
    return Field(
        a=0.3 * (1.0 - params.rho),
        b=1.2 * params.c2 * math.sqrt(lam) / params.eps / nu / nu,
        c=exp_in_range(ln_c, "production constant C"), p=0.6)


@held
def chain(params: ForcingParams) -> Chain:
    """The anchor chain of params, held on it (raises InvalidRegime off
    r = 1/2, on every call)."""
    rise = coefficients(params)
    b3 = 3.0 * params.c2 * math.sqrt(params.lam) \
        / (params.big_c_omega * params.eps) / params.nu / params.nu
    return Chain(params, "critical", ("e_max", "E_max", "e_min", "E_min"),
                 (), ln_floors(params), rise, b3)


def barrier(e: float, params: ForcingParams) -> float:
    """Enstrophy ceiling with a vertical asymptote at e_a: the rise's
    nullcline C e/(a - b e) raised to the power 5/3.

    Convention: exactly at e_a the ceiling is +inf, so root brackets may
    close on e_a itself.
    """
    e_a = coefficients(params).e_a
    if not 0.0 < e <= e_a:
        raise OutsideDomain(f"barrier is defined on (0, {e_a}], got e = {e}")
    if e == e_a:
        return math.inf
    pre = params.eps ** (2.0 / 3.0) * params.mu ** (4.0 / 3.0) \
        * math.sqrt(params.lam) * params.nu ** 2
    return pre * (6.0 * e / (e_a - e)) ** (5.0 / 3.0)


def find_e_max(params: ForcingParams) -> tuple[float, LogScalar]:
    """(e_max, E_max): intersection of phi1 with the barrier.

    The float e_max typically equals e_a to machine precision (the true
    crossing sits exponentially close to the asymptote); the sub-float
    offset is resolved internally and E_max reflects it.
    """
    return chain(params).peak_point()


def find_e_min(params: ForcingParams) -> LogScalar:
    """Lower breakpoint, far below float range (ln e_min is the payload)."""
    return LogScalar(chain(params).ln_floor)


def truncation_comparison(params: ForcingParams, n_terms: int) -> float:
    """Max |Delta ln E| between the n-term truncated-series curve and an
    adaptive Dormand-Prince 5(4) reference (solver.rk4_path) at 8193
    evenly spaced points, both anchored at the series initial value
    E0 = 2 nu^3 lam^(1/2) G^2.

    Measures how badly a short series truncation diverges from the true
    solution as the curve climbs toward the barrier.
    """
    from .solver import rk4_path
    from .specfun import gamma_series_factor

    ch = chain(params)
    e0, ln_e0 = params.e0, ch.ln_e0
    E0s = 2.0 * params.nu ** 3 * math.sqrt(params.lam) * params.grashof ** 2
    a, b, c = ch.rise.a, ch.rise.b, ch.rise.c

    def s_trunc(e: float) -> float:
        # ln of the truncated weighted-integral antiderivative
        # e^(1-a) g_N(1-a, be)
        return (1.0 - a) * math.log(e) \
            + gamma_series_factor(1.0 - a, b * e, n_terms=n_terms).ln

    s_ref = s_trunc(e0)
    lead = b * e0 - a * ln_e0 + math.log(E0s) * 0.6

    e_stop = ch.rise.e_a * 1.05
    es, lnEs = rk4_path(ch.slope_field("phi1"), e0, math.log(E0s), e_stop,
                        tol=1e-7, n_out=8192)
    worst = 0.0
    for e, ln_E in zip(es, lnEs):
        # s_trunc grows with e, so for e <= e0 both terms are positive
        inner = ln_add(lead, math.log(c) + ln_sub(s_ref, s_trunc(e))[0])
        ln_trunc = (5.0 / 3.0) * (a * math.log(e) - b * e + inner)
        worst = max(worst, abs(ln_trunc - ln_E))
    return worst


def assemble_critical(params: ForcingParams, samples: int = 512) -> CurveBundle:
    """Sample the full piecewise curve plus its frame into a CurveBundle:
    phi1, phi2, phi3, the lower boundary, the barrier and the parabola."""
    return chain(params).assemble(samples)


def classify_critical(e: float, E: float, params: ForcingParams) -> str:
    """Three-region label (I below the parabola, III at or above the
    curve, II between); see branches.Chain.classify."""
    return chain(params).classify(e, E)
