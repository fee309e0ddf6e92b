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
solves the peak and the floor crossing on first use, and samples the
barrier from the nullcline it solves the peak against.
"""

from __future__ import annotations

import math

from .branches import Chain
from .curves import CurveBundle
from .errors import InvalidRegime
from .params import ForcingParams, exp_in_range, held
from .specfun import Field


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


def find_e_max(params: ForcingParams) -> tuple[float, float]:
    """(e_max, ln E_max): intersection of phi1 with the barrier.

    The float e_max typically equals e_a to machine precision (the true
    crossing sits exponentially close to the asymptote); the sub-float
    offset is resolved internally and E_max reflects it.
    """
    return chain(params).peak_point()


def find_e_min(params: ForcingParams) -> float:
    """ln e_min, the lower breakpoint, far below float range."""
    return chain(params).ln_floor


def assemble_critical(params: ForcingParams, samples: int = 512) -> CurveBundle:
    """Sample the full piecewise curve plus its frame into a CurveBundle:
    phi1, phi2, phi3, the lower boundary, the barrier and the parabola."""
    return chain(params).assemble(samples)


def classify_critical(e: float, E: float, params: ForcingParams) -> str:
    """Three-region label (I below the parabola, III at or above the
    curve, II between); see branches.Chain.classify."""
    return chain(params).classify(e, E)
