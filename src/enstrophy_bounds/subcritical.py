"""Bounding curves for Holder coherence exponents strictly between 1/2 and 1.

Away from the critical exponent the rising branch loses its exponential
weight: in the power variable zeta = E^sigma, sigma = (2r-1)/(1+2r), the
rise field is dzeta/de = s zeta/e - sigma C_s (b = 0), so every branch is
a two-term closed form B e^s + kappa e and the curve maximum grows only
algebraically, E_bar = O(G^(2/sigma)). The curve is the three-branch
construction of the branches module: the rise to the peak (e_bar, E_bar),
where zeta = (C_s/alpha_s) e, the C_Omega-damped descent to the floor
E_under, and the curl tail in x = E^(3/2), also with b = 0. The peak is
closed form, (1 - s) ln e_bar = ln B + ln s + ln(1 - s) - ln(sigma C_s),
so the floor crossing is the chain's one root search. The log-space
bookkeeping stays, because 1/sigma blows up as r -> 1/2 (E_bar overflows
float64 already at r = 0.51, G = 2) and e_under sits thousands of decades
below float range.

This module holds what is particular to r > 1/2: the regime check, the
logs of the three candidate floors and the field constants.
"""

from __future__ import annotations

import math

from .branches import Chain, Field
from .curves import CurveBundle
from .errors import InvalidRegime
from .logscalar import LogScalar
from .params import ForcingParams, exp_in_range, held


def sigma_of(r: float) -> float:
    return (2.0 * r - 1.0) / (1.0 + 2.0 * r)


def ln_k_r(params: ForcingParams) -> float:
    """ln of the coherence-interpolation constant of the production
    estimate, (lam^(2r) / (eps nu)^(3-2r))^(1/(1+2r))."""
    r = params.r
    return (2.0 * r * math.log(params.lam) - (3.0 - 2.0 * r)
            * (math.log(params.eps) + math.log(params.nu))) / (1.0 + 2.0 * r)


def big_c_s(params: ForcingParams) -> float:
    """C_s = 12 c k_r/nu, formed in logs; above float range it is
    InvalidRegime."""
    ln_c = math.log(12.0 * params.c) if params.c else -math.inf
    return exp_in_range(ln_c + ln_k_r(params) - math.log(params.nu),
                        "production constant C_s")


def ln_floors(params: ForcingParams) -> tuple[float, float, float]:
    """ln of the three candidate enstrophy floors (boundary, splitting,
    curl); the chain takes the largest as E_under and builds the tail
    below it only when the curl candidate wins."""
    # r outside [1/2, 1] never gets past ForcingParams
    if params.r <= 0.5:
        raise InvalidRegime(
            "subcritical curve family needs r > 1/2 strictly; "
            "the critical module owns r = 1/2")
    if params.c == 0.0:
        # every candidate diverges in the no-production limit
        return math.inf, math.inf, math.inf
    r, s = params.r, 1.0 + 2.0 * params.r
    l_c2, l_nu, l_lam, l_mu, l_eps = (math.log(v) for v in (
        params.c2, params.nu, params.lam, params.mu, params.eps))
    l_psi = math.log(params.mu + params.psi_inf)
    l_curl = math.log(params.curlF_norm) if params.curlF_norm else -math.inf
    l_ckr = math.log(params.c) + ln_k_r(params)
    return (0.5 * s * (l_c2 + l_nu + l_lam + l_psi - l_ckr),
            5.0 * s / (8.0 - 4.0 * r)
            * (l_c2 + 0.2 * l_nu + 0.8 * (l_mu + l_lam) - 0.6 * l_eps - l_ckr),
            2.0 * s / (5.0 + 2.0 * r) * (l_curl - l_ckr))


@held
def chain(params: ForcingParams) -> Chain:
    """The anchor chain of params, held on it (raises InvalidRegime at
    r = 1/2, on every call).

    The rise field is (s, 0, sigma C_s, sigma) with s = alpha_s sigma and
    alpha_s = (1 - rho)/2; the tail has b = 0.
    """
    floors = ln_floors(params)
    sigma = sigma_of(params.r)
    rise = Field(a=0.5 * (1.0 - params.rho) * sigma, b=0.0,
                 c=sigma * big_c_s(params), p=sigma)
    return Chain(params, "subcritical",
                 ("e_bar", "E_bar", "e_under", "E_under"),
                 (f"sigma={sigma:.12g}",), floors, rise, 0.0)


def find_e_bar(params: ForcingParams) -> tuple[float, LogScalar]:
    """Maximum point (e_bar, E_bar) of the rising branch.

    The peak is where the homogeneous pull alpha zeta / e balances the
    constant drain: zeta(e) = (C_s / alpha_s) e, solved in closed form
    (branches.Chain.peak).
    """
    return chain(params).peak_point()


def assemble_subcritical(params: ForcingParams,
                         samples: int = 512) -> CurveBundle:
    """Sample the three branches plus frame (lower boundary, parabola);
    same invariants and segment tags as the critical assembly."""
    return chain(params).assemble(samples)


def classify_subcritical(e: float, E: float, params: ForcingParams) -> str:
    """Same three-region semantics as the critical classifier."""
    return chain(params).classify(e, E)
