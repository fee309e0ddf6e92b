"""Bounding curves for Holder coherence exponents strictly between 1/2 and 1.

Away from the critical exponent the rising branch loses its exponential
weight: in the power variable zeta = E^sigma, sigma = (2r-1)/(1+2r), the
rise field is dzeta/de = s zeta/e - sigma C_s (b = 0), so every branch is
a two-term closed form B e^s + kappa e and the curve maximum grows only
algebraically, E_bar = O(G^(2/sigma)). The curve is the three-branch
construction of the branches module: the rise to the peak (e_bar, E_bar),
where zeta = (C_s/alpha_s) e, the C_Omega-damped descent to the floor
E_under, and the curl tail in x = E^(3/2), also with b = 0. The log-space
bookkeeping stays, because 1/sigma blows up as r -> 1/2 (E_bar overflows
float64 already at r = 0.51, G = 2) and e_under sits thousands of decades
below float range.

This module holds what is particular to r > 1/2: the regime check, the
three candidate floors and the field constants.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .branches import Chain, Field
from .curves import CurveBundle
from .errors import InvalidRegime
from .logscalar import LogScalar
from .params import ForcingParams


def _require_subcritical(params: ForcingParams) -> None:
    # r outside [1/2, 1] never gets past ForcingParams
    if params.r <= 0.5:
        raise InvalidRegime(
            "subcritical curve family needs r > 1/2 strictly; "
            "the critical module owns r = 1/2")


def sigma_of(r: float) -> float:
    return (2.0 * r - 1.0) / (1.0 + 2.0 * r)


def k_r(params: ForcingParams) -> float:
    """Coherence-interpolation constant of the production estimate."""
    r = params.r
    return (params.lam ** (2.0 * r)
            / (params.eps * params.nu) ** (3.0 - 2.0 * r)) \
        ** (1.0 / (1.0 + 2.0 * r))


def big_c_s(params: ForcingParams) -> float:
    return 12.0 * params.c * k_r(params) / params.nu


def floor_levels(params: ForcingParams) -> tuple[float, float, float]:
    """The three candidate enstrophy floors (boundary, splitting, curl).

    The tail construction below the floor needs the curl candidate to win;
    callers check dominance rather than re-deriving it.
    """
    _require_subcritical(params)
    if params.c == 0.0:
        # every candidate diverges in the no-production limit
        return math.inf, math.inf, math.inf
    r = params.r
    kr = k_r(params)
    nu, lam, mu = params.nu, params.lam, params.mu
    base1 = params.c2 * nu * lam * (mu + params.psi_inf) / (params.c * kr)
    base2 = params.c2 * nu ** 0.2 * (mu * lam) ** 0.8 \
        / (params.eps ** 0.6 * params.c * kr)
    base3 = params.curlF_norm / (params.c * kr)
    return (base1 ** ((1.0 + 2.0 * r) / 2.0),
            base2 ** (5.0 * (1.0 + 2.0 * r) / (8.0 - 4.0 * r)),
            base3 ** (2.0 * (1.0 + 2.0 * r) / (5.0 + 2.0 * r)))


def enstrophy_floor(params: ForcingParams) -> tuple[float, bool]:
    """(E_under, curl_dominant), mirroring the critical module's floor."""
    c1, c2, c3 = floor_levels(params)
    return max(c1, c2, c3), c3 >= max(c1, c2)


@lru_cache(maxsize=64)
def chain(params: ForcingParams) -> Chain:
    """The memoised anchor chain of params (raises InvalidRegime at r = 1/2).

    The rise field is (s, 0, sigma C_s, sigma) with s = alpha_s sigma and
    alpha_s = (1 - rho)/2; the tail has b = 0.
    """
    floor, curl_dominant = enstrophy_floor(params)
    sigma = sigma_of(params.r)
    rise = Field(a=0.5 * (1.0 - params.rho) * sigma, b=0.0,
                 c=sigma * big_c_s(params), p=sigma)
    return Chain(params, "subcritical",
                 ("e_bar", "E_bar", "e_under", "E_under"),
                 (f"sigma={sigma:.12g}",), floor, curl_dominant, rise, 0.0)


def sub_phi1(e, params: ForcingParams) -> LogScalar:
    """Rising branch anchored at (e0, E0), valid left of the anchor."""
    return chain(params).branch(0, e)


def find_e_bar(params: ForcingParams) -> tuple[float, LogScalar]:
    """Maximum point (e_bar, E_bar) of the rising branch.

    The peak is where the homogeneous pull alpha zeta / e balances the
    constant drain: zeta(e) = (C_s / alpha_s) e.
    """
    return chain(params).peak_point()


def sub_phi2(e, params: ForcingParams) -> LogScalar:
    """Descending branch: damped field re-anchored at the peak (e_bar, E_bar)."""
    return chain(params).branch(1, e)


def sub_phi3(e, params: ForcingParams) -> LogScalar:
    """Tail below the floor in the x = E^(3/2) variable; needs the curl
    candidate to dominate the floor, as in the critical module."""
    return chain(params).branch(2, e)


def assemble_subcritical(params: ForcingParams,
                         samples: int = 512) -> CurveBundle:
    """Sample the three branches plus frame (lower boundary, parabola);
    same invariants and segment tags as the critical assembly."""
    return chain(params).assemble(samples)


def classify_subcritical(e: float, E: float, params: ForcingParams) -> str:
    """Same three-region semantics as the critical classifier."""
    return chain(params).classify(e, E)
