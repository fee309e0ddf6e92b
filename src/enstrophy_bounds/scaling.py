"""Bounding curve under the scale-invariant smallness condition.

Here the growth-rate quotient collapses to an affine slope field
dE/de = (alpha/e) E - beta with alpha = (1 - s)/2 for a combined smallness
parameter s, so the whole curve is one closed form

    E(e) = K e^alpha - beta/(1-alpha) e,
    K = E0/e0^alpha + beta e0^(1-alpha)/(1-alpha),

concave with a single interior maximum. Everything stays in native float
range (the interesting exponents are algebraic, not exponential), so this
module is deliberately plain: floats in, floats out. The admissibility
floor E_floor marks where the underlying smallness condition can hold at
all; samples below it are flagged rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import CurveBundle, CurveSegment, log_grid
from .errors import InvalidRegime, RegimeViolation
from .logscalar import LogScalar
from .params import ForcingParams


@dataclass(frozen=True)
class ScalingParams:
    eps0: float
    c_prime: float
    s: float          # eps0 * c_prime + delta, must stay in (0, 1)
    alpha_sc: float   # (1 - s)/2
    beta_sc: float
    E_floor: float

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise InvalidRegime(
                f"combined smallness parameter s = {self.s} must lie in (0, 1)")


def scaling_params(params: ForcingParams) -> ScalingParams:
    s = params.eps0 * params.c_omega_prime + params.delta
    window = params.psi_inf + params.eps0 * params.c_omega_prime
    l_curl = math.log(params.curlF_norm) if params.curlF_norm else -math.inf
    ln_floor = 2.0 * (l_curl - math.log(params.nu) - math.log(params.lam)
                      - math.log(window))
    if ln_floor >= 709.0:
        raise InvalidRegime(
            f"admissibility floor exp({ln_floor:.6g}) is above float range")
    return ScalingParams(
        eps0=params.eps0, c_prime=params.c_omega_prime, s=s,
        alpha_sc=0.5 * (1.0 - s), beta_sc=8.0 * params.lam * window,
        E_floor=math.exp(ln_floor))


def _lead_coefficient(e0_init: float, E0_init: float,
                      sp: ScalingParams) -> float:
    a = sp.alpha_sc
    return E0_init / e0_init ** a \
        + sp.beta_sc * e0_init ** (1.0 - a) / (1.0 - a)


def scaling_curve(e: float, e0_init: float, E0_init: float,
                  sp: ScalingParams) -> float:
    """K e^a - beta/(1-a) e, written as E0 (e/e0)^a + beta/(1-a) e
    ((e0/e)^(1-a) - 1): left of the anchor both terms are positive, so
    nothing cancels however large beta is."""
    a = sp.alpha_sc
    return E0_init * (e / e0_init) ** a + sp.beta_sc / (1.0 - a) * e \
        * math.expm1((1.0 - a) * math.log(e0_init / e))


def scaling_emax(e0_init: float, E0_init: float,
                 sp: ScalingParams) -> tuple[float, float]:
    """Stationary point of the curve; only meaningful left of the anchor."""
    a = sp.alpha_sc
    k = _lead_coefficient(e0_init, E0_init, sp)
    e_max = (a * (1.0 - a) * k / sp.beta_sc) ** (1.0 / (1.0 - a))
    if e_max >= e0_init:
        raise RegimeViolation(
            f"curve maximum e = {e_max:.6g} not left of the anchor "
            f"e0 = {e0_init:.6g}")
    return e_max, scaling_curve(e_max, e0_init, E0_init, sp)


def exponent_compare(r: float, s: float) -> dict:
    """Growth exponents of the maximal enstrophy in G under the two
    regimes: Holder coherence of exponent r versus the scale-invariant
    smallness condition with combined parameter s. Reports which admits
    the larger maximum and where they would cross."""
    if not 0.5 < r <= 1.0:
        raise InvalidRegime(f"r must lie in (1/2, 1], got {r}")
    if not 0.0 < s < 1.0:
        raise InvalidRegime(f"s must lie in (0, 1), got {s}")
    holder = (4.0 * r + 2.0) / (2.0 * r - 1.0)
    alpha = 0.5 * (1.0 - s)
    scaling = 4.0 - 2.0 * alpha
    return {"holder_exponent": holder,
            "scaling_exponent": scaling,
            "larger": "holder" if holder > scaling else "scaling",
            "crossover_r": (5.0 + s) / (2.0 + 2.0 * s)}


def default_anchor(params: ForcingParams) -> tuple[float, float]:
    # parabola-apex anchor, E0 = 4 lam e0, matching the other curve families
    return params.e0, 4.0 * params.lam * params.e0


def assemble_scaling(params: ForcingParams, samples: int = 512) -> CurveBundle:
    """Curve bundle over twelve decades left of the anchor, plus the
    admissibility floor as a horizontal barrier segment when it is
    positive. Samples below the floor are counted into a flag, not
    removed."""
    sp = scaling_params(params)
    e0, E0 = default_anchor(params)
    ln_e0 = math.log(e0)

    grid = log_grid(ln_e0 - 12.0 * math.log(10.0), ln_e0, samples)
    ln_E, slope = [], []
    below = 0
    for v in grid:
        e = e0 * math.exp(v - ln_e0)  # exactly e0 at the anchor
        val = scaling_curve(e, e0, E0, sp)
        ln_E.append(math.log(val))
        slope.append(sp.alpha_sc - sp.beta_sc * e / val)
        if val < sp.E_floor:
            below += 1
    segs = [CurveSegment("phi1", grid, ln_E, slope)]
    if sp.E_floor > 0.0:
        # a zero floor (no curl forcing) admits every sample: no barrier
        segs.append(CurveSegment("barrier", grid,
                                 [math.log(sp.E_floor)] * samples,
                                 [0.0] * samples))

    breakpoints = {"e0": LogScalar.from_float(e0),
                   "E0": LogScalar.from_float(E0)}
    flags = [f"s={sp.s:.12g}"]
    try:
        e_max, E_max = scaling_emax(e0, E0, sp)
        breakpoints["e_max"] = LogScalar.from_float(e_max)
        breakpoints["E_max"] = LogScalar.from_float(E_max)
    except RegimeViolation:
        flags.append("maximum_outside_domain")
    if below:
        flags.append(f"E_floor_violations={below}")
    return CurveBundle("scaling", params, segs, breakpoints, flags)
