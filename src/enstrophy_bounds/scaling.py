"""Bounding curve under the scale-invariant smallness condition.

Here the growth-rate quotient collapses to an affine slope field
dE/de = (alpha/e) E - beta with alpha = (1 - s)/2 for a combined smallness
parameter s, so the whole curve is one closed form

    E(e) = K e^alpha - beta/(1-alpha) e,
    K = E0/e0^alpha + beta e0^(1-alpha)/(1-alpha),

concave with a single interior maximum. The interesting exponents are
algebraic, not exponential, so the public helpers take and return floats;
assemble_scaling forms the anchor E0, each sample and the maximum from
sums of logs (ln_add of the two positive terms), since E0 = 4 lam e0 and
the samples can underflow where their logs do not. The admissibility
floor E_floor marks where the underlying smallness condition can hold at
all; samples below it are flagged rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import CurveBundle, CurveSegment, log_grid
from .errors import InvalidRegime, RegimeViolation
from .logscalar import LogScalar, ln_add
from .params import _LN_RANGE, ForcingParams, exp_in_range


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
    # ln of the window psi_inf + eps0 c', whose terms may underflow
    ln_window = ln_add(
        math.log(params.psi_inf) if params.psi_inf else -math.inf,
        math.log(params.eps0) + math.log(params.c_omega_prime))
    l_curl = math.log(params.curlF_norm) if params.curlF_norm else -math.inf
    ln_floor = 2.0 * (l_curl - math.log(params.nu) - math.log(params.lam)
                      - ln_window)
    if ln_floor >= 709.0:
        raise InvalidRegime(
            f"admissibility floor exp({ln_floor:.6g}) is above float range")
    ln_beta = math.log(8.0) + math.log(params.lam) + ln_window
    if ln_beta <= -_LN_RANGE:
        raise InvalidRegime(f"drain rate beta = exp({ln_beta:.6g}) underflows")
    beta = exp_in_range(ln_beta, "drain rate beta = 8 lam (psi_inf + eps0 c')")
    return ScalingParams(
        eps0=params.eps0, c_prime=params.c_omega_prime, s=s,
        alpha_sc=0.5 * (1.0 - s), beta_sc=beta, E_floor=math.exp(ln_floor))


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


def _ln_curve(v: float, ln_e0: float, ln_E0: float,
              sp: ScalingParams) -> float:
    """ln scaling_curve at e = exp(v) <= e0, summed from the logs of its
    two positive terms, so that neither can underflow."""
    a = sp.alpha_sc
    rest = math.expm1((1.0 - a) * (ln_e0 - v))
    ln_rest = math.log(rest) if rest > 0.0 else -math.inf
    return ln_add(ln_E0 + a * (v - ln_e0),
                  math.log(sp.beta_sc / (1.0 - a)) + v + ln_rest)


def _ln_emax(ln_e0: float, ln_E0: float,
             sp: ScalingParams) -> tuple[float, float]:
    """(ln e, ln E) of the stationary point, where (e/e0)^(1-a) =
    a + a (1-a)/r with r = beta e0/E0; RegimeViolation unless it lies
    left of the anchor."""
    a = sp.alpha_sc
    ln_r = math.log(sp.beta_sc) + ln_e0 - ln_E0
    ln_e = ln_e0 + ln_add(math.log(a), math.log(a * (1.0 - a)) - ln_r) \
        / (1.0 - a)
    if ln_e >= ln_e0:
        raise RegimeViolation(
            f"curve maximum ln e = {ln_e:.6g} not left of the anchor "
            f"ln e0 = {ln_e0:.6g}")
    return ln_e, _ln_curve(ln_e, ln_e0, ln_E0, sp)


def scaling_emax(e0_init: float, E0_init: float,
                 sp: ScalingParams) -> tuple[float, float]:
    """Stationary point of the curve; only meaningful left of the anchor."""
    ln_e, ln_E = _ln_emax(math.log(e0_init), math.log(E0_init), sp)
    return math.exp(ln_e), math.exp(ln_E)


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
    ln_e0 = math.log(params.e0)
    # default_anchor's E0 = 4 lam e0, in logs: it may underflow where
    # they do not
    ln_E0 = math.log(4.0) + math.log(params.lam) + ln_e0
    ln_floor = math.log(sp.E_floor) if sp.E_floor > 0.0 else -math.inf

    grid = log_grid(ln_e0 - 12.0 * math.log(10.0), ln_e0, samples)
    ln_E = [_ln_curve(v, ln_e0, ln_E0, sp) for v in grid]
    # slope a - beta e/E; the ratio, at most 2 (psi_inf + eps0 c'), can
    # pass float range, and to_float saturates it to inf
    ln_beta = math.log(sp.beta_sc)
    slope = [sp.alpha_sc - LogScalar.from_ln(ln_beta + v - ln).to_float()
             for v, ln in zip(grid, ln_E)]
    below = sum(ln < ln_floor for ln in ln_E)
    segs = [CurveSegment("phi1", grid, ln_E, slope)]
    if sp.E_floor > 0.0:
        # a zero floor (no curl forcing) admits every sample: no barrier
        segs.append(CurveSegment("barrier", grid, [ln_floor] * samples,
                                 [0.0] * samples))

    breakpoints = {"e0": LogScalar.from_ln(ln_e0),
                   "E0": LogScalar.from_ln(ln_E0)}
    flags = [f"s={sp.s:.12g}"]
    try:
        ln_e_max, ln_E_max = _ln_emax(ln_e0, ln_E0, sp)
        breakpoints["e_max"] = LogScalar.from_ln(ln_e_max)
        breakpoints["E_max"] = LogScalar.from_ln(ln_E_max)
    except RegimeViolation:
        flags.append("maximum_outside_domain")
    if below:
        flags.append(f"E_floor_violations={below}")
    return CurveBundle("scaling", params, segs, breakpoints, flags)
