"""Bounding curve under the scale-invariant smallness condition.

Here the growth-rate quotient collapses to an affine slope field
dE/de = (alpha/e) E - beta with alpha = (1 - s)/2 for a combined smallness
parameter s. That is the b = 0, p = 1 case of the linear field
dy/de = (a/e - b) y - c that the critical and subcritical branches solve,
so the curve is specfun's Branch of Field(alpha, 0, beta, 1) through the
anchor, the two-term closed form

    E(e) = K e^alpha - beta/(1-alpha) e,
    K = E0/e0^alpha + beta e0^(1-alpha)/(1-alpha),

concave with a single interior maximum where it meets its nullcline
E = (beta/alpha) e (Branch.peak_ln_e). The interesting exponents are
algebraic, not exponential, so the public helpers take and return floats;
assemble_scaling forms the anchor E0 in logs and one Branch through it,
whose samples, slopes (Branch.sample) and maximum are logs too, since
E0 = 4 lam e0 and the samples can underflow where their logs do not. The
admissibility floor E_floor marks where the underlying smallness
condition can hold at all; samples below it are flagged rather than
hidden.
"""

from __future__ import annotations

import math

from .curves import CurveBundle, CurveSegment, log_grid, power_law
from .errors import InvalidRegime, RegimeViolation
from .logscalar import ln_add
from .params import _LN_RANGE, ForcingParams, exp_in_range
from .specfun import Branch, Field


class ScalingParams:
    """The combined smallness parameter s = eps0 c' + delta, which must
    stay in (0, 1), the exponent alpha_sc = (1 - s)/2, the drain rate
    beta_sc >= 0 (0 leaves the pure power law) and the admissibility floor
    E_floor >= 0, both finite; field is the slope field
    (alpha_sc, 0, beta_sc, 1)."""

    def __init__(self, s: float, beta_sc: float, E_floor: float):
        if not 0.0 < s < 1.0:
            raise InvalidRegime(
                f"combined smallness parameter s = {s} must lie in (0, 1)")
        if not 0.0 <= beta_sc < math.inf:
            raise InvalidRegime(
                f"drain rate beta = {beta_sc} must be finite and >= 0")
        if not 0.0 <= E_floor < math.inf:
            raise InvalidRegime(f"admissibility floor E_floor = {E_floor} "
                                "must be finite and >= 0")
        self.s, self.alpha_sc = s, 0.5 * (1.0 - s)
        self.beta_sc, self.E_floor = beta_sc, E_floor
        self.field = Field(self.alpha_sc, 0.0, beta_sc, 1.0)


def scaling_params(params: ForcingParams) -> ScalingParams:
    s = params.eps0 * params.c_omega_prime + params.delta
    # ln of the window psi_inf + eps0 c', whose terms may underflow
    ln_window = ln_add(
        math.log(params.psi_inf) if params.psi_inf else -math.inf,
        math.log(params.eps0) + math.log(params.c_omega_prime))
    l_curl = math.log(params.curlF_norm) if params.curlF_norm else -math.inf
    ln_floor = 2.0 * (l_curl - math.log(params.nu) - math.log(params.lam)
                      - ln_window)
    E_floor = exp_in_range(ln_floor, "admissibility floor E_floor")
    ln_beta = math.log(8.0) + math.log(params.lam) + ln_window
    if ln_beta <= -_LN_RANGE:
        raise InvalidRegime(f"drain rate beta = exp({ln_beta:.6g}) underflows")
    beta = exp_in_range(ln_beta, "drain rate beta = 8 lam (psi_inf + eps0 c')")
    return ScalingParams(s, beta, E_floor)


def _maximum(curve: Branch) -> tuple[float, float]:
    """(ln e, ln E) of the stationary point of the curve (p = 1, so its
    ln y is ln E); RegimeViolation unless it lies left of the anchor, as
    at beta = 0, where the curve only rises."""
    ln_e, ln_e0 = curve.peak_ln_e(), curve.ln_e_ref
    if not ln_e < ln_e0:
        raise RegimeViolation(
            f"curve maximum ln e = {ln_e:.6g} not left of the anchor "
            f"ln e0 = {ln_e0:.6g}")
    return ln_e, curve.ln_y(ln_e)


def scaling_emax(e0_init: float, E0_init: float,
                 sp: ScalingParams) -> tuple[float, float]:
    """Stationary point of the curve; only meaningful left of the anchor.
    An anchor that is not positive and finite, or a maximum above float
    range, is InvalidRegime."""
    if not (0.0 < e0_init < math.inf and 0.0 < E0_init < math.inf):
        raise InvalidRegime(f"anchor (e0, E0) = ({e0_init}, {E0_init}) "
                            f"must be positive and finite")
    ln_e, ln_E = _maximum(
        Branch(sp.field, math.log(e0_init), math.log(E0_init)))
    return (exp_in_range(ln_e, "curve maximum e_max"),
            exp_in_range(ln_E, "curve maximum E_max"))


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
    # the slope a - beta e/E; the ratio, at most 2 (psi_inf + eps0 c'), can
    # pass float range, where it is taken as inf
    curve = Branch(sp.field, ln_e0, ln_E0)
    ln_E, slope = curve.sample(grid)
    below = sum(ln < ln_floor for ln in ln_E)
    segs = [CurveSegment("phi1", grid, ln_E, slope)]
    if sp.E_floor > 0.0:
        # a zero floor (no curl forcing) admits every sample: no barrier
        segs.append(power_law("barrier", grid, ln_floor, 0.0))

    breakpoints = {"e0": ln_e0, "E0": ln_E0}
    flags = [f"s={sp.s:.12g}"]
    try:
        breakpoints["e_max"], breakpoints["E_max"] = _maximum(curve)
    except RegimeViolation:
        flags.append("maximum_outside_domain")
    if below:
        flags.append(f"E_floor_violations={below}")
    return CurveBundle("scaling", params, segs, breakpoints, flags)
