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
E = (beta/alpha) e (Branch.peak). The interesting exponents are
algebraic, not exponential. assemble_scaling forms s, beta, the floor,
the anchor E0 in logs and one Branch through it, whose phi1 segment
(Branch.segment, as the chain samples its branches) and maximum
(Branch.peak, as the subcritical rise peaks) are logs too, since
E0 = 4 lam e0 and the samples can underflow where their logs do not.
The admissibility floor E_floor marks where the underlying
smallness condition can hold at all; samples below it are flagged
rather than hidden.
"""

from __future__ import annotations

import math

from .curves import CurveBundle, power_law
from .errors import InvalidRegime
from .logscalar import ln_add
from .params import _LN_RANGE, ForcingParams, exp_in_range
from .specfun import Branch, Field


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


def assemble_scaling(params: ForcingParams, samples: int = 512) -> CurveBundle:
    """Curve bundle over twelve decades left of the anchor, plus the
    admissibility floor as a horizontal barrier segment when it is
    positive. Samples below the floor are counted into a flag, not
    removed. The combined smallness parameter s = eps0 c' + delta must
    lie in (0, 1); the floor, then the drain rate beta, are refused
    first where they leave float range."""
    s = params.eps0 * params.c_omega_prime + params.delta
    # ln of the window psi_inf + eps0 c', whose terms may underflow
    ln_window = ln_add(
        math.log(params.psi_inf) if params.psi_inf else -math.inf,
        math.log(params.eps0) + math.log(params.c_omega_prime))
    l_curl = math.log(params.curlF_norm) if params.curlF_norm else -math.inf
    E_floor = exp_in_range(
        2.0 * (l_curl - math.log(params.nu) - math.log(params.lam)
               - ln_window), "admissibility floor E_floor")
    ln_beta = math.log(8.0) + math.log(params.lam) + ln_window
    if ln_beta <= -_LN_RANGE:
        raise InvalidRegime(f"drain rate beta = exp({ln_beta:.6g}) underflows")
    beta = exp_in_range(ln_beta, "drain rate beta = 8 lam (psi_inf + eps0 c')")
    if not 0.0 < s < 1.0:
        raise InvalidRegime(
            f"combined smallness parameter s = {s} must lie in (0, 1)")
    ln_e0 = math.log(params.e0)
    # the parabola-apex anchor E0 = 4 lam e0 of the other curve families,
    # in logs: it may underflow where they do not
    ln_E0 = math.log(4.0) + math.log(params.lam) + ln_e0
    ln_floor = math.log(E_floor) if E_floor > 0.0 else -math.inf

    curve = Branch(Field(0.5 * (1.0 - s), 0.0, beta, 1.0), ln_e0, ln_E0)
    # the slope a - beta e/E; the ratio, at most 2 (psi_inf + eps0 c'), can
    # pass float range, where it is taken as inf
    phi1 = curve.segment("phi1", ln_e0 - 12.0 * math.log(10.0), ln_e0,
                         samples)
    below = sum(ln < ln_floor for ln in phi1.ln_E)
    segs = [phi1]
    if E_floor > 0.0:
        # a zero floor (no curl forcing) admits every sample: no barrier
        segs.append(power_law("barrier", phi1.ln_e, ln_floor, 0.0))

    breakpoints = {"e0": ln_e0, "E0": ln_E0}
    flags = [f"s={s:.12g}"]
    # the stationary point (p = 1, so its ln y is ln E), kept only left of
    # the anchor: at or right of it the curve rises all the way to e0
    ln_e_max = curve.peak()[1]
    if ln_e_max < ln_e0:
        breakpoints["e_max"], breakpoints["E_max"] = \
            ln_e_max, curve.ln_y(ln_e_max)
    else:
        flags.append("maximum_outside_domain")
    if below:
        flags.append(f"E_floor_violations={below}")
    return CurveBundle("scaling", params, segs, breakpoints, flags)
