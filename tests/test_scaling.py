"""Scale-invariant regime: closed-form curve, stationary point, exponents.

The curve is evaluated through specfun's b = 0 solution; _ln_curve,
_ln_emax and _ln_slope below are the independent oracle, the curve's
two-term closed form summed from the logs of its terms, its stationary
point in closed form and its slope, on alpha and beta that _constants
forms from the parameter fields again.
"""

import math
import random

import numpy as np
import pytest

from enstrophy_bounds import (
    EnstrophyBoundsError,
    ForcingParams,
    InvalidRegime,
    RegimeViolation,
    assemble_scaling,
)
from enstrophy_bounds.logscalar import ln_add

from conftest import params_with, tool


def _constants(params):
    # (alpha, ln beta) of the curve: s = eps0 c' + delta, alpha =
    # (1 - s)/2 and beta = 8 lam (psi_inf + eps0 c')
    s = params.eps0 * params.c_omega_prime + params.delta
    window = params.psi_inf + params.eps0 * params.c_omega_prime
    return 0.5 * (1.0 - s), \
        math.log(8.0) + math.log(params.lam) + math.log(window)


def _ln_curve(v, ln_e0, ln_E0, a, ln_beta):
    # ln of the curve at e = exp(v) <= e0, written as
    # E0 (e/e0)^a + beta/(1-a) e ((e0/e)^(1-a) - 1) and summed from the
    # logs of its two terms: left of the anchor both are positive, so
    # nothing cancels however large beta is, and neither can underflow
    rest = math.expm1((1.0 - a) * (ln_e0 - v))
    ln_rest = math.log(rest) if rest > 0.0 else -math.inf
    return ln_add(ln_E0 + a * (v - ln_e0),
                  ln_beta - math.log1p(-a) + v + ln_rest)


def _ln_emax(ln_e0, ln_E0, a, ln_beta):
    # (ln e, ln E) of the stationary point, where (e/e0)^(1-a) =
    # a + a (1-a)/r with r = beta e0/E0; None unless it lies left of the
    # anchor
    ln_r = ln_beta + ln_e0 - ln_E0
    ln_e = ln_e0 + ln_add(math.log(a), math.log(a * (1.0 - a)) - ln_r) \
        / (1.0 - a)
    if ln_e >= ln_e0:
        return None
    return ln_e, _ln_curve(ln_e, ln_e0, ln_E0, a, ln_beta)


def _ln_slope(v, ln_E, a, ln_beta):
    # d ln E/d ln e = a - beta e/E, the ratio saturated to inf past float
    # range
    ln_ratio = ln_beta + v - ln_E
    return a - (math.inf if ln_ratio > 709.0 else math.exp(ln_ratio))


def test_derived_parameters(fig2):
    a, ln_beta = _constants(fig2)
    assert a == 0.125
    assert math.exp(ln_beta) == pytest.approx(2.0, rel=1e-15)
    # K of the curve K e^a - beta/(1-a) e through (e0, E0) = (4, 16)
    k = 16.0 / 4.0 ** a + 2.0 * 4.0 ** (1.0 - a) / (1.0 - a)
    assert k == pytest.approx(21.142538440664822, rel=1e-12)
    bundle = assemble_scaling(fig2, samples=64)
    assert "s=0.75" in bundle.flags
    assert math.exp(bundle.breakpoints["e0"]) == pytest.approx(4.0, rel=1e-15)
    assert math.exp(bundle.breakpoints["E0"]) \
        == pytest.approx(16.0, rel=1e-15)
    # the admissibility floor (curl F/(nu lam window))^2 = (10/0.25)^2
    barrier = bundle.segment("barrier")
    assert barrier.ln_E == pytest.approx([math.log(1600.0)] * 64, rel=1e-13)


def test_smallness_window_gate(fig2):
    bad = params_with(fig2, eps0=0.6)  # s = 1.1 while rho stays below 1
    with pytest.raises(InvalidRegime, match=r"^combined smallness parameter "
                       r"s = 1\.1 must lie in \(0, 1\)$"):
        assemble_scaling(bad)


def test_admissibility_floor_above_float_range(fig2):
    # the floor exp(708.5) is a float, but past params' float range
    with pytest.raises(InvalidRegime, match=r"^admissibility floor E_floor "
                       r"= exp\(708\.5\) is above float range$"):
        assemble_scaling(params_with(fig2, curlF_norm=1.765e153))


def test_curve_maximum(fig2):
    bundle = assemble_scaling(fig2, samples=64)
    e_max, E_max = (math.exp(bundle.breakpoints[key])
                    for key in ("e_max", "E_max"))
    assert e_max == pytest.approx(1.1804610348718343, rel=1e-12)
    assert E_max == pytest.approx(18.887376557949345, rel=1e-12)
    # stationary and concave there
    a, ln_beta = _constants(fig2)
    h = 1e-6 * e_max
    left, right = (math.exp(_ln_curve(math.log(e), math.log(4.0),
                                      math.log(16.0), a, ln_beta))
                   for e in (e_max - h, e_max + h))
    assert left < E_max and right < E_max
    assert (right - left) / (2.0 * h) == pytest.approx(0.0, abs=1e-6)
    # closed-form stationarity: alpha K e^alpha = beta e/(1-alpha)
    beta = math.exp(ln_beta)
    k = 16.0 / 4.0 ** a + beta * 4.0 ** (1.0 - a) / (1.0 - a)
    assert a * k * e_max ** a \
        == pytest.approx(beta * e_max / (1.0 - a), rel=1e-12)


def test_maximum_can_escape_domain(fig2):
    # a weak drain pushes the stationary point past the anchor
    weak = params_with(fig2, eps0=0.05)
    bundle = assemble_scaling(weak, samples=64)
    assert "s=0.55" in bundle.flags
    assert "maximum_outside_domain" in bundle.flags
    assert "e_max" not in bundle.breakpoints


def test_peak_scales_exactly_quadratically(fig2):
    # both terms of K scale like G^(2 - 2 alpha), so E_max is exactly
    # proportional to G^2; the Holder-regime comparison below relies on
    # the exponents diverging, and this pins the scaling side to its
    # true closed-form value
    lns, lgs = [], []
    for g in (10.0, 100.0, 1000.0):
        lns.append(assemble_scaling(params_with(fig2, f_norm=g),
                                    samples=64).breakpoints["E_max"])
        lgs.append(math.log(g))
    slope = np.polyfit(lgs, lns, 1)[0]
    assert slope == pytest.approx(2.0, rel=1e-12)


def test_assemble_scaling_bundle(fig2):
    bundle = assemble_scaling(fig2, samples=128)
    assert bundle.model == "scaling"
    tags = [s.tag for s in bundle.segments]
    assert tags == ["phi1", "barrier"]
    assert "s=0.75" in bundle.flags
    # the whole sampled curve sits under the admissibility floor here
    assert "E_floor_violations=128" in bundle.flags
    assert math.exp(bundle.breakpoints["e_max"]) \
        == pytest.approx(1.1804610348718343, rel=1e-10)
    seg = bundle.segment("phi1")
    assert all(map(math.isfinite, seg.ln_E))
    assert float(max(seg.ln_E)) <= math.log(18.887376557949345) + 1e-12


def test_assemble_rejects_zero_forcing(fig2):
    with pytest.raises(RegimeViolation):
        assemble_scaling(params_with(fig2, f_norm=0.0))


# -------------------------------------------- the shared solution vs oracle

def _close(got, want):
    # within 1e-12 of the oracle in ln, relative to max(1, |ln|)
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _check_bundle(bundle, params):
    """Every phi1 sample, slope and the maximum of bundle against the
    oracle through the same anchor, (e0, 4 lam e0) in logs."""
    a, ln_beta = _constants(params)
    ln_e0 = math.log(params.e0)
    ln_E0 = math.log(4.0) + math.log(params.lam) + ln_e0
    seg = bundle.segment("phi1")
    for v, ln_E, slope in zip(seg.ln_e, seg.ln_E, seg.dlnE_dlne):
        want = _ln_curve(v, ln_e0, ln_E0, a, ln_beta)
        assert _close(ln_E, want), (v, ln_E, want)
        # a slope a - beta e/E moves by (beta e/E) Delta ln E
        want_slope = _ln_slope(v, want, a, ln_beta)
        drag = a - want_slope
        if math.isfinite(drag):
            assert abs(slope - want_slope) \
                <= 1e-12 * max(1.0, drag) * max(1.0, abs(want)), v
        else:
            assert slope == want_slope
    peak = _ln_emax(ln_e0, ln_E0, a, ln_beta)
    if peak is None:
        assert "maximum_outside_domain" in bundle.flags
        assert "e_max" not in bundle.breakpoints
        assert "E_max" not in bundle.breakpoints
    else:
        assert "maximum_outside_domain" not in bundle.flags
        assert _close(bundle.breakpoints["e_max"], peak[0])
        assert _close(bundle.breakpoints["E_max"], peak[1])
    return peak


# the weak drain keeps its maximum right of the anchor
@pytest.mark.parametrize("preset, over", [
    ("fig2", {}), ("fig3", {}), ("fig2", {"eps0": 0.05}),
], ids=["fig2", "fig3", "fig2-weak-drain"])
def test_curve_matches_oracle_on_presets(preset, over, request):
    params = params_with(request.getfixturevalue(preset), **over)
    _check_bundle(assemble_scaling(params), params)


# decades drawn for each key but r around its fig2 value, on the sides of
# tools/outputs.py: eps and delta at or below theirs, c_omega at or above
outputs = tool("outputs")


def test_curve_matches_oracle_on_seeded_draws():
    rng = random.Random(1)
    answered = 0
    for _ in range(1000):
        raw = {}
        for key in sorted(set(outputs.FIG2) - {"r"}):
            lo, hi = outputs.SIDES.get(key, (-1.0, 1.0))
            raw[key] = (outputs.FIG2[key] or 1.0) \
                * 10.0 ** rng.uniform(60.0 * lo, 60.0 * hi)
        raw["r"] = rng.choice([0.5, rng.uniform(0.5, 1.0)])
        try:
            params = ForcingParams.from_mapping(raw)
            bundle = assemble_scaling(params, samples=64)
        except EnstrophyBoundsError:
            continue
        answered += 1
        _check_bundle(bundle, params)
    assert answered > 900


@pytest.mark.parametrize("psi_inf, outside", [(0.0624, True),
                                              (0.0626, False)],
                         ids=["psi_inf=0.0624", "psi_inf=0.0626"])
def test_maximum_next_to_the_anchor(fig2, psi_inf, outside):
    # at eps0 = 0.05 and psi_inf = 0.0625 the drain beta = 8 lam
    # (psi_inf + eps0 c') = 0.9 equals alpha E0/e0 = 4 lam alpha, and the
    # curve is stationary at its anchor: a weaker drain puts the maximum
    # just right of it (outside the domain), a stronger one 9e-4 left in
    # ln e
    params = params_with(fig2, eps0=0.05, psi_inf=psi_inf)
    peak = _check_bundle(assemble_scaling(params, samples=64), params)
    assert (peak is None) == outside
    if not outside:
        assert -1e-3 < peak[0] - math.log(params.e0) < 0.0
