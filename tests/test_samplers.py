"""The curve samplers against pointwise oracles, bit for bit.

Each branch of a chain is evaluated through one prepared record
(specfun.Branch) and each full-model segment through constants formed
once per segment. The oracles below form every quantity at every point,
as the pointwise kernels did: the branch solution with its own weighted
exponential integral, the bounds of its inner term with another one and
the funnel's slope field; the funnel and the nose are conftest's ln_phi
and ln_psi. A sampler that moves one bit away from them fails here.
"""

import json
import math
import random

import pytest

from enstrophy_bounds import (EnstrophyBoundsError, ForcingParams,
                              OutsideDomain)
from enstrophy_bounds import critical, full_nse, scaling, specfun
from enstrophy_bounds.branches import TAGS, family
from enstrophy_bounds.curves import log_grid
from enstrophy_bounds.logscalar import ln_add
from enstrophy_bounds.params import exp_clamped
from enstrophy_bounds.specfun import _g_ln, _large_ln, _series_ln

from conftest import PRESETS, alpha_ln_beta, ln_phi, ln_psi


def _bits(values):
    return [float(v).hex() for v in values]


# ----------------------------------------------------- pointwise oracles


def _integral_ln(a, b, ln_lo, ln_hi):
    """ln of int s^(-a) e^(b s) ds over [e^ln_lo, e^ln_hi], every
    quantity formed in the call."""
    if not ln_lo <= ln_hi:
        raise OutsideDomain(f"weighted integral needs ln_lo <= ln_hi, "
                            f"got ln_lo = {ln_lo}, ln_hi = {ln_hi}")
    if ln_lo == ln_hi:
        return -math.inf
    alpha, ln_r = 1.0 - a, ln_lo - ln_hi
    ln_x = ln_hi + math.log(b) if b > 0.0 else -math.inf
    x = math.exp(ln_x) if ln_x <= 709.0 else math.inf
    gap = -x * math.expm1(ln_r)
    if gap > 0.0 and math.log(x / alpha) + alpha * ln_r - gap \
            - math.log(-math.expm1(-gap)) <= specfun._LN_SEVENTH:
        ln_g = _g_ln(alpha, x)
        ln_h = alpha * ln_r + _g_ln(alpha, x * math.exp(ln_r))
        return alpha * ln_hi + ln_g + math.log(-math.expm1(ln_h - ln_g))
    if 708.0 <= x < math.inf:
        return alpha * ln_hi + _large_ln(alpha, x, ln_r)
    return alpha * ln_hi + _series_ln(alpha, x, ln_r)


def _envelope(field, ln_e_ref, ln_y_ref):
    """(lead, top): the inner term of the branch through (e_ref, y_ref)
    at its anchor, and its limit at e = 0, lead (+) ln c + ln W(0, e_ref),
    with W summed in the call, at c = 0 too."""
    lead = field.b * math.exp(ln_e_ref) - field.a * ln_e_ref + ln_y_ref
    return lead, ln_add(lead, field.ln_c + _integral_ln(
        field.a, field.b, -math.inf, ln_e_ref))


def _solution(ln_e, field, ln_e_ref, ln_y_ref):
    """ln y of the branch through (e_ref, y_ref) at ln e, at or left of
    the anchor."""
    if ln_e > ln_e_ref:
        raise OutsideDomain(f"a branch is only defined at or left of its "
                            f"anchor, ln e = {ln_e_ref:.6g}")
    a, b, c = field.a, field.b, field.c
    inner = lead = b * math.exp(ln_e_ref) - a * ln_e_ref + ln_y_ref
    if c != 0.0 and ln_e != ln_e_ref:
        inner = ln_add(lead, math.log(c) + _integral_ln(a, b, ln_e, ln_e_ref))
    return a * ln_e - b * math.exp(ln_e) + inner


def _ln_slope(v, ln_E, params):
    alpha, ln_beta = alpha_ln_beta(params)
    return 0.5 * alpha - exp_clamped(
        ln_beta + 2.0 * ln_E + 0.5 * v
        + math.log(0.25 * alpha * (3.0 - 1.0 / params.eta)))


def _outcome(fn, *args):
    """The bits of fn(*args), or the class and message of its refusal."""
    try:
        return float(fn(*args)).hex()
    except (EnstrophyBoundsError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _drag(ln_drag):
    return math.exp(ln_drag) if ln_drag <= 709.0 else math.inf


# ------------------------------------------------------------ parameters


def _raw(name):
    return json.loads((PRESETS / f"{name}.json").read_text())


def _scaled(raw, rng, g_lo, g_hi, **over):
    """raw with nu and lambda drawn around 1 and f_norm set to give a
    Grashof number G drawn from [g_lo, g_hi]."""
    nu, lam = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    return dict(raw, nu=nu, **{"lambda": lam}, **over,
                f_norm=rng.uniform(g_lo, g_hi) * nu ** 2 * lam ** 0.75)


def _draws():
    """Both presets and seeded draws of each family."""
    rng = random.Random(2020)
    fig2, fig3 = _raw("fig2"), _raw("fig3")
    sets = {"fig2": fig2, "fig3": fig3}
    for i in range(3):
        sets[f"critical-{i}"] = _scaled(
            fig2, rng, 1.5, 5.0,
            curlF_norm=math.exp(rng.uniform(math.log(5.0), math.log(400.0))),
            eps=rng.uniform(0.15, 0.25), delta=rng.uniform(0.3, 0.45))
        sets[f"subcritical-{i}"] = _scaled(
            fig3, rng, 2.0, 100.0, r=rng.uniform(0.51, 1.0), curlF_norm=400.0)
    return {k: ForcingParams.from_mapping(v) for k, v in sets.items()}


_SETS = _draws()


# ------------------------------------------------- the weighted integral


def test_prepared_integral_matches_the_per_call_form():
    # both arms and the switch between them: the spans run from a few
    # ulps to fifty e-folds below upper ends whose x = b e_hi reaches 400
    rng = random.Random(7)
    spans = [10.0 ** u for u in log_grid(-12.0, 1.7, 60)]
    for _ in range(60):
        a, ln_hi = rng.uniform(0.01, 0.99), rng.uniform(-5.0, 4.0)
        b = rng.choice([0.0, 10.0 ** rng.uniform(-3.0, 1.0)])
        ln_w = specfun.weighted_exp_integral_to(a, b, ln_hi)
        for span in spans + [math.inf]:
            want = _outcome(_integral_ln, a, b, ln_hi - span, ln_hi)
            assert _outcome(ln_w, ln_hi - span) == want
            assert _outcome(specfun.weighted_exp_integral_ln, a, b,
                            ln_hi - span, ln_hi) == want
    # x = b e_hi from 708 (params._LN_RANGE), past the power series' old
    # cap (1e7) and past float range (e^710.8): where x is finite the
    # endpoint form answers wide spans and the large-argument form short
    # ones; past float range the spans that reach the series, a reversed
    # pair and a NaN bound are refused the same way
    for b, ln_hi in ((800.0, 0.0), (1e7, 0.0), (1e300, 20.0)):
        ln_w = specfun.weighted_exp_integral_to(0.5, b, ln_hi)
        for span in (1.0, 1e-9, 0.0, -1.0, math.nan):
            want = _outcome(_integral_ln, 0.5, b, ln_hi - span, ln_hi)
            assert _outcome(ln_w, ln_hi - span) == want


# -------------------------------------------------------------- branches


@pytest.mark.parametrize("name", sorted(_SETS))
def test_branch_samples_match_pointwise_solution(name):
    ch = family(_SETS[name])
    _, ln_peak, _ = ch.peak
    ranges = [(ln_peak, ch.ln_e0), (ch.ln_floor, ln_peak),
              (ch.ln_floor - 20.0 * math.log(10.0), ch.ln_floor)]
    for k, (lo, hi) in enumerate(ranges):
        field, anchor = ch.fields[k], ch._anchor(k)
        seg = ch.prepared(k).segment(TAGS[k], lo, hi, 257)
        ln_y = [_solution(v, field, *anchor) for v in seg.ln_e]
        q, ln_c = 1.0 / field.p, math.log(field.c)
        slope = [q * (field.a - field.b * math.exp(v) - _drag(ln_c + v - y))
                 for v, y in zip(seg.ln_e, ln_y)]
        assert _bits(seg.ln_E) == _bits(q * y for y in ln_y)
        assert _bits(seg.dlnE_dlne) == _bits(slope)
        assert _bits(ch.value(k, v) for v in seg.ln_e[::8]) \
            == _bits(y * (1.0 / field.p) for y in ln_y[::8])


def test_branch_segment_keeps_only_distinct_abscissas():
    # a span holding fewer floats than samples: each abscissa once, in
    # order, as full_nse.Funnel.segment samples a wall collapsed onto its
    # anchor
    branch = specfun.Branch(specfun.Field(0.3, 0.0, 1.0, 0.5), 1.0, 2.0)
    lo = 1.0 - 4.0 * math.ulp(1.0)
    seg = branch.segment("phi1", lo, 1.0, 64)
    assert seg.ln_e == sorted(set(log_grid(lo, 1.0, 64)))
    assert len(seg.ln_e) == len(seg.ln_E) == len(seg.dlnE_dlne) == 9
    assert _bits(seg.ln_E) == _bits(branch.ln_y(v) * branch.q
                                    for v in seg.ln_e)


@pytest.mark.parametrize("name", sorted(_SETS))
def test_peak_gap_and_right_of_anchor_match_pointwise_solution(name):
    ch = family(_SETS[name])
    x_star = ch.peak[0]
    rise, anchor = ch.fields[0], ch._anchor(0)
    # the grid of verify's root_vs_gridscan row around the peak
    for u in log_grid(-1.0, 1.0, 41):
        x = x_star + 2.0 * u
        want = _outcome(lambda x: _solution(rise.ln_e_at(x), rise, *anchor)
                        - rise.ln_null(x), x)
        assert _outcome(ch.prepared(0).peak_gap, x) == want
    # each branch ends on its anchor, where the oracle agrees: one ulp
    # right of it, or 1e-10 or 1e-9, is refused
    for k in range(3):
        field, (ln_ref, ln_y_ref) = ch.fields[k], ch._anchor(k)
        assert _outcome(ch.value, k, ln_ref) == _outcome(
            lambda v: _solution(v, field, ln_ref, ln_y_ref)
            * (1.0 / field.p), ln_ref)
        for v in (math.nextafter(ln_ref, math.inf), ln_ref + 1e-10,
                  ln_ref + 1e-9):
            with pytest.raises(OutsideDomain):
                ch.value(k, v)


@pytest.mark.parametrize("name", sorted(_SETS))
def test_curve_value_matches_pointwise_solution(name):
    # curve_value is what classify and the floor scan evaluate
    params = _SETS[name]
    ch = family(params)
    rng = random.Random(name)
    for _ in range(40):
        ln_e = ch.ln_floor + rng.uniform(-40.0, ch.ln_e0 - ch.ln_floor)
        k = 0 if ln_e >= ch.peak[1] else 1 if ln_e >= ch.ln_floor else 2
        ln_curve = _solution(ln_e, ch.fields[k], *ch._anchor(k)) \
            * (1.0 / ch.fields[k].p)
        assert float(ch.curve_value(ln_e)).hex() == float(ln_curve).hex()


def _fig2_across_g():
    """fig2 (nu = lambda = 1, so f_norm is G) on a log grid of G from 1.5
    to 3000, each a fresh params object."""
    return {f"fig2-G{g:.4g}": ForcingParams.from_mapping(
        dict(_raw("fig2"), f_norm=g))
        for g in (1.5 * 2000.0 ** (i / 11.0) for i in range(12))}


_ENVELOPE_SETS = {**_SETS, **_fig2_across_g()}


@pytest.mark.parametrize("name", sorted(_ENVELOPE_SETS))
def test_branch_bounds_match_the_envelope_oracle(name):
    # each Branch forms top from the integral it prepared for its own
    # solution; the oracle sums W(0, e_ref) on its own, as the bounds
    # were formed before the two shared one integral
    ch = family(_ENVELOPE_SETS[name])
    for k in range(3):
        branch = ch.prepared(k)
        assert _bits((branch.lead, branch.top)) \
            == _bits(_envelope(ch.fields[k], *ch._anchor(k)))


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_scaling_maximum_matches_the_envelope_oracle(preset):
    # the b = 0 closed-form peak from the oracle's top, and the oracle
    # solution there
    params = _SETS[preset]
    field = scaling.scaling_params(params).field
    ln_e0 = math.log(params.e0)
    ln_E0 = math.log(4.0) + math.log(params.lam) + ln_e0
    _, top = _envelope(field, ln_e0, ln_E0)
    ln_e = (top + math.log(field.a) + math.log1p(-field.a) - field.ln_c) \
        / (1.0 - field.a)
    bundle = scaling.assemble_scaling(params, samples=33)
    assert _bits((bundle.breakpoints["e_max"], bundle.breakpoints["E_max"])) \
        == _bits((ln_e, _solution(ln_e, field, ln_e0, ln_E0)))


def test_each_branch_prepares_its_integral_once(monkeypatch):
    # a Branch prepares one weighted integral and takes top from it, so
    # the ln G that top forms serves the solves after it: on fig2 the
    # peak and the floor solves each sum g once, for top (six times
    # before the difference arm skipped an H below half an ulp of G,
    # seven when the bounds summed their own), a chain prepares three
    # integrals for its three branches, and the scaling curve one for its
    # one anchor
    counts = {"g": 0, "prepared": 0}
    g_ln, prepare = specfun._g_ln, specfun.weighted_exp_integral_to

    def counting_g(*args):
        counts["g"] += 1
        return g_ln(*args)

    def counting_prepare(*args):
        counts["prepared"] += 1
        return prepare(*args)

    monkeypatch.setattr(specfun, "_g_ln", counting_g)
    monkeypatch.setattr(specfun, "weighted_exp_integral_to",
                        counting_prepare)
    ch = critical.chain(ForcingParams.from_mapping(_raw("fig2")))
    ch.peak
    assert counts == {"g": 1, "prepared": 1}
    counts.update(g=0, prepared=0)
    ch.ln_floor
    assert counts == {"g": 1, "prepared": 1}
    for name in ("fig2", "fig3"):
        params = ForcingParams.from_mapping(_raw(name))
        counts["prepared"] = 0
        family(params).assemble(samples=33)
        assert counts["prepared"] == 3
        counts["prepared"] = 0
        scaling.assemble_scaling(params, samples=33)
        assert counts["prepared"] == 1


# ------------------------------------------------------------ full model


def _full_sets():
    rng = random.Random(2021)
    fig2 = _raw("fig2")
    sets = {"fig2": _SETS["fig2"], "fig3": _SETS["fig3"]}
    for i in range(3):
        sets[f"full-{i}"] = ForcingParams.from_mapping(
            _scaled(fig2, rng, 1.5, 100.0))
    return sets


_FULL = _full_sets()


@pytest.mark.parametrize("name", sorted(_FULL))
def test_full_samples_match_pointwise_kernels(name):
    params = _FULL[name]
    geo = full_nse.geometry(params)
    bundle = full_nse.assemble_full(params, samples=257)
    anchors = {"phi1": (geo.e0, geo.E0), "phi2": (geo.e1, geo.E1)}
    for tag, (e0, E0) in anchors.items():
        seg = bundle.segment(tag)
        ln_E = [ln_phi(v, math.log(e0), math.log(E0), params)
                for v in seg.ln_e]
        assert _bits(seg.ln_E) == _bits(ln_E)
        assert _bits(seg.dlnE_dlne) \
            == _bits(_ln_slope(v, u, params) for v, u in zip(seg.ln_e, ln_E))
    noses = [s for s in bundle.segments if s.tag == "barrier"]
    assert len(noses) == 2
    for seg in noses:
        assert _bits(seg.ln_e) == _bits(ln_psi(u, params) for u in seg.ln_E)


@pytest.mark.parametrize("name", sorted(_FULL))
def test_full_pointwise_functions_match_kernels(name):
    params = _FULL[name]
    geo = full_nse.geometry(params)
    rng = random.Random(name)
    for _ in range(20):
        e = geo.e1 * math.exp(rng.uniform(0.0, math.log(geo.e2 / geo.e1)))
        E = geo.E1 * math.exp(rng.uniform(-5.0, 5.0))
        ln_e, ln_E = math.log(e), math.log(E)
        # the curves as classify_full evaluates them at one point
        assert full_nse._ln_psi(ln_E, geo.nose).hex() \
            == ln_psi(ln_E, params).hex()
        assert geo.apex.ln_E(ln_e).hex() \
            == ln_phi(ln_e, math.log(geo.e1), math.log(geo.E1), params).hex()
        assert geo.apex.slope(ln_e, ln_E).hex() \
            == _ln_slope(ln_e, ln_E, params).hex()
