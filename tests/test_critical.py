"""Critical-regime piecewise curve: coefficients, branches, assembly."""

import ast
import math
import random

import pytest

from enstrophy_bounds import (
    AssumptionViolated,
    ForcingParams,
    InvalidRegime,
    OutsideDomain,
    RegimeViolation,
    assemble_critical,
    classify_critical,
    coefficients,
    find_e_max,
    find_e_min,
    max_join_gap,
)
from enstrophy_bounds import branches, subcritical
from enstrophy_bounds.critical import chain
from enstrophy_bounds.errors import NoBracket
from enstrophy_bounds.solver import integrate_adaptive
from enstrophy_bounds.specfun import Branch, Field

from conftest import ROOT, params_with, truncation_comparison

# E_max is an ln; log10 = ln / LN10
LN10 = math.log(10.0)


def _curl_threshold(params):
    # the curl amplitude at which the two floor expressions of
    # critical.ln_floors are equal: above it the floor is curl-dominated
    return params.c2 * params.eps ** 0.75 * params.lam ** 1.25 \
        * params.nu ** 2 * (params.mu + params.psi_inf) ** 2.25 / params.mu


# ---------------------------------------------------------- coefficients


def test_coefficient_values(fig2):
    co = coefficients(fig2)
    assert co.a == pytest.approx(0.03, rel=1e-14)
    assert co.b == pytest.approx(12.0, rel=1e-14)
    assert co.e_a == pytest.approx(0.0025, rel=1e-14)
    assert co.p == 0.6
    assert fig2.e0 == 4.0
    assert chain(fig2).E0 == 16.0


def test_floor_is_curl_dominated(fig2):
    assert chain(fig2).curl_dominant
    assert chain(fig2).floor == pytest.approx(2.044811765114792, rel=1e-12)
    # the crossover amplitude makes the two floor expressions meet
    thresh = _curl_threshold(fig2)
    assert thresh == pytest.approx(0.5981395124884883, rel=1e-12)
    at_cross = params_with(fig2, curlF_norm=thresh)
    split = fig2.eps ** 1.5 * math.sqrt(fig2.lam) * fig2.nu ** 2 \
        * (fig2.mu + fig2.psi_inf) ** 2.5 / fig2.mu ** 2
    assert chain(at_cross).curl_dominant
    assert chain(at_cross).floor == pytest.approx(split, rel=1e-10)


def test_rejects_noncritical_r(fig3):
    with pytest.raises(InvalidRegime):
        coefficients(fig3)


# -------------------------------------------------------------- barrier


def _barrier(p, frac):
    """(e, ceiling, paper) for w = ln(1 - frac): e, the abscissa the
    chain writes for w (about frac e_a); ceiling, the chain's barrier
    there, its rise nullcline Field.ln_null(w) raised to 1/p; paper, the
    prefactor form eps^(2/3) mu^(4/3) lam^(1/2) nu^2 (6 e/(e_a - e))^(5/3)
    at e, with e_a - e = e_a e^w taken from w, because a difference of
    two floats near e_a would lose digits the chain keeps."""
    ch = chain(p)
    rise = ch.rise
    w = math.log1p(-frac)
    e = math.exp(rise.ln_e_at(w))
    pre = p.eps ** (2.0 / 3.0) * p.mu ** (4.0 / 3.0) * math.sqrt(p.lam) \
        * p.nu ** 2
    paper = pre * (6.0 * e / (rise.e_a * math.exp(w))) ** (5.0 / 3.0)
    return e, math.exp(rise.ln_null(w) / rise.p), paper


# -------------------------------------------------------- xi field/chain


def test_xi_homogeneous_closed_form(fig2):
    # with c = 0 the field integrates to xi0 (e/e0)^a exp(-b (e - e0))
    rise = coefficients(fig2)
    co = Field(rise.a, rise.b, 0.0, rise.p)
    ln_xi0 = 0.6 * math.log(chain(fig2).E0)
    ln_e0 = math.log(fig2.e0)
    for e in (0.001, 0.1, 1.0, 4.0):
        got = Branch(co, ln_e0, ln_xi0).ln_y(math.log(e))
        want = ln_xi0 + co.a * (math.log(e) - ln_e0) - co.b * (e - fig2.e0)
        assert got == pytest.approx(want, abs=1e-12)


def test_xi_crosses_zero_right_of_anchor(fig2):
    co = coefficients(fig2)
    ln_xi0 = 0.6 * math.log(chain(fig2).E0)
    with pytest.raises(OutsideDomain):
        Branch(co, math.log(fig2.e0), ln_xi0).ln_y(math.log(6.0))


# ------------------------------------------------------------- branches


def test_phi1_anchor_and_monotonicity(fig2):
    co, ch = coefficients(fig2), chain(fig2)
    e0 = fig2.e0
    assert math.exp(ch.value(0, math.log(e0))) \
        == pytest.approx(16.0, rel=1e-12)
    # decreasing in e between the peak and the anchor
    lns = [math.log(co.e_a) + t * (math.log(e0) - math.log(co.e_a))
           for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
    vals = [ch.value(0, v) for v in lns]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(OutsideDomain):
        ch.value(0, math.log(e0 * 1.001))


def test_peak_pins(fig2):
    e_max, E_max = find_e_max(fig2)
    assert e_max == pytest.approx(0.0025, rel=1e-12)
    assert E_max / LN10 == pytest.approx(36.10484511251541, abs=1e-9)
    # the true barrier crossing sits a sub-float distance left of e_a:
    # one float ulp-window inward, phi1 still towers over the barrier,
    # and the peak value agrees with phi1 evaluated at e_a itself
    e_a = coefficients(fig2).e_a
    x, ceiling, paper = _barrier(fig2, 1.0 - 1e-9)
    assert x == pytest.approx(e_a * (1.0 - 1e-9), rel=1e-15)
    assert ceiling == pytest.approx(paper, rel=1e-13)
    assert chain(fig2).value(0, math.log(x)) > math.log(ceiling)
    assert E_max == pytest.approx(
        chain(fig2).value(0, math.log(e_a)), rel=1e-12)


def test_e_min_pin_and_floor_join(fig2):
    e_min = find_e_min(fig2)
    assert e_min == pytest.approx(-8248.908704754842, abs=1e-6)
    ch = chain(fig2)
    ln_floor = math.log(ch.floor)
    assert ch.value(1, e_min) == pytest.approx(ln_floor, abs=1e-9)
    assert ch.value(2, e_min) == pytest.approx(ln_floor, abs=1e-9)


def test_phi2_domain_gate(fig2):
    e_max, E_max = find_e_max(fig2)
    ch = chain(fig2)
    assert ch.value(1, ch.peak[1]) == pytest.approx(E_max, rel=1e-12)
    with pytest.raises(OutsideDomain):
        ch.value(1, math.log(2.0 * e_max))


def _tail_quadrature_ln(ln_e, ln_e_hi, a3, b3):
    """ln int_e^{e_hi} (e/t)^a3 exp(b3 (t - e)) dt by quadrature in
    t = e exp(v), which stays finite however far below float range e is."""
    span = ln_e_hi - ln_e
    e = math.exp(ln_e)

    def f(v):
        return math.exp((1.0 - a3) * (v - span) + b3 * e * math.expm1(v))

    return ln_e + (1.0 - a3) * span \
        + math.log(integrate_adaptive(f, 0.0, span))


@pytest.mark.parametrize("ln_hi, offsets", [
    (-8248.908704754842, (1e-6, 1.0, 20.0 * math.log(10.0))),  # sub-float
    (-5.0, (1e-8, 1e-6, 1e-4, 0.5, 4.0, 25.0)),                # in float
])
def test_phi3_tail_closed_form_matches_quadrature(fig2, ln_hi, offsets):
    # anchored at x = 0, the tail field gives the curl-driven part alone:
    # x = g3 * integral
    tail = chain(fig2).fields[2]
    for off in offsets:
        ln_e = ln_hi - off
        x_ln = Branch(tail, ln_hi, -math.inf).ln_y(ln_e)
        want = _tail_quadrature_ln(ln_e, ln_hi, tail.a, tail.b)
        assert x_ln - math.log(tail.c) == pytest.approx(want, abs=1e-9)


def test_phi3_just_above_e_min(fig2):
    # the tail is defined at or left of its anchor ln e_min, where its
    # sampling grid ends: just right of it is refused
    ln_e_min = find_e_min(fig2)
    with pytest.raises(OutsideDomain):
        chain(fig2).value(2, ln_e_min + 5e-10)


def test_floor_refusal_names_both_logs(fig2):
    # a chain whose peak sits half a unit of ln E under its floor: the
    # floor crossing is refused with both logs
    ch = chain(ForcingParams.from_mapping(fig2.to_raw()))
    ln_E_floor = math.log(ch.floor)
    ch.__dict__["peak"] = (0.0, 0.0, ln_E_floor - 0.5)
    with pytest.raises(NoBracket) as info:
        ch.ln_floor
    assert str(info.value) == (
        "enstrophy floor meets or exceeds the curve maximum: "
        f"ln E_floor = {ln_E_floor:.6g}, ln E_peak = {ln_E_floor - 0.5:.6g}")


@pytest.mark.parametrize("ln_floors", [(-740.0, -741.0), (708.5, 0.0)])
def test_chain_refuses_a_floor_outside_float_range(fig2, ln_floors):
    # float range is params' on both sides: a floor whose float would be
    # subnormal, or above the range, is refused when the chain is built
    ch = chain(fig2)
    with pytest.raises(InvalidRegime, match=r"^enstrophy floor exp\("
                       f"{max(ln_floors):g}" r"\) is outside float range$"):
        branches.Chain(fig2, ch.model, ch.names, ch.flags, ln_floors,
                       ch.rise, ch.fields[2].b)


def test_phi3_domain_and_curl_gate(fig2):
    e_min = find_e_min(fig2)
    with pytest.raises(OutsideDomain):
        chain(fig2).value(2, e_min + 1.0)
    # below-threshold curl forcing is rejected, not silently extrapolated
    weak = params_with(fig2, curlF_norm=0.3)
    assert weak.curlF_norm < _curl_threshold(weak)
    with pytest.raises(AssumptionViolated):
        classify_critical(1e-3, 1e40, weak)
    with pytest.raises(AssumptionViolated):
        assemble_critical(weak)


def test_branch_fields_match_finite_differences(fig2):
    # compare d(lnE)/d(ln e) so the phi2 point can live far below float
    # underflow of e itself (the ln grid is the native coordinate there)
    ch = chain(fig2)
    cases = [("phi1", 0, 0.0), ("phi2", 1, -230.0)]
    k = 1e-5
    for tag, branch, v in cases:
        f = ch.fields[branch].dlnE_de()
        fd = (ch.value(branch, v + k) - ch.value(branch, v - k)) / (2.0 * k)
        mid = ch.value(branch, v)
        e = math.exp(v)
        assert e * f(e, mid) == pytest.approx(fd, rel=1e-6), tag


def test_regime_gates(fig2):
    dead = params_with(fig2, f_norm=0.0)
    with pytest.raises(RegimeViolation):
        find_e_max(dead)
    # zero forcing has no anchor: on or above the parabola E = 0 every
    # point needs the curve
    with pytest.raises(RegimeViolation):
        classify_critical(1.0, 1.0, dead)
    with pytest.raises(RegimeViolation):
        chain(dead).value(0, 0.0)
    # anchor energy left of the barrier asymptote: curve cannot start
    tiny = params_with(fig2, f_norm=0.04)
    assert tiny.e0 < coefficients(tiny).e_a
    with pytest.raises(RegimeViolation):
        find_e_max(tiny)


# ----------------------------------------------------------- truncation


def test_truncated_series_error_decays(fig2):
    # the bits the comparison gave when the partial sum was the series
    # kernel's Kahan loop, run for exactly n_terms terms
    short = truncation_comparison(fig2, 20)
    longer = truncation_comparison(fig2, 40)
    assert short.hex() == "0x1.13229e24fe040p+0"
    assert longer.hex() == "0x1.c18bdf668d000p-1"
    assert short > 1.0 > longer
    assert truncation_comparison(params_with(fig2, f_norm=50.0), 20).hex() \
        == "0x1.013c40b700000p-5"


def test_truncated_converges_to_full(fig2):
    # the partial sum converges to g (b e0 = 48 on fig2), so the distance
    # falls towards the reference's own tolerance (1e-7)
    errs = [truncation_comparison(fig2, n) for n in (40, 80, 120)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6


# ------------------------------------------------------------- assembly


def test_assemble_critical_bundle(fig2):
    bundle = assemble_critical(fig2, samples=256)
    assert bundle.model == "critical"
    tags = [s.tag for s in bundle.segments]
    for tag in ("phi1", "phi2", "phi3", "barrier", "parabola",
                "lower_boundary"):
        assert tag in tags
    assert bundle.flags == []
    assert max_join_gap(bundle) < 1e-9

    for key in ("e_max", "E_max", "e_min", "E_min", "e0", "E0"):
        assert key in bundle.breakpoints
    assert bundle.breakpoints["E_max"] / LN10 \
        == pytest.approx(36.10484511251541, abs=1e-9)

    # grids are sorted and values finite in ln space
    for seg in bundle.main_segments():
        assert all(a <= b for a, b in zip(seg.ln_e, seg.ln_e[1:]))
        assert all(map(math.isfinite, seg.ln_E))


def test_curve_value_matches_segments(fig2):
    bundle = assemble_critical(fig2, samples=64)
    for seg in bundle.main_segments():
        for v, ln_E in zip(seg.ln_e[:: len(seg.ln_e) // 8],
                           seg.ln_E[:: len(seg.ln_E) // 8]):
            got = chain(fig2).curve_value(float(v))
            assert got == pytest.approx(float(ln_E), abs=1e-9)


# ------------------------------------------------------------- classify


def test_classify_critical_regions(fig2):
    E = math.exp(chain(fig2).curve_value(0.0))  # on the curve at e = 1
    assert classify_critical(1.0, E, fig2) == "III"
    assert classify_critical(1.0, 2.0 * E, fig2) == "III"
    assert classify_critical(1.0, 0.5 * E, fig2) == "II"
    par = 4.0 * fig2.f_norm * math.sqrt(1.0) / fig2.nu
    assert classify_critical(1.0, 0.5 * par, fig2) == "I"
    # right of e0 the curve ends; above the parabola is II
    assert classify_critical(4.0 * fig2.e0, 1e9, fig2) == "II"
    with pytest.raises(OutsideDomain):
        classify_critical(0.0, 1.0, fig2)


def test_family_resolves_the_held_chain_of_each_preset(fig2, fig3):
    # r = 1/2 selects the critical family and r > 1/2 the subcritical one;
    # either way the resolver hands back the chain held on the params
    assert branches.family(fig2) is chain(fig2)
    assert branches.family(fig3) is subcritical.chain(fig3)


def _compares_r_to_half(node: ast.AST) -> bool:
    """Whether node is a comparison x.r == 0.5, in either order."""
    if not (isinstance(node, ast.Compare)
            and any(isinstance(op, ast.Eq) for op in node.ops)):
        return False
    operands = [node.left, *node.comparators]
    return any(isinstance(v, ast.Attribute) and v.attr == "r"
               for v in operands) \
        and any(isinstance(v, ast.Constant) and v.value == 0.5
                for v in operands)


def test_only_the_family_resolver_chooses_by_r():
    # branches.family is the one place that picks a coherence family from
    # r; the families' own regime refusals (r != 0.5, r <= 0.5) are not
    # choices and stay
    package = ROOT / "src" / "enstrophy_bounds"
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert sum(_compares_r_to_half(node) for tree in trees.values()
               for node in ast.walk(tree)) == 1
    family, = [node for node in trees["branches"].body
               if isinstance(node, ast.FunctionDef) and node.name == "family"]
    assert any(map(_compares_r_to_half, ast.walk(family)))


def test_only_specfun_reads_a_branch_bound():
    # a Branch's bounds lead and top, which bracket its peak and its floor
    # crossing, are read in specfun alone: Branch.peak and Branch.crossing
    # hand the brackets out, so a change to how a branch sums its solution
    # stays inside Branch
    package = ROOT / "src" / "enstrophy_bounds"
    readers = {path.stem for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute)
               and node.attr in ("lead", "top")}
    assert readers == {"specfun"}


def test_chain_resolves_once_per_parameter_set(fig2, monkeypatch):
    calls = []
    real = branches.find_root

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # the floor crossing and the peak both search with branches'
    # find_root: Chain.peak hands it to Branch.peak
    monkeypatch.setattr(branches, "find_root", counting)
    fresh = params_with(fig2)  # equal to fig2, but resolves its own chain
    # points on both sides of e_max, above and below the curve
    for i in range(100):
        e = math.exp(-700.0 + 7.0 * i)
        E = 10.0 ** (i % 50)
        assert classify_critical(e, E, fresh) in ("I", "II", "III")
    # one find_root for the peak, one for the floor crossing
    assert len(calls) == 2


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
@pytest.mark.parametrize("shift", [1e-15, -1e-15])
def test_floor_crossing_resolves_rounding(preset, shift, request,
                                          monkeypatch):
    # the gap to the floor is flat (slope ~0.01 per unit of ln e at
    # |ln e| ~ 1e4): a relative 1e-15 change in every branch value moves
    # the true crossing by ~1e-13, which the root must resolve
    params = request.getfixturevalue(preset)
    ch = branches.family(params)

    def fresh():
        return branches.Chain(ch.params, ch.model, ch.names, ch.flags,
                              ch.ln_floors, ch.rise, ch.fields[2].b)

    ln_floor = fresh().ln_floor
    real = branches.Chain.value

    def nudged(self, k, ln_e):
        return real(self, k, ln_e) + shift

    monkeypatch.setattr(branches.Chain, "value", nudged)
    assert abs(fresh().ln_floor - ln_floor) < 1e-11


_DEPTH_REFUSALS = {
    # on fig3 the bracket's upper end lies above the limit and the crossing
    # below it; on fig2 the whole bracket lies below
    "fig2": "floor crossing below the depth limit -2^49: "
            "ln e in [-6.72687e+14, -5.6295e+14)",
    "fig3": "floor crossing below the depth limit -2^49: "
            "ln e in [-1.06378e+15, -5.6295e+14)"}


@pytest.mark.parametrize("preset, c_omega, deep", [
    ("fig2", 8e10, False), ("fig2", 1e11, True),
    ("fig3", 5e10, False), ("fig3", 6e10, True)])
def test_floor_crossing_depth_limit(preset, c_omega, deep, request,
                                    monkeypatch):
    # the descent is the rise divided by C_Omega, so its floor crossing
    # sinks like C_Omega; below ln e = -2^49 a float ln e cannot space the
    # tail's 512 default samples over its twenty decades, and the chain
    # refuses the crossing before any root search, naming the limit and
    # the bracket's own lower end
    params = params_with(request.getfixturevalue(preset), c_omega=c_omega)
    ch = branches.family(params)
    if deep:
        def no_search(*args):
            raise AssertionError("the root search ran")

        ch.peak  # the r = 1/2 peak is a root search of its own
        monkeypatch.setattr(branches, "find_root", no_search)
        with pytest.raises(NoBracket) as refused:
            ch.ln_floor
        assert str(refused.value) == _DEPTH_REFUSALS[preset]
    else:
        assert -2.0 ** 49 < ch.ln_floor < -3e14


def test_chain_errors_stay_lazy(fig2, monkeypatch):
    # a set whose floor crossing lies below ln e = -2^49: its floor solve
    # fails, so a phi2 point raises NoBracket, on every call and in either
    # order, while phi1 and region-I points never need the floor
    phi1, region_i, phi2 = (1.0, 1e40), (1.0, 1.0), (1e-3, 1e40)
    for order in ((phi1, region_i, phi2), (phi2, region_i, phi1)):
        deep = params_with(fig2, c_omega=1e11)
        for e, E in order + order[::-1]:
            if (e, E) == phi2:
                with pytest.raises(NoBracket):
                    classify_critical(e, E, deep)
            else:
                want = "III" if (e, E) == phi1 else "I"
                assert classify_critical(e, E, deep) == want

    def no_floor(self):
        raise NoBracket("floor crossing not bracketed")

    monkeypatch.setattr(branches.Chain, "ln_floor", property(no_floor))
    p = params_with(fig2)  # a fresh set: its chain is built under the patch
    # right of e_max only the peak is needed
    assert find_e_max(p)[0] < 1.0
    assert classify_critical(1.0, 1e40, p) == "III"
    assert classify_critical(1.0, 20.0, p) == "II"
    with pytest.raises(NoBracket):
        classify_critical(1e-3, 1e40, p)
    with pytest.raises(NoBracket):
        find_e_min(p)
    # anchor below the barrier asymptote: phi1 evaluates, the peak raises
    tiny = params_with(fig2, f_norm=0.04)
    assert chain(tiny).value(0, math.log(0.5 * tiny.e0)) > -math.inf
    with pytest.raises(RegimeViolation):
        classify_critical(0.5 * tiny.e0, 1e40, tiny)


def test_barrier_is_the_rise_nullcline(fig2):
    # the paper's barrier is the nullcline y = C e/(a - b e) of the rise
    # field, raised to the power 1/p = 5/3
    rng = random.Random(11)
    draws = [fig2] + [params_with(fig2, f_norm=rng.uniform(1.5, 5.0),
                            eps=rng.uniform(0.05, 0.2),
                            c2=rng.uniform(0.5, 4.0), mu=rng.uniform(0.5, 2.0))
                      for _ in range(10)]
    for p in draws:
        for frac in (1e-6, 0.01, 1.0 / 7.0, 0.5, 0.9, 0.99):
            _, ceiling, paper = _barrier(p, frac)
            assert ceiling == pytest.approx(paper, rel=1e-13)
