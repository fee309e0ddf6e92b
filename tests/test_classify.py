"""The per-point classifiers against the ones they replaced, label for label.

Chain.classify picks a branch and evaluates its kept solution with the
constants it formed once per chain, and classify_full evaluates the nose
and the apex funnel with constants formed once per params. The oracles
below are the classifiers those replaced: the chain's through curve_value
as it was, the full model's through the parabola formed from params and
conftest's pointwise ln_psi and ln_phi, every quantity formed in the
call. Each side classifies the same points in the same order on its own
fresh params object, so a breakpoint that one side solves (or refuses)
and the other does not would show. Labels and
refusals (exception type and message) must agree exactly.

The held models themselves are checked here too: a params object keeps
each resolved model for its lifetime, keeps no failed one, and takes its
models with it when it is dropped.
"""

import gc
import math
import random
import sys
import weakref

import pytest

from enstrophy_bounds import (ForcingParams, InvalidRegime, NoBracket,
                              NonConvergence, OutsideDomain, RegimeViolation,
                              branches, critical, full_nse, load_params_file,
                              specfun, subcritical)

from conftest import PRESETS, ln_phi, ln_psi, parabola


def _fresh(params, **over):
    return ForcingParams.from_mapping(dict(params.to_raw(), **over))


# ----------------------------------------------------------------- oracles


def _old_curve_value(ch, ln_e):
    """Chain.curve_value as it was."""
    if ln_e >= ch.peak[1]:
        return ch.value(0, ln_e)
    if ln_e >= ch.ln_floor:
        return ch.value(1, ln_e)
    return ch.value(2, ln_e)


def _old_chain_classify(chain_of):
    """The family classifier as it was: the chain's classify with the
    parabola formed from params and the curve through curve_value."""
    def classify(e, E, params):
        ch = chain_of(params)
        if not (0.0 < e < math.inf and 0.0 < E < math.inf):
            raise OutsideDomain("classification needs e > 0 and E > 0")
        ch.require_curl()
        p = ch.params
        if p.nu * E < 4.0 * p.f_norm * math.sqrt(e):
            return "I"
        ln_e = math.log(e)
        if ln_e > ch.ln_e0:
            return "II"
        return "III" if math.log(E) >= _old_curve_value(ch, ln_e) else "II"
    return classify


def _psi(E, params):
    return math.exp(ln_psi(math.log(E), params))


def _apex_E(e, geo, params):
    return math.exp(ln_phi(math.log(e), math.log(geo.e1), math.log(geo.E1),
                           params))


def _old_classify_full(e, E, params):
    """classify_full as it was, through the pointwise curve functions."""
    if not (0.0 < e < math.inf and 0.0 < E < math.inf):
        raise OutsideDomain("classification needs e > 0 and E > 0")
    geo = full_nse.geometry(params)
    par = parabola(e, params)
    if e <= _psi(E, params) and E >= par:
        return "IV"
    if E < par:
        return "I"
    if e < geo.e1:
        return "II" if E > geo.E1 else "III"
    if e <= geo.e2:
        return "II" if E > _apex_E(e, geo, params) else "III"
    return "II"


_MODELS = {
    "critical": (critical.classify_critical,
                 _old_chain_classify(critical.chain)),
    "subcritical": (subcritical.classify_subcritical,
                    _old_chain_classify(subcritical.chain)),
    "full": (full_nse.classify_full, _old_classify_full),
}


def _outcome(classify, e, E, params):
    try:
        return classify(e, E, params)
    except Exception as exc:  # a refusal must match in type and message
        return type(exc), str(exc)


# ------------------------------------------------------------------ points


_EDGES = (5e-324, 2.2250738585072014e-308, 1e-300, 1e-100, 1e-10, 0.5, 1.0,
          2.0, 1e10, 1e100, 1e300, sys.float_info.max)
_INVALID = (0.0, -1.0, math.inf, -math.inf, math.nan)


def _around(x):
    return math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)


def _near(e, E):
    """(e, E) and its neighbours one ulp away in either coordinate."""
    return [(a, b) for a in _around(e) for b in _around(E)]


def _exp(v):
    """exp(v) where that is a positive float, else None."""
    return math.exp(v) if -745.0 < v < 709.0 else None


def _whole_range(rng):
    pts = [(e, E) for e in _EDGES for E in _EDGES]
    pts += [(10.0 ** rng.uniform(-323.0, 308.2),
             10.0 ** rng.uniform(-323.0, 308.2)) for _ in range(100)]
    pts += [(x, 1.0) for x in _INVALID] + [(1.0, x) for x in _INVALID]
    return pts


def _branch_bounds(ch, k, lo, hi):
    """(e, lower, upper) at 12 abscissas across [lo, hi] that are floats:
    branch k's envelope bounds in ln E, (a ln e - b e + lead)/p and
    (a ln e - b e + top)/p, between which Chain.classify evaluates the
    branch's solution."""
    branch = ch.prepared(k)
    lead, top = branch.lead, branch.top
    f, q = ch.fields[k], 1.0 / ch.fields[k].p
    lo, hi = max(lo, -744.0), min(hi, 709.0)
    out = []
    for i in range(12) if lo <= hi else ():
        e = math.exp(lo + (hi - lo) * i / 11.0)
        v = math.log(e)
        base = f.a * v - f.b * math.exp(v)
        out.append((e, (base + lead) * q, (base + top) * q))
    return out


def _bound_points(ch, k, lo, hi):
    """Points on branch k's two bounds (_branch_bounds) and one ulp either
    side, and a relative 1e-12 and 1e-10 either side of the upper one,
    where its margin lies."""
    pts = []
    try:
        bounds = _branch_bounds(ch, k, lo, hi)
    except Exception:
        return pts
    for e, low, up in bounds:
        E_low, E_up = _exp(low), _exp(up)
        if E_low is not None:
            pts += _near(e, E_low)
        if E_up is not None:
            pts += _near(e, E_up)
            pts += [(e, E_up * s) for s in (1.0 - 1e-10, 1.0 - 1e-12,
                                            1.0 + 1e-12, 1.0 + 1e-10)]
    return pts


def _chain_points(params, chain_of, assemble, rng):
    """Points on and next to every boundary of the family's map: the
    parabola, e0, each branch's envelope bounds, the peak and floor
    abscissas, the curve itself and the assembly's samples. Whatever the
    probe's chain refuses is skipped."""
    pts = []
    p = _fresh(params)  # a probe, so neither side sees it resolve
    try:
        ch = chain_of(p)
        ln_e0 = math.log(p.e0)
    except Exception:
        return pts
    for k in range(-30, 3):  # the parabola, nu E = 4 f sqrt(e)
        e = p.e0 * 10.0 ** k
        pts += _near(e, 4.0 * p.f_norm * math.sqrt(e) / p.nu)
    for E in (1e-300, ch.E0, 2.0 * ch.E0, 1e300):
        pts += _near(p.e0, E)
    try:
        _, ln_peak, ln_E_peak = ch.peak
        ln_floor = ch.ln_floor
    except Exception:
        # the rise's anchor needs no breakpoint
        return pts + _bound_points(ch, 0, ln_e0 - 46.0, ln_e0)
    for k, lo, hi in ((0, ln_peak, ln_e0), (1, ln_floor, ln_peak),
                      (2, ln_floor - 46.0, ln_floor)):
        pts += _bound_points(ch, k, lo, hi)
    for v, ln_E in ((ln_peak, ln_E_peak), (ln_floor, math.log(ch.floor))):
        e = _exp(v)
        if e is not None:
            for E in (_exp(ln_E), 1e-300, 1e300):
                if E is not None:
                    pts += _near(e, E)
    lo = max(ln_floor - 46.0, -744.0)
    for i in range(41):  # on the curve and a relative 1e-12 either side
        v = lo + (ln_e0 - lo) * i / 40.0
        try:
            E = _exp(ch.curve_value(v))
        except Exception:
            continue
        if E is not None:
            pts += [(math.exp(v), E * s) for s in (1.0 - 1e-12, 1.0 + 1e-12)]
            pts += _near(math.exp(v), E)
    try:
        bundle = assemble(p, 64)
    except Exception:
        return pts
    for seg in bundle.segments:
        for v, ln_E in zip(seg.ln_e, seg.ln_E):
            e, E = _exp(v), _exp(ln_E)
            if e is not None and E is not None:
                pts += [(e, a) for a in _around(E)]
    rng.shuffle(pts)
    return pts


def _full_points(params, rng):
    """Points on and next to the parabola, the nose, the apex level, the
    apex funnel, e1 and e2, and the assembly's samples."""
    pts = []
    p = _fresh(params)
    try:
        geo = full_nse.geometry(p)
    except Exception:
        return pts
    for k in range(-30, 3):
        e = geo.e0 * 10.0 ** k
        pts += _near(e, parabola(e, p))
    for i in range(-24, 25):
        E = geo.E1 * 10.0 ** (i / 8.0)
        pts += _near(_psi(E, p), E)
    for k in range(1, 20):
        pts += _near(geo.e1 * 10.0 ** -k, geo.E1)
    for e in (geo.e1, geo.e2):
        for E in (geo.E1, 2.0 * geo.E1, parabola(e, p), 1e300):
            pts += _near(e, E)
    for i in range(41):
        e = geo.e1 + (geo.e2 - geo.e1) * i / 40.0
        try:
            E = _apex_E(e, geo, p)
        except Exception:
            continue
        pts += [(e, E * s) for s in (1.0 - 1e-12, 1.0 + 1e-12)]
        pts += _near(e, E)
    try:
        bundle = full_nse.assemble_full(p, 64)
    except Exception:
        return pts
    for seg in bundle.segments:
        for v, ln_E in zip(seg.ln_e, seg.ln_E):
            e, E = _exp(v), _exp(ln_E)
            if e is not None and E is not None:
                pts += [(e, a) for a in _around(E)]
    rng.shuffle(pts)
    return pts


# ------------------------------------------------------------- parameters


def _load(name):
    return load_params_file(str(PRESETS / f"{name}.json"))


def _draws():
    """(model, params): both presets, 20 seeded draws per model in the
    benchmark's ranges, and sets that refuse at each stage."""
    fig2, fig3 = _load("fig2"), _load("fig3")
    rng = random.Random(25)
    sets = [("critical", fig2), ("subcritical", fig3),
            ("full", fig2), ("full", fig3)]
    for _ in range(20):
        sets.append(("critical", _fresh(
            fig2, f_norm=rng.uniform(1.5, 5.0),
            curlF_norm=math.exp(rng.uniform(math.log(5.0), math.log(400.0))),
            eps=rng.uniform(0.15, 0.25), delta=rng.uniform(0.3, 0.45))))
        sets.append(("subcritical", _fresh(
            fig3, r=rng.uniform(0.51, 1.0), f_norm=rng.uniform(2.0, 100.0),
            curlF_norm=400.0)))
        sets.append(("full", _fresh(
            rng.choice((fig2, fig3)), f_norm=rng.uniform(1.5, 100.0),
            eta=rng.uniform(1.05, 3.0))))
    sets += [
        ("critical", _fresh(fig2, curlF_norm=0.1)),      # curl below floor
        ("critical", _fresh(fig2, curlF_norm=0.0)),      # tail c = 0
        ("critical", _fresh(fig2, c_omega=1e11)),        # floor too deep
        ("critical", _fresh(fig2, f_norm=0.04)),         # e0 below e_a
        ("critical", _fresh(fig2, f_norm=0.0)),          # no anchor
        ("critical", _fresh(fig2, f_norm=400.0)),        # series refuses
        ("critical", fig3),                              # wrong family
        ("subcritical", _fresh(fig3, c=0.0)),            # no production
        ("subcritical", _fresh(fig3, r=1.0)),            # curl below floor
        ("subcritical", _fresh(fig3, c_omega=6e10)),     # floor too deep
        ("subcritical", fig2),                           # wrong family
        # floor crossings inside float range, so e can sit on them
        ("subcritical", _fresh(fig3, r=0.975, f_norm=1.54, c=0.0535,
                               curlF_norm=4113.0, mu=0.1355)),
        ("subcritical", _fresh(fig3, r=0.669, f_norm=1.17, c=0.0185,
                               curlF_norm=481.5, mu=0.1019)),
        ("full", _fresh(fig2, eta=2.5)),                 # parabola tops apex
        ("full", _fresh(fig2, eta=40.0)),                # eta too steep
        ("full", _fresh(fig2, f_norm=0.0)),              # no anchor
        ("full", _fresh(fig2, f_norm=1e200)),            # e0 out of range
    ]
    return sets


_SETS = _draws()


def _points(index):
    model, params = _SETS[index]
    rng = random.Random(f"classify:{index}")
    pts = _whole_range(rng)
    if model == "full":
        return pts + _full_points(params, rng)
    family = critical if model == "critical" else subcritical
    assemble = (critical.assemble_critical if model == "critical"
                else subcritical.assemble_subcritical)
    return pts + _chain_points(params, family.chain, assemble, rng)


@pytest.mark.parametrize("index", range(len(_SETS)))
def test_classify_matches_the_pointwise_classifier(index):
    model, params = _SETS[index]
    new, old = _MODELS[model]
    p_new, p_old = _fresh(params), _fresh(params)
    for e, E in _points(index):
        got = _outcome(new, e, E, p_new)
        want = _outcome(old, e, E, p_old)
        assert got == want, (model, e, E)


def test_points_reach_every_label_and_refusal():
    # the sets above are no use unless they reach every outcome
    seen = set()
    for index, (model, params) in enumerate(_SETS):
        new, _ = _MODELS[model]
        p = _fresh(params)
        for e, E in _points(index):
            got = _outcome(new, e, E, p)
            seen.add((model, got if isinstance(got, str) else got[0]))
    for model, labels in (("critical", "I II III"),
                          ("subcritical", "I II III"),
                          ("full", "I II III IV")):
        for label in labels.split():
            assert (model, label) in seen
    for outcome in (("critical", InvalidRegime), ("critical", NoBracket),
                    ("critical", RegimeViolation),
                    ("critical", OutsideDomain),
                    ("subcritical", InvalidRegime),
                    ("subcritical", NoBracket), ("full", NoBracket),
                    ("full", RegimeViolation), ("full", InvalidRegime)):
        assert outcome in seen


# ------------------------------------------------------- the envelope test


class _Reached(Exception):
    """A branch's solution was evaluated, or a branch prepared."""


def _reach(*args):
    raise _Reached


@pytest.mark.parametrize("model, preset", [("critical", "fig2"),
                                           ("subcritical", "fig3")])
def test_only_points_inside_the_band_reach_the_solution(model, preset,
                                                         monkeypatch):
    # once the peak and the floor are solved and every branch is prepared,
    # Branch.ln_y and Chain.prepared raise: a point clear of a
    # branch's envelope bounds keeps the label it gets unpatched, and a
    # point between them (above the parabola) evaluates the solution
    family = critical if model == "critical" else subcritical
    p, ref = _fresh(_load(preset)), _fresh(_load(preset))
    ch = family.chain(p)
    ranges = ((0, ch.peak[1], ch.ln_e0), (1, ch.ln_floor, ch.peak[1]),
              (2, ch.ln_floor - 46.0, ch.ln_floor))
    outside, inside = [], []
    for k, lo, hi in ranges:
        for e, low, up in _branch_bounds(ch, k, lo, hi):
            v = math.log(e)
            if v > ch.ln_e0 or k != (0 if v >= ch.peak[1] else 1
                                     if v >= ch.ln_floor else 2):
                continue  # e rounded past e0 or onto the next branch
            outside += [(e, _exp(low - 1e-6 * (1.0 + abs(low)))),
                        (e, _exp(up + 1e-6 * (1.0 + abs(up))))]
            if up - low > 1e-6 * (1.0 + abs(low) + abs(up)):
                inside.append((e, _exp(0.5 * (low + up))))
    labels = {pt: family.chain(ref).classify(*pt)
              for pt in outside + inside if pt[1] is not None}
    monkeypatch.setattr(specfun.Branch, "ln_y", _reach)
    monkeypatch.setattr(branches.Chain, "prepared", _reach)
    decided = set()
    for pt in outside:
        if pt in labels:
            assert ch.classify(*pt) == labels[pt], pt
            decided.add(labels[pt])
    reached = 0
    for pt in inside:
        if labels.get(pt, "I") != "I":
            with pytest.raises(_Reached):
                ch.classify(*pt)
            reached += 1
    assert decided == {"II", "III"} and reached >= 10


def test_bounds_answer_where_the_series_refuses():
    # on fig2 at G = 400 the rise's x = b e0 is past the series cap (1e6),
    # so its solution refuses a point a relative 1e-6 left of e0; the
    # envelope bounds still place that point, on either side of the curve
    p = _fresh(_load("fig2"), f_norm=400.0)
    ch = critical.chain(p)
    e = p.e0 * (1.0 - 1e-6)
    with pytest.raises(NonConvergence):
        ch.value(0, math.log(e))
    assert critical.classify_critical(e, ch.E0, p) == "II"
    assert critical.classify_critical(e, 1e300, p) == "III"


# ------------------------------------------------------------ held models


@pytest.mark.parametrize("family, preset, first", [
    (critical, "fig3", "coefficients"), (subcritical, "fig2", "ln_floors")])
def test_unbuildable_chain_refuses_every_call(family, preset, first,
                                              monkeypatch):
    # a chain that cannot be built (the other family's r) is not kept:
    # each call resolves it again and raises again
    p = _fresh(_load(preset))
    calls = []
    real = getattr(family, first)

    def counting(params):
        calls.append(1)
        return real(params)

    monkeypatch.setattr(family, first, counting)
    classify = (critical.classify_critical if family is critical
                else subcritical.classify_subcritical)
    for _ in range(3):
        with pytest.raises(InvalidRegime):
            classify(1.0, 1.0, p)
    with pytest.raises(InvalidRegime):
        family.chain(p)
    assert len(calls) == 4


def test_unresolvable_geometry_refuses_every_call(monkeypatch):
    p = _fresh(_load("fig2"), eta=2.5)  # the parabola tops the apex
    calls = []
    real = full_nse.solve_e2

    def counting(params):
        calls.append(1)
        return real(params)

    monkeypatch.setattr(full_nse, "solve_e2", counting)
    for _ in range(3):
        with pytest.raises(NoBracket):
            full_nse.classify_full(1.0, 1.0, p)
    with pytest.raises(NoBracket):
        full_nse.geometry(p)
    assert len(calls) == 4


def test_dropped_params_take_their_models_with_them():
    p = _fresh(_load("fig2"))
    assert critical.classify_critical(1.0, 1e40, p) == "III"
    assert full_nse.classify_full(1.0, 1e40, p) == "II"
    held = [weakref.ref(x) for x in (p, critical.chain(p),
                                     full_nse.geometry(p))]
    assert all(ref() is not None for ref in held)
    del p
    gc.collect()
    assert all(ref() is None for ref in held)
