"""Cross-checks of the verification harness itself, controls included.

A verifier that cannot fail is worthless, so half of this file feeds it
deliberately broken inputs (halved curves, loosened quadrature) and
demands a red report.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from enstrophy_bounds import (
    ForcingParams,
    InvalidRegime,
    OutsideDomain,
    assemble_critical,
    assemble_full,
    assemble_scaling,
    assemble_subcritical,
    containment_check,
    oracle_suite,
)
from enstrophy_bounds import branches, scaling, specfun, subcritical
from enstrophy_bounds.cli import run
from enstrophy_bounds.curves import CurveBundle, CurveSegment, log_grid
from enstrophy_bounds.solver import rk4_path
from enstrophy_bounds.verify import (_ALPHAS, _SCAN_HALF_WIDTH, _SCAN_N,
                                     _XS, _g_quadrature, _margins,
                                     _rate_tables, _rk4_row, _scan_row,
                                     _spread_indices, all_pass, report)

from conftest import ROOT, halved_curve, params_with


# ----------------------------------------------------------- containment


def test_containment_critical(fig2):
    report = containment_check(assemble_critical(fig2, samples=256), fig2,
                               n_points=200)
    assert {row["segment"] for row in report} == {"phi1", "phi2", "phi3"}
    assert all_pass(report)
    for row in report:
        assert row["check"] == "containment"
        assert row["samples"] > 0
        assert row["worst_margin"] > -1e-9


def test_containment_subcritical(fig3):
    report = containment_check(assemble_subcritical(fig3, samples=256), fig3,
                               n_points=200)
    assert all_pass(report)


def test_containment_refuses_the_other_familys_parameters(fig2, fig3):
    # the rate tables take their constants from the bundle's model and the
    # floor from that family's chain, so a bundle checked against the
    # other family's parameter set is refused, never mixed
    with pytest.raises(InvalidRegime) as refused:
        containment_check(assemble_critical(fig2), fig3)
    assert str(refused.value) == \
        "critical curve family needs r = 1/2, got r = 0.51"
    with pytest.raises(InvalidRegime) as refused:
        containment_check(assemble_subcritical(fig3), fig2)
    assert str(refused.value) == (
        "subcritical curve family needs r > 1/2 strictly; "
        "the critical module owns r = 1/2")


def test_containment_full_high_forcing(fig2):
    strong = params_with(fig2, f_norm=100.0)
    report = containment_check(assemble_full(strong, samples=256), strong,
                               n_points=200)
    assert {row["segment"] for row in report} == {"phi1", "phi2"}
    assert all_pass(report)


@pytest.mark.parametrize("over", [{"f_norm": 3000.0}, {"eta": 1.0 + 1e-15}],
                         ids=["large-grashof", "eta-near-one"])
def test_containment_notes_a_collapsed_wall(fig2, over):
    # the wall keeps only its distinct abscissas; here that is its anchor
    # alone, so the phi1 row checks one point and says so
    params = params_with(fig2, **over)
    bundle = assemble_full(params)
    rows = containment_check(bundle, params, 512)
    assert [len(seg.ln_e) for seg in bundle.main_segments()] == [1, 512]
    assert rows[0] == {"check": "containment", "segment": "phi1",
                       "samples": 1, "worst_margin": rows[0]["worst_margin"],
                       "pass": True,
                       "note": "segment collapsed onto its anchor: 1 sample"}
    assert "note" not in rows[1]
    # a wall of two abscissas or more has no note
    rows = containment_check(assemble_full(fig2), fig2, 512)
    assert not any("note" in row for row in rows)


def test_containment_rejects_unknown_model(fig2):
    bundle = assemble_scaling(fig2, samples=64)
    with pytest.raises(OutsideDomain, match="'scaling'") as info:
        containment_check(bundle, fig2)
    assert info.value.exit_code == 1


def _unique_linspace(total, n):
    m = min(n, total)
    return np.unique(np.linspace(0, total - 1, m).round().astype(int)).tolist()


@pytest.mark.parametrize("total", [1, 2, 3, 7, 512])
def test_spread_indices_match_numpy_unique(total):
    for n in range(2 * total + 3):
        assert _spread_indices(total, n) == _unique_linspace(total, n)


@given(st.integers(1, 5000), st.data())
def test_spread_indices_match_numpy_unique_at_any_size(total, data):
    n = data.draw(st.integers(0, 2 * total))
    assert _spread_indices(total, n) == _unique_linspace(total, n)


def test_spread_indices_reject_a_negative_count():
    with pytest.raises(OutsideDomain):
        _spread_indices(512, -1)


# ------------------------------------------------- halved-curve control


def test_halved_curve_shifts_only_phi_segments(fig2):
    bundle = assemble_critical(fig2, samples=64)
    halved = halved_curve(bundle)
    for orig, cut in zip(bundle.segments, halved.segments):
        assert cut.tag == orig.tag
        shift = float(orig.ln_E[0] - cut.ln_E[0])
        if orig.tag.startswith("phi"):
            assert shift == pytest.approx(math.log(2.0), abs=1e-12)
        else:
            assert shift == 0.0


def test_containment_full_near_exact_cancellation(fig2):
    # a margin here cancels to within one ulp of 1 in log-domain arithmetic
    p = params_with(fig2, f_norm=0.8029959096727133)
    report = containment_check(assemble_full(p), p)
    assert {row["segment"] for row in report} == {"phi1", "phi2"}


def test_halved_critical_curve_flags(fig2):
    report = containment_check(
        halved_curve(assemble_critical(fig2, samples=256)), fig2,
        n_points=200)
    assert not all_pass(report)
    by_tag = {row["segment"]: row for row in report}
    # the rise branch carries the whole deficit at critical forcing; the
    # descent deficits sit below the conditioning gauge and stay quiet
    assert not by_tag["phi1"]["pass"]
    # orders of magnitude beyond the tolerance, not a borderline trip
    assert by_tag["phi1"]["worst_margin"] < -1e-3


def test_halved_subcritical_curve_flags(fig3):
    report = containment_check(
        halved_curve(assemble_subcritical(fig3, samples=256)), fig3,
        n_points=200)
    by_tag = {row["segment"]: row for row in report}
    assert not by_tag["phi1"]["pass"]
    assert not by_tag["phi2"]["pass"]
    assert by_tag["phi1"]["worst_margin"] < -1e-3


def test_halved_subcritical_constant_flags(fig3, monkeypatch):
    # containment writes C_s out from params: a curve built on a halved
    # C_s fails the rise, as one built on a halved critical C does
    big_c_s = subcritical.big_c_s
    monkeypatch.setattr(subcritical, "big_c_s", lambda p: 0.5 * big_c_s(p))
    rows = report(ForcingParams.from_mapping(fig3.to_raw()))
    # the family's rows come first, then the unconditional region's
    family = {row["segment"]: row for row in rows[:3]}
    assert not family["phi1"]["pass"]
    assert family["phi1"]["worst_margin"] < -0.1


def test_rate_tables_never_read_the_subcritical_constants(fig3,
                                                          monkeypatch):
    bundle = assemble_subcritical(fig3, samples=64)
    want = _rate_tables(bundle, fig3)

    def forbidden(*args, **kwargs):
        raise AssertionError("the rate tables read the construction")

    for name in ("big_c_s", "sigma_of"):
        monkeypatch.setattr(subcritical, name, forbidden)
    assert _rate_tables(bundle, fig3) == want


# ----------------------------------------------------------- oracle side


def test_oracle_suite_critical(fig2):
    report = oracle_suite(fig2, assemble_critical(fig2))
    assert all_pass(report)
    checks = {row["check"] for row in report}
    assert checks == {"series_vs_quadrature", "closed_form_vs_rk4",
                      "root_vs_gridscan"}
    scans = {row["segment"] for row in report
             if row["check"] == "root_vs_gridscan"}
    assert scans == {"e_max", "e_min", "e2"}


def test_oracle_suite_subcritical(fig3):
    report = oracle_suite(fig3, assemble_subcritical(fig3))
    assert all_pass(report)
    scans = {row["segment"] for row in report
             if row["check"] == "root_vs_gridscan"}
    assert scans == {"e_bar", "e_under", "e2"}


def test_oracle_suite_root_on_grid_midpoint(fig3):
    # the claimed root sits on the scan grid's middle node; the scan must
    # count it as inside its own bracket
    draw = params_with(fig3, r=0.5237077422010827, f_norm=24.501293065148346)
    report = oracle_suite(draw, assemble_subcritical(draw))
    assert all_pass(report)
    assert all(type(row["pass"]) is bool for row in report)
    json.dumps(report)


def test_oracles_never_reach_the_construction(fig2, fig3, monkeypatch):
    # the references come from the construction first; then every closed
    # form is made to raise and both oracles must still reproduce them
    series = {(a, x): math.exp(specfun.gamma_series_factor(a, x))
              for a in _ALPHAS for x in _XS}
    peaks = []
    for params in (fig2, fig3):
        ch = branches.family(params)
        e_stop, _ = ch.peak_point()
        peaks.append((ch, e_stop, ch.value(0, math.log(e_stop))))

    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle called the construction")

    for module, name in [(specfun, "gamma_series_factor"),
                         (specfun, "weighted_exp_integral_ln"),
                         (specfun, "weighted_exp_integral_to"),
                         (specfun, "Branch"), (branches, "Branch"),
                         (scaling, "Branch")]:
        monkeypatch.setattr(module, name, forbidden)
    for (a, x), want in series.items():
        assert _g_quadrature(a, x) == pytest.approx(want, rel=1e-10)
    for ch, e_stop, ln_E_stop in peaks:
        es = log_grid(ch.params.e0, e_stop, 513)
        ys = rk4_path(ch.rise.dlnE_de(), es, math.log(ch.E0), tol=1e-12)
        assert es[-1] == e_stop
        assert ys[-1] == pytest.approx(ln_E_stop, abs=1e-6)


@pytest.mark.parametrize("where", [0, 300, 511],
                         ids=["peak", "middle", "anchor"])
@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_rk4_row_checks_the_written_rise(request, preset, where,
                                         monkeypatch):
    # the row reads the phi1 samples that curve writes: one of them moved
    # by 1e-5 in ln E fails it, and only it. It evaluates no closed form.
    params = request.getfixturevalue(preset)
    bundle = branches.family(params).assemble()
    segs = []
    for seg in bundle.segments:
        if seg.tag == "phi1":
            ln_E = list(seg.ln_E)
            ln_E[where] += 1e-5
            seg = CurveSegment(seg.tag, seg.ln_e, ln_E, seg.dlnE_dlne)
        segs.append(seg)
    moved = CurveBundle(bundle.model, params, segs, bundle.breakpoints)
    failing = [row for row in oracle_suite(params, moved) if not row["pass"]]
    assert [row["check"] for row in failing] == ["closed_form_vs_rk4"]
    assert failing[0]["worst_margin"] == pytest.approx(1e-5, rel=1e-3)

    def forbidden(*args, **kwargs):
        raise AssertionError("the rk4 row called the construction")

    for module, name in [(specfun, "weighted_exp_integral_ln"),
                         (specfun, "weighted_exp_integral_to"),
                         (specfun, "Branch"), (branches, "Branch"),
                         (scaling, "Branch")]:
        monkeypatch.setattr(module, name, forbidden)
    row = _rk4_row(params, bundle)
    assert row["pass"] and row["samples"] == 512
    assert row["worst_margin"] < 1e-10
    assert not _rk4_row(params, moved)["pass"]


def test_scan_row_rejects_displaced_root():
    center, half_width, n = 0.3, _SCAN_HALF_WIDTH, _SCAN_N
    assert (half_width, n) == (2.0, 201)
    step = 2.0 * half_width / (n - 1)
    on = _scan_row("x", lambda v: v - center, center)
    off = _scan_row("x", lambda v: v - (center + 1.5 * step), center)
    assert on["pass"] is True and on["worst_margin"] == 0.0
    assert off["pass"] is False
    assert off["worst_margin"] == pytest.approx(step, rel=1e-9)


def test_oracle_suite_catches_loose_series(fig2, monkeypatch):
    # cripple the series tolerance: the quadrature comparison and the
    # RK4 comparison must both notice, independently. A fresh set builds
    # its own chain with the loose series, and every value formed with it
    # is held on that set alone, so none outlives this test.
    monkeypatch.setattr(specfun, "_REL_TOL", 1e-2)
    loose = params_with(fig2)
    report = oracle_suite(loose, assemble_critical(loose))
    failing = {row["check"] for row in report if not row["pass"]}
    assert "series_vs_quadrature" in failing
    assert "closed_form_vs_rk4" in failing


@pytest.mark.parametrize("eta, note", [
    (2.5, "NoBracket: funnel/parabola crossing not bracketed beyond the "
          "apex: at eta >= sqrt(6) the parabola tops it"),
    (3.0, "RegimeViolation: eta = 3.0 is at or above the admissible bound "
          "2.72814"),
], ids=["no-bracket", "regime"])
def test_oracle_suite_without_the_region(fig2, eta, note):
    # no e2 to scan: the suite writes a failing e2 row naming the refusal
    params = params_with(fig2, eta=eta)
    report = oracle_suite(params, assemble_critical(params))
    rows = [row for row in report if row["segment"] == "e2"]
    assert rows == [{"check": "root_vs_gridscan", "segment": "e2",
                     "samples": 0, "worst_margin": None, "pass": False,
                     "note": note}]
    assert all(row["pass"] for row in report if row["segment"] != "e2")


def test_report_degenerate_forcing(fig2):
    # no curve to check: report answers with the noted containment row and
    # the special function's row, and runs no oracle that needs a curve
    rows = report(params_with(fig2, f_norm=0.0))
    assert all_pass(rows)
    assert [(row["check"], row["segment"], row.get("note"))
            for row in rows] == [
        ("containment", "", "degenerate forcing, no curve to check"),
        ("series_vs_quadrature", "specfun", None)]


# ------------------------------------------------------ high Grashof number
#
# At r = 1/2, ln E_max and ln e_min grow like G^2: ln e_min is about -1.6e8
# at G = 280, where one ulp of it is 3e-8, thirty times the tolerance.


@pytest.mark.parametrize("g", [130.0, 200.0, 280.0])
def test_verify_passes_at_high_grashof(tmp_path, fig2, g):
    # fig2 has nu = lambda = 1, so f_norm is G
    path = tmp_path / "high.json"
    path.write_text(json.dumps(params_with(fig2, f_norm=g).to_raw()))
    out = tmp_path / "verify.json"
    assert run(["verify", "--params", str(path), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [row["segment"] for row in rows
            if row["check"] == "containment"] == ["phi1", "phi2", "phi3",
                                                  "phi1", "phi2"]
    assert all(row["pass"] for row in rows)


def _tilted(bundle, factor):
    """The same curve with every phi slope scaled by factor."""
    segs = [CurveSegment(seg.tag, seg.ln_e, seg.ln_E,
                         [factor * v for v in seg.dlnE_dlne])
            if seg.tag.startswith("phi") else seg
            for seg in bundle.segments]
    return CurveBundle(bundle.model, bundle.params, segs,
                       dict(bundle.breakpoints), list(bundle.flags))


_TILT_GRID = [math.exp(v) for v in log_grid(math.log(2.0), math.log(280.0), 6)]


@pytest.mark.parametrize("g", _TILT_GRID, ids=lambda g: f"G{g:.3g}")
def test_slope_tilt_is_flagged_at_every_grashof(fig2, g):
    # lhs = slope (E/e) B balances T1 exactly on a constructed curve, so a
    # slope tilted by 1e-6 moves margin/gauge by about 1e-6/2: outward on
    # the rise when the slope shrinks, on the descent and the tail when it
    # grows. The halved curve cannot serve here: above G ~ 10 every term
    # but the drive is homogeneous of degree 2 in E, so E -> E/2 leaves
    # the margin where it was.
    p = params_with(fig2, f_norm=g)
    bundle = assemble_critical(p)
    for factor, outward in ((1.0 + 1e-6, {"phi2", "phi3"}),
                            (1.0 - 1e-6, {"phi1"})):
        rows = containment_check(_tilted(bundle, factor), p, n_points=512)
        assert {row["segment"] for row in rows
                if not row["pass"]} == outward
        for row in rows:
            if row["segment"] in outward:
                assert row["worst_margin"] == pytest.approx(-5e-7, rel=0.02)
            else:
                assert row["worst_margin"] > -1e-15


# ------------------------------------------------ exact arbiter (mpmath)


def _exact_ratio(model, params, tag, ln_e, ln_E, slope):
    """margin / gauge at one sample, from the rate bounds written out once
    more and evaluated at 50 digits: lhs = slope (E/e) B against T1, the
    gauge |lhs| + sum |T1 terms|."""
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        nu, lam, mu, eps = (mpf(v) for v in (params.nu, params.lam,
                                              params.mu, params.eps))
        rho = 2 * eps + mpf(params.delta)
        e, E = mpmath.exp(mpf(ln_e)), mpmath.exp(mpf(ln_E))
        g = mpf(params.f_norm) / (nu ** 2 * lam ** mpf(0.75))
        if model == "full":
            eta = mpf(params.eta)
            pull = nu ** 2 * lam ** mpf(0.75) * g
            b_rate = -2 * (eta - 1) * pull * mpmath.sqrt(e)
            terms = [2 * mpf(params.c1) / nu ** 3 * E ** 3,
                     -eta * pull * E / mpmath.sqrt(e)]
        else:
            c2, r = mpf(params.c2), mpf(params.r)
            quad_b = c2 * mpmath.sqrt(lam) / (eps * nu) \
                if model == "critical" else mpf(0)
            if model == "critical":
                production = 6 * c2 * (mu * lam) ** mpf(0.8) \
                    * nu ** mpf(0.2) / eps ** mpf(0.6) * E ** mpf(1.4)
            else:
                k_r = (lam ** (2 * r) / (eps * nu) ** (3 - 2 * r)) \
                    ** (1 / (1 + 2 * r))
                sigma = mpf(2.0 - (2.0 * params.r - 1.0)
                            / (1.0 + 2.0 * params.r))
                production = 6 * mpf(params.c) * k_r * E ** sigma
            if tag == "phi3":
                production = 6 * mpf(params.curlF_norm) * mpmath.sqrt(E)
            terms = [quad_b * E ** 2, -nu * (1 - rho) / 4 * E ** 2 / e,
                     production]
            big = 1 if tag == "phi1" else 1 + 4 * mpf(params.c_omega)
            b_rate = -nu / 2 * big * E
        lhs = mpf(slope) * E / e * b_rate
        margin = lhs - mpmath.fsum(terms)
        gauge = abs(lhs) + mpmath.fsum(abs(t) for t in terms)
        return margin / gauge


@pytest.mark.parametrize("preset, over", [
    ("fig2", {}), ("fig3", {}), ("fig2", {"f_norm": 280.0}),
], ids=["fig2", "fig3", "fig2-G280"])
def test_margins_match_a_50_digit_arbiter(request, preset, over):
    params = params_with(request.getfixturevalue(preset), **over)
    worst = 0.0
    for bundle in (branches.family(params).assemble(samples=256),
                   assemble_full(params, samples=256)):
        tables = _rate_tables(bundle, params)
        for seg in bundle.main_segments():
            got = list(_margins(seg, tables[seg.tag], 24))
            assert got
            for i, ratio in got:
                want = _exact_ratio(bundle.model, params, seg.tag,
                                    seg.ln_e[i], seg.ln_E[i],
                                    seg.dlnE_dlne[i])
                worst = max(worst, abs(ratio - float(want)))
    assert worst <= 1e-13


# ------------------------------------------------------ pinned verify rows

_VERIFY_ROWS = ROOT / "tests" / "data" / "verify_rows.json"


@pytest.mark.parametrize("name", ["fig2", "fig3", "critical-draw",
                                  "subcritical-draw"])
def test_verify_rows_are_byte_identical(name, tmp_path, capsys):
    # stdout of `verify --points 64` captured before the reference
    # integrators and the samplers were rewritten to form their invariants
    # once; every row, margins included, must come out bit for bit
    case = json.loads(_VERIFY_ROWS.read_text())[name]
    params = tmp_path / f"{name}.json"
    params.write_text(json.dumps(case["params"]))
    code = run(["verify", "--params", str(params), "--points", "64"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]
