"""End-to-end acceptance gate.

Each criterion prints exactly one verdict line, written past pytest's
capture so it lands in the run log, then asserts it. Tolerances are
pinned here and nowhere else.

test_criterion_06d is EXPECTED TO FAIL: the exponent comparison targets
4 - 2*alpha for the scale-invariant maximum, but both terms of the
curve's lead coefficient scale identically in G, so the true growth is
exactly quadratic. The mismatch is structural, not numerical; it is
reported red rather than hidden (see the project decision log, kept
outside the package).
"""

import math
import time

import numpy as np

from enstrophy_bounds import (
    assemble_critical,
    assemble_full,
    assemble_scaling,
    assemble_subcritical,
    containment_check,
    emax_lower,
    emax_upper,
    eta_min,
    find_e_bar,
    find_e_max,
    find_e_min,
    geometry,
    max_join_gap,
    solve_e2,
)
from enstrophy_bounds.cli import run
from enstrophy_bounds.full_nse import _ln_psi
from enstrophy_bounds.subcritical import sigma_of
from enstrophy_bounds.verify import _rk4_row, _specfun_row, all_pass

from conftest import (PRESETS, e2_lower_bound, halved_curve, params_with,
                      truncation_comparison)

# the bounds and breakpoints are lns; log10 = ln / LN10
LN10 = math.log(10.0)


# one line per criterion, emitted by the terminal-summary hook in
# conftest so capture cannot swallow the passing ones
_VERDICTS: list[str] = []


def _verdict(tag: str, ok: bool, detail: str) -> bool:
    mark = "PASS" if ok else "FAIL"
    _VERDICTS.append(f"ACCEPTANCE {tag}: {mark} ({detail})")
    return ok


def _best_of(fn, n=5):
    fn()  # warmup
    best = math.inf
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _affine_fit(x, y):
    A = np.vstack([np.asarray(x), np.ones(len(x))]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(y), rcond=None)
    resid = np.asarray(y) - A @ coef
    ss_tot = float(np.sum((np.asarray(y) - np.mean(y)) ** 2))
    return float(coef[0]), 1.0 - float(np.sum(resid ** 2)) / ss_tot


def test_criterion_01_lower_bound():
    low = emax_lower(2.0, 0.2, 0.9, 2.0)
    err = abs(low - math.log(5.83e35))
    dt = _best_of(lambda: emax_lower(2.0, 0.2, 0.9, 2.0))
    ok = err < math.log(1.01) and dt < 1e-3
    assert _verdict("1", ok,
                    f"lower 10^{low / LN10:.4f}, off by {err:.2%} in ln, "
                    f"best {dt * 1e6:.0f} us")


def test_criterion_02_upper_bounds():
    up = emax_upper(2.0, 0.2, 0.9, 2.0, eta=4.33, E0_anchor=16.0)
    refined = emax_upper(2.0, 0.2, 0.9, 2.0, eta=0.04, E0_anchor=39311.12)
    err1 = abs(up - math.log(9.13e110))
    err2 = abs(refined - math.log(6.99e39))
    dt = _best_of(lambda: emax_upper(2.0, 0.2, 0.9, 2.0,
                                     eta=4.33, E0_anchor=16.0))
    ok = err1 < math.log(1.02) and err2 < math.log(1.02) and dt < 1e-3
    assert _verdict("2", ok,
                    f"upper 10^{up / LN10:.4f} off {err1:.2%}, refined "
                    f"10^{refined / LN10:.4f} off {err2:.2%}, "
                    f"best {dt * 1e6:.0f} us")


def test_criterion_03_eta_floors():
    hi = eta_min(16.0, 0.2, 1.0)
    lo = eta_min(39311.12, 0.2, 1.0)
    ok = 4.30 <= hi <= 4.36 and 0.0395 <= lo <= 0.0405
    assert _verdict("3", ok, f"eta_min(16) = {hi:.4f}, "
                             f"eta_min(39311.12) = {lo:.6f}")


def test_criterion_04_critical_assembly(fig2):
    t0 = time.perf_counter()
    bundle = assemble_critical(fig2)
    peak = bundle.breakpoints["E_max"] / LN10
    rk4 = _rk4_row(fig2, bundle)
    digression = truncation_comparison(fig2, 20)
    dt = time.perf_counter() - t0
    ok = (35.77 <= peak <= 110.96 and rk4["pass"]
          and digression > 1.0 and dt < 10.0)
    assert _verdict("4", ok,
                    f"log10 E_max = {peak:.4f}, rk4 drift "
                    f"{rk4['worst_margin']:.2e}, 20-term series digresses "
                    f"{digression:.4f} in ln E, {dt:.2f} s")


def test_criterion_05_series_grid():
    t0 = time.perf_counter()
    row = _specfun_row()
    dt = time.perf_counter() - t0
    ok = row["pass"] and dt < 1.0
    assert _verdict("5", ok, f"{row['samples']} grid points, worst rel "
                             f"{row['worst_margin']:.2e}, {dt:.2f} s")


def test_criterion_06a_peak_exponent(fig2):
    g2, lns = [], []
    for g in (2.0, 3.0, 4.0):
        _, E_max = find_e_max(params_with(fig2, f_norm=g))
        g2.append(g * g)
        lns.append(E_max)
    slope, r2 = _affine_fit(g2, lns)
    ok = r2 >= 0.99
    assert _verdict("6a", ok, f"ln E_max vs G^2: slope {slope:.3f}, "
                              f"R^2 = {r2:.7f}")


def test_criterion_06b_floor_exponent(fig2):
    g2, lns = [], []
    for g in (2.0, 3.0, 4.0):
        g2.append(g * g)
        lns.append(find_e_min(params_with(fig2, f_norm=g)))
    slope, r2 = _affine_fit(g2, lns)
    ok = slope < 0.0 and r2 >= 0.99
    assert _verdict("6b", ok, f"ln e_min vs G^2: slope {slope:.1f}, "
                              f"R^2 = {r2:.7f}")


def test_criterion_06c_subcritical_exponent(fig2):
    worst = 0.0
    for r in (0.51, 0.6, 1.0):
        lgs, lns = [], []
        for g in (10.0, 100.0, 1000.0):
            _, E_bar = find_e_bar(params_with(fig2, r=r, f_norm=g))
            lgs.append(math.log(g))
            lns.append(E_bar)
        slope, _ = _affine_fit(lgs, lns)
        worst = max(worst, abs(slope / (2.0 / sigma_of(r)) - 1.0))
    ok = worst <= 0.03
    assert _verdict("6c", ok, f"ln E_bar vs ln G across r: worst slope "
                              f"error {worst:.3%} against 2/sigma")


def test_criterion_06d_scaling_exponent(fig2):
    lgs, lns = [], []
    for g in (10.0, 100.0, 1000.0):
        p = params_with(fig2, f_norm=g)
        lgs.append(math.log(g))
        lns.append(assemble_scaling(p).breakpoints["E_max"])
    slope, _ = _affine_fit(lgs, lns)
    # alpha = (1 - s)/2, s = eps0 c' + delta
    alpha = 0.5 * (1.0 - (fig2.eps0 * fig2.c_omega_prime + fig2.delta))
    target = 4.0 - 2.0 * alpha
    err = abs(slope / target - 1.0)
    ok = err <= 0.03
    assert _verdict("6d", ok, f"measured slope {slope:.4f} vs target "
                              f"{target:.4f} (4 - 2 alpha), off {err:.1%}; "
                              f"true closed-form growth is G^2")


def test_criterion_07_containment(fig2, fig3):
    t0 = time.perf_counter()
    strong = params_with(fig2, f_norm=100.0)
    reports = [
        containment_check(assemble_critical(fig2), fig2, n_points=1000),
        containment_check(assemble_subcritical(fig3), fig3, n_points=1000),
        containment_check(assemble_full(strong), strong, n_points=1000),
    ]
    clean = all(all_pass(r) for r in reports)
    control = containment_check(halved_curve(assemble_critical(fig2)),
                                fig2, n_points=1000)
    dt = time.perf_counter() - t0
    ok = clean and not all_pass(control) and dt < 30.0
    worst = min(row["worst_margin"] for r in reports for row in r)
    assert _verdict("7", ok,
                    f"3 models contained (worst margin {worst:.1e}), "
                    f"halved control flagged, {dt:.1f} s")


def test_criterion_08_full_nse_geometry(fig2):
    floors_ok = True
    for g in (10.0, 100.0, 1000.0):
        p = params_with(fig2, f_norm=g)
        floors_ok &= e2_lower_bound(p) <= solve_e2(p)
    # the nose through the constants the region holds, and the wall's
    # anchor as assemble_full writes it
    geo = geometry(fig2)
    grid = np.exp(np.linspace(math.log(geo.E1) - 3.0,
                              math.log(geo.E1) + 3.0, 201))
    vals = [math.exp(_ln_psi(math.log(E), geo.nose)) for E in grid]
    k = int(np.argmax(vals))
    unimodal = (all(a < b for a, b in zip(vals[:k], vals[1:k + 1]))
                and all(a > b for a, b in zip(vals[k:], vals[k + 1:])))
    anchor = math.exp(assemble_full(fig2).segment("phi1").ln_E[-1])
    anchor_ok = abs(anchor / geo.E0 - 1.0) < 1e-12
    ok = floors_ok and unimodal and anchor_ok
    assert _verdict("8", ok,
                    f"e2 floor respected at G in {{10,100,1000}}, nose "
                    f"unimodal on 201-point grid, anchor reproduced to "
                    f"{abs(anchor / geo.E0 - 1.0):.1e} relative")


def test_criterion_09_joins_and_parabola(fig2, fig3):
    t0 = time.perf_counter()
    bundles = [assemble_critical(params_with(fig2, f_norm=g))
               for g in (2.0, 3.0, 4.0)]
    # curl forcing strong enough that the tail floor stays curl-led at r = 1
    bundles += [assemble_subcritical(params_with(fig3, r=r, f_norm=g,
                                           curlF_norm=400.0))
                for r in (0.51, 0.6, 1.0) for g in (10.0, 100.0, 1000.0)]
    worst_gap = max(max_join_gap(b) for b in bundles)
    par_ok = True
    for b in bundles:
        p = b.params
        ln_par = math.log(4.0 * p.f_norm / p.nu)
        for seg in b.main_segments():
            if seg.tag not in ("phi2", "phi3"):
                continue
            for v, ln_E in zip(seg.ln_e, seg.ln_E):
                par_ok &= ln_E + 1e-9 >= ln_par + 0.5 * v
    dt = time.perf_counter() - t0
    ok = worst_gap <= 1e-8 and par_ok
    assert _verdict("9", ok,
                    f"{len(bundles)} bundles, worst join gap "
                    f"{worst_gap:.1e}, parabola condition held at every "
                    f"phi2/phi3 sample, {dt:.1f} s")


def test_criterion_10_determinism(tmp_path):
    same = True
    for fmt in ("csv", "json"):
        outs = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.{fmt}"
            code = run(["curve", "critical",
                        "--params", str(PRESETS / "fig2.json"),
                        "--format", fmt, "--out", str(path)])
            same &= code == 0
            outs.append(path.read_bytes())
        same &= outs[0] == outs[1]
    assert _verdict("10", same, "curve critical reruns byte-identical, "
                                "CSV and JSON")
