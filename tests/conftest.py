import ast
import importlib.util
import math
import sys
from functools import reduce
from pathlib import Path

import pytest

from enstrophy_bounds import ForcingParams, OutsideDomain, load_params_file
from enstrophy_bounds.critical import chain
from enstrophy_bounds.curves import CurveBundle, CurveSegment, log_grid
from enstrophy_bounds.full_nse import _apex_t, _ln_apex
from enstrophy_bounds.logscalar import ln_add
from enstrophy_bounds.params import exp_clamped
from enstrophy_bounds.solver import rk4_path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "presets"


def tool(name):
    """The script tools/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def names_in(tree):
    """Every name, attribute and imported name in the syntax tree tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def params_with(params, **over):
    """A fresh parameter set: params' raw values with over's replacing
    theirs."""
    raw = params.to_raw()
    raw.update(over)
    return ForcingParams.from_mapping(raw)


# The unconditional region's curves as pointwise oracles, every constant
# formed in the call: the library forms them once per record
# (full_nse._nose, full_nse.Funnel), and must give these bits.


def ln_psi(ln_E, params):
    """ln of the nose nu^4 E^2 / (2 (nu f)^2 + c1 E^3) at E = exp(ln_E)."""
    ln_nu = math.log(params.nu)
    return 4.0 * ln_nu + 2.0 * ln_E - ln_add(
        math.log(2.0) + 2.0 * (ln_nu + math.log(params.f_norm)),
        math.log(params.c1) + 3.0 * ln_E)


def parabola(e, params):
    """The parabola E = eta (f/nu) sqrt(e) at e."""
    return params.eta * params.f_norm / params.nu * math.sqrt(e)


def alpha_ln_beta(params):
    """The funnel's alpha = eta/(eta - 1) and ln beta."""
    eta = params.eta
    return eta / (eta - 1.0), math.log(4.0 * params.c1 / (3.0 * eta - 1.0)) \
        - 3.0 * math.log(params.nu) - math.log(params.f_norm)


def ln_phi(v, ln_e0, ln_E0, params):
    """ln E at ln e = v of the funnel through (exp(ln_e0), exp(ln_E0)):
    E^-2 = beta sqrt(e) (t u + 1 - u), u = (e0/e)^(alpha + 1/2)."""
    if v == ln_e0:
        return ln_E0
    alpha, ln_beta = alpha_ln_beta(params)
    ln_u = (alpha + 0.5) * (ln_e0 - v)
    ln_t = -0.5 * ln_e0 - 2.0 * ln_E0 - ln_beta
    shifted = math.exp(ln_t + ln_u) - math.expm1(ln_u)
    if shifted <= 0.0:
        raise OutsideDomain(
            f"e = exp({v}) is at or left of the funnel asymptote")
    return -0.5 * (ln_beta + 0.5 * v + math.log(shifted))


# The checks that acceptance criteria 4, 7 and 8 run on the library's
# curves; no command runs them.


def truncation_comparison(params, n_terms):
    """Max |Delta ln E| between the n-term truncated-series curve and an
    adaptive Dormand-Prince 5(4) reference (solver.rk4_path) landing on
    8193 evenly spaced energies from e0 to 1.05 e_a, both anchored at the
    series initial value E0 = 2 nu^3 lam^(1/2) G^2.

    Measures how badly a short series truncation diverges from the true
    solution as the curve climbs toward the barrier. The truncation is
    g_N(alpha, x) = sum_{n<N} x^n / (n! (alpha + n)), summed here in logs
    with no convergence check and no cap on x; n_terms is at least 1.
    """
    ch = chain(params)
    e0, ln_e0 = params.e0, ch.ln_e0
    E0s = 2.0 * params.nu ** 3 * math.sqrt(params.lam) * params.grashof ** 2
    a, b, c = ch.rise.a, ch.rise.b, ch.rise.c
    alpha = 1.0 - a

    def s_trunc(e):
        # ln of the truncated weighted-integral antiderivative
        # e^alpha g_N(alpha, be)
        ln_x = math.log(b * e)
        return alpha * math.log(e) + reduce(ln_add, (
            n * ln_x - math.lgamma(n + 1.0) - math.log(alpha + n)
            for n in range(n_terms)))

    s_ref = s_trunc(e0)
    lead = b * e0 - a * ln_e0 + math.log(E0s) * 0.6

    es = log_grid(e0, ch.rise.e_a * 1.05, 8193)
    lnEs = rk4_path(ch.rise.dlnE_de(), es, math.log(E0s), tol=1e-7)
    worst = 0.0
    for e, ln_E in zip(es, lnEs):
        # s_trunc grows with e, so for e <= e0 the difference is >= 0
        d = s_trunc(e) - s_ref
        ln_diff = -math.inf if d == 0.0 else s_ref + math.log(-math.expm1(d))
        inner = ln_add(lead, math.log(c) + ln_diff)
        ln_trunc = (5.0 / 3.0) * (a * math.log(e) - b * e + inner)
        worst = max(worst, abs(ln_trunc - ln_E))
    return worst


def halved_curve(curve):
    """Negative-control probe: the same curve pulled inward by a factor 2.

    A weak control of verify's rows: it sees phi1 only. On fig2 (G = 2)
    the halved bundle fails the containment and closed_form_vs_rk4 rows
    of phi1 and no other; phi2 or phi3 halved alone fails no row (on
    fig3, phi2 halved fails its containment row). Above G ~ 10 every
    term but the drive is homogeneous of degree 2 in E, so halving E
    leaves the margin where it was. Rows that check phi2 and phi3
    against their slope field are an open item (ROADMAP.md, item 3).
    """
    segs = []
    for seg in curve.segments:
        if seg.tag.startswith("phi"):
            segs.append(CurveSegment(seg.tag, seg.ln_e,
                                     [v - math.log(2.0) for v in seg.ln_E],
                                     seg.dlnE_dlne))
        else:
            segs.append(seg)
    return CurveBundle(curve.model, curve.params, segs,
                       dict(curve.breakpoints), list(curve.flags))


def e2_lower_bound(params):
    """Sign-aware closed-form floor for the e2 root,
    sign(delta) |delta|^(1/p) (nu f)^(2/3)/lam with delta = e1^p (t1 - 1).

    Nonpositive (hence vacuous) whenever delta is negative, that is for
    every eta at which e2 exists (eta < sqrt(6), see full_nse.solve_e2).
    """
    alpha = params.eta / (params.eta - 1.0)
    d = _apex_t(params.eta) - 1.0
    e1 = exp_clamped(_ln_apex(params)[0])
    scale = (params.nu * params.f_norm) ** (2.0 / 3.0) / params.lam
    return math.copysign(e1 * abs(d) ** (1.0 / (alpha + 0.5)) * scale, d)


@pytest.fixture(scope="session")
def fig2():
    return load_params_file(str(PRESETS / "fig2.json"))


@pytest.fixture(scope="session")
def fig3():
    return load_params_file(str(PRESETS / "fig3.json"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance verdicts collect during the run; print them here so
    # output capture cannot swallow the passing ones
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "_VERDICTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)
