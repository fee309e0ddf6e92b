import ast
import math

import pytest

from enstrophy_bounds import (FieldBlowup, NoBracket, NonConvergence,
                              OutsideDomain)
from enstrophy_bounds.curves import log_grid
from enstrophy_bounds.solver import find_root, integrate_adaptive, rk4_path

from conftest import ROOT, names_in


def test_find_root_sqrt2():
    root = find_root(lambda x: x * x - 2.0, 1.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_find_root_decreasing_bracket():
    root = find_root(lambda x: 5.0 - x, 0.0, 20.0)
    assert root == pytest.approx(5.0, abs=1e-10)


def test_find_root_needs_sign_change():
    with pytest.raises(NoBracket):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_refuses_nan():
    # NaN at an endpoint carries no sign; NaN inside stops the search
    with pytest.raises(NoBracket, match=r"^NaN at bracket endpoint: "
                       r"f\(0.0\)=nan, f\(1.0\)=0.5$"):
        find_root(lambda x: math.nan if x == 0.0 else x - 0.5, 0.0, 1.0)
    with pytest.raises(NonConvergence, match=r"^f\(0.5\) is NaN$"):
        find_root(lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,
                  0.0, 1.0)


def test_find_root_gives_up_after_its_iteration_cap():
    # a root at 0 under the flat x^(1/1000), bracketed 300 decades wide:
    # 200 steps do not narrow the bracket to 4 ulps
    with pytest.raises(NonConvergence,
                       match=r"^no root to 4 ulps in 200 iterations$"):
        find_root(lambda x: math.copysign(abs(x) ** 1e-3, x), -1.0, 1e300)


def test_find_root_tolerates_infinite_endpoint():
    # barrier convention: the gap function is -inf at the right edge
    def f(x):
        return 1.5 - x if x < 2.0 else -math.inf
    root = find_root(f, 0.0, 2.0)
    assert root == pytest.approx(1.5, abs=1e-10)


def test_find_root_stops_at_a_few_ulps():
    # flat like the floor gap, with its root 1e-15 right of `root`, at
    # |x| ~ 8e3: the search has to stop within 4 ulps of it before the
    # iterations run out
    root = -8248.908704754842
    got = find_root(lambda x: math.tanh(0.01 * (x - root)) - 1e-17,
                    root - 50.0, root + 50.0)
    assert abs(got - root) <= 4.0 * math.ulp(root)


def test_find_root_closes_after_a_step_onto_the_root():
    # the first false-position step lands on 0.3, within an ulp of the
    # root 0.3 - 1e-18; the next is kept 2 ulps inside the bracket, past
    # the root, so the bracket closes there instead of being halved
    xs = []

    def f(x):
        xs.append(x)
        return (x - 0.3) + 1e-18

    got = find_root(f, 0.0, 1.0)
    assert len(xs) <= 4
    assert abs(got - 0.3) <= 2.0 * math.ulp(0.3)


def test_integrate_smooth():
    got = integrate_adaptive(math.sin)
    assert got == pytest.approx(1.0 - math.cos(1.0), rel=1e-12)


def test_integrate_inverse_sqrt_singularity():
    # endpoint singularity t^(-1/2): exact value 2. The integrand returns
    # inf at t = 0, which tanh-sinh never evaluates.
    def f(t):
        return math.inf if t == 0.0 else 1.0 / math.sqrt(t)

    got = integrate_adaptive(f)
    assert got == pytest.approx(2.0, rel=1e-9)


def test_rk4_linear_field_is_exact():
    ys = rk4_path(lambda e, y: 3.0, log_grid(0.0, 2.0, 17), 1.0, tol=1e-12)
    assert len(ys) == 17
    assert float(ys[-1]) == pytest.approx(7.0, abs=1e-12)


def test_rk4_exponential_growth():
    ys = rk4_path(lambda e, y: y, log_grid(0.0, 1.0, 65), 1.0, tol=1e-10)
    assert float(ys[-1]) == pytest.approx(math.e, rel=1e-10)


def test_rk4_backward_integration():
    # curves are integrated right to left routinely
    ys = rk4_path(lambda e, y: y, log_grid(1.0, 0.0, 65), math.e, tol=1e-10)
    assert float(ys[-1]) == pytest.approx(1.0, rel=1e-9)


def test_rk4_path_error_falls_with_tol():
    # y' = cos(e) y, y(0) = 1: y(1) = exp(sin 1)
    errs = []
    for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        ys = rk4_path(lambda e, y: math.cos(e) * y, [0.0, 1.0], 1.0,
                      tol=tol)
        err = abs(ys[-1] - math.exp(math.sin(1.0)))
        assert err < tol
        errs.append(err)
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_rk4_blowup_guard():
    with pytest.raises(FieldBlowup):
        rk4_path(lambda e, y: y * y, log_grid(0.0, 3.0, 65), 2.0, tol=1e-8)


def test_rk4_rejects_empty_interval():
    # a typed refusal, not a bare ValueError
    with pytest.raises(OutsideDomain, match="empty integration interval"):
        rk4_path(lambda e, y: y, [1.0, 1.0], 1.0, tol=1e-8)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0)])
def test_integrate_never_evaluates_an_endpoint(lo, hi):
    def f(t):
        if not lo < t < hi:
            raise AssertionError(f"evaluated at {t} on [{lo}, {hi}]")
        return math.exp(t)

    got = integrate_adaptive(f)
    assert got == pytest.approx(math.exp(hi) - math.exp(lo), rel=1e-12)


def test_integrate_inverse_sqrt_and_log_to_1e12():
    # both would be non-finite (or raise) at t = 0
    got = integrate_adaptive(lambda t: 1.0 / math.sqrt(t))
    assert got == pytest.approx(2.0, rel=1e-12)
    got = integrate_adaptive(math.log)
    assert got == pytest.approx(-1.0, rel=1e-12)


def test_integrate_reports_nonconvergence():
    # a jump: the tanh-sinh error falls only like the step, never to 1e-12
    with pytest.raises(NonConvergence):
        integrate_adaptive(lambda t: 1.0 if t < 1.0 / 3.0 else 0.0)


# ------------------------------------------- kernels against their oracles
#
# rk4_path writes the Dormand-Prince stages out and integrate_adaptive
# reads its nodes from a table; both must give the very bits of the plain
# tableau loop and of per-call nodes, kept here as the oracles.

_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
         (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)


def _dp_loop(field, es, y_start, tol=1e-8):
    """Dormand-Prince 5(4) driven by its tableau, one stage per pass."""
    e, y, h = es[0], y_start, (es[-1] - es[0]) / (len(es) - 1)
    ys, k = [y], [field(e, y)]
    for node in es[1:]:
        while e != node:
            lands = abs(h) >= abs(node - e)
            step = node - e if lands else h
            k = k[:1]
            for c, row in zip(_DP_C, _DP_A):
                k.append(field(e + c * step, y + step * sum(
                    a * kj for a, kj in zip(row, k))))
            y_new = y + step * sum(a * kj for a, kj in zip(_DP_A[-1], k))
            k.append(field(e + step, y_new))
            if not all(map(math.isfinite, k)):
                raise FieldBlowup(f"field not finite near e={e}")
            err = abs(step * sum(c * kj for c, kj in zip(_DP_E, k)))
            scale = tol * max(1.0, abs(y), abs(y_new))
            grow = min(5.0, 0.9 * (scale / err) ** 0.2) if err else 5.0
            if err <= scale:
                e, y, k = (node if lands else e + step), y_new, k[-1:]
                if abs(y) > 1e12:
                    raise FieldBlowup(f"solution passed {1e12} near e={e}")
                h = max(h, step * grow, key=abs) if lands else step * grow
            else:
                h = step * max(0.2, grow)
            if abs(h) < 4.0 * math.ulp(e):
                raise NonConvergence(f"step size collapsed near e={e}")
        ys.append(y)
    return ys


def _tanh_sinh_per_call(f):
    """Tanh-sinh on [0, 1] with every node value formed inside the call."""
    total = 0.5 * math.pi * f(0.5)
    estimate, h = math.nan, 1.0
    for level in range(13):
        t = h
        while True:
            q = math.exp(-math.pi * math.sinh(t))
            gap = q / (1.0 + q)
            w = 2.0 * math.pi * math.cosh(t) * q / (1.0 + q) ** 2
            inner = [s for s in (gap, 1.0 - gap) if 0.0 < s < 1.0]
            if not inner:
                break
            total += w * sum(map(f, inner))
            t += 2.0 * h if level else h
        new = h * 0.5 * total
        if level > 1 and abs(new - estimate) <= 1e-12 * abs(new):
            return new
        estimate, h = new, 0.5 * h
    raise NonConvergence("tanh-sinh levels disagree at step 2^-12")


def _bits(value):
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return float(value).hex()


def _outcome(kernel, fn, *args, **kwargs):
    """(result bits or the exception, the bits of every call made to fn)."""
    calls = []

    def recorded(*xs):
        calls.append(_bits(xs))
        return fn(*xs)

    try:
        result = _bits(kernel(recorded, *args, **kwargs))
    except (FieldBlowup, NonConvergence) as exc:
        result = (type(exc), str(exc))
    return result, calls


def _rise(params):
    """The rise's slope field, the nodes verify lands on (e0, then the
    assembled phi1 samples right to left) and ln E0."""
    from enstrophy_bounds.branches import family
    ch = family(params)
    ln_e = ch.assemble().segment("phi1").ln_e
    es = [params.e0] + [math.exp(v) for v in reversed(ln_e[:-1])]
    return ch.rise.dlnE_de(), es, math.log(ch.E0)


@pytest.mark.parametrize("case", [
    "forward", "backward", "oscillating", "critical-phi1",
    "subcritical-phi1", "solution-blowup", "field-blowup", "step-collapse"])
def test_rk4_path_matches_the_tableau_loop(case, fig2, fig3):
    fields = {
        "forward": (lambda e, y: y, log_grid(0.0, 1.0, 65), 1.0, 1e-10),
        "backward": (lambda e, y: y, log_grid(1.0, 0.0, 65), math.e, 1e-10),
        "oscillating": (lambda e, y: math.cos(3.0 * e) * y - 0.1 * y * y,
                        log_grid(-2.0, 7.0, 34), 0.5, 1e-12),
        "critical-phi1": (*_rise(fig2), 1e-12),
        "subcritical-phi1": (*_rise(fig3), 1e-12),
        "solution-blowup": (lambda e, y: y * y, log_grid(0.0, 3.0, 65), 2.0,
                            1e-8),
        # k2 alone is infinite: the loop's update takes 0 * k2 = NaN
        "field-blowup": (lambda e, y: math.inf if 0.15 < e < 0.25 else 0.0,
                         [0.0, 1.0], 1.0, 1e-8),
        "step-collapse": (lambda e, y: math.cos(e) * y, log_grid(1.0, 2.0, 5),
                          1.0, 1e-300),
    }
    field, es, y_start, tol = fields[case]
    want, want_calls = _outcome(_dp_loop, field, es, y_start, tol=tol)
    got, got_calls = _outcome(rk4_path, field, es, y_start, tol=tol)
    assert got == want
    if case == "field-blowup":
        # the written-out update leaves out the zero weight of k2, so only
        # the last stage's y differs: NaN in the loop, finite here
        assert got_calls[:-1] == want_calls[:-1]
        assert want_calls[-1] == [_bits(1.0), "nan"] != got_calls[-1]
    else:
        assert got_calls == want_calls
    if case.endswith("blowup"):
        assert want[0] is FieldBlowup
    elif case == "step-collapse":
        assert want[0] is NonConvergence


def _singular(t):
    return math.inf if t == 0.0 else 1.0 / math.sqrt(t)


@pytest.mark.parametrize("f, lo, hi", [
    (math.sin, 0.0, 1.0),
    (math.exp, -3.0, 2.0),
    (math.exp, 2.0, -1.0),                  # a negative span
    (_singular, 0.0, 1.0),                  # endpoint singularity
    (math.log, 0.0, 1.0),                   # endpoint singularity
    (lambda u: math.exp(100.0 * u ** (1.0 / 0.03)), 0.0, 1.0),
    (lambda t: t ** 0.5 * math.exp(48.0 * t), 0.0, 1.0),
    (math.cos, 1e3, 1e3 + 1e-9),            # a narrow span far from 0
    (lambda t: 1.0 if t < 1.0 / 3.0 else 0.0, 0.0, 1.0),  # no convergence
])
def test_integrate_adaptive_matches_per_call_nodes(f, lo, hi):
    # [lo, hi] is mapped onto [0, 1] by t = lo + span u, which leaves f
    # itself, bit for bit, on [0, 1]
    span = hi - lo

    def mapped(u):
        return span * f(lo + span * u)

    want = _outcome(_tanh_sinh_per_call, mapped)
    assert _outcome(integrate_adaptive, mapped) == want


# ----------------------------------------------------- references only
#
# The quadrature and the ODE path check the construction; no curve or
# integral is built from them.

_REFERENCES = {"rk4_path", "integrate_adaptive"}


def test_only_verify_names_the_references():
    # solver defines them; verify is the only module that calls them
    for path in sorted((ROOT / "src" / "enstrophy_bounds").glob("*.py")):
        if path.name == "solver.py":
            continue
        named = set(names_in(ast.parse(path.read_text()))) & _REFERENCES
        assert named == (_REFERENCES if path.name == "verify.py" else set()), \
            path.name
