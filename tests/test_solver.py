import math

import numpy as np
import pytest

from enstrophy_bounds import FieldBlowup, NoBracket, NonConvergence
from enstrophy_bounds.solver import find_root, integrate_adaptive, rk4_path


def test_find_root_sqrt2():
    root = find_root(lambda x: x * x - 2.0, 1.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_find_root_decreasing_bracket():
    root = find_root(lambda x: 5.0 - x, 0.0, 20.0)
    assert root == pytest.approx(5.0, abs=1e-10)


def test_find_root_needs_sign_change():
    with pytest.raises(NoBracket):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


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
    got = integrate_adaptive(math.sin, 0.0, 1.0)
    assert got == pytest.approx(1.0 - math.cos(1.0), rel=1e-12)


def test_integrate_inverse_sqrt_singularity():
    # endpoint singularity t^(-1/2): exact value 2. The integrand returns
    # inf at t = 0, which tanh-sinh never evaluates.
    def f(t):
        return math.inf if t == 0.0 else 1.0 / math.sqrt(t)

    got = integrate_adaptive(f, 0.0, 1.0)
    assert got == pytest.approx(2.0, rel=1e-9)


def test_integrate_reversed_bounds_signs():
    a = integrate_adaptive(lambda t: t, 0.0, 2.0)
    assert a == pytest.approx(2.0, rel=1e-12)


def test_rk4_linear_field_is_exact():
    es, ys = rk4_path(lambda e, y: 3.0, 0.0, 1.0, 2.0, tol=1e-12, n_out=16)
    assert float(ys[-1]) == pytest.approx(7.0, abs=1e-12)
    assert float(es[-1]) == 2.0


def test_rk4_exponential_growth():
    es, ys = rk4_path(lambda e, y: y, 0.0, 1.0, 1.0, tol=1e-10, n_out=64)
    assert float(ys[-1]) == pytest.approx(math.e, rel=1e-10)


def test_rk4_backward_integration():
    # curves are integrated right to left routinely
    es, ys = rk4_path(lambda e, y: y, 1.0, math.e, 0.0, tol=1e-10, n_out=64)
    assert float(ys[-1]) == pytest.approx(1.0, rel=1e-9)
    assert es[0] > es[-1]


def test_rk4_path_error_falls_with_tol():
    # y' = cos(e) y, y(0) = 1: y(1) = exp(sin 1)
    errs = []
    for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        _, ys = rk4_path(lambda e, y: math.cos(e) * y, 0.0, 1.0, 1.0,
                         tol=tol, n_out=1)
        err = abs(ys[-1] - math.exp(math.sin(1.0)))
        assert err < tol
        errs.append(err)
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_rk4_blowup_guard():
    with pytest.raises(FieldBlowup):
        rk4_path(lambda e, y: y * y, 0.0, 2.0, 3.0, tol=1e-8, n_out=64)


def test_rk4_rejects_empty_interval():
    with pytest.raises(ValueError):
        rk4_path(lambda e, y: y, 1.0, 1.0, 1.0)


def test_rk4_nodes_are_uniform():
    es, _ = rk4_path(lambda e, y: 0.0, 0.0, 5.0, 1.0, tol=1e-12, n_out=8)
    steps = np.diff(es)
    assert np.allclose(steps, steps[0])


@pytest.mark.parametrize("n_out", [1, 7, 512])
def test_rk4_path_returns_n_out_plus_one_uniform_nodes(n_out):
    es, ys = rk4_path(lambda e, y: -y, 2.0, 1.0, -1.0, tol=1e-8, n_out=n_out)
    assert len(es) == len(ys) == n_out + 1
    assert es[0] == 2.0 and es[-1] == -1.0
    steps = np.diff(es)
    assert np.allclose(steps, -3.0 / n_out, rtol=1e-12, atol=0.0)
    assert ys[-1] == pytest.approx(math.exp(3.0), rel=1e-7)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-3.0, 2.0), (-20.0, 0.0)])
def test_integrate_never_evaluates_an_endpoint(lo, hi):
    def f(t):
        if not lo < t < hi:
            raise AssertionError(f"evaluated at {t} on [{lo}, {hi}]")
        return math.exp(t)

    got = integrate_adaptive(f, lo, hi)
    assert got == pytest.approx(math.exp(hi) - math.exp(lo), rel=1e-12)


def test_integrate_inverse_sqrt_and_log_to_1e12():
    # both would be non-finite (or raise) at t = 0
    got = integrate_adaptive(lambda t: 1.0 / math.sqrt(t), 0.0, 1.0)
    assert got == pytest.approx(2.0, rel=1e-12)
    got = integrate_adaptive(math.log, 0.0, 1.0)
    assert got == pytest.approx(-1.0, rel=1e-12)


def test_integrate_reports_nonconvergence():
    # a jump: the tanh-sinh error falls only like the step, never to 1e-12
    with pytest.raises(NonConvergence):
        integrate_adaptive(lambda t: 1.0 if t < 1.0 / 3.0 else 0.0, 0.0, 1.0)
