"""Root finding, quadrature and ODE stepping.

These kernels exist so that every closed-form curve in the package can be
cross-checked against an independent numerical route (and vice versa): the
quadrature checks the series, the RK4 path checks the Bernoulli closed form,
the grid scan checks the root finder. They are deliberately plain.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import FieldBlowup, NoBracket, NonConvergence

Func = Callable[[float], float]


def find_root(f: Func, lo: float, hi: float, x_tol: float = 1e-13,
              f_tol: float = 0.0, max_iter: int = 200) -> float:
    """Bracketed root of f on [lo, hi] by Illinois-damped false position.

    Endpoint values may be +-inf (sign information is still used; secant
    steps fall back to bisection while an endpoint is infinite). Raises
    NoBracket when f(lo) and f(hi) share a sign.
    """
    if not lo < hi:
        raise ValueError(f"bad bracket [{lo}, {hi}]")
    f_lo, f_hi = f(lo), f(hi)
    if math.isnan(f_lo) or math.isnan(f_hi):
        raise NoBracket(f"NaN at bracket endpoint: f({lo})={f_lo}, f({hi})={f_hi}")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise NoBracket(f"no sign change on [{lo}, {hi}]")

    side = 0
    for _ in range(max_iter):
        if math.isfinite(f_lo) and math.isfinite(f_hi) and f_lo != f_hi:
            xm = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            if not lo < xm < hi:
                xm = 0.5 * (lo + hi)
        else:
            xm = 0.5 * (lo + hi)
        fm = f(xm)
        if math.isnan(fm):
            raise NonConvergence(f"f({xm}) is NaN")
        if fm == 0.0 or abs(fm) <= f_tol:
            return xm
        if (fm < 0.0) == (f_lo < 0.0):
            lo, f_lo = xm, fm
            if side == -1 and math.isfinite(f_hi):
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = xm, fm
            if side == 1 and math.isfinite(f_lo):
                f_lo *= 0.5
            side = 1
        if hi - lo <= x_tol * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
    raise NonConvergence(f"no root to tolerance in {max_iter} iterations")


def _simpson_adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_simpson_adapt(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
            + _simpson_adapt(f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1))


def _integrate_core(f: Func, lo: float, hi: float, rel_tol: float,
                    max_depth: int) -> float:
    fa, fb = f(lo), f(hi)
    m = 0.5 * (lo + hi)
    fm = f(m)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    # the absolute tolerance depends on |I|, which we only know after
    # integrating; iterate until the tolerance we used was tight enough
    tol_abs = rel_tol * max(abs(whole), 1e-300)
    result = whole
    for _ in range(5):
        result = _simpson_adapt(f, lo, fa, hi, fb, m, fm, whole, tol_abs, max_depth)
        needed = rel_tol * abs(result)
        if needed == 0.0 or needed >= tol_abs:
            break
        tol_abs = needed
    return result


def integrate_adaptive(f: Func, lo: float, hi: float, rel_tol: float = 1e-10,
                       max_depth: int = 48) -> float:
    """Adaptive Simpson integral of f on [lo, hi] to relative tolerance.

    An endpoint where f is not finite is treated as an integrable
    singularity: that side is mapped through s = endpoint +- t^2 (which
    absorbs inverse-square-root blowups exactly) and any residual
    non-finite evaluation at isolated points is dropped.
    """
    if lo == hi:
        return 0.0
    if lo > hi:
        return -integrate_adaptive(f, hi, lo, rel_tol, max_depth)

    def bad(x):
        v = f(x)
        return not math.isfinite(v)

    lo_bad, hi_bad = bad(lo), bad(hi)
    if lo_bad and hi_bad:
        mid = 0.5 * (lo + hi)
        return (integrate_adaptive(f, lo, mid, rel_tol, max_depth)
                + integrate_adaptive(f, mid, hi, rel_tol, max_depth))
    if lo_bad:
        def g(t):
            if t == 0.0:
                return 0.0
            v = 2.0 * t * f(lo + t * t)
            return v if math.isfinite(v) else 0.0
        return _integrate_core(g, 0.0, math.sqrt(hi - lo), rel_tol, max_depth)
    if hi_bad:
        def g(t):
            if t == 0.0:
                return 0.0
            v = 2.0 * t * f(hi - t * t)
            return v if math.isfinite(v) else 0.0
        return _integrate_core(g, 0.0, math.sqrt(hi - lo), rel_tol, max_depth)
    return _integrate_core(f, lo, hi, rel_tol, max_depth)


Field = Callable[[float, float], float]


def rk4_path(field: Field, e_start: float, y_start: float, e_end: float,
             tol: float = 1e-8, n0: int = 64, max_doublings: int = 18,
             blowup_guard: float = 1e12):
    """Integrate dy/de = field(e, y) from e_start to e_end with fixed-step
    RK4, doubling the step count until the endpoint moves by less than tol.

    Returns (e_nodes, y_nodes) as lists of floats for the finest run. Raises
    FieldBlowup when the field stops being finite or |y| passes
    blowup_guard, NonConvergence when doubling stalls.
    """
    if e_start == e_end:
        raise ValueError("empty integration interval")

    def run(n: int):
        h = (e_end - e_start) / n
        y = y_start
        es, ys = [e_start], [y]
        for i in range(n):
            e = e_start + i * h
            k1 = field(e, y)
            k2 = field(e + 0.5 * h, y + 0.5 * h * k1)
            k3 = field(e + 0.5 * h, y + 0.5 * h * k2)
            k4 = field(e + h, y + h * k3)
            if not (math.isfinite(k1) and math.isfinite(k2)
                    and math.isfinite(k3) and math.isfinite(k4)):
                raise FieldBlowup(f"field not finite near e={e}")
            y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if abs(y) > blowup_guard:
                raise FieldBlowup(f"solution passed {blowup_guard} near e={e}")
            es.append(e_start + (i + 1) * h)
            ys.append(y)
        return es, ys

    es, ys = run(n0)
    n = n0
    for _ in range(max_doublings):
        n *= 2
        es2, ys2 = run(n)
        if abs(ys2[-1] - ys[-1]) < tol:
            return es2, ys2
        es, ys = es2, ys2
    raise NonConvergence(f"rk4 endpoint still moving after {n} steps")
