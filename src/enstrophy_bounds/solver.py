"""Root finding, quadrature and ODE stepping.

These kernels exist so that every closed-form curve in the package can be
cross-checked against an independent numerical route (and vice versa):
tanh-sinh quadrature checks the series, a Dormand-Prince 5(4) path checks
the Bernoulli closed form, the grid scan checks the root finder. Each is
one standard method with no fallbacks. find_root also serves the
construction; the quadrature and the ODE path are references only, and
no curve or integral is built from them: only verify calls them. The
root tolerance (4 ulps), the quadrature tolerance, the iteration cap and
the blow-up level are fixed; only rk4_path's tol and the nodes it lands
on vary between callers. The two reference kernels form their
invariants once: the quadrature nodes and weights in a table shared by
every interval, the Dormand-Prince stages written out on named slopes.
Both give the same bits as the plain loops (tests/test_solver.py keeps
those as oracles).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cache

from .errors import FieldBlowup, NoBracket, NonConvergence, OutsideDomain

Func = Callable[[float], float]

_MAX_ITER = 200  # false-position steps before find_root gives up


def find_root(f: Func, lo: float, hi: float) -> float:
    """Bracketed root of f on [lo, hi] by Illinois-damped false position.

    Endpoint values may be +-inf (sign information is still used; the step
    bisects while f(hi) - f(lo) is not finite). Each point is kept at least
    2 ulps inside the bracket (Dekker's minimum step; a NaN point becomes
    lo + 2 ulps), so a step that lands on the root is followed by one just
    past it, which closes the bracket. Stops when the bracket is at most
    4 ulps of its larger end wide. Raises NoBracket when the
    bracket is empty or f(lo) and f(hi) share a sign, NonConvergence after
    _MAX_ITER iterations.
    """
    if not lo < hi:
        raise NoBracket(f"empty bracket [{lo}, {hi}]")
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
    for _ in range(_MAX_ITER):
        step = 2.0 * math.ulp(max(abs(lo), abs(hi)))
        if hi - lo <= 2.0 * step:
            return 0.5 * (lo + hi)
        xm = (lo * f_hi - hi * f_lo) / (f_hi - f_lo) \
            if math.isfinite(f_hi - f_lo) else 0.5 * (lo + hi)
        xm = max(lo + step, min(xm, hi - step))
        fm = f(xm)
        if math.isnan(fm):
            raise NonConvergence(f"f({xm}) is NaN")
        if fm == 0.0:
            return xm
        # Illinois: an end kept twice in a row has its value halved (an
        # infinite one stays infinite)
        if (fm < 0.0) == (f_lo < 0.0):
            lo, f_lo = xm, fm
            if side == -1:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = xm, fm
            if side == 1:
                f_lo *= 0.5
            side = 1
    raise NonConvergence(f"no root to 4 ulps in {_MAX_ITER} iterations")


_MAX_LEVEL = 12  # finest step 2^-12 in t: about 50k nodes
_REL_TOL = 1e-12  # agreement asked of two successive levels


@cache
def _level_nodes(level: int) -> tuple[tuple[float, float], ...]:
    """(q, weight) of each node of a tanh-sinh level, formed once for
    every interval: level 0 takes t = 1, 2, ...; each later level, of step
    h = 2^-level, the odd multiples of h. q = exp(-pi sinh t) sets the
    node pair's distance from the endpoints, gap = 2 half q / (1 + q), and
    the level ends where q underflows, past which every gap is zero."""
    nodes, t, step = [], 0.5 ** level, 0.5 ** max(level - 1, 0)
    while (q := math.exp(-math.pi * math.sinh(t))) > 0.0:
        nodes.append((q, 2.0 * math.pi * math.cosh(t) * q / (1.0 + q) ** 2))
        t += step
    return tuple(nodes)


def integrate_adaptive(f: Func, lo: float, hi: float) -> float:
    """Tanh-sinh integral of f on [lo, hi] to relative tolerance _REL_TOL.

    s = mid + half tanh(pi/2 sinh t) turns the integral into a doubly
    exponentially decaying sum in t (Takahasi & Mori 1974), so integrable
    endpoint singularities need no special treatment. Each level halves
    the step in t and reuses every earlier node; the result is returned
    once two successive levels agree to _REL_TOL, and NonConvergence is
    raised when the levels run out first. f is never evaluated at an
    endpoint: a node is dropped once it rounds onto one. The node values
    q and the weights do not depend on [lo, hi] and come from one table
    (_level_nodes), so a call forms only each gap and its two abscissas.
    """
    if lo == hi:
        return 0.0
    if lo > hi:
        return -integrate_adaptive(f, hi, lo)
    half = 0.5 * (hi - lo)
    total = 0.5 * math.pi * f(lo + half)
    estimate, h = math.nan, 1.0
    for level in range(_MAX_LEVEL + 1):
        for q, w in _level_nodes(level):
            gap = 2.0 * half * q / (1.0 + q)
            s1, s2 = lo + gap, hi - gap
            if lo < s1 < hi:
                total += w * (f(s1) + f(s2) if lo < s2 < hi else f(s1))
            elif lo < s2 < hi:
                total += w * f(s2)
            else:
                break
        new = h * half * total
        if level > 1 and abs(new - estimate) <= _REL_TOL * abs(new):
            return new
        estimate, h = new, 0.5 * h
    raise NonConvergence(f"tanh-sinh levels disagree at step 2^-{_MAX_LEVEL}")


Field = Callable[[float, float], float]

_BLOWUP = 1e12  # |y| past which rk4_path reports the solution as blown up


def rk4_path(field: Field, es: list[float], y_start: float, tol: float):
    """Integrate dy/de = field(e, y) from (es[0], y_start) across the
    nodes es, by the embedded Dormand-Prince 5(4) pair (Dormand & Prince
    1980), the name being kept from the fixed-step RK4 it replaced. The
    nodes run one way, left or right. A step is accepted when its error
    estimate is at most tol * max(1, |y|), and is clipped to land on each
    node; the first step proposed is the mean node spacing.

    The six stages, the fifth-order update and the error estimate (fifth-
    minus fourth-order solution) are written out on k1 ... k7 with the
    tableau's coefficients, each sum taken left to right. The fifth-order
    weights are the last stage row, so the final stage is the next step's
    first.

    Returns y at each node, a list of floats. Raises OutsideDomain when
    the nodes end where they start, FieldBlowup when the field stops
    being finite or |y| passes _BLOWUP, NonConvergence when the step size
    collapses.
    """
    if es[0] == es[-1]:
        raise OutsideDomain("empty integration interval")
    e, y, h = es[0], y_start, (es[-1] - es[0]) / (len(es) - 1)
    ys, k1 = [y], field(e, y)
    for node in es[1:]:
        while e != node:
            lands = abs(h) >= abs(node - e)
            step = node - e if lands else h
            k2 = field(e + 1 / 5 * step, y + step * (1 / 5 * k1))
            k3 = field(e + 3 / 10 * step,
                       y + step * (3 / 40 * k1 + 9 / 40 * k2))
            k4 = field(e + 4 / 5 * step, y + step * (
                44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
            k5 = field(e + 8 / 9 * step, y + step * (
                19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3
                - 212 / 729 * k4))
            k6 = field(e + step, y + step * (
                9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3
                + 49 / 176 * k4 - 5103 / 18656 * k5))
            y_new = y + step * (35 / 384 * k1 + 500 / 1113 * k3
                                + 125 / 192 * k4 - 2187 / 6784 * k5
                                + 11 / 84 * k6)
            k7 = field(e + step, y_new)
            if not all(map(math.isfinite, (k1, k2, k3, k4, k5, k6, k7))):
                raise FieldBlowup(f"field not finite near e={e}")
            err = abs(step * (71 / 57600 * k1 - 71 / 16695 * k3
                              + 71 / 1920 * k4 - 17253 / 339200 * k5
                              + 22 / 525 * k6 - 1 / 40 * k7))
            scale = tol * max(1.0, abs(y), abs(y_new))
            grow = min(5.0, 0.9 * (scale / err) ** 0.2) if err else 5.0
            if err <= scale:
                e, y, k1 = (node if lands else e + step), y_new, k7
                if abs(y) > _BLOWUP:
                    raise FieldBlowup(f"solution passed {_BLOWUP} near e={e}")
                # a step cut short to land on a node keeps the proposal
                h = max(h, step * grow, key=abs) if lands else step * grow
            else:
                h = step * max(0.2, grow)
            if abs(h) < 4.0 * math.ulp(e):
                raise NonConvergence(f"step size collapsed near e={e}")
        ys.append(y)
    return ys
