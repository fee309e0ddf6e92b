"""Closed-form bracket on the largest enstrophy the bounding curve reaches.

Both estimates live on the nondimensional normalization nu = lambda = 1,
so the Grashof number is the only large parameter and both bounds scale
like exp(c G^2); each bound is returned as its ln, a float, because the
interesting regimes overflow float64 immediately (G = 2 already gives
~1e36).

Both bounds are one closed form. The upper estimate runs from an anchor
E0 up to the critical energy damped by a funnel parameter eta; eta must
not drop below eta_min(E0) or the inflated field loses control of the
anchor and the argument is void. The lower estimate, which tracks the
curve from the forcing parabola up to the critical energy e_crit where
the rising field switches off, is that form at eta = 0 on the parabola
apex E0 = 4 G^2.

bound_report is the way out: the CLI's emax document of a parameter set,
both bounds and the constants that shaped them rescaled to that set's
units (physical_scale) and rounded as printed.
"""

from __future__ import annotations

import math

from .curves import round_sig
from .errors import EtaTooSmall, InvalidRegime, RegimeViolation
from .logscalar import _LN10
from .params import exp_clamped

# relative slack accepted on the eta gate before EtaTooSmall fires
_ETA_SLACK = 1e-3


def _validate(G: float, eps: float, rho: float, c2: float) -> None:
    if G <= 0.0:
        raise InvalidRegime(f"G must be positive, got {G}")
    if not math.isfinite(G * G):
        raise InvalidRegime(f"G^2 must be finite, got G = {G}")
    if eps <= 0.0 or c2 <= 0.0:
        raise InvalidRegime("eps and c2 must be positive")
    if not 0.0 <= rho < 1.0:
        raise InvalidRegime(f"rho must lie in [0, 1), got {rho}")


def _ln_e(eps: float, rho: float, c2: float, eta: float) -> float:
    """ln e_eta, e_eta = eps (1 - rho)/(2 (2 + eta) c2) the critical energy
    damped by eta (e_crit at eta = 0), from the logs of its factors: e_eta
    itself may lie below float range."""
    return math.log(eps) + math.log1p(-rho) - math.log(2.0 * (2.0 + eta)) \
        - math.log(c2)


def _bound(G: float, eps: float, rho: float, c2: float, eta: float,
           ln_E0: float) -> float:
    """ln of E0 (G^2/e_eta)^(-theta) exp(((2 + eta) c2/eps)(G^2 - e_eta)),
    theta = (1 - rho)/2, formed in logs. At eta = 0 and E0 = 4 G^2 it is
    ln 4 + (1 + rho) ln G + theta ln e_crit + (2 c2/eps)(G^2 -
    e_crit), the lower bound. A bound whose log leaves float range is
    InvalidRegime."""
    ln_e = _ln_e(eps, rho, c2, eta)
    e = exp_clamped(ln_e)
    if G * G <= e:
        raise RegimeViolation(f"G^2 = {G * G} must exceed the critical "
                              f"energy {e} at eta = {eta}")
    ln = ln_E0 + 0.5 * (1.0 - rho) * (ln_e - 2.0 * math.log(G)) \
        + ((2.0 + eta) * c2 / eps) * (G * G - e)
    if not math.isfinite(ln):
        raise InvalidRegime(f"bound at eta = {eta} leaves float range "
                            f"(ln = {ln})")
    return ln


def emax_lower(G: float, eps: float, rho: float, c2: float) -> float:
    """ln of the guaranteed-reachable enstrophy level, exp(Theta(G^2))
    large. A bound outside float range is InvalidRegime."""
    _validate(G, eps, rho, c2)
    return _bound(G, eps, rho, c2, 0.0, math.log(4.0) + 2.0 * math.log(G))


def eta_min(E0: float, eps: float, mu: float) -> float:
    """Smallest admissible funnel parameter for an anchor at enstrophy E0.

    Decreases like E0^(-3/5): a higher anchor tolerates a gentler funnel,
    which is what makes the two-pass refinement of the upper bound pay off.
    """
    if E0 <= 0.0 or eps <= 0.0:
        raise InvalidRegime("E0 and eps must be positive")
    if mu < 0.0:
        raise InvalidRegime("mu must be nonnegative")
    return 12.0 * mu / (eps ** 0.4 * E0 ** 0.6)


def _anchor_eta(G: float, eps: float, mu: float, eta: float | None,
                E0_anchor: float | None) -> tuple[float, float]:
    """(E0, eta) of the upper bound: the parabola apex 4 G^2 and
    eta_min(E0) where the caller gives none. A given anchor is checked
    here, before eta_min reads it, and a default eta by its eta_min;
    emax_upper checks a given eta."""
    if E0_anchor is not None and not 0.0 < E0_anchor < math.inf:
        raise InvalidRegime(f"E0_anchor must be positive and finite, "
                            f"got {E0_anchor}")
    E0 = 4.0 * G * G if E0_anchor is None else E0_anchor
    return E0, eta_min(E0, eps, mu) if eta is None else eta


def emax_upper(G: float, eps: float, rho: float, c2: float,
               eta: float | None = None, E0_anchor: float | None = None,
               *, mu: float = 1.0) -> float:
    """ln of the ceiling on any enstrophy value the curve attains.

    Defaults anchor on the parabola apex E0 = 4 G^2 with the smallest
    admissible eta. Passing the E0 produced by a first pass (and the
    correspondingly smaller eta) tightens the exponent considerably; the
    gap to emax_lower stays a factor exp(O(G^2)) either way. A bound
    outside float range is InvalidRegime.
    """
    _validate(G, eps, rho, c2)
    E0, eta = _anchor_eta(G, eps, mu, eta, E0_anchor)
    floor = eta_min(E0, eps, mu)
    if not math.isfinite(eta):
        raise InvalidRegime(f"eta must be finite, got {eta}")
    if eta < floor * (1.0 - _ETA_SLACK):
        raise EtaTooSmall(
            f"eta = {eta} falls below eta_min = {floor:.6g} for "
            f"anchor E0 = {E0}")
    return _bound(G, eps, rho, c2, eta, math.log(E0))


def bound_report(params, eta: float | None = None,
                 E0_anchor: float | None = None) -> dict:
    """The emax document of a parameter set: both bounds as log10_lower
    and log10_upper, eta_used, e_crit, e_bar_crit and anchor_E0, each
    rescaled to physical units (physical_scale) and rounded to twelve
    digits (round_sig), and the flags naming each default filled in and
    the rescaling. E0_anchor and eta are read in this module's nu =
    lambda = 1 frame, as G is; eta is printed as used. G = 0 (zero
    forcing, or G underflows) is RegimeViolation, first: there is no
    bracket to form. A given anchor is checked and the default eta formed
    before the lower bound, and a given eta is checked after it; a value
    outside float range in physical units is InvalidRegime, last."""
    G, eps, rho, c2 = params.grashof, params.eps, params.rho, params.c2
    if G == 0.0:
        raise RegimeViolation(
            "no bracket to form: G = 0 (zero forcing, or G underflows)")
    E0, eta_used = _anchor_eta(G, eps, params.mu, eta, E0_anchor)
    lower = emax_lower(G, eps, rho, c2)
    upper = emax_upper(G, eps, rho, c2, eta_used, E0_anchor, mu=params.mu)
    e_crit, e_bar = (math.exp(_ln_e(eps, rho, c2, x))
                     for x in (0.0, eta_used))
    flags = [flag for flag, given in (("anchor_E0=parabola_apex", E0_anchor),
                                      ("eta=eta_min", eta)) if given is None]
    e_scale, big_scale = physical_scale(params)
    if (e_scale, big_scale) != (1.0, 1.0):
        flags.append("rescaled_to_physical_units")
    # nu^2 sqrt(lambda) may underflow to 0
    ln_up = math.log(big_scale) if big_scale else -math.inf
    doc = {
        "log10_lower": round_sig((lower + ln_up) / _LN10),
        "log10_upper": round_sig((upper + ln_up) / _LN10),
        "eta_used": round_sig(eta_used),
        "e_crit": round_sig(e_crit * e_scale),
        "e_bar_crit": round_sig(e_bar * e_scale),
        "anchor_E0": round_sig(E0 * big_scale),
        "flags": sorted(flags),
    }
    for key, value in doc.items():
        if key != "flags" and not math.isfinite(value):
            raise InvalidRegime(f"{key} = {value} in physical units is "
                                "outside float range")
    return doc


def physical_scale(params) -> tuple[float, float]:
    """Multipliers (energy, enstrophy) = (nu^2/sqrt(lambda), nu^2
    sqrt(lambda)) translating this module's nu = lambda = 1 frame into the
    units of a general parameter set. Each is formed from nu^2 and
    sqrt(lambda), so neither underflows or overflows with the other.
    Everything above stays normalized; bound_report, the way out,
    rescales its results by these."""
    nu2, root = params.nu ** 2, math.sqrt(params.lam)
    return nu2 / root, nu2 * root
