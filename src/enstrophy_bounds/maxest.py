"""Closed-form bracket on the largest enstrophy the bounding curve reaches.

Both estimates live on the nondimensional normalization nu = lambda = 1,
so the Grashof number is the only large parameter and both bounds scale
like exp(c G^2); results are LogScalar because the interesting regimes
overflow float64 immediately (G = 2 already gives ~1e36).

The lower estimate tracks the curve from the forcing parabola up to the
critical energy e_crit where the rising field switches off. The upper
estimate runs the same argument with every coefficient inflated by a
funnel parameter eta; eta must not drop below eta_min(E0) or the inflated
field loses control of the anchor and the argument is void.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import EtaTooSmall, InvalidRegime, RegimeViolation
from .logscalar import LogScalar

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


def critical_energy(eps: float, rho: float, c2: float) -> float:
    return eps * (1.0 - rho) / (4.0 * c2)


def emax_lower(G: float, eps: float, rho: float, c2: float) -> LogScalar:
    """Guaranteed-reachable enstrophy level, exp(Theta(G^2)) large. A
    bound outside float range is InvalidRegime."""
    _validate(G, eps, rho, c2)
    e_crit = critical_energy(eps, rho, c2)
    if G * G <= e_crit:
        raise RegimeViolation(
            f"G^2 = {G * G} must exceed the critical energy {e_crit}")
    # ln e_crit from its factors: e_crit itself may underflow to 0
    ln_e_crit = math.log(eps) + math.log1p(-rho) - math.log(4.0) \
        - math.log(c2)
    ln = math.log(4.0) + (1.0 + rho) * math.log(G) \
        + 0.5 * (1.0 - rho) * ln_e_crit \
        + (2.0 * c2 / eps) * (G * G - e_crit)
    if not math.isfinite(ln):
        raise InvalidRegime(f"lower bound leaves float range (ln = {ln})")
    return LogScalar.from_ln(ln)


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


def emax_upper(G: float, eps: float, rho: float, c2: float,
               eta: float | None = None, E0_anchor: float | None = None,
               *, mu: float = 1.0) -> LogScalar:
    """Ceiling on any enstrophy value the curve attains.

    Defaults anchor on the parabola apex E0 = 4 G^2 with the smallest
    admissible eta. Passing the E0 produced by a first pass (and the
    correspondingly smaller eta) tightens the exponent considerably; the
    gap to emax_lower stays a factor exp(O(G^2)) either way. A damped
    critical energy or a bound outside float range is InvalidRegime.
    """
    _validate(G, eps, rho, c2)
    if E0_anchor is None:
        E0_anchor = 4.0 * G * G
    elif not 0.0 < E0_anchor < math.inf:
        raise InvalidRegime(f"E0_anchor must be positive and finite, "
                            f"got {E0_anchor}")
    floor = eta_min(E0_anchor, eps, mu)
    if eta is None:
        eta = floor
    elif not math.isfinite(eta):
        raise InvalidRegime(f"eta must be finite, got {eta}")
    elif eta < floor * (1.0 - _ETA_SLACK):
        raise EtaTooSmall(
            f"eta = {eta} falls below eta_min = {floor:.6g} for "
            f"anchor E0 = {E0_anchor}")
    e_bar = eps * (1.0 - rho) / (2.0 * (2.0 + eta) * c2)
    if not e_bar > 0.0:
        raise InvalidRegime(f"damped critical energy underflows, eta = {eta}")
    if G * G <= e_bar:
        raise RegimeViolation(
            f"G^2 = {G * G} must exceed the damped critical energy {e_bar}")
    ln = math.log(E0_anchor) \
        + 0.5 * (1.0 - rho) * (math.log(e_bar) - 2.0 * math.log(G)) \
        + ((2.0 + eta) * c2 / eps) * (G * G - e_bar)
    if not math.isfinite(ln):
        raise InvalidRegime(f"upper bound leaves float range (ln = {ln})")
    return LogScalar.from_ln(ln)


@dataclass(frozen=True)
class BoundReport:
    lower: LogScalar
    upper: LogScalar
    eta_used: float
    e_crit: float
    e_bar_crit: float
    anchor_E0: float
    flags: list[str] = field(default_factory=list)


def bound_report(G: float, eps: float, rho: float, c2: float,
                 mu: float = 1.0, eta: float | None = None,
                 E0_anchor: float | None = None) -> BoundReport:
    """Both bounds plus the constants that shaped them, for the CLI."""
    flags = []
    anchor = E0_anchor
    if anchor is None:
        anchor = 4.0 * G * G
        flags.append("anchor_E0=parabola_apex")
    if eta is None:
        eta = eta_min(anchor, eps, mu)
        flags.append("eta=eta_min")
    lower = emax_lower(G, eps, rho, c2)
    # emax_upper fills in the default anchor itself; it gates only a
    # caller's anchor
    upper = emax_upper(G, eps, rho, c2, eta, E0_anchor, mu=mu)
    return BoundReport(
        lower=lower, upper=upper, eta_used=eta,
        e_crit=critical_energy(eps, rho, c2),
        e_bar_crit=eps * (1.0 - rho) / (2.0 * (2.0 + eta) * c2),
        anchor_E0=anchor, flags=flags)


def physical_scale(params) -> tuple[float, float]:
    """Multipliers (energy, enstrophy) translating this module's nu = lambda
    = 1 frame into the units of a general parameter set. Everything above
    stays normalized; rescale results on the way out."""
    base = params.nu ** 2 / math.sqrt(params.lam)
    return base, base * params.lam
