"""The three-branch construction shared by both coherence families.

The critical (r = 1/2) and subcritical (1/2 < r <= 1) bounding curves are
one construction. In a transformed variable y = E^p every branch solves
the linear field

    dy/de = (a/e - b) y - c,

exactly, through specfun's solution of it (Field and Branch live there,
beside the weighted exponential integral a Branch prepares; the scaling
curve solves the same field). This module holds the anchor chain
(Chain):

* rise (phi1), anchored on the forcing parabola at (e0, E0), climbs
  leftward to its peak, where it meets its own nullcline
  y = c e / (a - b e);
* descent (phi2), the rise field divided by C_Omega and re-anchored at
  the peak, falls to the enstrophy floor;
* tail (phi3), the curl-driven field in x = E^(3/2), continues below the
  floor.

The families differ only in the constants. At r = 1/2, b > 0: the
nullcline raised to 1/p is the vorticity barrier, with a vertical
asymptote at e_a = a/b, and the peak sits a sub-float distance left of it,
so that crossing is solved in w = ln(1 - e/e_a). At r > 1/2, b = 0: the
nullcline is the line y = (c/a) e and the crossing is closed form in ln e.
The rise's Branch finds its peak either way (Branch.peak).

family(params) is the one place that chooses the family by r: it returns
critical.chain(params) at r = 1/2 and subcritical.chain(params) above,
importing only the module it picks.

No root is searched for a bracket. Each branch is one specfun.Branch,
prepared once per anchor and kept by the chain (Chain.prepared), and it
owns its solution: it bounds it (lead and top, which no module here
reads), finds its peak (Branch.peak), brackets its crossing of the floor
(Branch.crossing) and samples its segment (Branch.segment). The chain
keeps the refusals, the floor's root search and the depth limit, and
value, classify and verify's scans evaluate through the same Branch;
classify only picks the branch and asks it whether the point lies at or
above it (Branch.at_or_above). Abscissas travel as ln e and ordinates as
ln y or ln E, plain floats, because the floor crossing lies thousands of
decades below float range; they leave the chain as lns too
(peak_point's E, the bundle's breakpoints). A branch is defined at or
left of its anchor, where every sampling grid ends; a point right of it
is OutsideDomain.
"""

from __future__ import annotations

import math
from functools import cached_property
from importlib import import_module

from .curves import (CurveBundle, CurveSegment, log_grid, max_join_gap,
                     power_law)
from .errors import (AssumptionViolated, CancellationLoss, FieldBlowup,
                     InvalidRegime, NoBracket, OutsideDomain, RegimeViolation)
from .params import _LN_RANGE, ForcingParams
from .solver import find_root
from .specfun import Branch, Field

TAGS = ("phi1", "phi2", "phi3")

# lowest ln e searched for the floor crossing, so a deeper one is
# NoBracket: below it one ulp of ln e is 1/8 or more, and the tail's
# twenty decades (46 in ln e) hold fewer distinct abscissas than its 512
# default samples
_LN_E_DEEPEST = -2.0 ** 49


class Chain:
    """The anchor chain of one parameter set.

    The family supplies the logs of its candidate enstrophy floors, curl
    candidate last, the rise field, the tail's b (kept only in the
    tail's Field) and the names it gives
    the breakpoints (peak e, peak E, floor e, floor E). The largest
    candidate is the floor, and the tail applies only when the curl
    candidate is that largest one. A floor outside float range is
    InvalidRegime when the chain is built, but +inf, every candidate at
    c = 0, is left for the peak to refuse: no production, no peak.
    The descent is the rise divided by C_Omega; the tail's a and c are the
    same in both families.
    The peak and the floor crossing are solved on first use and kept, as
    is each branch's Branch (prepared); a failed solve is not kept and
    raises again on every use, so a caller that never reaches a
    breakpoint never sees it.
    """

    def __init__(self, params: ForcingParams, model: str,
                 names: tuple[str, str, str, str], flags: tuple[str, ...],
                 ln_floors: tuple[float, ...], rise: Field, tail_b: float):
        self.params, self.model, self.names = params, model, names
        self.flags, self.ln_floors, self.rise = flags, ln_floors, rise
        ln_floor = max(ln_floors)
        if not -_LN_RANGE < ln_floor < _LN_RANGE and ln_floor != math.inf:
            raise InvalidRegime(
                f"enstrophy floor exp({ln_floor:.6g}) is outside float range")
        self.floor = math.exp(ln_floor)
        self.curl_dominant = ln_floors[-1] == ln_floor
        big = params.big_c_omega
        k = 1.0 / big
        self.fields = (
            rise, Field(rise.a * k, rise.b * k, rise.c * k, rise.p),
            Field(0.75 * (1.0 - params.rho) / big, tail_b,
                  18.0 * params.curlF_norm / (params.nu * big), 1.5))
        # formed once for classify: the forcing parabola's nu and 4 f
        self._nu, self._four_f = params.nu, 4.0 * params.f_norm
        self._prepared = [None, None, None]  # prepared's Branches

    @cached_property
    def ln_e0(self) -> float:
        """ln of the anchor energy e0 (ForcingParams gates it)."""
        return math.log(self.params.e0)

    @cached_property
    def E0(self) -> float:
        p = self.params
        return max(4.0 * p.f_norm * math.sqrt(p.e0) / p.nu, self.floor)

    def _anchor(self, k: int) -> tuple[float, float]:
        """(ln e, ln y) where branch k starts."""
        if k == 0:
            return self.ln_e0, math.log(self.E0) * self.rise.p
        if k == 1:
            return self.peak[1], self.peak[2] * self.rise.p
        return self.ln_floor, math.log(self.floor) * 1.5

    def prepared(self, k: int) -> Branch:
        """The Branch of branch k, formed on first use and kept, like
        peak and ln_floor: the peak, the floor bracket, sampling, value,
        classify and the scans evaluate through it."""
        kept = self._prepared
        if kept[k] is None:
            kept[k] = Branch(self.fields[k], *self._anchor(k))
        return kept[k]

    def value(self, k: int, ln_e: float) -> float:
        """ln E on branch k at ln e, at or left of its anchor; the tail's
        curl gate (require_curl) is left to the caller."""
        branch = self.prepared(k)
        return branch.ln_y(ln_e) * branch.q

    def require_curl(self) -> None:
        if not self.curl_dominant:
            lns = self.ln_floors
            raise AssumptionViolated(
                "curl forcing below the floor-dominance threshold; "
                "the tail construction does not apply; ln floor candidates "
                f"{', '.join(f'{v:.6g}' for v in lns)} (curl last): the "
                f"largest exceeds the curl one by {max(lns) - lns[-1]:.6g}")

    # -- the peak ----------------------------------------------------------

    @cached_property
    def peak(self) -> tuple[float, float, float]:
        """(x*, ln e_peak, ln E_peak): the rise meets its nullcline, solved
        by its Branch (Branch.peak). A b = 0 peak at or right of the
        anchor is NoBracket."""
        f = self.rise
        if f.c == 0.0:
            raise NoBracket("no production term, the rising branch has no peak")
        if f.b > 0.0 and self.params.e0 <= f.e_a:
            raise RegimeViolation(
                f"anchor energy e0 = {self.params.e0} must exceed the "
                f"barrier asymptote e_a = {f.e_a}")
        if not f.e_a > 0.0:
            raise InvalidRegime(f"e_a = a/b underflows (b = {f.b:.3g})")
        x, ln_e = self.prepared(0).peak(find_root)
        if f.b == 0.0 and x >= self.ln_e0:
            raise NoBracket("rise peaks at or right of the anchor e0: "
                            f"ln e_peak - ln e0 = {x - self.ln_e0:.6g}")
        return x, ln_e, self.value(0, ln_e)

    def peak_point(self) -> tuple[float, float]:
        """(e_peak, ln E_peak) with e_peak a float; at b > 0 it usually
        equals e_a to machine precision, the sub-float offset staying in
        E_peak."""
        _, ln_e, ln_E = self.peak
        return min(math.exp(ln_e), self.rise.e_a), ln_E

    # -- the floor crossing ----------------------------------------------

    @cached_property
    def ln_floor(self) -> float:
        """ln e where the descent meets the enstrophy floor, searched in
        the bracket its Branch gives (Branch.crossing). The search stops
        at ln e = -2^49 (_LN_E_DEEPEST): when the lower end lies below it
        and the gap there is still positive, the crossing lies deeper, and
        that is NoBracket before any root search, naming the limit and the
        lower end.
        """
        ln_E_peak = self.peak[2]
        ln_E_floor = math.log(self.floor)
        if not ln_E_floor < ln_E_peak:
            raise NoBracket(
                "enstrophy floor meets or exceeds the curve maximum: "
                f"ln E_floor = {ln_E_floor:.6g}, ln E_peak = {ln_E_peak:.6g}")
        lo, hi = self.prepared(1).crossing(ln_E_floor * self.fields[1].p)

        def gap(v: float) -> float:
            return self.value(1, v) - ln_E_floor

        if lo < _LN_E_DEEPEST and gap(_LN_E_DEEPEST) > 0.0:
            raise NoBracket(f"floor crossing below the depth limit -2^49: "
                            f"ln e in [{lo:.6g}, {_LN_E_DEEPEST:.6g})")
        return find_root(gap, max(_LN_E_DEEPEST, lo), hi)

    # -- the curve ---------------------------------------------------------

    def curve_value(self, ln_e: float) -> float:
        """ln E of the piecewise curve, evaluated exactly (not
        interpolated) at ln e; right of e0 the rise refuses it
        (OutsideDomain)."""
        k = 0 if ln_e >= self.peak[1] else 1 if ln_e >= self.ln_floor else 2
        return self.value(k, ln_e)

    def classify(self, e: float, E: float) -> str:
        """Three-region label: I below the forcing parabola (recurrent),
        III at or above the bounding curve, II between. Right of e0 the
        curve is gone and everything at or above the parabola is II.
        The curve needs the curl-dominated floor, as its assembly does.
        The branch is chosen as curve_value chooses it, and the peak and
        the floor crossing are solved only when a point needs them.

        The kept Branch then places the point (Branch.at_or_above): from
        its bounds lead and top alone, outside the band between them,
        and from its solution inside it. A point is labelled from the
        bounds alone even where evaluating its solution would refuse; a
        bound never refuses where the solution answers, as the rise's and
        the descent's are formed by the peak and floor solves that chose
        the branch, and the tail's has x = b e_floor < 1."""
        if not (0.0 < e < math.inf and 0.0 < E < math.inf):
            raise OutsideDomain("classification needs e > 0 and E > 0")
        if not self.curl_dominant:
            self.require_curl()
        if self._nu * E < self._four_f * math.sqrt(e):
            return "I"
        ln_e, ln_E = math.log(e), math.log(E)
        if ln_e > self.ln_e0:
            return "II"
        k = 0 if ln_e >= self.peak[1] else 1 if ln_e >= self.ln_floor else 2
        branch = self._prepared[k] or self.prepared(k)
        return "III" if branch.at_or_above(ln_e, ln_E) else "II"

    def assemble(self, samples: int = 512) -> CurveBundle:
        """Sample the three branches plus their frame into a CurveBundle.

        Segments: phi1 [e_peak, e0], phi2 [e_floor, e_peak], phi3 spanning
        twenty decades below e_floor, the lower boundary lambda_lower * e,
        the barrier (b > 0 only) and the forcing parabola. The construction
        invariants are checked before returning.
        """
        self.require_curl()
        params = self.params
        if params.lam_under * params.e0 > self.E0:
            raise RegimeViolation(
                f"the anchor E0 = {self.E0:.6g} lies below the lower boundary "
                f"E = (lambda0/c_omega) e; this parameter set admits no curve")
        x_star, ln_peak, ln_E_peak = self.peak
        ln_e0, ln_floor = self.ln_e0, self.ln_floor
        ln_deep = ln_floor - 20.0 * math.log(10.0)
        spans = ((ln_peak, ln_e0), (ln_floor, ln_peak), (ln_deep, ln_floor))
        segs = [self.prepared(k).segment(TAGS[k], lo, hi, samples)
                for k, (lo, hi) in enumerate(spans)]

        ln_low = math.log(params.lam_under)
        segs.append(power_law("lower_boundary",
                              log_grid(ln_deep, ln_e0, samples), ln_low, 1.0))

        if self.rise.b > 0.0:
            # the nullcline to the power 1/p, sampled in w left of e_a
            w_grid = log_grid(x_star - math.log(100.0), math.log(0.5),
                              samples)[::-1]
            q = 1.0 / self.rise.p
            segs.append(CurveSegment(
                "barrier", [self.rise.ln_e_at(w) for w in w_grid],
                [q * self.rise.ln_null(w) for w in w_grid]))
            par_lo = math.log(self.rise.e_a)
        else:
            par_lo = ln_peak
        ln_par = math.log(4.0 * params.f_norm / params.nu)
        segs.append(power_law("parabola", log_grid(par_lo, ln_e0, samples),
                              ln_par, 0.5))

        e_peak, E_peak_name, e_floor, E_floor = self.names
        bundle = CurveBundle(
            self.model, params, segs,
            breakpoints={"e0": ln_e0, "E0": math.log(self.E0),
                         e_peak: ln_peak, E_peak_name: ln_E_peak,
                         e_floor: ln_floor, E_floor: math.log(self.floor)},
            flags=list(self.flags))

        # construction invariants, checked whatever the interpreter's -O:
        # continuity, and every branch sample on or above both the forcing
        # parabola and the lower boundary
        gap = max_join_gap(bundle)
        if gap > 1e-8:
            raise CancellationLoss(f"segment join gap {gap:.3e} exceeds 1e-8")
        for seg in bundle.main_segments():
            for v, ln_E in zip(seg.ln_e, seg.ln_E):
                if ln_E + 1e-9 < max(ln_par + 0.5 * v, ln_low + v):
                    raise FieldBlowup(
                        f"{seg.tag} dips below the parabola or the lower "
                        f"boundary at ln e = {v:.6g}")
        return bundle


def family(params: ForcingParams) -> Chain:
    """The held chain of params' coherence family: critical.chain at
    r = 1/2, subcritical.chain above. Only the chosen module is imported,
    so a caller executes only the family it resolves."""
    name = "critical" if params.r == 0.5 else "subcritical"
    return import_module(f".{name}", __package__).chain(params)
