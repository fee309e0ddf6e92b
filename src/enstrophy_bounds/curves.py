"""Curve containers and deterministic serialization.

Each bounding-curve family produces a CurveBundle: an ordered list of
sampled segments plus the breakpoints that delimit them. Abscissas live in
ln e throughout (see logscalar for why) and ordinates in ln E. Serialization
is fully deterministic: energies are rendered by logscalar.sci_string and
enstrophies as log10 values rounded through a fixed format, so rerunning the
CLI reproduces files byte for byte and CSV and JSON agree sample by sample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import CancellationLoss, OutsideDomain
from .logscalar import LogScalar, sci_string
from .params import ForcingParams

_LN10 = math.log(10.0)

# the only tags serialization will accept; pinned output vocabulary
SEGMENT_TAGS = ("phi1", "phi2", "phi3", "lower_boundary", "barrier", "parabola")


@dataclass
class CurveSegment:
    tag: str
    ln_e: list[float]         # increasing
    ln_E: list[float]
    dlnE_dlne: list[float] | None = None  # analytic slope, for containment

    def __post_init__(self):
        if self.tag not in SEGMENT_TAGS:
            raise ValueError(f"unknown segment tag {self.tag!r}")
        if len(self.ln_e) != len(self.ln_E):
            raise ValueError("abscissa/ordinate length mismatch")


@dataclass
class CurveBundle:
    model: str
    params: ForcingParams
    segments: list[CurveSegment]
    breakpoints: dict[str, LogScalar]
    flags: list[str] = field(default_factory=list)

    def segment(self, tag: str) -> CurveSegment:
        for seg in self.segments:
            if seg.tag == tag:
                return seg
        raise KeyError(tag)

    def main_segments(self) -> list[CurveSegment]:
        return [s for s in self.segments if s.tag.startswith("phi")]


def log_grid(ln_lo: float, ln_hi: float, n: int) -> list[float]:
    """n evenly spaced points from ln_lo to ln_hi inclusive, rounded as
    numpy.linspace rounds them: i * step + ln_lo, the last one exactly
    ln_hi."""
    if n < 2:
        raise OutsideDomain(f"need at least two samples per segment, got {n}")
    step = (ln_hi - ln_lo) / (n - 1)
    return [i * step + ln_lo for i in range(n - 1)] + [ln_hi]


def max_join_gap(bundle: CurveBundle) -> float:
    """Largest |ln E| mismatch where consecutive phi segments meet; two
    that do not share a breakpoint are CancellationLoss, as a gap would
    be."""
    mains = bundle.main_segments()
    worst = 0.0
    for left, right in zip(mains, mains[1:]):
        # left is the higher-energy segment; they share left's first abscissa
        if not math.isclose(left.ln_e[0], right.ln_e[-1],
                            rel_tol=1e-12, abs_tol=1e-12):
            raise CancellationLoss(
                f"{left.tag}/{right.tag} do not share a breakpoint")
        worst = max(worst, abs(left.ln_E[0] - right.ln_E[-1]))
    return worst


# -- formatting -------------------------------------------------------------

def round_sig(x: float) -> float:
    """Round to twelve significant digits via the decimal formatter, so
    CSV text and JSON numbers agree exactly."""
    if not math.isfinite(x):
        return x
    return float(f"{x:.11e}")


def _log10_string(ln_E: float) -> str:
    return f"{ln_E / _LN10:.11e}"


def bundle_to_csv(bundle: CurveBundle) -> str:
    lines = ["e,log10_E,segment"]
    for seg in bundle.segments:
        for ln_e, ln_E in zip(seg.ln_e, seg.ln_E):
            lines.append(f"{sci_string(ln_e)},{_log10_string(ln_E)},{seg.tag}")
    return "\n".join(lines) + "\n"


def bundle_to_json(bundle: CurveBundle) -> str:
    breakpoints = {}
    for name, value in bundle.breakpoints.items():
        if name == "E0" and abs(value.ln) < 700.0:
            # the anchor enstrophy is native-range by construction
            breakpoints[name] = round_sig(value.to_float())
        elif name.startswith("E"):
            # enstrophy-like: store the exponent, keyed to say so
            breakpoints["log10_" + name] = round_sig(value.log10())
        else:
            breakpoints[name] = value.to_sci_string()
    doc = {
        "model": bundle.model,
        "params_echo": bundle.params.to_raw(),
        "breakpoints": breakpoints,
        "segments": [
            {
                "tag": seg.tag,
                "e": [sci_string(v) for v in seg.ln_e],
                "log10_E": [float(_log10_string(v)) for v in seg.ln_E],
            }
            for seg in bundle.segments
        ],
        "flags": sorted(bundle.flags),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
