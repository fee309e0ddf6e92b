"""Curve containers and deterministic serialization.

Each bounding-curve family produces a CurveBundle: an ordered list of
sampled segments plus the breakpoints that delimit them. Abscissas live in
ln e throughout (see logscalar for why), ordinates in ln E, and each
breakpoint is the ln of its value. Serialization
is fully deterministic: energies are rendered by logscalar.sci_string and
enstrophies as log10 values rounded through a fixed format, so rerunning the
CLI reproduces files byte for byte and CSV and JSON agree sample by sample.
"""

from __future__ import annotations

import json
import math

from .errors import CancellationLoss, InvalidRegime, OutsideDomain
from .logscalar import _LN10, sci_string
from .params import ForcingParams

# the only tags serialization will accept; pinned output vocabulary
SEGMENT_TAGS = ("phi1", "phi2", "phi3", "lower_boundary", "barrier", "parabola")


class CurveSegment:
    """One sampled segment: ln e increasing, ln E, and the analytic slope
    d ln E/d ln e where containment needs it. A tag outside SEGMENT_TAGS,
    or abscissas and ordinates of different lengths, is InvalidRegime,
    naming the tag."""

    def __init__(self, tag: str, ln_e: list[float], ln_E: list[float],
                 dlnE_dlne: list[float] | None = None):
        if tag not in SEGMENT_TAGS:
            raise InvalidRegime(f"unknown segment tag {tag!r}")
        if len(ln_e) != len(ln_E):
            raise InvalidRegime(f"segment {tag!r}: {len(ln_e)} abscissas "
                                f"but {len(ln_E)} ordinates")
        self.tag, self.ln_e, self.ln_E = tag, ln_e, ln_E
        self.dlnE_dlne = dlnE_dlne


class CurveBundle:
    def __init__(self, model: str, params: ForcingParams,
                 segments: list[CurveSegment],
                 breakpoints: dict[str, float],
                 flags: list[str] | None = None):
        self.model, self.params, self.segments = model, params, segments
        self.breakpoints = breakpoints
        self.flags = [] if flags is None else flags

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


def power_law(tag: str, grid: list[float], ln_c: float,
              k: float) -> CurveSegment:
    """The power law E = C e^k sampled on grid: ln E = ln C + k ln e, with
    slope k."""
    return CurveSegment(tag, grid, [ln_c + k * v for v in grid],
                        [k] * len(grid))


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


def _json_array(values: list, depth: int) -> str:
    """values as json.dumps(..., indent=2) writes a list at depth levels
    of indentation, spread from the C encoder's compact form: [] when
    empty, and every float and string spelled by that encoder (NaN,
    Infinity and -Infinity included). Splitting at ", " is safe because
    no float, and no string these writers put in an array, contains it."""
    if not values:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    items = json.dumps(values)[1:-1].replace(", ", "," + pad)
    return "[" + pad + items + "\n" + "  " * depth + "]"


def bundle_to_json(bundle: CurveBundle) -> str:
    """The bundle as json.dumps(doc, sort_keys=True, indent=2) + "\n"
    writes it, byte for byte. That call writes the head (breakpoints,
    flags, model, params_echo); "segments", the last key in sorted
    order, is written here, each segment's e, log10_E and tag
    (_json_array, json.dumps for the tag), because with an indent json
    falls back to its pure-Python encoder, which cost most of the time
    on the sample arrays."""
    breakpoints = {}
    for name, ln in bundle.breakpoints.items():
        if name == "E0" and abs(ln) < 700.0:
            # the anchor enstrophy is native-range by construction
            breakpoints[name] = round_sig(math.exp(ln))
        elif name.startswith("E"):
            # enstrophy-like: store the exponent, keyed to say so
            breakpoints["log10_" + name] = round_sig(ln / _LN10)
        else:
            breakpoints[name] = sci_string(ln)
    head = json.dumps({
        "model": bundle.model,
        "params_echo": bundle.params.to_raw(),
        "breakpoints": breakpoints,
        "flags": sorted(bundle.flags),
    }, sort_keys=True, indent=2)
    segments = [
        "    {\n"
        f'      "e": {_json_array([sci_string(v) for v in seg.ln_e], 3)},\n'
        '      "log10_E": '
        f"{_json_array([round_sig(v / _LN10) for v in seg.ln_E], 3)},\n"
        f'      "tag": {json.dumps(seg.tag)}\n'
        "    }"
        for seg in bundle.segments
    ]
    body = "[\n" + ",\n".join(segments) + "\n  ]" if segments else "[]"
    return head[:-2] + ',\n  "segments": ' + body + "\n}\n"
