"""Output checks for every benchmark operation.

An operation fails on a non-zero exit, an untyped exception, or output
that fails its check. Checks:

* preset curves, emax and taylor reports: equal to the reference captured
  when the benchmark was defined (bench/refs), byte for byte or within
  1e-9 in ln E (plus one unit in the last printed digit, since log10 E is
  printed to 12 significant digits);
* preset classify points: the reference label;
* drawn inputs: structural checks (CSV and JSON of the same draw agree
  sample by sample, params_echo repeats the input file, labels lie in
  {I, II, III, IV}, numbers are finite);
* verify: exit 0 and every row passing.

Records are dicts with keys check, rc, out, err; check_records adds ok,
incorrect (exit 0 but the output failed its check) and reason.
"""

from __future__ import annotations

import json
import lzma
import math
from pathlib import Path

LN10 = math.log(10.0)
LN_TOL = 1e-9
SEGMENT_TAGS = {"phi1", "phi2", "phi3", "lower_boundary", "barrier",
                "parabola"}
LABELS = {"I", "II", "III", "IV"}


class Mismatch(Exception):
    pass


# what malformed output can raise while it is parsed and compared
CHECK_ERRORS = (Mismatch, ValueError, KeyError, TypeError, AttributeError,
                IndexError)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def sci_ln(text: str) -> float:
    """ln of a positive decimal literal whose exponent may be far outside
    float range ("1.2345e-3583")."""
    mant, _, exp = text.lower().partition("e")
    m = float(mant)
    _require(m > 0.0 and math.isfinite(m), f"not a positive literal: {text}")
    return math.log(m) + (int(exp) if exp else 0) * LN10


def _last_digit(x: float) -> float:
    """One unit in the 12th significant digit of x."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 11) if x else 1e-300


def _close_log10(a: float, b: float) -> bool:
    return abs(a - b) <= LN_TOL / LN10 + _last_digit(b)


def _close_plain(a: float, b: float) -> bool:
    return abs(a - b) <= LN_TOL * abs(b) + _last_digit(b)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


# -- curves -------------------------------------------------------------------

def parse_csv(text: str) -> list[tuple[str, str, str]]:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == "e,log10_E,segment", "CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        _require(len(parts) == 3, f"CSV row {line!r}")
        rows.append((parts[0], parts[1], parts[2]))
    return rows


def _json_rows(doc: dict) -> list[tuple[str, float, str]]:
    rows = []
    for seg in doc["segments"]:
        _require(len(seg["e"]) == len(seg["log10_E"]), "segment lengths")
        rows.extend((e, v, seg["tag"]) for e, v in zip(seg["e"],
                                                      seg["log10_E"]))
    return rows


def _check_rows_structure(rows) -> None:
    _require(bool(rows), "empty curve")
    for e, v, tag in rows:
        _require(tag in SEGMENT_TAGS, f"segment tag {tag!r}")
        sci_ln(e)
        _require(math.isfinite(float(v)), "non-finite log10 E")


def _compare_rows(rows, ref_rows) -> None:
    _require(len(rows) == len(ref_rows), "sample count differs from reference")
    for (e, v, tag), (re_, rv, rtag) in zip(rows, ref_rows):
        _require(tag == rtag, "segment tags differ from reference")
        _require(abs(sci_ln(e) - sci_ln(re_)) <= LN_TOL,
                 f"e moved: {e} vs {re_}")
        _require(_close_log10(float(v), float(rv)),
                 f"log10 E moved: {v} vs {rv}")


def compare_json(doc, ref, key: str = "") -> None:
    """Same structure and strings; numbers within the ROADMAP tolerance
    (log10 values in absolute terms, others relative); scientific strings
    compared in ln."""
    if isinstance(ref, dict):
        _require(isinstance(doc, dict) and doc.keys() == ref.keys(),
                 f"keys differ at {key!r}")
        for k in ref:
            compare_json(doc[k], ref[k], k)
    elif isinstance(ref, list):
        _require(isinstance(doc, list) and len(doc) == len(ref),
                 f"length differs at {key!r}")
        for a, b in zip(doc, ref):
            compare_json(a, b, key)
    elif isinstance(ref, bool) or ref is None:
        _require(doc is ref, f"value differs at {key!r}")
    elif isinstance(ref, (int, float)):
        _require(_finite(doc), f"non-number at {key!r}")
        close = _close_log10 if key.startswith("log10") else _close_plain
        _require(close(float(doc), float(ref)), f"{key}: {doc} vs {ref}")
    elif doc != ref:
        # energies far outside float range are printed as decimal strings
        _require(isinstance(doc, str) and isinstance(ref, str),
                 f"value differs at {key!r}")
        try:
            moved = abs(sci_ln(doc) - sci_ln(ref))
        except ValueError:
            moved = math.inf
        _require(moved <= LN_TOL, f"{key}: {doc} vs {ref}")


def csv_json_agree(csv_text: str, json_text: str) -> None:
    rows = parse_csv(csv_text)
    jrows = _json_rows(json.loads(json_text))
    _require(len(rows) == len(jrows), "CSV and JSON sample counts differ")
    for (e, v, tag), (je, jv, jtag) in zip(rows, jrows):
        _require(e == je and tag == jtag and float(v) == float(jv),
                 f"CSV and JSON disagree at e = {e}")


def _check_curve(check: dict, out: str, refs: "References") -> None:
    if check.get("ref"):
        ref = refs.text(check["ref"])
        if out == ref:
            return
        if check["format"] == "csv":
            _compare_rows(parse_csv(out), parse_csv(ref))
        else:
            compare_json(json.loads(out), json.loads(ref))
        return
    if check["format"] == "csv":
        _check_rows_structure(parse_csv(out))
        return
    doc = json.loads(out)
    _require(doc.get("model") == check["model"], "model echo")
    raw = json.loads(Path(check["params"]).read_text())
    echo = doc["params_echo"]
    for k, v in raw.items():
        _require(echo.get(k) == v, f"params_echo[{k!r}] differs from input")
    _check_rows_structure(_json_rows(doc))


def _check_emax(check: dict, out: str, refs: "References") -> None:
    doc = json.loads(out)
    if check.get("ref"):
        compare_json(doc, json.loads(refs.text(check["ref"])))
        return
    lo, hi = doc["log10_lower"], doc["log10_upper"]
    _require(_finite(lo) and _finite(hi) and lo <= hi, "emax bracket")


def _check_taylor(check: dict, out: str, refs: "References") -> None:
    doc = json.loads(out)
    if check.get("ref"):
        compare_json(doc, json.loads(refs.text(check["ref"])))
        return
    _require(bool(doc["segments"]), "no taylor segments")
    for seg in doc["segments"]:
        _require(seg["tag"] in SEGMENT_TAGS, "taylor tag")
        _require(_finite(seg["log10_kappa_T"]), "taylor value")


def _check_verify(out: str) -> None:
    rows = json.loads(out)
    _require(bool(rows), "empty verify report")
    failed = [f"{r['check']}/{r['segment']}" for r in rows if not r["pass"]]
    _require(not failed, "verify rows failed: " + ", ".join(failed))


def check_label(label: str, family: str, ref: str | None) -> None:
    if ref is not None:
        _require(label == ref, f"label {label!r}, reference {ref!r}")
    allowed = LABELS if family == "full" else LABELS - {"IV"}
    _require(label in allowed, f"label {label!r} not in {sorted(allowed)}")


# -- running the checks -----------------------------------------------------

class References:
    """Reference outputs in bench/refs, xz-compressed, loaded on demand."""

    def __init__(self, bench_dir: Path):
        self.dir = bench_dir / "refs"
        self._cache: dict[str, str] = {}

    def text(self, name: str) -> str:
        if name not in self._cache:
            with lzma.open(self.dir / f"{name}.xz", "rt",
                           encoding="utf-8") as fh:
                self._cache[name] = fh.read()
        return self._cache[name]


NOT_STARTED = "not started: the run passed its deadline"


def failure_reason(rc: int | None, err: str) -> str:
    if rc is None:
        return err
    lines = [ln for ln in err.strip().splitlines() if ln.strip()]
    return f"exit {rc}: {lines[-1][:120] if lines else 'no message'}"


def check_one(check: dict, out: str, refs: References) -> None:
    kind = check["kind"]
    if kind == "curve":
        _check_curve(check, out, refs)
    elif kind == "emax":
        _check_emax(check, out, refs)
    elif kind == "taylor":
        _check_taylor(check, out, refs)
    elif kind == "verify":
        _check_verify(out)
    elif kind == "classify":
        check_label(out.strip(), check["family"], check["ref_label"])
    else:
        raise ValueError(f"unknown check kind {kind!r}")


def check_records(records: list[dict], refs: References) -> None:
    pairs: dict[str, dict] = {}
    for rec in records:
        rec["ok"], rec["incorrect"], rec["reason"] = True, False, None
        if rec["rc"] != 0:
            rec["ok"] = False
            rec["reason"] = failure_reason(rec["rc"], rec["err"])
            continue
        try:
            check_one(rec["check"], rec["out"], refs)
        except CHECK_ERRORS as exc:
            rec["ok"], rec["incorrect"] = False, True
            rec["reason"] = f"check: {type(exc).__name__}: {exc}"[:160]
            continue
        pair = rec["check"].get("pair")
        if pair:
            pairs.setdefault(pair, {})[rec["check"]["format"]] = rec
    for both in pairs.values():
        if len(both) < 2:
            continue
        try:
            csv_json_agree(both["csv"]["out"], both["json"]["out"])
        except CHECK_ERRORS as exc:
            for rec in both.values():
                rec["ok"], rec["incorrect"] = False, True
                rec["reason"] = f"check: {exc}"[:160]
