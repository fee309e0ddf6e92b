"""Command line front end.

Subcommands: curve (assemble and emit CSV/JSON), emax (maximal-enstrophy
bracket), classify (place a single point), verify (containment + oracle
report), taylor (per-segment Taylor-wavenumber diagnostic of an emitted
curve file).

Exit codes: 0 success, 1 usage, an unreadable file or bad input, 2 a
numerical failure or a failed verify report, 3 a structural assumption of
the estimates does not hold. Each library error class carries its code
(see errors.py); any other exception is a bug and escapes with its
traceback.

Output is deterministic: identical invocations produce identical bytes.

Start-up executes only what every command shares (argument parsing, the
parameter file, the writers); each handler imports the model module it
runs, so `emax` never executes the curve constructions and `curve
subcritical` never executes the critical, full, scaling or verify modules.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import signal
import sys
from pathlib import Path

from .curves import bundle_to_csv, bundle_to_json, round_sig
from .errors import EnstrophyBoundsError, InvalidRegime
from .logscalar import ZERO, LogScalar
from .params import load_params_file


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; we reserve 2 for
    # numerical failures, so route them through an exception instead
    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _finite(x: float):
    return x if math.isfinite(x) else None


# model -> (module, function) of its assembler, imported by name when the
# command runs
_ASSEMBLERS = {
    "critical": ("critical", "assemble_critical"),
    "subcritical": ("subcritical", "assemble_subcritical"),
    "full": ("full_nse", "assemble_full"),
    "scaling": ("scaling", "assemble_scaling"),
}


def _cmd_curve(params, args) -> int:
    module, name = _ASSEMBLERS[args.model]
    assemble = getattr(importlib.import_module(f".{module}", __package__),
                       name)
    bundle = assemble(params, samples=args.samples)
    text = bundle_to_csv(bundle) if args.format == "csv" \
        else bundle_to_json(bundle)
    _emit(text, args.out)
    return 0


def _cmd_emax(params, args) -> int:
    from . import maxest

    report = maxest.bound_report(params.grashof, params.eps, params.rho,
                                 params.c2, mu=params.mu, eta=args.eta,
                                 E0_anchor=args.anchor_E0)
    e_scale, big_scale = maxest.physical_scale(params)
    flags = list(report.flags)
    if (e_scale, big_scale) != (1.0, 1.0):
        flags.append("rescaled_to_physical_units")
    up = LogScalar.from_float(big_scale)
    doc = {
        "log10_lower": round_sig((report.lower * up).log10()),
        "log10_upper": round_sig((report.upper * up).log10()),
        "eta_used": round_sig(report.eta_used),
        "e_crit": round_sig(report.e_crit * e_scale),
        "e_bar_crit": round_sig(report.e_bar_crit * e_scale),
        "anchor_E0": round_sig(report.anchor_E0 * big_scale),
        "flags": sorted(flags),
    }
    for key, value in doc.items():
        if key != "flags" and not math.isfinite(value):
            raise InvalidRegime(f"{key} = {value} in physical units is "
                                "outside float range")
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_classify(params, args) -> int:
    if args.model == "full":
        from .full_nse import classify_full as classify
    elif params.r == 0.5:
        from .critical import classify_critical as classify
    else:
        from .subcritical import classify_subcritical as classify
    sys.stdout.write(classify(args.e, args.E, params) + "\n")
    return 0


def _cmd_verify(params, args) -> int:
    from . import verify

    rows = verify.report(params, n_points=args.points)
    for row in rows:
        row["worst_margin"] = _finite(row["worst_margin"])
    _emit(json.dumps(rows, sort_keys=True, indent=2) + "\n", args.out)
    if verify.all_pass(rows):
        return 0
    print("verification failed", file=sys.stderr)
    return 2


def _read_curve(path: str) -> list:
    """(tag, energies, enstrophies) of each nonempty segment of a curve
    JSON that the curve subcommand wrote."""
    ln10 = math.log(10.0)
    try:
        doc = json.loads(Path(path).read_bytes())
        segments = [(seg["tag"],
                     [LogScalar.from_sci_string(s) for s in seg["e"]],
                     [LogScalar.from_ln(float(v) * ln10)
                      for v in seg["log10_E"]])
                    for seg in doc["segments"] if seg["e"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidRegime(f"{path} is not a curve file: "
                            f"{type(exc).__name__}: {exc}") from None
    if any(e.ln == -math.inf for _, es, _ in segments for e in es):
        raise InvalidRegime(f"{path} is not a curve file: "
                            "every energy must be positive")
    return segments


def _cmd_taylor(params, args) -> int:
    segments = []
    for tag, es, big_es in _read_curve(args.curve):
        n = LogScalar.from_float(float(len(es)))
        e_mean = sum(es, ZERO) / n
        big_mean = sum(big_es, ZERO) / n
        kappa = (big_mean / e_mean) ** 0.5
        segments.append({"tag": tag,
                         "log10_kappa_T": round_sig(kappa.log10()),
                         "kappa_T": _finite(kappa.to_float())})
    out = {"segments": segments,
           "log10_sqrt_lambda": round_sig(0.5 * math.log10(params.lam))}
    _emit(json.dumps(out, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="enstrophy-bounds",
                description="Energy-enstrophy bounding curves for the "
                            "forced 3D Navier-Stokes equations")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curve", help="assemble a bounding curve")
    c.add_argument("model", choices=sorted(_ASSEMBLERS))
    c.add_argument("--params", required=True, help="JSON parameter file")
    c.add_argument("--samples", type=int, default=512)
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--out")
    c.set_defaults(handler=_cmd_curve)

    m = sub.add_parser("emax", help="maximal-enstrophy bracket")
    m.add_argument("--params", required=True)
    m.add_argument("--eta", type=float, default=None)
    m.add_argument("--anchor-E0", dest="anchor_E0", type=float, default=None)
    m.add_argument("--out")
    m.set_defaults(handler=_cmd_emax)

    k = sub.add_parser("classify", help="place a point in the plane")
    k.add_argument("--params", required=True)
    k.add_argument("--e", type=float, required=True)
    k.add_argument("--E", type=float, required=True)
    k.add_argument("--model", choices=("full", "subcritical"),
                   default="full")
    k.set_defaults(handler=_cmd_classify)

    v = sub.add_parser("verify", help="containment and oracle report")
    v.add_argument("--params", required=True)
    v.add_argument("--points", type=int, default=512,
                   help="containment samples per segment")
    v.add_argument("--out")
    v.set_defaults(handler=_cmd_verify)

    t = sub.add_parser("taylor", help="Taylor-wavenumber diagnostic")
    t.add_argument("--params", required=True)
    t.add_argument("--curve", required=True,
                   help="curve JSON produced by the curve subcommand")
    t.add_argument("--out")
    t.set_defaults(handler=_cmd_taylor)
    return p


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(load_params_file(args.params), args)
    except (EnstrophyBoundsError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # die quietly when the consumer closes the pipe, like any filter
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
