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

cli owns the command table, the parser, the dispatch and the emit. The
model module a command runs builds the document it prints: the curve
writers of curves, maxest.bound_report for emax (rescaled, rounded and
refused there) and verify.report for verify, whose rows print as they
come. taylor, the CLI's own diagnostic of a curve file, is computed
here.

Start-up executes only what every command shares (the parameter file,
the writers, and a table of the commands, _COMMANDS, in place of argparse
and its build); each handler imports the model module it runs, so `emax`
never executes the curve constructions and `curve subcritical` never
executes the critical, full, scaling or verify modules. The curve models
are the assemble_<model> names of the package's export table (_EXPORTS),
and `curve` reads its assembler from the package, which executes only the
module that defines it.

The entry points are the console script (main) and `python -m
enstrophy_bounds`. main runs one command through run, freezes the heap
(gc.freeze) and exits, so the interpreter's shutdown collections skip
the objects the command's imports left; run itself never freezes,
because tests and tools call it many times in one process, where a
freeze would keep every object alive.
"""

from __future__ import annotations

import json
import math
import sys
from functools import reduce
from types import SimpleNamespace

from . import _EXPORTS
from .curves import bundle_to_csv, bundle_to_json, round_sig
from .errors import EnstrophyBoundsError, InvalidRegime
from .logscalar import _LN10, from_sci_string, ln_add
from .params import load_params_file


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# exp() overflows just above this: taylor writes a kappa_T past it as null
_EXP_MAX = 709.0


def _cmd_curve(params, args) -> int:
    assemble = getattr(sys.modules[__package__], f"assemble_{args.model}")
    bundle = assemble(params, samples=args.samples)
    text = bundle_to_csv(bundle) if args.format == "csv" \
        else bundle_to_json(bundle)
    _emit(text, args.out)
    return 0


def _cmd_emax(params, args) -> int:
    from . import maxest

    doc = maxest.bound_report(params, eta=args.eta, E0_anchor=args.anchor_E0)
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_classify(params, args) -> int:
    if args.model == "full":
        from .full_nse import classify_full
        label = classify_full(args.e, args.E, params)
    else:
        from .branches import family
        label = family(params).classify(args.e, args.E)
    sys.stdout.write(label + "\n")
    return 0


def _cmd_verify(params, args) -> int:
    from . import verify

    rows = verify.report(params, n_points=args.points)
    _emit(json.dumps(rows, sort_keys=True, indent=2) + "\n", args.out)
    if verify.all_pass(rows):
        return 0
    print("verification failed", file=sys.stderr)
    return 2


def _read_curve(path: str) -> list:
    """(tag, ln energies, ln enstrophies) of each nonempty segment of a
    curve JSON that the curve subcommand wrote: positive energies, each
    with one finite log10_E, a JSON number (float() would read true and
    "2" as 1 and 2)."""
    try:
        with open(path, "rb") as f:
            doc = json.loads(f.read())
        if any(isinstance(v, (bool, str)) for seg in doc["segments"]
               for v in seg["log10_E"]):
            raise TypeError("every log10_E must be a number")
        segments = [(seg["tag"],
                     [from_sci_string(s) for s in seg["e"]],
                     [float(v) * _LN10 for v in seg["log10_E"]])
                    for seg in doc["segments"] if seg["e"]]
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise InvalidRegime(f"{path} is not a curve file: "
                            f"{type(exc).__name__}: {exc}") from None
    for tag, es, big_es in segments:
        if any(e == -math.inf for e in es):
            raise InvalidRegime(f"{path} is not a curve file: "
                                "every energy must be positive")
        if len(big_es) != len(es) \
                or not all(math.isfinite(E) for E in big_es):
            raise InvalidRegime(f"{path} is not a curve file: segment "
                                f"{tag} needs one finite log10_E per energy")
    return segments


def _cmd_taylor(params, args) -> int:
    segments = []
    for tag, es, big_es in _read_curve(args.curve):
        # the means in ln: each sum an ln_add fold from ln 0
        ln_n = math.log(len(es))
        e_mean = reduce(ln_add, es, -math.inf) - ln_n
        big_mean = reduce(ln_add, big_es, -math.inf) - ln_n
        ln_kappa = 0.5 * (big_mean - e_mean)
        segments.append({"tag": tag,
                         "log10_kappa_T": round_sig(ln_kappa / _LN10),
                         "kappa_T": math.exp(ln_kappa)
                         if ln_kappa <= _EXP_MAX else None})
    out = {"segments": segments,
           "log10_sqrt_lambda": round_sig(0.5 * math.log10(params.lam))}
    _emit(json.dumps(out, sort_keys=True, indent=2) + "\n", args.out)
    return 0


# command -> (help, options), an option flag -> (type, default, choices,
# required); "model" is a positional, and "--anchor-E0" sets anchor_E0
_PARAMS = {"--params": (str, None, None, True)}
_OUT = {"--out": (str, None, None, False)}
_COMMANDS = {
    "curve": ("assemble a bounding curve", {
        # a curve model is the <model> of an exported assemble_<model>
        "model": (str, None, tuple(sorted(
            name.removeprefix("assemble_") for name in _EXPORTS
            if name.startswith("assemble_"))), True), **_PARAMS,
        "--samples": (int, 512, None, False),
        "--format": (str, "csv", ("csv", "json"), False), **_OUT}),
    "emax": ("maximal-enstrophy bracket", {
        **_PARAMS, "--eta": (float, None, None, False),
        "--anchor-E0": (float, None, None, False), **_OUT}),
    "classify": ("place a point in the plane", {
        **_PARAMS, "--e": (float, None, None, True),
        "--E": (float, None, None, True),
        "--model": (str, "full", ("full", "subcritical"), False)}),
    "verify": ("containment and oracle report", {
        **_PARAMS, "--points": (int, 512, None, False), **_OUT}),
    "taylor": ("Taylor-wavenumber diagnostic", {
        **_PARAMS, "--curve": (str, None, None, True), **_OUT}),
}


def _help() -> str:
    lines = ["usage: enstrophy-bounds COMMAND [--OPTION VALUE ...]"]
    for command, (text, options) in _COMMANDS.items():
        lines += ["", f"{command}: {text}"] + [
            f"  {flag} " + ("{%s}" % ",".join(choices) if choices
                            else kind.__name__)
            + (" (required)" if required else f" (default {default})")
            for flag, (kind, default, choices, required) in options.items()]
    return "\n".join(lines) + "\n"


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and every attribute its handler reads; ValueError when
    argv does not fit the table. Options come in any order as `--flag
    value` or `--flag=value`, and the last of a repeated one wins; a flag
    takes the next word whatever it is."""
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError("expected a command: " + ", ".join(_COMMANDS))
    options = _COMMANDS[argv[0]][1]
    given = {}
    words = iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=")
        if flag.startswith("--") and flag in options:
            given[flag] = value if eq else next(words, None)
        elif word.startswith("-") or "model" not in options.keys() - given:
            raise ValueError(f"unrecognized argument {word!r}")
        else:
            given["model"] = word
    args = SimpleNamespace(command=argv[0])
    for flag, (kind, default, choices, required) in options.items():
        value = given.get(flag)
        if value is None and (required or flag in given):
            raise ValueError(f"{flag} needs a value")
        try:
            value = default if value is None else kind(value)
            if choices and value not in choices:
                raise ValueError
        except ValueError:
            raise ValueError(f"{flag} takes one " + (
                "of " + ", ".join(choices) if choices else kind.__name__)
                + f", not {given[flag]!r}") from None
        setattr(args, flag.lstrip("-").replace("-", "_"), value)
    return args


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help())
        return 0
    try:
        args = _parse(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return globals()[f"_cmd_{args.command}"](
            load_params_file(args.params), args)
    except (EnstrophyBoundsError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


def main() -> None:
    """Run one command and exit with its code, freezing the heap first:
    gc.freeze moves every tracked object into the permanent generation,
    which the interpreter's shutdown collections skip, so they no longer
    walk the 10-12 thousand objects the command's imports left. atexit
    handlers, the stdio flush and module teardown still run. The freeze
    is here and not in run, which tests and tools call many times in one
    process, where frozen objects would never be collected."""
    import gc
    import signal

    if hasattr(signal, "SIGPIPE"):
        # die quietly when the consumer closes the pipe, like any filter
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = run(sys.argv[1:])
    gc.freeze()
    sys.exit(code)
