"""List the library statements that no run of the fixed set reaches.

    python tools/unreached.py

It runs the fixed set of tools/outputs.py (outputs.collect on every
parameter set of param_sets(), then the runs of ONCE) in this process
under sys.settrace, recording each line executed in
src/enstrophy_bounds/. A statement is a node of the module's syntax tree
that executes as a line: defs, classes, imports, docstrings and
nonlocal and global declarations are left out. It is reached when one of
its own lines ran, a compound statement's own lines being its header.

ALLOWED names each statement that the fixed set leaves unreached on
purpose by (module, enclosing function, statement text), the text being
the statement's own source with its whitespace collapsed, so that an
entry survives lines moving but not the statement changing. Each entry
gives its reason and the test that reaches the statement: the benchmark
alone calls it, a subprocess alone runs it, it is part of a module or
object protocol, it guards an argument that no run passes, or it is the
failing branch of a check that passes on every run. The script prints
each unreached statement not in ALLOWED, and each entry whose statement
the set now reaches, and exits 1 if there is one, 0 if there is none.
tests/test_tools.py checks, without the trace, that each entry names
exactly one statement and an existing test. The script needs only the
standard library and takes about a minute.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "enstrophy_bounds"

# the reasons a statement may stay unreached
BENCH = "benchmark only: bench/spans.py traces or counts it"
SUBPROCESS = "subprocess only: the console script and python -m"
PROTOCOL = "module or object protocol"
GUARD = "a guard or arm for an argument no run of the fixed set passes"
CHECK = "the failing branch of a check that passes on every run"

# (reason, the test under tests/ that reaches the statements, then
# (module, enclosing function, statement text) of each statement)
_GROUPS = (
    (PROTOCOL, 'test_package.py::test_removed_names_raise_attribute_error',
     ('__init__', '__getattr__',
      'raise AttributeError(f"module {__name__!r} has no attribute '
      '{name!r}")')),
    (PROTOCOL, 'test_params.py::test_frozen',
     ('params', 'ForcingParams.__setattr__',
      'raise AttributeError(f"cannot assign to ForcingParams.{name}")'),
     ('params', 'ForcingParams.__delattr__',
      'raise AttributeError(f"cannot delete ForcingParams.{name}")')),
    (SUBPROCESS, 'test_cli.py::test_console_entry_point',
     ('__main__', '',
      'main()'),
     ('cli', 'main',
      'if hasattr(signal, "SIGPIPE"):'),
     ('cli', 'main',
      'signal.signal(signal.SIGPIPE, signal.SIG_DFL)'),
     ('cli', 'main',
      'code = run(sys.argv[1:])'),
     ('cli', 'main',
      'gc.freeze()'),
     ('cli', 'main',
      'sys.exit(code)')),
    (BENCH, 'test_critical.py::test_peak_pins',
     ('critical', 'find_e_max',
      'return chain(params).peak_point()'),
     ('branches', 'Chain.peak_point',
      '_, ln_e, ln_E = self.peak'),
     ('branches', 'Chain.peak_point',
      'return min(math.exp(ln_e), self.rise.e_a), ln_E')),
    (BENCH, 'test_critical.py::test_e_min_pin_and_floor_join',
     ('critical', 'find_e_min',
      'return chain(params).ln_floor')),
    (BENCH, 'test_classify.py::test_classify_matches_the_pointwise_classifier',
     ('critical', 'classify_critical',
      'return chain(params).classify(e, E)'),
     ('subcritical', 'classify_subcritical',
      'return chain(params).classify(e, E)')),
    (BENCH, 'test_subcritical.py::test_branches_match_two_term_closed_form',
     ('subcritical', 'find_e_bar',
      'return chain(params).peak_point()')),
    (BENCH, 'test_specfun.py::test_weighted_integral_against_quadrature',
     ('specfun', 'weighted_exp_integral_ln',
      'return weighted_exp_integral_to(a, b, ln_hi)(ln_lo)')),
    (BENCH, 'test_logscalar.py::test_same_sign_add_lossless',
     ('logscalar', 'LogScalar.__init__',
      'self.ln = ln'),
     ('logscalar', 'LogScalar.add_with_cancellation',
      'return LogScalar(ln_add(self.ln, other.ln)), 0.0')),
    (CHECK, 'test_cli.py::test_failed_verify_prints_its_report_and_exits_2',
     ('cli', '_cmd_verify',
      'print("verification failed", file=sys.stderr)'),
     ('cli', '_cmd_verify',
      'return 2')),
    (CHECK, 'test_cli.py::test_construction_invariant_is_typed',
     ('branches', 'Chain.assemble',
      'raise FieldBlowup( f"{seg.tag} dips below the parabola or the '
      'lower " f"boundary at ln e = {v:.6g}")')),
    (CHECK, 'test_verify.py::test_scan_row_rejects_displaced_root',
     ('verify', '_scan_row',
      'dist = min(dist, abs(center - a), abs(center - b))')),
    (CHECK, 'test_verify.py::test_oracle_suite_without_the_region',
     ('verify', 'oracle_suite',
      'rows.append(_row("root_vs_gridscan", "e2", 0, math.inf, False, '
      'f"{type(exc).__name__}: {exc}"))')),
    (GUARD, 'test_cli.py::test_underflowing_barrier_asymptote_is_invalid',
     ('branches', 'Chain.peak',
      'raise InvalidRegime(f"e_a = a/b underflows (b = {f.b:.3g})")')),
    (GUARD, 'test_critical.py::test_floor_refusal_names_both_logs',
     ('branches', 'Chain.ln_floor',
      'raise NoBracket( "enstrophy floor meets or exceeds the curve '
      'maximum: " f"ln E_floor = {ln_E_floor:.6g}, ln E_peak = '
      '{ln_E_peak:.6g}")')),
    (GUARD, 'test_curves.py::test_segment_refusals_are_typed_and_name_the_tag',
     ('curves', 'CurveSegment.__init__',
      'raise InvalidRegime(f"unknown segment tag {tag!r}")'),
     ('curves', 'CurveSegment.__init__',
      'raise InvalidRegime(f"segment {tag!r}: {len(ln_e)} abscissas " '
      'f"but {len(ln_E)} ordinates")')),
    (GUARD, 'test_curves.py::test_bundle_segment_refuses_an_unknown_tag',
     ('curves', 'CurveBundle.segment',
      'raise KeyError(tag)')),
    (GUARD,
     'test_curves.py::test_max_join_gap_refuses_segments_without_a_shared_breakpoint',
     ('curves', 'max_join_gap',
      'raise CancellationLoss( f"{left.tag}/{right.tag} do not share a '
      'breakpoint")')),
    (GUARD,
     'test_curves.py::test_json_writer_spells_non_finite_values_and_empty_arrays',
     ('curves', 'round_sig',
      'return x'),
     ('curves', '_json_array',
      'return "[]"')),
    (GUARD, 'test_robustness.py::test_full_region_within_a_hundred_decades',
     ('full_nse', '_gate',
      'raise InvalidRegime(f"{name} is outside float range")')),
    (GUARD, 'test_full_nse.py::test_unresolved_wall_is_invalid',
     ('full_nse', 'Funnel.segment',
      'raise InvalidRegime( f"{tag}: a slope d ln E/d ln e is outside '
      'float range")')),
    (GUARD,
     'test_full_nse.py::test_wall_without_room_right_of_its_asymptote_is_typed',
     ('full_nse', 'assemble_full',
      'raise CancellationLoss( f"the wall\'s grid cannot start right of '
      'its asymptote: ln e_star " f"= {ln_star!r} and ln e0 = {ln_e0!r} '
      'are " f"{(ln_e0 - ln_star) / math.ulp(ln_e0):.3g} ulp apart") '
      'from None')),
    (GUARD, 'test_logscalar.py::test_sci_string_format',
     ('logscalar', 'sci_string',
      'return "0.0"')),
    (GUARD, 'test_logscalar.py::test_hypothesis_sci_round_trip_in_ln',
     ('logscalar', 'sci_string',
      'exp10 += 1'),
     ('logscalar', 'sci_string',
      'mant_str = format(mant / 10.0, _MANTISSA)')),
    (GUARD, 'test_maxest.py::test_validation_gates',
     ('maxest', '_validate',
      'raise InvalidRegime(f"G must be positive, got {G}")'),
     ('maxest', '_validate',
      'raise InvalidRegime(f"G^2 must be finite, got G = {G}")'),
     ('maxest', '_validate',
      'raise InvalidRegime("eps and c2 must be positive")'),
     ('maxest', '_validate',
      'raise InvalidRegime(f"rho must lie in [0, 1), got {rho}")')),
    (GUARD, 'test_cli.py::test_emax_outside_float_range_is_invalid',
     ('maxest', '_bound',
      'raise InvalidRegime(f"bound at eta = {eta} leaves float range " '
      'f"(ln = {ln})")'),
     ('maxest', 'bound_report',
      'raise InvalidRegime(f"{key} = {value} in physical units is " '
      '"outside float range")')),
    (GUARD, 'test_maxest.py::test_eta_min_values_and_shape',
     ('maxest', 'eta_min',
      'raise InvalidRegime("mu must be nonnegative")')),
    (GUARD,
     'test_params.py::test_keyword_construction_takes_exactly_the_fields',
     ('params', 'ForcingParams.__init__',
      'raise TypeError(f"ForcingParams takes the fields " '
      'f"{tuple(_FIELDS)}, got {sorted(fields)}")')),
    (GUARD, 'test_solver.py::test_find_root_refuses_nan',
     ('solver', 'find_root',
      'raise NoBracket(f"NaN at bracket endpoint: f({lo})={f_lo}, '
      'f({hi})={f_hi}")'),
     ('solver', 'find_root',
      'raise NonConvergence(f"f({xm}) is NaN")')),
    (GUARD, 'test_solver.py::test_find_root_needs_sign_change',
     ('solver', 'find_root',
      'raise NoBracket(f"no sign change on [{lo}, {hi}]")')),
    (GUARD, 'test_solver.py::test_find_root_gives_up_after_its_iteration_cap',
     ('solver', 'find_root',
      'raise NonConvergence(f"no root to 4 ulps in {_MAX_ITER} '
      'iterations")')),
    (GUARD, 'test_solver.py::test_integrate_reports_nonconvergence',
     ('solver', 'integrate_adaptive',
      'raise NonConvergence(f"tanh-sinh levels disagree at step '
      '2^-{_MAX_LEVEL}")')),
    (GUARD, 'test_solver.py::test_rk4_rejects_empty_interval',
     ('solver', 'rk4_path',
      'raise OutsideDomain("empty integration interval")')),
    (GUARD, 'test_solver.py::test_rk4_path_matches_the_tableau_loop',
     ('solver', 'rk4_path',
      'raise FieldBlowup(f"field not finite near e={e}")')),
    (GUARD, 'test_solver.py::test_rk4_blowup_guard',
     ('solver', 'rk4_path',
      'raise FieldBlowup(f"solution passed {_BLOWUP} near e={e}")')),
    (GUARD,
     'test_samplers.py::test_prepared_integral_matches_the_per_call_form',
     ('specfun', '_series_ln',
      'raise NonConvergence( f"g({alpha}, {x}): argument not below '
      '{_LN_RANGE:g}, past which " f"the series\' terms leave float '
      'range")'),
     ('specfun', '_large_ln',
      'return x + (math.log(lead) - math.log(x) + math.log1p(tail / '
      'lead))'),
     ('specfun', 'weighted_exp_integral_to.ln_w',
      'return -math.inf')),
    (GUARD, 'test_specfun.py::test_series_refuses_outside_its_domain',
     ('specfun', 'gamma_series_factor',
      'raise OutsideDomain(f"g needs a finite alpha > 0 with a finite " '
      'f"1/alpha, got alpha = {alpha}")'),
     ('specfun', 'gamma_series_factor',
      'raise OutsideDomain(f"g needs x >= 0, got x = {x}")')),
    (GUARD,
     'test_specfun.py::test_weighted_integral_refuses_outside_its_domain',
     ('specfun', 'weighted_exp_integral_to',
      'raise OutsideDomain(f"weighted integral needs 0 < a < 1, got a = '
      '{a}")'),
     ('specfun', 'weighted_exp_integral_to',
      'raise OutsideDomain(f"weighted integral needs b >= 0, got b = '
      '{b}")'),
     ('specfun', 'weighted_exp_integral_to.ln_w',
      'raise OutsideDomain(f"weighted integral needs ln_lo <= ln_hi, " '
      'f"got ln_lo = {ln_lo}, ln_hi = {ln_hi}")')),
    (GUARD,
     'test_robustness.py::test_verify_on_critical_sets_with_a_slow_peak',
     ('specfun', 'Field.ln_e_at',
      'raise OutsideDomain(f"w = {x:.6g} puts e at or left of 0")')),
    (GUARD, 'test_classify.py::test_classify_matches_the_pointwise_classifier',
     ('specfun', 'Branch.ln_y',
      'raise OutsideDomain(f"a branch is only defined at or left of " '
      'f"its anchor, ln e = {self.ln_e_ref:.6g}")')),
    (GUARD, 'test_verify.py::test_containment_rejects_unknown_model',
     ('verify', '_rate_tables',
      'raise OutsideDomain( f"containment has no rate bounds for model '
      '{curve.model!r}")')),
)
ALLOWED = {key: (reason, test) for reason, test, *keys in _GROUPS
           for key in keys}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIPPED = (ast.Import, ast.ImportFrom, ast.Nonlocal, ast.Global)
_BLOCKS = ("body", "handlers", "orelse", "finalbody")


def _blocks(node: ast.stmt) -> list[list[ast.stmt]]:
    """The nonempty statement lists nested in node, in source order."""
    blocks = []
    for field in _BLOCKS:
        value = getattr(node, field, None) or []
        blocks += [sub.body for sub in value] if field == "handlers" \
            else [value]
    return [block for block in blocks if block]


def _last_line(node: ast.stmt) -> int:
    """The last line of node's own source: of a compound statement, the
    last line of its header's expressions."""
    if not _blocks(node):
        return node.end_lineno
    return max([node.lineno] + [
        sub.end_lineno for field, value in ast.iter_fields(node)
        if field not in _BLOCKS
        for item in (value if isinstance(value, list) else [value])
        if isinstance(item, ast.AST)
        for sub in ast.walk(item) if getattr(sub, "end_lineno", None)])


def statements(source: str) -> list[tuple[str, str, range]]:
    """(enclosing function, text, own lines) of each statement of the
    module source, in source order; the function is a dotted qualified
    name, "" at module level, and the text leaves out comments."""
    lines = source.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    found = []

    def visit(body: list[ast.stmt], scope: str) -> None:
        for node in body:
            if isinstance(node, _SCOPES):
                visit(node.body, f"{scope}.{node.name}".lstrip("."))
                continue
            blocks = _blocks(node)
            docstring = node is body[0] and isinstance(node, ast.Expr) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str)
            if not (docstring or isinstance(node, _SKIPPED)):
                last = _last_line(node)
                text = " ".join(" ".join(lines[node.lineno - 1:last]).split())
                found.append((scope, text, range(node.lineno, last + 1)))
            for block in blocks:
                visit(block, scope)

    visit(ast.parse(source).body, "")
    return found


def library() -> dict[str, list[tuple[str, str, range]]]:
    """{module: statements()} of every module of the package."""
    return {path.stem: statements(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def executed() -> set[tuple[str, int]]:
    """(module, line) of every line of the package that the fixed set
    runs, traced from before the package's first import in this process."""
    spec = importlib.util.spec_from_file_location(
        "outputs", ROOT / "tools" / "outputs.py")
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    prefix, ran = str(PACKAGE) + "/", set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(call)
    try:
        outputs.collect(outputs.param_sets(), [])
    finally:
        sys.settrace(None)
    return {(Path(name).stem, line) for name, line in ran}


def main() -> int:
    ran = executed()
    total = unreached = stray = 0
    for module, found in library().items():
        for scope, text, own in found:
            total += 1
            reached = any((module, line) in ran for line in own)
            unreached += not reached
            if reached == ((module, scope, text) in ALLOWED):
                stray += 1
                print(f"{'reached, but allowed' if reached else 'unreached'}"
                      f" {module}:{own.start} {scope or '<module>'}: {text}")
    print(f"{unreached} of {total} statements unreached, {len(ALLOWED)} "
          f"allowed, {stray} listed above")
    return 1 if stray else 0


if __name__ == "__main__":
    sys.exit(main())
