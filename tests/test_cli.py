"""Command-line surface: schemas, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

from enstrophy_bounds import (AssumptionViolated, CancellationLoss,
                              EnstrophyBoundsError, EtaTooSmall, FieldBlowup,
                              InvalidRegime, MissingKey, NoBracket,
                              NonConvergence, OutsideDomain, RegimeViolation,
                              assemble_critical, assemble_subcritical,
                              branches, classify_critical, classify_full,
                              classify_subcritical, cli, load_params_file)
from enstrophy_bounds.cli import run

from conftest import PRESETS

FIG2 = str(PRESETS / "fig2.json")
FIG3 = str(PRESETS / "fig3.json")


def _fig2_variant(tmp_path, name, **over):
    raw = json.loads((PRESETS / "fig2.json").read_text())
    raw.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# ---------------------------------------------------------- determinism


def test_curve_outputs_are_byte_identical(tmp_path):
    for fmt in ("csv", "json"):
        a = tmp_path / f"a.{fmt}"
        b = tmp_path / f"b.{fmt}"
        for out in (a, b):
            assert run(["curve", "critical", "--params", FIG2,
                        "--samples", "64", "--format", fmt,
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


# -------------------------------------------------------------- schemas


def test_curve_csv_schema(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["curve", "critical", "--params", FIG2, "--samples", "32",
                "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "e,log10_E,segment"
    tags = set()
    for line in lines[1:]:
        e_str, log10_str, tag = line.split(",")
        float(e_str), float(log10_str)
        tags.add(tag)
    assert {"phi1", "phi2", "phi3"} <= tags


def test_curve_json_schema(tmp_path):
    out = tmp_path / "c.json"
    assert run(["curve", "critical", "--params", FIG2, "--samples", "32",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"model", "params_echo", "breakpoints", "segments",
                        "flags"}
    assert doc["model"] == "critical"
    assert doc["params_echo"]["f_norm"] == 2.0
    # enstrophy breakpoints ride as exponents, except the native-range
    # anchor; energy breakpoints are scientific strings
    assert doc["breakpoints"]["E0"] == 16.0
    assert doc["breakpoints"]["log10_E_max"] \
        == pytest.approx(36.10484511251541, abs=1e-6)
    assert float(doc["breakpoints"]["e_max"]) \
        == pytest.approx(0.0025, rel=1e-12)
    for seg in doc["segments"]:
        assert set(seg) == {"tag", "e", "log10_E"}
        assert len(seg["e"]) == len(seg["log10_E"])


def test_csv_and_json_agree(tmp_path):
    csv_out = tmp_path / "c.csv"
    json_out = tmp_path / "c.json"
    run(["curve", "subcritical", "--params", FIG3, "--samples", "32",
         "--format", "csv", "--out", str(csv_out)])
    run(["curve", "subcritical", "--params", FIG3, "--samples", "32",
         "--format", "json", "--out", str(json_out)])
    rows = csv_out.read_text().splitlines()[1:]
    doc = json.loads(json_out.read_text())
    assert len(rows) == sum(len(s["e"]) for s in doc["segments"])
    first = rows[0].split(",")
    seg0 = doc["segments"][0]
    assert seg0["tag"] == first[2]
    assert seg0["e"][0] == first[0]
    assert seg0["log10_E"][0] == float(first[1])


# ------------------------------------------------------------ exit codes


def test_exit_code_usage():
    assert run([]) == 1
    assert run(["curve"]) == 1
    assert run(["curve", "nonsense", "--params", FIG2]) == 1


# every library error class and the exit code the CLI returns for it
_EXIT_CODES = {
    EnstrophyBoundsError: 1, MissingKey: 1, InvalidRegime: 1,
    OutsideDomain: 1, NoBracket: 2, NonConvergence: 2, CancellationLoss: 2,
    FieldBlowup: 2, RegimeViolation: 3, AssumptionViolated: 3,
    EtaTooSmall: 3,
}


def test_exit_code_table_names_every_error_class():
    assert set(_EXIT_CODES) \
        == {EnstrophyBoundsError, *EnstrophyBoundsError.__subclasses__()}


def _classify_raising(monkeypatch, exc):
    def handler(params, args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_classify", handler)
    return run(["classify", "--params", FIG2, "--e", "4", "--E", "1e9"])


@pytest.mark.parametrize("error, code", list(_EXIT_CODES.items()),
                         ids=[error.__name__ for error in _EXIT_CODES])
def test_error_class_sets_exit_code(monkeypatch, capsys, error, code):
    assert _classify_raising(monkeypatch, error("probe")) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{error.__name__}: probe\n"


def test_untyped_exception_escapes(monkeypatch):
    # a builtin exception is a bug: the CLI must not file it as bad input
    with pytest.raises(ZeroDivisionError):
        _classify_raising(monkeypatch, ZeroDivisionError("float division"))


def test_exit_code_bad_input(tmp_path):
    # critical assembly on subcritical parameters
    assert run(["curve", "critical", "--params", FIG3]) == 1
    # file missing entirely
    assert run(["curve", "critical", "--params",
                str(tmp_path / "nope.json")]) == 1
    # nonpositive point
    assert run(["classify", "--params", FIG2, "--e", "1", "--E", "0"]) == 1


@pytest.mark.parametrize("e, E", [(math.nan, 1.0), (1.0, math.nan),
                                  (math.nan, math.nan), (math.inf, 1.0),
                                  (1.0, math.inf)])
def test_classifiers_reject_nan(fig2, fig3, e, E):
    # a NaN or infinite coordinate is no point of the plane: it must not
    # get a label
    for classify, params in ((classify_critical, fig2),
                             (classify_subcritical, fig3),
                             (classify_full, fig2), (classify_full, fig3)):
        with pytest.raises(OutsideDomain):
            classify(e, E, params)


@pytest.mark.parametrize("preset", [FIG2, FIG3], ids=["fig2", "fig3"])
@pytest.mark.parametrize("model", ["full", "subcritical"])
@pytest.mark.parametrize("e, E", [("nan", "1"), ("1", "nan"), ("inf", "1"),
                                  ("1", "inf")])
def test_classify_command_rejects_nan(capsys, preset, model, e, E):
    assert run(["classify", "--params", preset, "--model", model,
                "--e", e, "--E", E]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("OutsideDomain:")


def test_scaling_curve_without_curl_forcing(tmp_path):
    # a zero admissibility floor holds everywhere: no barrier segment
    params = _fig2_variant(tmp_path, "curl0.json", curlF_norm=0.0)
    paths = {fmt: tmp_path / f"scaling.{fmt}" for fmt in ("csv", "json")}
    for fmt, path in paths.items():
        assert run(["curve", "scaling", "--params", params, "--samples",
                    "16", "--format", fmt, "--out", str(path)]) == 0
    rows = paths["csv"].read_text().splitlines()[1:]
    assert len(rows) == 16
    assert {row.split(",")[2] for row in rows} == {"phi1"}
    doc = json.loads(paths["json"].read_text())
    assert [seg["tag"] for seg in doc["segments"]] == ["phi1"]
    assert not any(f.startswith("E_floor_violations") for f in doc["flags"])


# curve files that the taylor subcommand must refuse as bad input
_BAD_CURVES = {
    "no-segments.json": {"model": "critical"},
    "text-energy.json": {"segments": [{"tag": "phi1", "e": ["one"],
                                       "log10_E": [1.0]}]},
    "zero-energy.json": {"segments": [{"tag": "phi1", "e": ["0.0", "0.0"],
                                       "log10_E": [1.0, 2.0]}]},
    "negative-energy.json": {"segments": [{"tag": "phi1",
                                           "e": ["1.0", "-1e3"],
                                           "log10_E": [1.0, 2.0]}]},
}


@pytest.fixture
def bad_curves(tmp_path):
    for name, doc in _BAD_CURVES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


# (arguments, fig2 overrides or the bytes of the parameter file, exit
# code): inputs that once hung, escaped as a traceback, printed invalid
# JSON or got an answer for a point that does not exist
_EXTREME_INPUTS = [
    pytest.param(["classify", "--e", "nan", "--E", "1"], {}, 1,
                 id="classify-nan-full"),
    pytest.param(["classify", "--e", "nan", "--E", "1", "--model",
                  "subcritical"], {"r": 0.75}, 1,
                 id="classify-nan-subcritical"),
    pytest.param(["classify", "--e", "inf", "--E", "1"], {}, 1,
                 id="classify-inf-e-full"),
    pytest.param(["classify", "--e", "1", "--E", "inf"], {}, 1,
                 id="classify-inf-E-full"),
    pytest.param(["classify", "--e", "1", "--E", "inf", "--model",
                  "subcritical"], {}, 1, id="classify-inf-E-subcritical"),
    pytest.param(["emax", "--eta", "nan"], {}, 1, id="emax-nan-eta"),
    pytest.param(["emax", "--eta", "inf"], {}, 1, id="emax-inf-eta"),
    pytest.param(["emax", "--anchor-E0", "nan"], {}, 1,
                 id="emax-nan-anchor"),
    pytest.param(["emax", "--anchor-E0", "inf"], {}, 1,
                 id="emax-inf-anchor"),
    pytest.param(["curve", "critical", "--samples", "1"], {}, 1,
                 id="curve-one-sample"),
    pytest.param(["verify", "--points", "-1"], {}, 1,
                 id="verify-negative-points"),
    pytest.param(["curve", "critical"], b"\x89PNG\r\n\x1a\n\xff\xfe", 1,
                 id="params-binary"),
    pytest.param(["curve", "critical"], b"nu = 1.0\n", 1,
                 id="params-not-json"),
    *[pytest.param(["taylor", "--curve", name], {}, 1, id=f"taylor-{name}")
      for name in _BAD_CURVES],
    pytest.param(["curve", "critical"], {"eps": 1e-300}, 2,
                 id="critical-tiny-eps"),
    pytest.param(["verify"], {"eps": 1e-300}, 2, id="verify-tiny-eps"),
    # G^2 and e0 overflow: the forcing-scale gate refuses the file
    pytest.param(["curve", "critical"], {"f_norm": 1e200}, 1,
                 id="critical-huge-forcing"),
    pytest.param(["verify"], {"f_norm": 1e200}, 1,
                 id="verify-huge-forcing"),
    pytest.param(["classify", "--e", "1", "--E", "1e10"], {"lambda": 1e-200},
                 1, id="classify-tiny-lambda"),
    pytest.param(["curve", "scaling"], {"curlF_norm": 0.0}, 0,
                 id="scaling-no-curl"),
    # the subcritical boundary floor is exp(712.8), past float range
    *[pytest.param(args, {"r": 1.0, "nu": 1e32, "c": 1e-57, "c2": 2e8,
                          "psi_inf": 1.0}, 1, id=f"{args[0]}-huge-floor")
      for args in (["curve", "subcritical"], ["verify"])],
    # the series argument x = b e0 is exp(720.7), past float range
    pytest.param(["curve", "critical"], {"nu": 1e-54, "eps": 1e-96}, 2,
                 id="critical-huge-series-argument"),
    # alpha = 101, where e^(alpha + 1/2) is past float range
    *[pytest.param(args, {"eta": 1.01}, 0, id=f"{args[0]}-steep-funnel")
      for args in (["curve", "full"], ["classify", "--e", "0.3", "--E", "2"],
                   ["verify"])],
    # e2 = 1.1e-67, but the wall's t = exp(-922) is below float range, so
    # the slope at its anchor is outside it
    pytest.param(["classify", "--e", "1", "--E", "1e10"], {"f_norm": 1e100},
                 0, id="classify-huge-forcing"),
    pytest.param(["curve", "full"], {"f_norm": 1e100}, 1,
                 id="full-huge-forcing"),
    pytest.param(["curve", "full"], {"nu": 1e-90, "f_norm": 1e-80}, 1,
                 id="full-tiny-nu-cubed-f"),
    # e0 = exp(-700.9) is in float range although G^2 = exp(-1369.5) is not:
    # the wall's t is then at least 1, so it has no asymptote
    *[pytest.param(args, {"nu": 1.1e113, "f_norm": 1.8e-168,
                          "lambda": 2.6e-129}, 3,
                   id=f"{args[0]}-tiny-G-squared")
      for args in (["curve", "full"],
                   ["classify", "--e", "1", "--E", "1e10"])],
    pytest.param(["curve", "full"], {
        "c": 1.43e24, "c1": 1.88e4, "c2": 8.3e47, "c_omega": 7.89e49,
        "curlF_norm": 9.1e-25, "delta": 1.3e-51, "eps": 3.3e-39,
        "f_norm": 677, "lambda": 4.8e-49, "lambda0": 2.8e-19, "mu": 9.7e8,
        "nu": 1.7e-55, "psi_inf": 6.2e37, "r": 0.657}, 1,
        id="full-sixty-decade-draw"),
    # e_crit = eps (1 - rho)/(4 c2) underflows, and 2 c2/eps overflows
    pytest.param(["emax"], {"eps": 4.1e-166, "c2": 2.8e182, "nu": 1.4e79,
                            "lambda": 1.1e-177, "f_norm": 1e-50}, 1,
                 id="emax-underflowing-critical-energy"),
    # E0 = 4 lam e0 and every sample of the curve underflow; their logs
    # do not
    pytest.param(["curve", "scaling"], {
        "f_norm": 1e-196, "lambda": 1e-194, "nu": 1.4e87,
        "c_omega": 2.5e156, "lambda0": 2.1e161}, 0,
        id="scaling-underflowing-samples"),
    # beta = 8 lam (psi_inf + eps0 c') past float range is refused; a
    # finite beta whose slope ratio beta e/E, up to 2 (psi_inf + eps0 c'),
    # is past it still gives a curve
    pytest.param(["curve", "scaling"], {"psi_inf": 1e300, "lambda": 1e10},
                 1, id="scaling-huge-drain"),
    pytest.param(["curve", "scaling"], {"psi_inf": 1e308, "lambda": 1e-3},
                 0, id="scaling-huge-drain-ratio"),
    # the window psi_inf + eps0 c' = 1e-400 underflows; its log does not,
    # and the admissibility floor, or without curl forcing beta, leaves
    # float range
    pytest.param(["curve", "scaling"], {"eps0": 1e-200,
                                        "c_omega_prime": 1e-200}, 1,
                 id="scaling-underflowing-window"),
    pytest.param(["curve", "scaling"], {"eps0": 1e-200,
                                        "c_omega_prime": 1e-200,
                                        "curlF_norm": 0.0}, 1,
                 id="scaling-underflowing-drain"),
    # the rise rate b = 1.2 c2 sqrt(lam)/(eps nu^2) overflows, so e_a = a/b
    # is 0: refused where the peak needs it, so a point right of e0 still
    # gets its label, and without the curl-dominated floor the tail's
    # assumption is what fails first
    *[pytest.param(args, {"lambda": 1e200, "nu": 1e-105, "curlF_norm": 1e100},
                   code, id=f"{name}-overflowing-rise-rate")
      for args, code, name in (
          (["curve", "critical"], 1, "critical"), (["verify"], 1, "verify"),
          (["classify", "--e", "1", "--E", "1e10", "--model", "subcritical"],
           0, "classify-right-of-e0"),
          (["classify", "--e", "1e-200", "--E", "1e10", "--model",
            "subcritical"], 1, "classify-left-of-e0"))],
    pytest.param(["classify", "--e", "1", "--E", "1e10", "--model",
                  "subcritical"], {"lambda": 1e200, "nu": 1e-105}, 3,
                 id="classify-overflowing-rise-rate-weak-curl"),
]


@pytest.mark.parametrize("args, over, code", _EXTREME_INPUTS)
def test_extreme_inputs_exit_typed_and_fast(bad_curves, args, over, code):
    if isinstance(over, bytes):
        params = bad_curves / "extreme.json"
        params.write_bytes(over)
    else:
        params = _fig2_variant(bad_curves, "extreme.json", **over)
    env = dict(os.environ, PYTHONPATH=str(PRESETS.parent / "src"))
    # a hang fails here instead of stalling the suite
    proc = subprocess.run(
        [sys.executable, "-m", "enstrophy_bounds", *args, "--params",
         str(params)],
        capture_output=True, text=True, env=env, timeout=5.0,
        cwd=bad_curves)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_exit_code_regime(tmp_path):
    dead = _fig2_variant(tmp_path, "dead.json", f_norm=0.0)
    assert run(["curve", "critical", "--params", dead]) == 3


@pytest.mark.parametrize("args", [
    ["curve", "critical"], ["curve", "scaling"],
    ["classify", "--e", "1", "--E", "1", "--model", "subcritical"],
], ids=["critical", "scaling", "classify-subcritical"])
def test_underflowing_anchor_is_regime(tmp_path, capsys, args):
    # G > 0, but e0 ~ G^2 underflows to 0.0: no curve to anchor (verify
    # reports that as degenerate forcing, see test_verify_degenerate_forcing)
    weak = _fig2_variant(tmp_path, "weak.json", f_norm=1e-200)
    assert run([*args, "--params", weak]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("RegimeViolation: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("over, extra", [
    ({"f_norm": 1e200}, []), ({"lambda": 1e-300}, []),
    ({}, ["--eta", "1e307"]), ({}, ["--eta", "1e308"]),
], ids=["huge-forcing", "tiny-lambda", "eta-1e307", "eta-1e308"])
def test_emax_outside_float_range_is_invalid(tmp_path, capsys, over, extra):
    # G^2 overflows, the bound overflows or e_bar underflows: never print
    # Infinity as JSON
    params = _fig2_variant(tmp_path, "extreme.json", **over)
    assert run(["emax", "--params", params, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("InvalidRegime: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["curve", "critical"], ["verify"],
    ["classify", "--e", "1", "--E", "1e10", "--model", "subcritical"],
], ids=["critical", "verify", "classify-subcritical"])
@pytest.mark.parametrize("over", [
    {"c2": 1e-300}, {"psi_inf": 1e200}, {"curlF_norm": 1e300},
], ids=["tiny-c2", "huge-psi-inf", "huge-curl"])
def test_floor_outside_float_range_is_invalid(tmp_path, capsys, args, over):
    # the critical enstrophy floor E_min overflows: refuse it by type
    # instead of dividing by an underflowed power or overflowing one
    params = _fig2_variant(tmp_path, "extreme.json", **over)
    assert run([*args, "--params", params]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("InvalidRegime: ")
    assert captured.err.count("\n") == 1


def test_exit_code_numerical(tmp_path):
    flat = _fig2_variant(tmp_path, "flat.json", r=0.51, c=0.0)
    assert run(["curve", "subcritical", "--params", flat]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "curve" in capsys.readouterr().out


# ------------------------------------------------------------- commands


def test_emax_default(tmp_path):
    out = tmp_path / "emax.json"
    assert run(["emax", "--params", FIG2, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"log10_lower", "log10_upper", "eta_used", "e_crit",
                        "e_bar_crit", "anchor_E0", "flags"}
    assert doc["log10_lower"] == pytest.approx(35.76575781168811, abs=1e-6)
    assert doc["log10_upper"] == pytest.approx(110.92753862710634, abs=1e-6)
    assert doc["e_crit"] == pytest.approx(0.0025, rel=1e-9)
    assert doc["flags"] == ["anchor_E0=parabola_apex", "eta=eta_min"]


def test_emax_explicit_eta(tmp_path):
    out = tmp_path / "emax.json"
    assert run(["emax", "--params", FIG2, "--eta", "4.33",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["eta_used"] == 4.33
    assert doc["log10_upper"] == pytest.approx(110.96054339161364, abs=1e-6)
    assert doc["flags"] == ["anchor_E0=parabola_apex"]


def test_emax_rescales_physical_frame(tmp_path):
    # nu = 2, f doubled keeps G = 2; every output shifts by the frame
    # multipliers instead of silently staying normalized
    scaled = _fig2_variant(tmp_path, "nu2.json", nu=2.0, f_norm=8.0)
    out = tmp_path / "emax.json"
    assert run(["emax", "--params", scaled, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "rescaled_to_physical_units" in doc["flags"]
    assert doc["e_crit"] == pytest.approx(0.01, rel=1e-9)
    assert doc["anchor_E0"] == pytest.approx(64.0, rel=1e-12)
    assert doc["log10_lower"] \
        == pytest.approx(35.76575781168811 + math.log10(4.0), abs=1e-6)
    assert doc["log10_upper"] \
        == pytest.approx(110.92753862710634 + math.log10(4.0), abs=1e-6)


def test_classify_command(capsys):
    assert run(["classify", "--params", FIG2, "--e", "4", "--E", "1e9"]) == 0
    assert capsys.readouterr().out == "II\n"
    # r = 1/2 params route the subcritical model to the critical assembly
    assert run(["classify", "--params", FIG2, "--model", "subcritical",
                "--e", "4", "--E", "1e30"]) == 0
    assert capsys.readouterr().out == "III\n"


def test_verify_command(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--params", FIG2, "--points", "100",
                "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert all(row["pass"] for row in rows)
    checks = {row["check"] for row in rows}
    assert "containment" in checks and "series_vs_quadrature" in checks


@pytest.mark.parametrize("preset, peak, floor", [
    (FIG2, "e_max", "e_min"), (FIG3, "e_bar", "e_under")])
def test_verify_rows_are_pinned(tmp_path, preset, peak, floor):
    # the oracle engines may move a worst_margin, never a row
    out = tmp_path / "verify.json"
    assert run(["verify", "--params", preset, "--out", str(out)]) == 0
    rows = [(row["check"], row["segment"], row["samples"], row["pass"])
            for row in json.loads(out.read_text())]
    assert rows == [
        ("containment", "phi1", 512, True),
        ("containment", "phi2", 512, True),
        ("containment", "phi3", 512, True),
        ("containment", "phi1", 512, True),
        ("containment", "phi2", 512, True),
        ("series_vs_quadrature", "specfun", 20, True),
        ("closed_form_vs_rk4", "phi1", 513, True),
        ("root_vs_gridscan", peak, 201, True),
        ("root_vs_gridscan", floor, 201, True),
        ("root_vs_gridscan", "e2", 201, True),
    ]


def _verify_fig2(tmp_path, points):
    out = tmp_path / "verify.json"
    code = run(["verify", "--params", FIG2, "--points", points,
                "--out", str(out)])
    rows = json.loads(out.read_text())
    return code, [row for row in rows if row["check"] == "containment"]


def test_verify_zero_points_checks_nothing(tmp_path):
    code, rows = _verify_fig2(tmp_path, "0")
    assert code == 0
    assert [row["segment"] for row in rows] == ["phi1", "phi2", "phi3",
                                                "phi1", "phi2"]
    assert all(row["samples"] == 0 and row["worst_margin"] == 0.0
               and row["pass"] for row in rows)


def test_verify_one_point_checks_the_first_sample(tmp_path):
    code, rows = _verify_fig2(tmp_path, "1")
    assert code == 0
    assert all(row["samples"] <= 1 and row["pass"] for row in rows)
    assert rows[0]["segment"] == "phi1" and rows[0]["samples"] == 1
    assert rows[0]["worst_margin"] == -2.7061686225238265e-16


def test_verify_negative_points_is_bad_input(capsys):
    assert run(["verify", "--params", FIG2, "--points", "-1"]) == 1
    assert capsys.readouterr().out == ""


def test_verify_degenerate_forcing(tmp_path):
    dead = _fig2_variant(tmp_path, "dead.json", f_norm=0.0)
    out = tmp_path / "verify.json"
    assert run(["verify", "--params", dead, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    notes = [row.get("note", "") for row in rows]
    assert any("degenerate" in n for n in notes)


def test_verify_underflowing_anchor_is_degenerate_forcing(tmp_path, capsys):
    # G > 0 but e0 ~ G^2 underflows to 0.0: no curve, the same report as
    # zero forcing
    weak = _fig2_variant(tmp_path, "weak.json", f_norm=1e-200)
    dead = _fig2_variant(tmp_path, "dead.json", f_norm=0.0)
    assert run(["verify", "--params", weak]) == 0
    weak_out = capsys.readouterr().out
    assert run(["verify", "--params", dead]) == 0
    assert capsys.readouterr().out == weak_out
    rows = json.loads(weak_out)
    assert [(row["check"], row.get("note")) for row in rows] == [
        ("containment", "degenerate forcing, no curve to check"),
        ("series_vs_quadrature", None)]
    assert all(row["pass"] for row in rows)


@pytest.mark.parametrize("preset, over", [
    ("fig2", {"c2": 1e300}), ("fig3", {"curlF_norm": 0.1}),
], ids=["fig2-huge-c2", "fig3-weak-curl"])
def test_classify_applies_the_curl_gate(tmp_path, capsys, preset, over):
    # the curve refuses a floor that is not curl-dominated; classifying a
    # point against that curve must refuse it the same way
    raw = json.loads((PRESETS / f"{preset}.json").read_text())
    raw.update(over)
    path = tmp_path / "weak-curl.json"
    path.write_text(json.dumps(raw))
    model = "critical" if preset == "fig2" else "subcritical"
    assert run(["curve", model, "--params", str(path)]) == 3
    capsys.readouterr()
    assert run(["classify", "--params", str(path), "--model",
                "subcritical", "--e", "1", "--E", "1e10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("AssumptionViolated: ")


def test_taylor_command(tmp_path):
    curve = tmp_path / "curve.json"
    run(["curve", "critical", "--params", FIG2, "--samples", "64",
         "--format", "json", "--out", str(curve)])
    out = tmp_path / "taylor.json"
    assert run(["taylor", "--params", FIG2, "--curve", str(curve),
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["log10_sqrt_lambda"] == 0.0
    by_tag = {row["tag"]: row for row in doc["segments"]}
    # E = e exactly on the lower boundary, so the ratio of means is 1
    assert by_tag["lower_boundary"]["kappa_T"] == pytest.approx(1.0, rel=1e-9)
    # twenty decades down, the wavenumber leaves float range: exponent
    # stays reported, the linear value goes null
    assert by_tag["phi3"]["kappa_T"] is None
    assert by_tag["phi3"]["log10_kappa_T"] > 100.0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "enstrophy_bounds", "classify",
         "--params", FIG2, "--e", "4", "--E", "1e9"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "II\n"


_EVERY_COMMAND = """
import json, sys
from enstrophy_bounds.cli import run
fig2, fig3, tmp = sys.argv[1:]
codes = []
for model in ("critical", "subcritical", "full", "scaling"):
    for fmt in ("csv", "json"):
        params = fig3 if model == "subcritical" else fig2
        codes.append(run(["curve", model, "--params", params, "--samples",
                          "16", "--format", fmt,
                          "--out", f"{tmp}/{model}.{fmt}"]))
codes.append(run(["emax", "--params", fig2, "--out", f"{tmp}/emax.json"]))
codes.append(run(["classify", "--params", fig3, "--model", "subcritical",
                  "--e", "4", "--E", "1e9"]))
codes.append(run(["verify", "--params", fig3, "--points", "16",
                  "--out", f"{tmp}/verify.json"]))
codes.append(run(["taylor", "--params", fig2, "--curve",
                  f"{tmp}/critical.json", "--out", f"{tmp}/taylor.json"]))
print(json.dumps({"codes": codes, "numpy": [
    name for name in sys.modules if name.split(".")[0] == "numpy"]}))
"""


def test_commands_never_import_numpy(tmp_path):
    # numpy is a test dependency only: importing it would double the
    # start-up time of every command
    env = dict(os.environ, PYTHONPATH=str(PRESETS.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _EVERY_COMMAND, FIG2, FIG3,
                           str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == [0] * 12
    assert doc["numpy"] == []


def _run_optimized(*args, code=None):
    # python -O strips assert statements; the construction checks must not
    # depend on them
    env = dict(os.environ, PYTHONPATH=str(PRESETS.parent / "src"))
    head = ("-c", code) if code else ("-m", "enstrophy_bounds")
    return subprocess.run([sys.executable, "-O", *head, *args],
                          capture_output=True, text=True, env=env)


# phi1's last sample (the anchor e0, on the parabola) pulled one unit of
# ln E down: no join moves, but the branch now dips below the parabola
_SINK_PHI1 = """
from enstrophy_bounds import branches
_sample = branches.Chain._sample

def sunk(self, k, ln_lo, ln_hi, samples):
    seg = _sample(self, k, ln_lo, ln_hi, samples)
    if k == 0:
        seg.ln_E[-1] -= 1.0
    return seg
"""


@pytest.mark.parametrize("model, preset",
                         [("critical", "fig2.json"),
                          ("subcritical", "fig3.json")])
def test_construction_invariant_is_typed(monkeypatch, model, preset):
    params = load_params_file(str(PRESETS / preset))
    family = assemble_critical if model == "critical" \
        else assemble_subcritical
    patch = {}
    exec(_SINK_PHI1, patch)
    monkeypatch.setattr(branches.Chain, "_sample", patch["sunk"])
    with pytest.raises(FieldBlowup):
        family(params)
    proc = _run_optimized(
        "curve", model, "--params", str(PRESETS / preset),
        code=_SINK_PHI1 + "branches.Chain._sample = sunk\n"
        "import sys\nfrom enstrophy_bounds import cli\n"
        "sys.exit(cli.run(sys.argv[1:]))\n")
    assert proc.returncode == 2
    assert proc.stderr.startswith("FieldBlowup: phi1 dips below")
    assert proc.stdout == ""


@pytest.mark.parametrize("model, preset",
                         [("critical", "fig2.json"),
                          ("subcritical", "fig3.json")])
def test_lower_boundary_above_anchor_is_regime(tmp_path, model, preset):
    # lambda0 = 10 puts the lower boundary above (e0, E0): no curve exists
    raw = json.loads((PRESETS / preset).read_text())
    raw["lambda0"] = 10.0
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(raw))
    family = assemble_critical if model == "critical" \
        else assemble_subcritical
    with pytest.raises(RegimeViolation, match="lower boundary"):
        family(load_params_file(str(path)))
    proc = _run_optimized("curve", model, "--params", str(path))
    assert proc.returncode == 3
    assert proc.stderr.startswith("RegimeViolation: the anchor E0")
    assert proc.stdout == ""


def test_near_critical_subcritical_curve_under_optimize(tmp_path):
    raw = json.loads((PRESETS / "fig3.json").read_text())
    raw["r"] = 0.5 + 1e-9
    path = tmp_path / "near.json"
    path.write_text(json.dumps(raw))
    proc = _run_optimized("curve", "subcritical", "--params", str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("e,log10_E,segment\n")
