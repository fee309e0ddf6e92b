"""Command-line surface: schemas, determinism, exit codes."""

import argparse
import importlib.util
import json
import math
import os
import random
import signal
import subprocess
import sys

import pytest

from enstrophy_bounds import (AssumptionViolated, CancellationLoss,
                              EnstrophyBoundsError, EtaTooSmall, FieldBlowup,
                              InvalidRegime, MissingKey, NoBracket,
                              NonConvergence, OutsideDomain, RegimeViolation,
                              assemble_critical, assemble_subcritical,
                              bound_report, classify_critical,
                              classify_full, classify_subcritical, cli,
                              emax_lower, emax_upper, eta_min,
                              load_params_file, maxest, specfun, verify,
                              _EXPORTS)
from enstrophy_bounds.cli import run
from enstrophy_bounds.curves import round_sig
from enstrophy_bounds.logscalar import from_sci_string, ln_add, sci_string

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


# ---------------------------------------------------------- curve models

# the curve models: the <model> of each assemble_<model> of the export table
_CURVE_MODELS = sorted(name.removeprefix("assemble_") for name in _EXPORTS
                       if name.startswith("assemble_"))
# the preset each model's curve is drawn on: subcritical needs r > 1/2
_MODEL_PRESETS = {"critical": FIG2, "full": FIG2, "scaling": FIG2,
                  "subcritical": FIG3}


def test_curve_models_are_the_exported_assemblers():
    assert _CURVE_MODELS == sorted(_MODEL_PRESETS)
    assert list(cli._COMMANDS["curve"][1]["model"][2]) == _CURVE_MODELS


@pytest.mark.parametrize("model", _CURVE_MODELS)
def test_curve_writes_the_bundle_of_its_model(tmp_path, model):
    out = tmp_path / "curve.json"
    assert run(["curve", model, "--params", _MODEL_PRESETS[model],
                "--samples", "16", "--format", "json",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["model"] == model


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
    # columns of unequal length, a non-finite or out-of-range log10_E and
    # an energy whose ln is past float range: each wrote Infinity or NaN,
    # a wrong mean or a traceback
    "short-log10-E.json": {"segments": [{"tag": "phi1", "e": ["1.0", "2.0"],
                                         "log10_E": [1.0]}]},
    "long-log10-E.json": {"segments": [{"tag": "phi1", "e": ["1.0"],
                                        "log10_E": [1.0, 2.0]}]},
    "nan-log10-E.json": {"segments": [{"tag": "phi1", "e": ["1.0"],
                                       "log10_E": [math.nan]}]},
    "minus-inf-log10-E.json": {"segments": [{"tag": "phi1", "e": ["1.0"],
                                             "log10_E": [-math.inf]}]},
    "huge-log10-E.json": {"segments": [{"tag": "phi1", "e": ["1.0"],
                                        "log10_E": [1e308]}]},
    "huge-int-log10-E.json": {"segments": [{"tag": "phi1", "e": ["1.0"],
                                            "log10_E": [10 ** 400]}]},
    "huge-energy.json": {"segments": [{"tag": "phi1",
                                       "e": ["1e" + "9" * 400],
                                       "log10_E": [1.0]}]},
    "number-energy.json": {"segments": [{"tag": "phi1", "e": [1.0],
                                         "log10_E": [1.0]}]},
    # a log10_E that is not a JSON number: float() read these as 1 and 2
    "true-log10-E.json": {"segments": [{"tag": "phi1", "e": ["1.0"],
                                        "log10_E": [True]}]},
    "text-log10-E.json": {"segments": [{"tag": "phi1", "e": ["1.0"],
                                        "log10_E": ["2"]}]},
}


@pytest.mark.parametrize("name, why", [
    ("true-log10-E.json", "TypeError: every log10_E must be a number"),
    ("text-log10-E.json", "TypeError: every log10_E must be a number"),
    ("number-energy.json", "AttributeError: 'float' object has no "
                           "attribute 'strip'"),
])
def test_taylor_refuses_a_value_of_the_wrong_type(bad_curves, capsys, name,
                                                  why):
    # the same refusal for a log10_E that is not a number as for an
    # energy that is not a literal
    curve = str(bad_curves / name)
    assert run(["taylor", "--curve", curve, "--params",
                str(PRESETS / "fig2.json")]) == 1
    assert capsys.readouterr().err == \
        f"InvalidRegime: {curve} is not a curve file: {why}\n"


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
    pytest.param(["curve", "full", "--samples", "1"], {}, 1,
                 id="curve-full-one-sample"),
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
    # x = b e0 = 12 G^2 passes 1e6, the power series' cap, from G ~ 289 on;
    # the large-argument form and the endpoint difference carry the curve
    # and every verify row past it
    *[pytest.param(args, {"f_norm": G}, 0, id=f"{args[0]}-grashof-{G:g}")
      for G in (300.0, 1000.0, 3000.0)
      for args in (["curve", "critical"], ["verify"])],
    # alpha = 101, where e^(alpha + 1/2) is past float range
    *[pytest.param(args, {"eta": 1.01}, 0, id=f"{args[0]}-steep-funnel")
      for args in (["curve", "full"], ["classify", "--e", "0.3", "--E", "2"],
                   ["verify"])],
    # alpha = 1001: on the e2 scan's grid (e0/e)^p leaves float range,
    # left of the apex funnel's asymptote
    pytest.param(["verify", "--points", "8"], {"eta": 1.001}, 0,
                 id="verify-near-one-eta"),
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
    # the peak lies far from the barrier asymptote (x* > -2), so the peak
    # scan's grid reaches w >= 0, where e would be at or left of 0
    pytest.param(["verify"], {
        "f_norm": 1.0525199836885342, "eps": 0.25651768921036855,
        "delta": 0.017526765888443135, "c2": 0.09191216236225778,
        "mu": 13.11400979896894, "curlF_norm": 1.181074159292931}, 0,
        id="verify-peak-far-from-asymptote"),
]


def test_a_huge_int_parameter_is_not_finite(tmp_path):
    # a 401-digit integer is past float range: refused by name, no traceback
    params = _fig2_variant(tmp_path, "huge.json", nu=10 ** 400)
    env = dict(os.environ, PYTHONPATH=str(PRESETS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "enstrophy_bounds", "emax", "--params",
         params], capture_output=True, text=True, env=env, timeout=5.0)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "InvalidRegime: parameter 'nu' must be finite\n")


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


@pytest.mark.parametrize("args", [["curve", "critical"], ["verify"]],
                         ids=["critical", "verify"])
def test_join_gap_finer_than_an_ulp_is_typed(tmp_path, capsys, args):
    # at G = 1e4, ln E ~ 2e9: one ulp of it, 2.4e-7, is above the 1e-8
    # bound on a segment join, so the curve stops there, with a typed
    # refusal that names the gap
    big = _fig2_variant(tmp_path, "big.json", f_norm=1e4)
    assert run([*args, "--params", big]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("CancellationLoss: segment join gap ")


@pytest.mark.parametrize("args", [["curve", "full"], ["verify"]],
                         ids=["full", "verify"])
def test_wall_asymptote_one_ulp_from_its_anchor_is_typed(tmp_path, capsys,
                                                         args):
    # eta within about 1e-10 of 1 puts ln e_star one ulp left of ln e0:
    # the wall has no abscissa right of its asymptote, and both commands
    # refuse before sampling it (exit 2), where they read OutsideDomain
    near = _fig2_variant(tmp_path, "near.json", eta=1.0000000000344682,
                         f_norm=13.304157216473056)
    assert run([*args, "--params", near]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "CancellationLoss: the wall's grid cannot start right of its "
        "asymptote: ln e_star = 5.176153118108392 and ln e0 = "
        "5.176153118108393 are 1 ulp apart")


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


def test_underflowing_barrier_asymptote_is_invalid(tmp_path, capsys):
    # b = 1.2 c2 sqrt(lam)/(eps nu^2) is above float range at eps = 1e-300
    # and nu = 1e-5, so e_a = a/b is 0: no barrier for the rise to peak at
    params = _fig2_variant(tmp_path, "p.json", eps=1e-300, nu=1e-5,
                           f_norm=1e-8)
    assert run(["curve", "critical", "--params", params]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "InvalidRegime: e_a = a/b underflows (b = inf)\n")


@pytest.mark.parametrize("over, extra", [
    ({"f_norm": 1e200}, []), ({"lambda": 1e-300}, []),
    ({}, ["--eta", "1e307"]), ({}, ["--eta", "1e308"]),
    ({"nu": 1e150, "lambda": 1e-180, "f_norm": 1e300}, []),
    ({"nu": 1e100, "lambda": 1e-100, "f_norm": 1e250}, []),
], ids=["huge-forcing", "tiny-lambda", "eta-1e307", "eta-1e308",
        "physical-energies-overflow", "physical-anchor-overflows"])
def test_emax_outside_float_range_is_invalid(tmp_path, capsys, over, extra):
    # G^2 overflows, the bound overflows (at eta = 1e308 e_bar underflows
    # too) or a number rescaled to physical units (nu^2/sqrt(lam) = 1e390
    # times e_crit, or nu^2 sqrt(lam) = 1e150 times E0 = 4e250) overflows:
    # never print Infinity as JSON
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


# a fig3 set whose subcritical rise peaks right of e0: the chain refuses
# the peak, while the scaling curve through the same e0 has its own
_PEAK_RIGHT_OF_E0 = {
    "nu": 256.0, "lambda": 0.00153, "lambda0": 0.00142, "f_norm": 3.54,
    "curlF_norm": 4310.0, "r": 0.51, "eps": 0.000299, "mu": 0.194,
    "c2": 0.682, "c": 0.0199}


@pytest.mark.parametrize("args, code", [
    (["curve", "subcritical"], 2),
    (["classify", "--model", "subcritical", "--e", "1", "--E", "1"], 2),
    (["verify"], 2),
    (["curve", "scaling"], 0),
], ids=["curve-subcritical", "classify-subcritical", "verify",
        "curve-scaling"])
def test_rise_peaking_right_of_the_anchor(tmp_path, capsys, args, code):
    raw = json.loads((PRESETS / "fig3.json").read_text())
    raw.update(_PEAK_RIGHT_OF_E0)
    params = tmp_path / "right.json"
    params.write_text(json.dumps(raw))
    assert run([*args, "--params", str(params)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == \
            "NoBracket: rise peaks at or right of the anchor e0: " \
            "ln e_peak - ln e0 = 2.03079\n"
    else:
        assert captured.err == ""
        assert captured.out.startswith("e,log10_E,segment\n")


# each refusal of the scaling curve, in the order the model checks them:
# the floor, beta's underflow, beta's overflow, s, then the anchor e0; the
# last set breaks both the floor and the s rule
@pytest.mark.parametrize("over, code, err", [
    ({"curlF_norm": 1.765e153}, 1, "InvalidRegime: admissibility floor "
     "E_floor = exp(708.5) is above float range"),
    ({"psi_inf": 0.0, "eps0": 1e-300, "c_omega_prime": 1e-10,
      "curlF_norm": 1e-310}, 1,
     "InvalidRegime: drain rate beta = exp(-711.722) underflows"),
    ({"lambda": 1e300, "psi_inf": 1e7}, 1, "InvalidRegime: drain rate beta "
     "= 8 lam (psi_inf + eps0 c') = exp(708.973) is above float range"),
    ({"eps0": 0.6}, 1, "InvalidRegime: combined smallness parameter "
     "s = 1.1 must lie in (0, 1)"),
    ({"eps0": 1e-200, "c_omega_prime": 1e-200, "delta": 0.0,
      "psi_inf": 0.25}, 1, "InvalidRegime: combined smallness parameter "
     "s = 0.0 must lie in (0, 1)"),
    ({"f_norm": 0.0}, 3, "RegimeViolation: no curve to anchor: e0 = 0 "
     "(zero forcing, or e0 underflows)"),
    ({"f_norm": 1e200}, 1, "InvalidRegime: anchor energy e0 = exp(921.034) "
     "is above float range"),
    ({"eps0": 0.6, "curlF_norm": 1e160}, 1, "InvalidRegime: admissibility "
     "floor E_floor = exp(737.849) is above float range"),
], ids=["floor", "beta-underflows", "beta-overflows", "s-above-1",
        "s-zero", "e0-zero", "e0-overflows", "floor-before-s"])
def test_scaling_refusals(tmp_path, capsys, over, code, err):
    params = _fig2_variant(tmp_path, "scaling.json", **over)
    assert run(["curve", "scaling", "--params", params]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err + "\n"


@pytest.mark.parametrize("over, extra, code, err", [
    ({"f_norm": 0.0}, [], 3, "RegimeViolation: no bracket to form: G = 0 "
     "(zero forcing, or G underflows)\n"),
    ({"f_norm": 0.0}, ["--eta", "5"], 3, "RegimeViolation: no bracket to "
     "form: G = 0 (zero forcing, or G underflows)\n"),
    ({"f_norm": 1e-310, "nu": 1e10}, [], 3, "RegimeViolation: no bracket to "
     "form: G = 0 (zero forcing, or G underflows)\n"),
    ({}, ["--anchor-E0", "-1e3"], 1, "InvalidRegime: E0_anchor must be "
     "positive and finite, got -1000.0\n"),
], ids=["zero-forcing", "zero-forcing-given-eta", "underflowing-G",
        "negative-anchor"])
def test_emax_names_degenerate_forcing_and_a_bad_anchor(tmp_path, capsys,
                                                        over, extra, code,
                                                        err):
    # G = 0 has no bracket, as every other command has no curve for it
    # (exit 3), whether or not eta is given; a given anchor is checked
    # before the default eta is formed from it
    params = _fig2_variant(tmp_path, "p.json", **over)
    assert run(["emax", "--params", params, *extra]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


# the refusals met most often name the numbers they compare; exit codes
# are those of their error classes
@pytest.mark.parametrize("preset, over, args, err", [
    ("fig2", {"curlF_norm": 0.3}, ["curve", "critical"],
     "AssumptionViolated: curl forcing below the floor-dominance threshold; "
     "the tail construction does not apply; ln floor candidates -2.41416, "
     "-3.18087 (curl last): the largest exceeds the curl one by 0.766713\n"),
    ("fig3", {"curlF_norm": 0.1}, ["curve", "subcritical"],
     "AssumptionViolated: curl forcing below the floor-dominance threshold; "
     "the tail construction does not apply; ln floor candidates -0.893265, "
     "0.137675, -2.60396 (curl last): the largest exceeds the curl one by "
     "2.74163\n"),
    ("fig2", {"f_norm": 0.1}, ["curve", "full"],
     "RegimeViolation: parabola anchor admits no asymptote: "
     "ln t = 8.04719 >= 0\n"),
], ids=["critical-weak-curl", "subcritical-weak-curl", "full-no-asymptote"])
def test_refusals_name_their_numbers(tmp_path, capsys, preset, over, args,
                                     err):
    raw = json.loads((PRESETS / f"{preset}.json").read_text())
    params = tmp_path / "p.json"
    params.write_text(json.dumps(dict(raw, **over)))
    assert run([*args, "--params", str(params)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "curve" in capsys.readouterr().out


# --------------------------------------------------------------- parser


class _OracleUsage(Exception):
    pass


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise _OracleUsage(message)


def _build_parser() -> _OracleParser:
    # the argparse parser that the command table replaced, kept as the
    # oracle of the attributes each command's handler reads
    p = _OracleParser(prog="enstrophy-bounds")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curve")
    c.add_argument("model", choices=_CURVE_MODELS)
    c.add_argument("--params", required=True)
    c.add_argument("--samples", type=int, default=512)
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--out")

    m = sub.add_parser("emax")
    m.add_argument("--params", required=True)
    m.add_argument("--eta", type=float, default=None)
    m.add_argument("--anchor-E0", dest="anchor_E0", type=float, default=None)
    m.add_argument("--out")

    k = sub.add_parser("classify")
    k.add_argument("--params", required=True)
    k.add_argument("--e", type=float, required=True)
    k.add_argument("--E", type=float, required=True)
    k.add_argument("--model", choices=("full", "subcritical"),
                   default="full")

    v = sub.add_parser("verify")
    v.add_argument("--params", required=True)
    v.add_argument("--points", type=int, default=512)
    v.add_argument("--out")

    t = sub.add_parser("taylor")
    t.add_argument("--params", required=True)
    t.add_argument("--curve", required=True)
    t.add_argument("--out")
    return p


_REFUSED = "refused"


def _attributes(namespace) -> dict:
    # repr tells 512 from 512.0 and lets nan equal nan
    return {key: repr(value) for key, value in vars(namespace).items()}


def _by_oracle(argv):
    try:
        return _attributes(_build_parser().parse_args(argv))
    except _OracleUsage:
        return _REFUSED


def _by_table(argv):
    try:
        return _attributes(cli._parse(argv))
    except ValueError:
        return _REFUSED


_README = (PRESETS.parent / "README.md").read_text()
_README_INVOCATIONS = [line.split()[1:] for line in _README.splitlines()
                       if line.startswith("enstrophy-bounds ")]

_PARSER_CASES = [
    *_README_INVOCATIONS,
    # every option of every command, in both spellings and any order
    ["curve", "full", "--params", FIG2, "--samples", "64", "--format",
     "json", "--out", "c.json"],
    ["curve", "--params=" + FIG2, "--samples=7", "--format=csv",
     "--out=c.csv", "scaling"],
    ["curve", "--params", FIG2, "subcritical"],
    ["emax", "--out", "e.json", "--anchor-E0", "16", "--eta", "4.33",
     "--params", FIG2],
    ["emax", "--params", FIG2, "--anchor-E0=1e-300", "--eta=inf"],
    ["classify", "--E", "1e9", "--model", "subcritical", "--e", "4",
     "--params", FIG2],
    ["classify", "--params", FIG2, "--e=-inf", "--E=-1e5", "--model=full"],
    ["verify", "--points", "16", "--out", "v.json", "--params", FIG3],
    ["verify", "--params", FIG3, "--points=0"],
    ["taylor", "--curve", "c.json", "--out", "t.json", "--params", FIG2],
    # negative, tiny and non-finite values
    ["verify", "--params", FIG2, "--points", "-1"],
    ["curve", "critical", "--params", FIG2, "--samples", "-5"],
    ["classify", "--params", FIG2, "--e", "nan", "--E", "1e-300"],
    ["classify", "--params", FIG2, "--e", "-1", "--E", "-0.5"],
    ["emax", "--params", FIG2, "--eta", "-4", "--anchor-E0", "-.5"],
    ["emax", "--params", FIG2, "--eta", "NaN", "--anchor-E0", "Infinity"],
    # a repeated option: the last value wins
    ["verify", "--params", FIG2, "--points", "8", "--points", "16"],
    ["curve", "critical", "--format", "json", "--params", FIG3,
     "--format", "csv", "--params", FIG2],
    # malformed
    [],
    ["critical"],
    ["plot", "--params", FIG2],
    ["--params", FIG2, "emax"],
    ["curve", "--params", FIG2],
    ["curve", "nonsense", "--params", FIG2],
    ["curve", "critical", "full", "--params", FIG2],
    ["curve", "critical", "--params", FIG2, "--format", "xml"],
    ["curve", "critical", "--params", FIG2, "--samples", "1.5"],
    ["curve", "critical", "--params", FIG2, "--samples", "ten"],
    ["classify", "--params", FIG2, "--e", "4"],
    ["classify", "--params", FIG2, "--e", "four", "--E", "1"],
    ["classify", "--params", FIG2, "--e", "4", "--E", "1",
     "--model", "critical"],
    ["classify", "--params", FIG2, "--e", "4", "--E"],
    ["emax"],
    ["emax", "--params"],
    ["emax", "--params", FIG2, "--eta", ""],
    ["emax", "--params", FIG2, "--bogus", "1"],
    ["emax", "--params", FIG2, "--model", "full"],
    ["emax", "--params", FIG2, "stray"],
    ["emax", "--params", FIG2, "--"],
    ["verify", "--params", FIG2, "-x"],
    ["taylor", "--params", FIG2],
]


@pytest.mark.parametrize("argv", _PARSER_CASES)
def test_table_parser_matches_argparse(capsys, argv):
    expected = _by_oracle(argv)
    assert _by_table(argv) == expected
    if expected is _REFUSED:
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_table_parser_matches_argparse_on_the_benchmark(monkeypatch,
                                                        tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", PRESETS.parent / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    root = PRESETS.parent
    for workload in ("curve-critical", "cli-light", "verify"):
        for cycle in inputs.cli_cycles(workload, 23, 2, root, root / "bench",
                                       tmp_path):
            for op in cycle:
                assert _by_table(op.argv) == _by_oracle(op.argv) \
                    != _REFUSED, op.argv


# where the two parsers differ, and the exit code of each side: a flag
# takes the next word whatever it is, flags match whole, and -h is help
# wherever it stands
_PARSER_DIFFERENCES = [
    # argparse refuses a value that starts with "-" unless it reads as a
    # plain negative number; the table passes it on to the handler
    pytest.param(["classify", "--params", FIG2, "--e", "-inf", "--E", "1"],
                 1, 1, id="classify-minus-inf"),
    pytest.param(["classify", "--params", FIG2, "--e", "4", "--E", "-1e5"],
                 1, 1, id="classify-minus-exponent"),
    pytest.param(["emax", "--params", FIG2, "--eta", "-inf"], 1, 1,
                 id="emax-minus-inf"),
    pytest.param(["emax", "--params", FIG2, "--eta", "-1e3"], 1, 3,
                 id="emax-eta-below-minimum"),
    pytest.param(["emax", "--params", FIG2, "--anchor-E0", "-1e3"], 1, 1,
                 id="emax-negative-anchor"),
    pytest.param(["verify", "--params", "-missing.json"], 1, 1,
                 id="params-named-with-a-dash"),
    # argparse takes a unique prefix of a flag; the table does not
    pytest.param(["emax", "--par", FIG2], 0, 1, id="prefix-abbreviation"),
    # argparse reads "--" as the end of the options; the table refuses it
    pytest.param(["curve", "--params", FIG2, "--", "critical"], 0, 1,
                 id="double-dash"),
    # argparse refuses the bad model before it reaches -h
    pytest.param(["curve", "nonsense", "-h"], 1, 0, id="help-after-error"),
]


@pytest.mark.parametrize("argv, oracle_code, table_code", _PARSER_DIFFERENCES)
def test_table_parser_differences(argv, oracle_code, table_code):
    try:
        _build_parser().parse_args(argv)
        code = 0
    except _OracleUsage:
        code = 1
    except SystemExit as exc:
        code = exc.code
    assert code == oracle_code
    assert run(argv) == table_code


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["curve", "--help"], ["emax", "--params", FIG2, "-h"],
    ["curve", "--bogus", "-h"]])
def test_help_anywhere(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv)
    assert exc.value.code == 0
    capsys.readouterr()
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    # the help is built from the table: every command and every option
    for command, (_, options) in cli._COMMANDS.items():
        assert f"\n{command}: " in captured.out
        assert all(f"\n  {flag} " in captured.out for flag in options)


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


def test_emax_reads_its_anchor_and_eta_in_the_normalized_frame(tmp_path):
    # --anchor-E0 and --eta are read in the nu = lambda = 1 frame of the
    # estimates; the report prints the anchor in physical units (times
    # nu^2 sqrt(lambda) = 4 here) and eta as read
    scaled = _fig2_variant(tmp_path, "nu2.json", nu=2.0, f_norm=8.0)
    out = tmp_path / "emax.json"
    for extra in ([], ["--eta", "4.5"]):
        assert run(["emax", "--params", scaled, "--anchor-E0", "16",
                    *extra, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        params = load_params_file(scaled)
        eta = float(extra[1]) if extra \
            else eta_min(16.0, params.eps, params.mu)
        upper = emax_upper(params.grashof, params.eps, params.rho, params.c2,
                           eta, 16.0, mu=params.mu)
        assert doc["anchor_E0"] == 64.0
        assert "rescaled_to_physical_units" in doc["flags"]
        assert doc["eta_used"] == round_sig(eta)
        assert doc["log10_upper"] \
            == round_sig((upper + math.log(4.0)) / math.log(10.0))


def test_emax_rescales_without_underflowing_the_enstrophy(tmp_path):
    # the energy multiplier nu^2/sqrt(lam) = 1e-450 underflows, the
    # enstrophy multiplier nu^2 sqrt(lam) = 1e-150 does not: the bounds
    # and the anchor E0 = 4 G^2 = 1.6e151 come out finite and rescaled
    # (the shift of log10 by -150 is below the 12 printed digits of
    # 3.47e151), and only the energies, below float range, read 0
    frame = _fig2_variant(tmp_path, "frame.json",
                          **{"nu": 1e-150, "lambda": 1e300})
    out = tmp_path / "emax.json"
    assert run(["emax", "--params", frame, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    params = load_params_file(frame)
    bounds = (params.grashof, params.eps, params.rho, params.c2)
    assert doc["log10_lower"] == pytest.approx(
        emax_lower(*bounds) / math.log(10.0) - 150.0, rel=1e-11)
    assert doc["log10_upper"] == pytest.approx(
        emax_upper(*bounds, mu=params.mu) / math.log(10.0) - 150.0,
        rel=1e-11)
    assert doc["anchor_E0"] == pytest.approx(16.0, rel=1e-12)
    assert (doc["e_crit"], doc["e_bar_crit"]) == (0.0, 0.0)


@pytest.mark.parametrize("preset", ["fig2", "fig3", "nu2"])
def test_cli_prints_the_documents_the_library_returns(tmp_path, capsys,
                                                      preset):
    # the model modules build what emax and verify print; the CLI only
    # encodes it
    path = _fig2_variant(tmp_path, "nu2.json", nu=2.0, f_norm=8.0) \
        if preset == "nu2" else str(PRESETS / f"{preset}.json")
    params = load_params_file(path)

    def printed(doc):
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    for eta, anchor in ((None, None), (4.5, 16.0)):
        given = ["--eta", str(eta), "--anchor-E0", str(anchor)] if eta else []
        assert run(["emax", "--params", path, *given]) == 0
        assert capsys.readouterr().out \
            == printed(bound_report(params, eta, anchor))
    assert run(["verify", "--params", path]) == 0
    assert capsys.readouterr().out == printed(verify.report(params))


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
        ("closed_form_vs_rk4", "phi1", 512, True),
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


def test_failed_verify_prints_its_report_and_exits_2(monkeypatch, capsys):
    # no e2 to scan: the oracle suite writes a failing e2 row with an
    # infinite margin, which the JSON report prints as null
    def refuse(params):
        raise RegimeViolation("no e2 here")

    monkeypatch.setattr(verify, "_full_scan_row", refuse)
    assert run(["verify", "--params", FIG3, "--points", "8"]) == 2
    out, err = capsys.readouterr()
    assert err == "verification failed\n"
    failed = [row for row in json.loads(out) if not row["pass"]]
    assert failed == [{"check": "root_vs_gridscan", "segment": "e2",
                       "samples": 0, "worst_margin": None, "pass": False,
                       "note": "RegimeViolation: no e2 here"}]


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


class _Arith:
    """The LogScalar arithmetic that taylor and emax formed their numbers
    with before they worked in ln floats, kept as their oracle: + is
    ln_add, and * / ** act on the ln. _to_float is LogScalar.to_float."""

    def __init__(self, ln: float):
        self.ln = ln

    def __add__(self, other):
        return _Arith(ln_add(self.ln, other.ln))

    def __mul__(self, other):
        return _Arith(self.ln + other.ln)

    def __truediv__(self, other):
        if other.ln == -math.inf:
            raise ZeroDivisionError("division by zero")
        return _Arith(self.ln - other.ln)

    def __pow__(self, p: float):
        if self.ln == -math.inf:
            if p < 0:
                raise ZeroDivisionError("0 to a negative power")
            return _Arith(0.0 if p == 0 else -math.inf)
        return _Arith(self.ln * p)


def _to_float(ln: float) -> float:
    return math.inf if ln > 709.0 else math.exp(ln)


def _taylor_oracle(doc: dict, lam: float, rounding) -> dict:
    ln10, segments = math.log(10.0), []
    for seg in doc["segments"]:
        es = [_Arith(from_sci_string(s)) for s in seg["e"]]
        big_es = [_Arith(float(v) * ln10) for v in seg["log10_E"]]
        n = _Arith(math.log(float(len(es))))
        e_mean = sum(es, _Arith(-math.inf)) / n
        big_mean = sum(big_es, _Arith(-math.inf)) / n
        kappa = ((big_mean / e_mean) ** 0.5).ln
        k = _to_float(kappa)
        segments.append({"tag": seg["tag"],
                         "log10_kappa_T": rounding(kappa / ln10),
                         "kappa_T": k if math.isfinite(k) else None})
    return {"segments": segments,
            "log10_sqrt_lambda": rounding(0.5 * math.log10(lam))}


def _seeded_curve(rng) -> dict:
    """Segments of 1 to 600 samples, ln e and ln E within 1e4 of 0, so
    both the energies and the wavenumber leave float range."""
    segments = []
    for i in range(12):
        n = rng.choice([1, 1, 2, rng.randint(3, 600)])
        ln_e = [rng.uniform(-1e4, 1e4) for _ in range(n)]
        ln_E = [rng.uniform(-1e4, 1e4) for _ in range(n)]
        segments.append({"tag": f"s{i}",
                         "e": [sci_string(v) for v in ln_e],
                         "log10_E": [v / math.log(10.0) for v in ln_E]})
    return {"segments": segments}


@pytest.mark.parametrize("rounding", [round_sig, float],
                         ids=["printed", "unrounded"])
def test_taylor_matches_the_removed_arithmetic(tmp_path, capsys,
                                               monkeypatch, rounding):
    # unrounded, the JSON carries every bit of each float
    monkeypatch.setattr(cli, "round_sig", rounding)
    rng = random.Random(29)
    lam = load_params_file(FIG2).lam
    seen = set()
    for i in range(20):
        doc = _seeded_curve(rng)
        path = tmp_path / f"curve{i}.json"
        path.write_text(json.dumps(doc))
        assert run(["taylor", "--params", FIG2, "--curve", str(path)]) == 0
        got = capsys.readouterr().out
        want = _taylor_oracle(doc, lam, rounding)
        assert got == json.dumps(want, sort_keys=True, indent=2) + "\n"
        for seg, row in zip(doc["segments"], want["segments"]):
            seen.add((len(seg["e"]) == 1, row["kappa_T"] is None))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


@pytest.mark.parametrize("rounding", [round_sig, float],
                         ids=["printed", "unrounded"])
@pytest.mark.parametrize("extra", [[], ["--eta", "3", "--anchor-E0", "100"]],
                         ids=["plain", "eta-anchor"])
def test_emax_matches_the_removed_arithmetic(tmp_path, capsys, monkeypatch,
                                             rounding, extra):
    # physical frames 40 decades either side of fig2's, at G in [1, 30]
    monkeypatch.setattr(maxest, "round_sig", rounding)
    rng = random.Random(29)
    raw = json.loads((PRESETS / "fig2.json").read_text())
    answered = 0
    for i in range(40):
        nu, lam = 10.0 ** rng.uniform(-40, 40), 10.0 ** rng.uniform(-40, 40)
        path = _fig2_variant(tmp_path, f"p{i}.json", nu=nu, **{"lambda": lam},
                             f_norm=rng.uniform(1.0, 30.0) * nu ** 2
                             * lam ** 0.75)
        code = run(["emax", "--params", path, *extra])
        out = capsys.readouterr().out
        if code != 0:
            continue
        answered += 1
        p = load_params_file(path)
        bounds = (p.grashof, p.eps, p.rho, p.c2)
        upper = emax_upper(*bounds, eta=float(extra[1]) if extra else None,
                           E0_anchor=float(extra[3]) if extra else None,
                           mu=p.mu)
        # LogScalar.from_float: 0 is ln -inf
        scale = maxest.physical_scale(p)[1]
        up = _Arith(math.log(scale) if scale else -math.inf)
        doc = json.loads(out)
        for key, bound in (("log10_lower", emax_lower(*bounds)),
                           ("log10_upper", upper)):
            ln = (_Arith(bound) * up).ln
            assert doc[key] == rounding(ln / math.log(10.0))
    assert answered > 30


def test_console_entry_point():
    env = dict(os.environ, PYTHONPATH=str(PRESETS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "enstrophy_bounds", "classify",
         "--params", FIG2, "--e", "4", "--E", "1e9"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "II\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="POSIX signal")
def test_closed_pipe_ends_the_command_quietly():
    # fig2's critical CSV is about 150 KB, more than a pipe holds: the
    # command is still writing when the reader goes away, and must die of
    # SIGPIPE like any filter instead of printing a BrokenPipeError
    env = dict(os.environ, PYTHONPATH=str(PRESETS.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "enstrophy_bounds", "curve", "critical",
         "--params", FIG2],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.read(64).startswith(b"e,log10_E,segment\n")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=10.0) == -signal.SIGPIPE
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


_EVERY_COMMAND = """
import gc, json, sys
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
codes.append(run(["--help"]))
codes.append(run(["emax", "--params", fig2, "--eta", "four"]))
print(json.dumps({"codes": codes, "frozen": gc.get_freeze_count(), **{
    heavy: [name for name in sys.modules if name.split(".")[0] == heavy]
    for heavy in ("numpy", "dataclasses", "inspect", "argparse", "gettext",
                  "locale", "pathlib", "typing")}}))
"""


def test_commands_never_import_numpy(tmp_path):
    # numpy is a test dependency only: importing it would double the
    # start-up time of every command. The records are plain classes, as
    # dataclasses (which imports inspect, ast and dis) and its generated
    # methods cost about 20 ms of every command. The command line is a
    # table, as argparse (with the gettext and locale it loads) and its
    # parser build cost several ms of every command, help and usage
    # errors included. Files are read and written with open(), not
    # pathlib, and the solver's callable aliases come from collections.abc,
    # not typing: under -S (no site, so nothing preloaded) those imports
    # cost about 3 ms each. run never freezes the heap (only main does,
    # before exiting), so many commands in one process leave it unfrozen
    env = dict(os.environ, PYTHONPATH=str(PRESETS.parent / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", _EVERY_COMMAND, FIG2,
                           FIG3, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == [0] * 13 + [1]
    assert doc["frozen"] == 0
    assert doc["numpy"] == []
    assert doc["dataclasses"] == [] and doc["inspect"] == []
    assert doc["argparse"] == [] and doc["gettext"] == [] \
        and doc["locale"] == []
    assert doc["pathlib"] == [] and doc["typing"] == []


# `python -m enstrophy_bounds ARGS`, then the package modules it executed
# (a registered module that nothing touched is still the lazy stand-in)
# and the heap's freeze count as main left it
_EXECUTED_MODULES = """
import gc, json, runpy, sys, types
try:
    runpy.run_module("enstrophy_bounds", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "frozen": gc.get_freeze_count(),
                  "executed": sorted(
    name.split(".", 1)[1] for name, module in sys.modules.items()
    if name.startswith("enstrophy_bounds.")
    and type(module) is types.ModuleType)}))
"""
_SHARED = {"cli", "curves", "errors", "logscalar", "params"}


def _executed_modules(*args) -> tuple[set, int]:
    env = dict(os.environ, PYTHONPATH=str(PRESETS.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _EXECUTED_MODULES, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["code"] == 0, proc.stderr
    return set(doc["executed"]), doc["frozen"]


@pytest.mark.parametrize("args, executed", [
    (("emax", "--params", FIG2), _SHARED | {"maxest"}),
    (("taylor", "--params", FIG2, "--curve", "CURVE"), _SHARED),
    (("--help",), _SHARED),
    (("classify", "--params", FIG2, "--e", "4", "--E", "1e9"),
     _SHARED | {"full_nse", "solver"}),
    (("curve", "full", "--params", FIG2, "--samples", "16"),
     _SHARED | {"full_nse", "solver"}),
    (("curve", "scaling", "--params", FIG2, "--samples", "16"),
     _SHARED | {"scaling", "specfun"}),
], ids=["emax", "taylor", "help", "classify", "curve-full", "curve-scaling"])
def test_command_executes_only_the_modules_it_runs(tmp_path, args, executed):
    if "CURVE" in args:
        curve = str(tmp_path / "critical.json")
        assert run(["curve", "critical", "--params", FIG2, "--samples", "16",
                    "--format", "json", "--out", curve]) == 0
        args = [curve if a == "CURVE" else a for a in args]
    modules, frozen = _executed_modules(*args)
    assert modules == executed
    # main froze the heap before exiting: the shutdown collections skip it
    assert frozen > 0


@pytest.mark.parametrize("args", [
    ("curve", "subcritical", "--params", FIG3, "--samples", "16"),
    ("classify", "--params", FIG3, "--model", "subcritical", "--e", "4",
     "--E", "1e9"),
], ids=["curve", "classify"])
def test_subcritical_commands_execute_no_other_model(args):
    executed, _ = _executed_modules(*args)
    assert "subcritical" in executed
    assert not executed & {"critical", "full_nse", "scaling", "maxest",
                           "verify"}


@pytest.mark.parametrize("preset, other", [(FIG2, "subcritical"),
                                           (FIG3, "critical")],
                         ids=["fig2", "fig3"])
def test_verify_executes_only_the_family_it_checks(preset, other):
    executed, _ = _executed_modules("verify", "--params", preset,
                                    "--points", "16")
    assert {"verify", "full_nse"} <= executed
    assert other not in executed
    assert not executed & {"maxest", "scaling"}


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
from enstrophy_bounds import specfun
segment = specfun.Branch.segment

def sunk(self, tag, ln_lo, ln_hi, samples):
    seg = segment(self, tag, ln_lo, ln_hi, samples)
    if tag == "phi1":
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
    monkeypatch.setattr(specfun.Branch, "segment", patch["sunk"])
    with pytest.raises(FieldBlowup):
        family(params)
    proc = _run_optimized(
        "curve", model, "--params", str(PRESETS / preset),
        code=_SINK_PHI1 + "specfun.Branch.segment = sunk\n"
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
