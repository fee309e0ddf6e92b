import json
import math
import sys

import pytest

from enstrophy_bounds import (ForcingParams, InvalidRegime, MissingKey,
                              critical, full_nse, subcritical)
from enstrophy_bounds.params import (_KEYS, exp_clamped, exp_in_range,
                                     load_params_file)

from conftest import PRESETS


def test_fig2_derived_quantities(fig2):
    assert fig2.grashof == pytest.approx(2.0)
    assert fig2.rho == pytest.approx(0.9)
    assert fig2.big_c_omega == pytest.approx(5.0)
    assert fig2.e0 == pytest.approx(4.0)
    assert fig2.lam_under == pytest.approx(1.0)


def test_grashof_scales_with_viscosity(fig2):
    p = ForcingParams.from_mapping(dict(fig2.to_raw(), nu=2.0))
    assert p.grashof == pytest.approx(0.5)
    assert p.e0 == pytest.approx(1.0)


def test_float_range_is_one_rule():
    # |ln| below 708 keeps a value a normal float: exp_clamped saturates
    # to 0 or inf from there, exp_in_range refuses from there upwards
    assert 0.0 < exp_clamped(707.9) == math.exp(707.9) < math.inf
    assert exp_clamped(-707.9) == math.exp(-707.9) >= sys.float_info.min
    assert exp_clamped(708.0) == math.inf
    assert exp_clamped(-708.0) == 0.0
    assert exp_in_range(707.9, "x") == math.exp(707.9)
    assert exp_in_range(-800.0, "x") == 0.0
    with pytest.raises(InvalidRegime, match=r"^x = exp\(708\) is above"):
        exp_in_range(708.0, "x")


def test_round_trip_through_mapping(fig2):
    again = ForcingParams.from_mapping(fig2.to_raw())
    assert again.to_raw() == fig2.to_raw()


def test_unknown_key_rejected(fig2):
    raw = fig2.to_raw()
    raw["viscosity"] = 1.0
    with pytest.raises(InvalidRegime, match="unknown"):
        ForcingParams.from_mapping(raw)


def test_missing_key_rejected(fig2):
    for key in ("nu", "lambda", "lambda0", "f_norm", "curlF_norm",
                "psi_inf", "r", "eps", "delta", "mu"):
        raw = fig2.to_raw()
        del raw[key]
        with pytest.raises(MissingKey) as info:
            ForcingParams.from_mapping(raw)
        assert str(info.value) == f"missing required parameter {key!r}"


def test_non_numeric_rejected(fig2):
    raw = fig2.to_raw()
    raw["nu"] = "one"
    with pytest.raises(InvalidRegime):
        ForcingParams.from_mapping(raw)
    raw["nu"] = True
    with pytest.raises(InvalidRegime):
        ForcingParams.from_mapping(raw)
    raw["nu"] = math.nan
    with pytest.raises(InvalidRegime):
        ForcingParams.from_mapping(raw)


# a value that is not a number, or not a finite one, in each of the 17
# fields: ForcingParams refuses it by keyword as a file does, naming the
# JSON key
_NOT_NUMBERS = [(True, "must be a number, got True"),
                ("1", "must be a number, got '1'"),
                (None, "must be a number, got None"),
                (math.nan, "must be finite"), (math.inf, "must be finite"),
                (-math.inf, "must be finite"), (10 ** 400, "must be finite"),
                (-10 ** 400, "must be finite")]


def _fields(params):
    return {_KEYS[key]: value for key, value in params.to_raw().items()}


def test_keyword_construction_takes_exactly_the_fields(fig2):
    fields = _fields(fig2)
    for wrong in ({"nu": 1.0}, dict(fields, viscosity=1.0)):
        with pytest.raises(TypeError, match=r"^ForcingParams takes the "
                           r"fields \('nu', 'lam', "):
            ForcingParams(**wrong)


@pytest.mark.parametrize("value, message", _NOT_NUMBERS,
                         ids=["true", "string", "none", "nan", "inf",
                              "minus-inf", "huge-int", "minus-huge-int"])
def test_every_field_must_be_a_finite_number(fig2, value, message):
    assert len(_KEYS) == 17
    for key, name in _KEYS.items():
        want = f"parameter {key!r} {message}"
        with pytest.raises(InvalidRegime) as by_keyword:
            ForcingParams(**dict(_fields(fig2), **{name: value}))
        with pytest.raises(InvalidRegime) as from_file:
            ForcingParams.from_mapping(dict(fig2.to_raw(), **{key: value}))
        assert str(by_keyword.value) == str(from_file.value) == want


def test_largest_float_is_admitted_and_ints_are_stored_as_floats(fig2):
    p = ForcingParams(**dict(_fields(fig2), nu=1, c_omega=1,
                             f_norm=2 ** 1023))
    assert p.to_raw()["nu"] == 1.0 and type(p.to_raw()["nu"]) is float
    assert all(type(v) is float for v in p.to_raw().values())
    assert p.to_raw() == ForcingParams.from_mapping(
        dict(fig2.to_raw(), f_norm=2.0 ** 1023)).to_raw()
    top = ForcingParams.from_mapping(dict(fig2.to_raw(),
                                          curlF_norm=sys.float_info.max))
    assert top.curlF_norm == sys.float_info.max
    # the int just past the largest float is refused, though it would
    # round down to it
    with pytest.raises(InvalidRegime, match="'curlF_norm' must be finite"):
        ForcingParams.from_mapping(dict(fig2.to_raw(), curlF_norm=int(
            sys.float_info.max) + 1))


# each parameter file with one fault, and the exception it raises
_ONE_FAULT = [
    ({"nu": "one"}, InvalidRegime, "parameter 'nu' must be a number, "
                                   "got 'one'"),
    ({"lambda": True}, InvalidRegime, "parameter 'lambda' must be a number, "
                                      "got True"),
    ({"r": [0.5]}, InvalidRegime, "parameter 'r' must be a number, "
                                  "got [0.5]"),
    ({"eta": math.nan}, InvalidRegime, "parameter 'eta' must be finite"),
    ({"mu": -math.inf}, InvalidRegime, "parameter 'mu' must be finite"),
    # json writes and reads a 401-digit integer as an int
    ({"nu": 10 ** 400}, InvalidRegime, "parameter 'nu' must be finite"),
    ({"viscosity": 1.0}, InvalidRegime, "unknown parameter keys: viscosity"),
    ({"nu": 0}, InvalidRegime, "nu must be positive"),
    ({"delta": -1}, InvalidRegime, "delta must be nonnegative"),
    ({"r": 0.4}, InvalidRegime, "r must lie in [1/2, 1], got 0.4"),
]


@pytest.mark.parametrize("over, exc, message", _ONE_FAULT, ids=[
    "nu-text", "lambda-true", "r-list", "eta-nan", "mu-minus-inf",
    "nu-huge-int", "unknown-key", "nu-zero", "delta-negative", "r-low"])
def test_a_file_with_one_fault_names_it(tmp_path, fig2, over, exc, message):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(dict(fig2.to_raw(), **over)))
    with pytest.raises(exc) as info:
        load_params_file(str(f))
    assert type(info.value) is exc and str(info.value) == message


def test_key_rules_come_before_values(fig2):
    # a file with several faults: an unknown key first, then the first
    # missing required key in declaration order, then the first value that
    # is not a finite number, and the range rules last
    raw = dict(fig2.to_raw(), nu="one", r=0.4, viscosity=1.0)
    del raw["lambda0"]
    with pytest.raises(InvalidRegime, match="unknown parameter keys"):
        ForcingParams.from_mapping(raw)
    del raw["viscosity"]
    with pytest.raises(MissingKey) as info:
        ForcingParams.from_mapping(raw)
    assert str(info.value) == "missing required parameter 'lambda0'"
    raw["lambda0"] = 1.0
    with pytest.raises(InvalidRegime, match="'nu' must be a number"):
        ForcingParams.from_mapping(raw)
    raw["nu"] = 1.0
    with pytest.raises(InvalidRegime, match="r must lie"):
        ForcingParams.from_mapping(raw)


@pytest.mark.parametrize("field", ["nu", "lambda", "lambda0", "mu", "eps",
                                   "c1", "c2", "eps0", "c_omega_prime"])
def test_positivity_gates(fig2, field):
    raw = fig2.to_raw()
    raw[field] = 0.0
    with pytest.raises(InvalidRegime):
        ForcingParams.from_mapping(raw)


@pytest.mark.parametrize("field", ["f_norm", "curlF_norm", "psi_inf",
                                   "c", "delta"])
def test_zero_allowed_negative_rejected(fig2, field):
    raw = fig2.to_raw()
    raw[field] = 0.0
    ForcingParams.from_mapping(raw)  # legitimate degenerate limit
    raw[field] = -0.1
    with pytest.raises(InvalidRegime):
        ForcingParams.from_mapping(raw)


def test_structural_gates(fig2):
    raw = fig2.to_raw()
    for key, bad in [("c_omega", 0.9), ("eta", 1.0), ("r", 0.4),
                     ("r", 1.2), ("eps", 0.5)]:  # eps=0.5 pushes rho to 1.5
        broken = dict(raw)
        broken[key] = bad
        with pytest.raises(InvalidRegime):
            ForcingParams.from_mapping(broken)


def test_optional_defaults(fig2):
    raw = {k: v for k, v in fig2.to_raw().items()
           if k in ("nu", "lambda", "lambda0", "f_norm", "curlF_norm",
                    "psi_inf", "r", "eps", "delta", "mu")}
    p = ForcingParams.from_mapping(raw)
    assert (p.c_omega, p.c1, p.c2, p.c) == (1.0, 1.0, 2.0, 1.0)
    assert (p.eta, p.eps0, p.c_omega_prime) == (2.0, 0.25, 1.0)


@pytest.mark.parametrize("data", [b"\x89PNG\r\n\x1a\n\xff\xfe",
                                  b"nu = 1.0\n", b""],
                         ids=["binary", "not-json", "empty"])
def test_load_rejects_a_file_that_is_not_json(tmp_path, data):
    f = tmp_path / "p.json"
    f.write_bytes(data)
    with pytest.raises(InvalidRegime, match="not a JSON parameter file"):
        load_params_file(str(f))


def test_load_rejects_non_object(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(InvalidRegime):
        load_params_file(str(f))


def test_equal_params_hold_their_own_models():
    # a set compares as itself, with no equality of its own: each
    # resolved model is held on its own params object, so a second set of
    # the same values resolves an equal model of its own
    assert not {"__eq__", "__hash__"} & vars(ForcingParams).keys()
    path = str(PRESETS / "fig2.json")
    p, q = load_params_file(path), load_params_file(path)
    assert p is not q and p.to_raw() == q.to_raw()
    for resolve in (critical.chain, full_nse.geometry):
        assert resolve(p) is resolve(p)
        assert resolve(q) is not resolve(p)
    assert critical.chain(q).peak == critical.chain(p).peak
    assert [getattr(full_nse.geometry(q), k) for k in full_nse._BREAKPOINTS] \
        == [getattr(full_nse.geometry(p), k) for k in full_nse._BREAKPOINTS]
    path = str(PRESETS / "fig3.json")
    p, q = load_params_file(path), load_params_file(path)
    assert p.to_raw() == q.to_raw()
    assert subcritical.chain(p) is subcritical.chain(p)
    assert subcritical.chain(q) is not subcritical.chain(p)
    assert subcritical.chain(q).ln_floor == subcritical.chain(p).ln_floor


def test_frozen(fig2):
    with pytest.raises(AttributeError):
        fig2.nu = 3.0
    with pytest.raises(AttributeError):
        del fig2.nu
    assert fig2.nu == 1.0
