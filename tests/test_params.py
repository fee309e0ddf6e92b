import json
import math

import pytest

from enstrophy_bounds import (ForcingParams, InvalidRegime, MissingKey,
                              critical, full_nse, subcritical)
from enstrophy_bounds.logscalar import LogScalar
from enstrophy_bounds.params import load_params_file

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


def test_round_trip_through_mapping(fig2):
    again = ForcingParams.from_mapping(fig2.to_raw())
    assert again == fig2


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
        with pytest.raises(MissingKey, match=repr(key)):
            ForcingParams.from_mapping(raw)


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


def test_equal_params_share_one_hash_and_hold_their_own_models():
    # the hash is formed once, from the same 17 field values as before;
    # each resolved model is held on its own params object, so an equal
    # but distinct set resolves an equal model of its own
    path = str(PRESETS / "fig2.json")
    p, q = load_params_file(path), load_params_file(path)
    assert p is not q and p == q and hash(p) == hash(q)
    assert hash(p) == hash(tuple(p.to_raw().values()))
    for resolve in (critical.chain, full_nse.geometry):
        assert resolve(p) is resolve(p)
        assert resolve(q) is not resolve(p)
    assert critical.chain(q).peak == critical.chain(p).peak
    assert vars(full_nse.geometry(q)) == vars(full_nse.geometry(p))
    assert p != ForcingParams.from_mapping(dict(p.to_raw(), nu=2.0))
    path = str(PRESETS / "fig3.json")
    p, q = load_params_file(path), load_params_file(path)
    assert p == q and hash(p) == hash(q)
    assert subcritical.chain(p) is subcritical.chain(p)
    assert subcritical.chain(q) is not subcritical.chain(p)
    assert subcritical.chain(q).ln_floor == subcritical.chain(p).ln_floor


def test_frozen(fig2):
    with pytest.raises(AttributeError):
        fig2.nu = 3.0
    with pytest.raises(AttributeError):
        del fig2.nu
    assert fig2.nu == 1.0
    x = LogScalar(2.0)
    with pytest.raises(AttributeError):
        x.ln = 3.0
    with pytest.raises(AttributeError):
        del x.ln
    with pytest.raises(AttributeError):
        x.other = 3.0
    assert x.ln == 2.0
