"""The package's import surface.

Importing enstrophy_bounds executes none of its modules: each is registered
in sys.modules unexecuted and runs on first use. Every way of reaching a
name or a module must still hand back the executed one.
"""

import ast
import json
import operator
import os
import subprocess
import sys

import pytest

from conftest import ROOT, names_in

PACKAGE = ROOT / "src" / "enstrophy_bounds"

# each check in a fresh interpreter, where nothing has executed yet
_SURFACE = """
import importlib, json, sys, types
import pytest
import enstrophy_bounds as eb

names, modules = sys.argv[1], sys.argv[2:]
out = {}
if names == "exports":
    for name in eb.__all__:
        ns = {}
        exec(f"from enstrophy_bounds import {name}", ns)
        home = sys.modules[f"enstrophy_bounds.{eb._EXPORTS[name]}"]
        out[name] = ns[name] is getattr(home, name) \\
            and type(home) is types.ModuleType
    out["missing"] = not hasattr(eb, "no_such_name")
elif names == "import":
    for m in modules:
        exec(f"import enstrophy_bounds.{m}")
        out[m] = getattr(eb, m) is sys.modules[f"enstrophy_bounds.{m}"] \\
            and type(getattr(eb, m)) is types.ModuleType
elif names == "attribute":
    for m in modules:
        out[m] = type(getattr(eb, m)) is types.ModuleType
else:
    mp = pytest.MonkeyPatch()
    mp.setattr("enstrophy_bounds.specfun._LN_SEVENTH", 5.0)
    patched = sys.modules["enstrophy_bounds.specfun"]._LN_SEVENTH
    mp.undo()
    out["patched"] = patched == 5.0
    out["restored"] = \
        sys.modules["enstrophy_bounds.specfun"]._LN_SEVENTH != 5.0
print(json.dumps(out))
"""


def _surface(kind, *modules) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _SURFACE, kind, *modules],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _submodules() -> list:
    return sorted(p.stem for p in PACKAGE.glob("*.py")
                  if not p.stem.startswith("__"))


def test_every_export_resolves_from_its_executed_module():
    out = _surface("exports")
    assert out.pop("missing") is True
    assert out and all(out.values()), [k for k, ok in out.items() if not ok]


def test_every_submodule_imports_executed():
    for kind in ("import", "attribute"):
        out = _surface(kind, *_submodules())
        assert out == {m: True for m in _submodules()}, kind


def test_dotted_monkeypatch_path_reaches_an_unexecuted_module():
    assert _surface("monkeypatch") == {"patched": True, "restored": True}


# names that left the surface: the per-branch wrappers (the chain's value
# is the one way to evaluate a branch), float twins of the segment kernels,
# LogScalar aliases, its arithmetic and ONE (a value is a boundary value
# only), scaling's own closed form (the curve is specfun's b = 0
# solution), the LogScalar record with its constructors, converters and
# ZERO (a value leaves the library as its ln, a plain float), and the
# functions that formed a branch's solution, bounds, peak and samples
# apart (one Branch record per anchor holds them), critical's float
# barrier (the chain samples the nullcline it solves the peak against),
# full_nse's float funnel, nose, apex and parabola (Funnel, _ln_psi and
# geometry are the one evaluation of each), the float-range edges of
# full_nse and maxest (params decides float range), ln_sub (a
# difference is written where it is taken), the power series' cap and
# rescaling (it is summed only inside float range), and the chain's own
# peak variable, nullcline, peak gap and sampler, its unread tail b and
# Branch's b = 0 peak and grid sampler (a Branch finds its own peak,
# floor bracket and segment), and the scaling model's parameter record,
# its float maximum, default anchor and maximum helper (assemble_scaling
# forms its constants, anchor and maximum itself), and the checks that
# only acceptance criteria ran, the truncated series, the halved curve
# and the e2 floor (the tests hold them), with the exponent comparison
# that nothing ran
_REMOVED = {
    "": "phi1 phi2 phi3 sub_phi1 sub_phi2 sub_phi3 scaling_curve LogScalar "
        "barrier phi_of_e psi_of_E nose_apex parabola_E BoundReport "
        "ScalingParams scaling_params scaling_emax truncation_comparison "
        "halved_curve exponent_compare",
    "critical": "phi1 phi2 phi3 barrier truncation_comparison",
    "subcritical": "sub_phi1 sub_phi2 sub_phi3",
    "branches": "_as_ln _REL_TOL solution envelope peak_ln_e sample",
    "full_nse": "phi_slope _alpha_ln_beta _ln_t _funnel _ln_phi _slope "
                "_ln_slope _funnel_segment _point phi_of_e psi_of_E "
                "nose_apex parabola_E _exp e2_lower_bound",
    "maxest": "_LN_MAX BoundReport",
    "scaling": "scaling_curve _ln_curve solution envelope peak_ln_e sample "
               "ScalingParams scaling_params scaling_emax default_anchor "
               "_maximum exponent_compare",
    "logscalar": "ONE ZERO from_float to_float ln_sub",
    "specfun": "solution envelope peak_ln_e sample _RESCALE _LN_RESCALE "
               "_MAX_X",
    "verify": "_chain halved_curve",
    "cli": "_ASSEMBLERS _finite",
}

# what the LogScalar shim no longer defines: slots, immutability, equality,
# hashing and the orderings
_SHIM_DROPPED = ("__slots__ __setattr__ __delattr__ __eq__ __hash__ __lt__ "
                 "__le__ __gt__ __ge__")


def test_removed_names_raise_attribute_error(fig2):
    import enstrophy_bounds as eb
    from enstrophy_bounds.branches import Chain, family
    from enstrophy_bounds.logscalar import LogScalar
    from enstrophy_bounds.specfun import Branch

    owners = [(getattr(eb, m) if m else eb, names)
              for m, names in _REMOVED.items()]
    owners += [(Chain, "branch slope_field"),
               (family(fig2), "_ln_e_of _ln_null peak_gap _sample tail_b"),
               (Branch, "peak_ln_e sample"),
               (LogScalar, "from_ln to_sci_string __add__ __mul__ "
                           "__truediv__ __pow__ from_float from_sci_string "
                           "to_float log10")]
    for owner, names in owners:
        for name in names.split():
            assert name not in eb.__all__
            with pytest.raises(AttributeError):
                getattr(owner, name)
    # object supplies these, so the shim must not define them
    assert not set(_SHIM_DROPPED.split()) & vars(LogScalar).keys()
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(LogScalar(0.0), LogScalar(1.0))


def test_every_export_serves_a_command_or_the_benchmark():
    # each exported name is named in src/ outside its own definition, or by
    # the benchmark's code or traced functions (TRACED); a name that only
    # the tests read belongs in conftest
    import enstrophy_bounds as eb

    named = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        for top in ast.parse(path.read_text()).body:
            named |= set(names_in(top)) - {getattr(top, "name", None)}
            if isinstance(top, ast.Assign) \
                    and "TRACED" in names_in(top.targets[0]):
                named |= {c.value for c in ast.walk(top)
                          if isinstance(c, ast.Constant)}
    assert [name for name in eb.__all__ if name not in named] == []
