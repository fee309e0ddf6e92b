"""Bounding curves for the energy-enstrophy plane of the forced 3D
Navier-Stokes equations.

The unconditional region (full_nse) holds for every Leray solution
wherever it is built. A parameter set whose parabola anchor admits no
asymptote (t >= 1) has no such region here: it is refused with
RegimeViolation ("parabola anchor admits no asymptote"), and what bounds
the region there is open (ROADMAP.md, item 4). The critical and
subcritical curves sharpen the region under a coherence assumption on
the forcing; maxest brackets the largest enstrophy the extremal dynamics
can reach; scaling carries the construction to scaling-invariant forcing.
verify re-derives everything independently and reports disagreements.
Energies and enstrophies pass float range by hundreds of decades, so the
breakpoints, the peak enstrophies, the maxest bounds and g come back as
their ln, a plain float (see logscalar).

Importing the package executes none of its modules. Each submodule but
the cli entry point is registered in sys.modules unexecuted
(importlib.util.LazyLoader), so a command executes only the modules it
uses, while code that looks a module up in sys.modules (a tracer that
rebinds functions by module attribute) finds every one of them; the first
attribute access executes it. An exported name, or a submodule read as an
attribute of the package (PEP 562 __getattr__), comes from its executed
module. The export table, _EXPORTS, also names the curve models: each
assemble_<model> in it is a model of the CLI's curve command, which reads
it from the package.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# every exported name, keyed to the module that defines it
_EXPORTS = {name: module for module, names in {
    "critical": "assemble_critical classify_critical coefficients find_e_max "
                "find_e_min truncation_comparison",
    "curves": "CurveBundle CurveSegment bundle_to_csv bundle_to_json "
              "max_join_gap",
    "errors": "AssumptionViolated CancellationLoss EnstrophyBoundsError "
              "EtaTooSmall FieldBlowup InvalidRegime MissingKey NoBracket "
              "NonConvergence OutsideDomain RegimeViolation",
    "full_nse": "FullNseGeometry assemble_full classify_full eta_threshold "
                "geometry solve_e2",
    "maxest": "bound_report emax_lower emax_upper eta_min physical_scale",
    "params": "ForcingParams load_params_file",
    "scaling": "assemble_scaling exponent_compare",
    "subcritical": "assemble_subcritical classify_subcritical find_e_bar",
    "verify": "containment_check halved_curve oracle_suite",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)

_SUBMODULES = {*_EXPORTS.values(), "branches", "cli", "logscalar", "solver",
               "specfun"}

# cli is the entry point: importing it executes it, and with it what every
# command shares
for _name in sorted(_SUBMODULES - {"cli"}):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(__getattr__(_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
