"""Bounding curves for the energy-enstrophy plane of the forced 3D
Navier-Stokes equations.

The unconditional region (full_nse) holds for every Leray solution; the
critical and subcritical curves sharpen it under a coherence assumption on
the forcing; maxest brackets the largest enstrophy the extremal dynamics
can reach; scaling carries the construction to scaling-invariant forcing.
verify re-derives everything independently and reports disagreements.
"""

from .critical import (assemble_critical, barrier, classify_critical,
                       coefficients, find_e_max, find_e_min, phi1, phi2,
                       phi3, truncation_comparison)
from .curves import (CurveBundle, CurveSegment, bundle_to_csv,
                     bundle_to_json, max_join_gap)
from .errors import (AssumptionViolated, CancellationLoss,
                     EnstrophyBoundsError, EtaTooSmall, FieldBlowup,
                     InvalidRegime, MissingKey, NoBracket, NonConvergence,
                     OutsideDomain, RegimeViolation)
from .full_nse import (FullNseGeometry, assemble_full, classify_full,
                       eta_threshold, geometry, nose_apex, parabola_E,
                       phi_of_e, psi_of_E, solve_e2)
from .logscalar import LogScalar
from .maxest import (BoundReport, bound_report, emax_lower, emax_upper,
                     eta_min, physical_scale)
from .params import ForcingParams, load_params_file
from .scaling import (ScalingParams, assemble_scaling, exponent_compare,
                      scaling_curve, scaling_emax, scaling_params)
from .subcritical import (assemble_subcritical, classify_subcritical,
                          find_e_bar, sub_phi1, sub_phi2, sub_phi3)
from .verify import containment_check, halved_curve, oracle_suite

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolated", "BoundReport", "CancellationLoss", "CurveBundle",
    "CurveSegment", "EnstrophyBoundsError", "EtaTooSmall", "FieldBlowup",
    "ForcingParams", "FullNseGeometry", "InvalidRegime", "LogScalar",
    "MissingKey", "NoBracket", "NonConvergence", "OutsideDomain",
    "RegimeViolation", "ScalingParams",
    "assemble_critical", "assemble_full", "assemble_scaling",
    "assemble_subcritical", "barrier", "bound_report", "bundle_to_csv",
    "bundle_to_json", "classify_critical", "classify_full",
    "classify_subcritical", "coefficients", "containment_check",
    "emax_lower", "emax_upper", "eta_min", "eta_threshold",
    "exponent_compare", "find_e_bar", "find_e_max", "find_e_min",
    "geometry", "halved_curve", "load_params_file",
    "max_join_gap", "nose_apex", "oracle_suite", "parabola_E", "phi1",
    "phi2", "phi3", "phi_of_e", "physical_scale", "psi_of_E",
    "scaling_curve", "scaling_emax", "scaling_params", "solve_e2",
    "sub_phi1", "sub_phi2", "sub_phi3", "truncation_comparison",
]
