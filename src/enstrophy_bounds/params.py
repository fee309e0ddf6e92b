"""Forcing and regime parameters.

A single frozen ForcingParams carries everything the curve families need:
fluid constants, the two norms of the body force, the vorticity-coherence
description (r, mu, psi_inf, c_omega) and the splitting constants of the
underlying differential inequalities. Parameter files are flat JSON objects
with exactly these keys; unknown keys are rejected rather than ignored so a
typo cannot silently change a regime.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

from .errors import InvalidRegime, MissingKey, RegimeViolation

# attribute -> JSON key where they differ: "lambda" is a Python keyword
_ALIASES = {"lam": "lambda", "lam0": "lambda0"}

# |ln x| below this keeps x a normal float, with room for roundings
_LN_RANGE = 708.0


def exp_in_range(ln: float, what: str) -> float:
    """exp(ln); InvalidRegime where that is above float range."""
    if ln >= _LN_RANGE:
        raise InvalidRegime(f"{what} = exp({ln:.6g}) is above float range")
    return math.exp(ln)


@dataclass(frozen=True)
class ForcingParams:
    nu: float            # kinematic viscosity
    lam: float           # bottom of the Stokes spectrum (1/length^2 scale)
    lam0: float          # same quantity entering the lower boundary line
    f_norm: float        # L2 norm of the body force
    curlF_norm: float    # L2 norm of its curl
    psi_inf: float       # far-field level of the coherence profile
    r: float             # coherence decay exponent, 1/2 <= r <= 1
    eps: float           # interpolation split, rho = 2 eps + delta < 1
    delta: float
    mu: float            # coherence length-scale parameter
    c_omega: float = 1.0
    c1: float = 1.0      # constant of the enstrophy production estimate
    c2: float = 2.0      # constant of the coherence-weighted estimate
    c: float = 1.0       # generic interpolation constant (subcritical curves)
    eta: float = 2.0     # funnel steepness of the unconditional region
    eps0: float = 0.25   # scaling-window split
    c_omega_prime: float = 1.0

    def __post_init__(self):
        for name in ("nu", "lam", "lam0", "mu", "eps",
                     "c1", "c2", "eps0", "c_omega_prime"):
            if getattr(self, name) <= 0.0:
                raise InvalidRegime(f"{name} must be positive")
        # c = 0 is a meaningful degenerate limit (no production term in the
        # subcritical slope field) and delta = 0 a legitimate split, so
        # unlike their siblings these may vanish
        for name in ("f_norm", "curlF_norm", "psi_inf", "c", "delta"):
            if getattr(self, name) < 0.0:
                raise InvalidRegime(f"{name} must be nonnegative")
        if self.c_omega < 1.0:
            raise InvalidRegime("c_omega must be at least 1")
        if self.eta <= 1.0:
            raise InvalidRegime("eta must exceed 1")
        if not 0.5 <= self.r <= 1.0:
            raise InvalidRegime(f"r must lie in [1/2, 1], got {self.r}")
        if self.rho >= 1.0:
            raise InvalidRegime(
                f"2*eps + delta must stay below 1, got {self.rho}")

    # -- derived quantities ---------------------------------------------

    @property
    def rho(self) -> float:
        return 2.0 * self.eps + self.delta

    @cached_property
    def grashof(self) -> float:
        """Nondimensional forcing amplitude G = f / (nu^2 lam^(3/4)); G^2,
        nu^2 or nu^2 lam^(3/4) outside float range is InvalidRegime."""
        ln_nu2 = 2.0 * math.log(self.nu)
        ln_unit = ln_nu2 + 0.75 * math.log(self.lam)
        ln_f = math.log(self.f_norm) if self.f_norm else -math.inf
        ln_g2 = 2.0 * (ln_f - ln_unit)
        if max(ln_g2, abs(ln_nu2), abs(ln_unit)) >= _LN_RANGE:
            raise InvalidRegime(f"forcing scale outside float range: ln G^2 "
                                f"= {ln_g2:.6g}, ln nu^2 = {ln_nu2:.6g}")
        return self.f_norm / (self.nu ** 2 * self.lam ** 0.75)

    @cached_property
    def e0(self) -> float:
        """Energy level where every curve is anchored, nu^2 G^2/sqrt(lam) =
        (f/(nu lam))^2. Above float range it is InvalidRegime; zero or
        below, the degenerate-forcing rule: no curve, RegimeViolation."""
        ln_f = math.log(self.f_norm) if self.f_norm else -math.inf
        ln_e0 = 2.0 * (ln_f - math.log(self.nu) - math.log(self.lam))
        if ln_e0 <= -_LN_RANGE:
            raise RegimeViolation(
                "no curve to anchor: e0 = 0 (zero forcing, or e0 underflows)")
        e0 = exp_in_range(ln_e0, "anchor energy e0")
        self.grashof  # every curve is scaled by G: its gate applies too
        return e0

    @property
    def big_c_omega(self) -> float:
        """Rate constant of the slow energy-decay bound (1 + 4 c_omega)."""
        return 1.0 + 4.0 * self.c_omega

    @property
    def lam_under(self) -> float:
        """Slope of the lower boundary line E >= lam_under * e."""
        return self.lam0 / self.c_omega

    # -- construction / round trip ---------------------------------------

    @classmethod
    def from_mapping(cls, raw: dict) -> "ForcingParams":
        unknown = sorted(set(raw) - _FIELDS.keys())
        if unknown:
            raise InvalidRegime(f"unknown parameter keys: {', '.join(unknown)}")
        kwargs = {}
        for key, f in _FIELDS.items():
            if key in raw:
                kwargs[f.name] = _as_number(key, raw[key])
            elif f.default is MISSING:
                raise MissingKey(f"missing required parameter {key!r}")
        return cls(**kwargs)

    def to_raw(self) -> dict:
        return {key: getattr(self, f.name) for key, f in _FIELDS.items()}


# JSON key -> field, in declaration order; fields without a default are
# the required keys
_FIELDS = {_ALIASES.get(f.name, f.name): f for f in fields(ForcingParams)}


def _as_number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidRegime(f"parameter {key!r} must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise InvalidRegime(f"parameter {key!r} must be finite")
    return v


def load_params_file(path: str) -> ForcingParams:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise InvalidRegime(f"{path} is not a JSON parameter file: {exc}") \
            from None
    if not isinstance(raw, dict):
        raise InvalidRegime("parameter file must hold a JSON object")
    return ForcingParams.from_mapping(raw)
