"""Forcing and regime parameters.

A single frozen ForcingParams carries everything the curve families need:
fluid constants, the two norms of the body force, the vorticity-coherence
description (r, mu, psi_inf, c_omega) and the splitting constants of the
underlying differential inequalities. Parameter files are flat JSON objects
with exactly these keys; unknown keys are rejected rather than ignored so a
typo cannot silently change a regime. ForcingParams itself is the one gate
on the values, whether they come from a file or by keyword.
"""

from __future__ import annotations

import json
import math
from functools import cached_property, update_wrapper

from .errors import InvalidRegime, MissingKey, RegimeViolation

# float range, the one rule every model applies: |ln x| below this keeps
# x a normal float, with room for roundings
_LN_RANGE = 708.0
# the largest float
_FLOAT_MAX = math.nextafter(math.inf, 0.0)


def exp_in_range(ln: float, what: str) -> float:
    """exp(ln); InvalidRegime where that is above float range."""
    if ln >= _LN_RANGE:
        raise InvalidRegime(f"{what} = exp({ln:.6g}) is above float range")
    return math.exp(ln)


def exp_clamped(ln: float) -> float:
    """exp(ln); 0 or inf where |ln| reaches _LN_RANGE, for the caller to
    refuse or saturate."""
    if abs(ln) < _LN_RANGE:
        return math.exp(ln)
    return math.inf if ln > 0.0 else 0.0


# each field in declaration order -> its JSON key, the field's own name
# but where that would be a Python keyword; the defaults of the optional
# fields; and JSON key -> field
_FIELDS = {name: name for name in (
    "nu", "lam", "lam0", "f_norm", "curlF_norm", "psi_inf", "r", "eps",
    "delta", "mu", "c_omega", "c1", "c2", "c", "eta", "eps0",
    "c_omega_prime")} | {"lam": "lambda", "lam0": "lambda0"}
_DEFAULTS = {"c_omega": 1.0, "c1": 1.0, "c2": 2.0, "c": 1.0, "eta": 2.0,
             "eps0": 0.25, "c_omega_prime": 1.0}
_KEYS = {key: name for name, key in _FIELDS.items()}


class ForcingParams:
    """One immutable parameter set, its fields (_FIELDS) given by keyword:

    nu             kinematic viscosity
    lam            bottom of the Stokes spectrum (1/length^2 scale)
    lam0           same quantity entering the lower boundary line
    f_norm         L2 norm of the body force
    curlF_norm     L2 norm of its curl
    psi_inf        far-field level of the coherence profile
    r              coherence decay exponent, 1/2 <= r <= 1
    eps, delta     interpolation split, rho = 2 eps + delta < 1
    mu             coherence length-scale parameter
    c_omega        (default 1)
    c1             constant of the enstrophy production estimate (1)
    c2             constant of the coherence-weighted estimate (2)
    c              generic interpolation constant, subcritical curves (1)
    eta            funnel steepness of the unconditional region (2)
    eps0           scaling-window split (0.25)
    c_omega_prime  (1)

    Each field is checked first, in declaration order: an int or a float
    but not a bool, of magnitude at most the largest float (so neither
    NaN nor infinite, nor an int past float range). A field that fails is
    InvalidRegime naming its JSON key. The range rules follow (positive,
    nonnegative, c_omega >= 1, eta > 1, r in [1/2, 1], rho < 1), and the
    fields are stored as floats. from_mapping adds only the key rules of
    a file: no unknown key, and every required key present.

    Two sets with the same field values are equal and hash alike; the
    hash is formed once, here. Each resolved model (held) is kept on the
    set itself, so an equal but distinct set resolves its own.
    """

    def __init__(self, **fields: float):
        fields = {**_DEFAULTS, **fields}
        if fields.keys() != _FIELDS.keys():
            raise TypeError(f"ForcingParams takes the fields "
                            f"{tuple(_FIELDS)}, got {sorted(fields)}")
        for name, json_key in _FIELDS.items():
            value = fields[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidRegime(f"parameter {json_key!r} must be a "
                                    f"number, got {value!r}")
            # NaN compares false, and an int compares exactly
            if not abs(value) <= _FLOAT_MAX:
                raise InvalidRegime(f"parameter {json_key!r} must be finite")
        key = tuple([float(fields[name]) for name in _FIELDS])
        vars(self).update(zip(_FIELDS, key), _key=key, _hash=hash(key))
        for name in ("nu", "lam", "lam0", "mu", "eps",
                     "c1", "c2", "eps0", "c_omega_prime"):
            if fields[name] <= 0.0:
                raise InvalidRegime(f"{name} must be positive")
        # c = 0 is a meaningful degenerate limit (no production term in the
        # subcritical slope field) and delta = 0 a legitimate split, so
        # unlike their siblings these may vanish
        for name in ("f_norm", "curlF_norm", "psi_inf", "c", "delta"):
            if fields[name] < 0.0:
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

    def __eq__(self, other):
        return other.__class__ is ForcingParams and self._key == other._key

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to ForcingParams.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete ForcingParams.{name}")

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
        unknown = sorted(set(raw) - _KEYS.keys())
        if unknown:
            raise InvalidRegime(f"unknown parameter keys: {', '.join(unknown)}")
        for key, name in _KEYS.items():
            if key not in raw and name not in _DEFAULTS:
                raise MissingKey(f"missing required parameter {key!r}")
        return cls(**{_KEYS[key]: value for key, value in raw.items()})

    def to_raw(self) -> dict:
        return dict(zip(_KEYS, self._key))


def held(resolve):
    """resolve(params), a record (never None), formed on first use and
    kept on that params object, written into its __dict__ as
    cached_property does: it lives exactly as long as the params, with no
    eviction. A resolve that raises keeps nothing and raises again on
    every call."""
    name = f"{resolve.__module__}.{resolve.__qualname__}"

    def lookup(params: ForcingParams):
        kept = params.__dict__.get(name)
        if kept is None:
            kept = params.__dict__[name] = resolve(params)
        return kept

    return update_wrapper(lookup, resolve)


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
