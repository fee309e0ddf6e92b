import importlib.util
import math
import sys
from pathlib import Path

import pytest

from enstrophy_bounds import ForcingParams, OutsideDomain, load_params_file
from enstrophy_bounds.logscalar import ln_add

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "presets"


def tool(name):
    """The script tools/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def params_with(params, **over):
    """A fresh parameter set: params' raw values with over's replacing
    theirs."""
    raw = params.to_raw()
    raw.update(over)
    return ForcingParams.from_mapping(raw)


# The unconditional region's curves as pointwise oracles, every constant
# formed in the call: the library forms them once per record
# (full_nse._nose, full_nse.Funnel), and must give these bits.


def ln_psi(ln_E, params):
    """ln of the nose nu^4 E^2 / (2 (nu f)^2 + c1 E^3) at E = exp(ln_E)."""
    ln_nu = math.log(params.nu)
    return 4.0 * ln_nu + 2.0 * ln_E - ln_add(
        math.log(2.0) + 2.0 * (ln_nu + math.log(params.f_norm)),
        math.log(params.c1) + 3.0 * ln_E)


def parabola(e, params):
    """The parabola E = eta (f/nu) sqrt(e) at e."""
    return params.eta * params.f_norm / params.nu * math.sqrt(e)


def alpha_ln_beta(params):
    """The funnel's alpha = eta/(eta - 1) and ln beta."""
    eta = params.eta
    return eta / (eta - 1.0), math.log(4.0 * params.c1 / (3.0 * eta - 1.0)) \
        - 3.0 * math.log(params.nu) - math.log(params.f_norm)


def ln_phi(v, ln_e0, ln_E0, params):
    """ln E at ln e = v of the funnel through (exp(ln_e0), exp(ln_E0)):
    E^-2 = beta sqrt(e) (t u + 1 - u), u = (e0/e)^(alpha + 1/2)."""
    if v == ln_e0:
        return ln_E0
    alpha, ln_beta = alpha_ln_beta(params)
    ln_u = (alpha + 0.5) * (ln_e0 - v)
    ln_t = -0.5 * ln_e0 - 2.0 * ln_E0 - ln_beta
    shifted = math.exp(ln_t + ln_u) - math.expm1(ln_u)
    if shifted <= 0.0:
        raise OutsideDomain(
            f"e = exp({v}) is at or left of the funnel asymptote")
    return -0.5 * (ln_beta + 0.5 * v + math.log(shifted))


@pytest.fixture(scope="session")
def fig2():
    return load_params_file(str(PRESETS / "fig2.json"))


@pytest.fixture(scope="session")
def fig3():
    return load_params_file(str(PRESETS / "fig3.json"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance verdicts collect during the run; print them here so
    # output capture cannot swallow the passing ones
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "_VERDICTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)
