"""barnesg: asymptotics of the Barnes G-function with certified error bounds.

The library evaluates log G(z+1) three ways -- truncated asymptotic
expansion with certified remainder bounds, high-accuracy quadrature oracle,
and terminant-based exponentially improved expansion -- and exposes the
Stokes-multiplier smoothing profile across arg z = +-pi/2.

Only the oracle needs numpy, so `import barnesg` loads none: the oracle's
names, and the submodules `oracle` and `quadrature`, are looked up on first
use by the module `__getattr__` (PEP 562).  The lookup reads through to
`barnesg.oracle` on every access and copies none of its names here, so a
patch of `barnesg.oracle.log_barnes_oracle` shows through
`barnesg.log_barnes_oracle`, and so does its undo.
"""

from importlib import import_module as _import_module

from .bernoulli import (
    EULER_GAMMA,
    LOG_GLAISHER,
    BernoulliTable,
    bernoulli_number,
    series_coefficient,
    zeta_even,
)
from .errors import AccuracyError, DomainError, RangeError
from .expansion import (
    BoundKind,
    BoundReport,
    ExpansionResult,
    best_bound,
    certified_eval,
    expansion_prefix,
    family_bounds,
    sector_factor,
    solve_optimal_angle,
    truncated_log_barnes,
)
from .special import (
    erf_small,
    exp_integral_e1,
    log_gamma,
)
from .terminant import (
    StokesSample,
    TerminantEval,
    TerminantMethod,
    exp_improved_report,
    stokes_profile,
    terminant,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BernoulliTable",
    "BoundKind",
    "BoundReport",
    "DomainError",
    "EULER_GAMMA",
    "ExpansionResult",
    "LOG_GLAISHER",
    "OracleValue",
    "RangeError",
    "StokesSample",
    "TerminantEval",
    "TerminantMethod",
    "bernoulli_number",
    "best_bound",
    "certified_eval",
    "erf_small",
    "exp_improved_report",
    "exp_integral_e1",
    "expansion_prefix",
    "family_bounds",
    "log_barnes_oracle",
    "log_gamma",
    "remainder_narrow",
    "remainder_wide",
    "sector_factor",
    "series_coefficient",
    "solve_optimal_angle",
    "stokes_profile",
    "terminant",
    "truncated_log_barnes",
    "zeta_even",
]


#: Names resolved on access, each with the submodule that defines it.
_LAZY = {"OracleValue": "oracle", "log_barnes_oracle": "oracle", "remainder_narrow": "oracle",
         "remainder_wide": "oracle", "oracle": "oracle", "quadrature": "quadrature"}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import binds the submodule here; reading that binding skips import_module's
    # module lock on every later access
    module = globals().get(home) or _import_module(f".{home}", __name__)
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
