"""barnesg: asymptotics of the Barnes G-function with certified error bounds.

The library evaluates log G(z+1) three ways -- truncated asymptotic
expansion with certified remainder bounds, high-accuracy quadrature oracle,
and terminant-based exponentially improved expansion -- and exposes the
Stokes-multiplier smoothing profile across arg z = +-pi/2.
"""

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
from .oracle import (
    OracleValue,
    RemainderKernel,
    log_barnes_oracle,
    remainder_narrow,
    remainder_wide,
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
    TruncationScheme,
    exp_improved_report,
    stokes_profile,
    terminant,
    terminant_erf_approx,
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
    "RemainderKernel",
    "StokesSample",
    "TerminantEval",
    "TerminantMethod",
    "TruncationScheme",
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
    "terminant_erf_approx",
    "truncated_log_barnes",
    "zeta_even",
]
