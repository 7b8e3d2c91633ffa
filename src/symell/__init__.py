"""Symmetric elliptic integrals with certified asymptotic enclosures."""

from .errors import ConvergenceError, DomainError, RegimeError, ToleranceError
from .core import (
    agm,
    legendre_e,
    legendre_k,
    r_minus1,
    rc,
    rc_pv,
    rd,
    rf,
    rg,
    rj,
    rj_pv,
)
from .asym import (
    CASE_TAGS,
    Enclosure,
    Regime,
    approx_e,
    approx_k,
    approx_rc,
    approx_rd,
    approx_rf,
    approx_rg,
    approx_rj,
    case_ratio,
    enclose,
    theta_recover,
)
from .bounds import INEQ_TAGS, Bracket, bracket, theta_of
from .dispatch import EvalReport, EvalRequest, evaluate, plan

__version__ = "0.1.0"

# The quadrature oracle needs scipy; it is imported on first use so that the
# reference evaluators, the case catalog and the dispatcher load with the
# standard library alone.
_LAZY = ("oracle", "oracle_rj_pv", "oracle_with_error")


def __getattr__(name):
    if name in _LAZY:
        from . import quadrature
        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "ConvergenceError",
    "DomainError",
    "RegimeError",
    "ToleranceError",
    "agm",
    "legendre_e",
    "legendre_k",
    "r_minus1",
    "rc",
    "rc_pv",
    "rd",
    "rf",
    "rg",
    "rj",
    "rj_pv",
    "oracle",
    "oracle_rj_pv",
    "oracle_with_error",
    "CASE_TAGS",
    "Enclosure",
    "Regime",
    "approx_e",
    "approx_k",
    "approx_rc",
    "approx_rd",
    "approx_rf",
    "approx_rg",
    "approx_rj",
    "case_ratio",
    "enclose",
    "theta_recover",
    "INEQ_TAGS",
    "Bracket",
    "bracket",
    "theta_of",
    "EvalReport",
    "EvalRequest",
    "evaluate",
    "plan",
    "__version__",
]
