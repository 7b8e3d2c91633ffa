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
    case_ratio,
    enclose,
    theta_recover,
)
from .bounds import INEQ_TAGS, Bracket, bracket, theta_of
from .dispatch import EvalReport, EvalRequest, evaluate, plan

__version__ = "0.1.0"

# The quadrature oracle needs numpy, so it is not imported here: the
# reference evaluators, the case catalog and the dispatcher load with the
# standard library alone.  It is symell.quadrature.oracle_batch.

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
    "CASE_TAGS",
    "Enclosure",
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
