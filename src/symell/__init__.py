"""Symmetric elliptic integrals with certified asymptotic enclosures."""

from .errors import ConvergenceError, DomainError, RegimeError, ToleranceError
from .core import (
    agm,
    legendre_e,
    legendre_k,
    r_minus1,
    rc,
    rd,
    rf,
    rg,
    rj,
)
from .asym import (
    CASE_TAGS,
    Enclosure,
    case_ratio,
    enclose,
    theta_recover,
)
from .dispatch import EvalReport, EvalRequest, evaluate, plan

__version__ = "0.1.0"

# What loads here is the evaluation path: the reference evaluators, the case
# catalog and the dispatcher, on the standard library alone.  The quadrature
# oracle needs numpy and is symell.quadrature.oracle_batch; the Appendix
# inequalities (bracket, theta_of, INEQ_TAGS, Bracket) are symell.bounds.
# Neither is imported until it is used.

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
    "rd",
    "rf",
    "rg",
    "rj",
    "CASE_TAGS",
    "Enclosure",
    "case_ratio",
    "enclose",
    "theta_recover",
    "EvalReport",
    "EvalRequest",
    "evaluate",
    "plan",
    "__version__",
]
