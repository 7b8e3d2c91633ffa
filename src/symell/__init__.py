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
from .dispatch import EvalReport, EvalRequest, evaluate, plan

__version__ = "0.1.0"

# What loads here is the evaluation path: the reference evaluators and the
# dispatcher, on the standard library alone.  The case catalog, symell.asym,
# loads on first use: at a dispatcher ratio pass or case reference, or for
# one of the _FROM_ASYM names, which __getattr__ serves (PEP 562).  The
# quadrature oracle needs numpy and is symell.quadrature.oracle_batch; the
# Appendix inequalities (bracket, theta_of, INEQ_TAGS, Bracket) are
# symell.bounds.  Neither is imported until it is used.

_FROM_ASYM = ("CASE_TAGS", "Enclosure", "case_ratio", "enclose", "theta_recover")


def __getattr__(name):
    if name in _FROM_ASYM:
        from . import asym

        value = globals()[name] = getattr(asym, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
