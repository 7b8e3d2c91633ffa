"""Tolerance-driven evaluation: cheapest method that certifies the request.

Method ladder: closed forms (exact argument patterns), then asymptotic
enclosures ordered by (cost class, predicted half-width), then the
reference evaluator.  A case's predicted half-width comes from the same
bracket formulas the enclosure uses, so "meets tolerance" is a guarantee
rather than a heuristic.  Asymptotic cases are considered only when their
regime ratio is at most 1e-2 — the territory the containment campaigns
certify; anything outside falls through silently to the reference path,
as does an enclosure that carries a note or whose upper end is not positive.

Guarantee table: elementary closed forms 1e-14; closed forms routed
through the branchy rc evaluation 1e-13; asymptotic = relative half-width
plus a 2e-13 margin for the auxiliary core terms; reference 1e-12 (1e-13
for rc).  Requests no method can certify raise ToleranceError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from . import asym, core
from .errors import ConvergenceError, DomainError, ToleranceError

__all__ = ["EvalRequest", "EvalReport", "PlanStep", "evaluate", "plan"]

_REL_TOL_MIN = 1e-14
_REL_TOL_MAX = 1e-1

# regime ratio beyond which an asymptotic case is not trusted by the dispatcher
_RATIO_MAX = 1e-2

# guarantee margin covering auxiliary core terms inside enclosure endpoints
_ASYM_MARGIN = 2e-13

_GUAR_ELEMENTARY = 1e-14
_GUAR_RC = 1e-13
_GUAR_REFERENCE = 1e-12

# kind -> (arity, reference evaluator, its guarantee).  The evaluator is
# named, not bound, so each call looks it up on core.
_KIND = {
    "RC": (2, "rc", _GUAR_RC),
    "RF": (3, "rf", _GUAR_REFERENCE),
    "RD": (3, "rd", _GUAR_REFERENCE),
    "RJ": (4, "rj", _GUAR_REFERENCE),
    "RG": (3, "rg", _GUAR_REFERENCE),
    "K": (1, "legendre_k", _GUAR_REFERENCE),
    "E": (1, "legendre_e", _GUAR_REFERENCE),
}

KINDS = tuple(_KIND)


@dataclass(frozen=True)
class EvalRequest:
    kind: str
    args: tuple
    rel_tol: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        vals = tuple(float(a) for a in self.args)
        arity = _KIND[self.kind][0]
        if len(vals) != arity:
            raise DomainError(f"{self.kind} takes {arity} arguments, got {len(vals)}")
        for v in vals:
            if not math.isfinite(v):
                raise DomainError(f"arguments must be finite, got {vals}")
        object.__setattr__(self, "args", vals)
        t = float(self.rel_tol)
        if not _REL_TOL_MIN <= t <= _REL_TOL_MAX:
            raise DomainError(
                f"rel_tol must lie in [{_REL_TOL_MIN}, {_REL_TOL_MAX}], got {t}")
        object.__setattr__(self, "rel_tol", t)


@dataclass(frozen=True)
class PlanStep:
    method: str                       # closed_form | asym | reference
    case: str | None
    cost: int
    guaranteed_rel_err: float
    predicted_rel_halfwidth: float | None = None


@dataclass(frozen=True)
class EvalReport:
    value: float
    method: str
    case: str | None
    guaranteed_rel_err: float
    enclosure: asym.Enclosure | None = None

    def method_label(self) -> str:
        return f"asym({self.case})" if self.method == "asym" else self.method


def _closed_form(kind: str, args) -> tuple[float, float] | None:
    """(value, guarantee) for exact argument patterns, else None.

    A value that float64 cannot hold to its guarantee (it overflows, or
    underflows below the normal range) raises ConvergenceError.
    """
    try:
        cf = _pattern(kind, args)
    except ArithmeticError as exc:
        raise ConvergenceError(f"{kind} closed form at {args}: {exc}") from exc
    if cf is not None and not (math.isfinite(cf[0]) and cf[0] >= sys.float_info.min):
        raise ConvergenceError(
            f"{kind} closed form at {args} is {cf[0]!r}, outside the normal float64 range")
    return cf


def _pattern(kind: str, args) -> tuple[float, float] | None:
    if kind == "RC":
        return core.rc(*args), _GUAR_RC
    if kind == "RF":
        a, b, c = sorted(args)
        if a == b == c:
            if a == 0.0:
                raise DomainError("rf diverges when all arguments vanish")
            return a ** -0.5, _GUAR_ELEMENTARY
        if b == c:
            return core.rc(a, b), _GUAR_RC
        if a == b:
            if a == 0.0:
                raise DomainError("rf diverges when two arguments vanish")
            return core.rc(c, a), _GUAR_RC
        return None
    if kind == "RD":
        x, y, z = args
        if x == y == z:
            if x == 0.0:
                raise DomainError("rd requires z > 0")
            return x ** -1.5, _GUAR_ELEMENTARY
        a, b = sorted((x, y))
        if a == 0.0 and b == z:
            return 0.75 * math.pi * z ** -1.5, _GUAR_ELEMENTARY
        return None
    if kind == "RJ":
        x, y, z, p = args
        if x == y == z == p:
            if x == 0.0:
                raise DomainError("rj requires p != 0")
            return x ** -1.5, _GUAR_ELEMENTARY
        for i, v in enumerate((x, y, z)):
            if v == p:
                rest = [w for j, w in enumerate((x, y, z)) if j != i]
                sub = _pattern("RD", (rest[0], rest[1], p))
                if sub is not None:
                    return sub
                break
        return None
    if kind == "RG":
        a, b, c = sorted(args)
        if a == b == c:
            if a == 0.0:
                raise DomainError("rg requires at least one positive argument")
            return math.sqrt(a), _GUAR_ELEMENTARY
        if b == 0.0:
            return math.sqrt(c) / 2.0, _GUAR_ELEMENTARY
        if a == 0.0 and b == c:
            return 0.25 * math.pi * math.sqrt(b), _GUAR_ELEMENTARY
        return None
    if kind == "K":
        if args[0] == 0.0:
            return 0.5 * math.pi, _GUAR_ELEMENTARY
        return None
    if kind == "E":
        if args[0] == 0.0:
            return 0.5 * math.pi, _GUAR_ELEMENTARY
        if args[0] == 1.0:
            return 1.0, _GUAR_ELEMENTARY
        return None
    return None


def reference(kind: str, args) -> tuple[float, float]:
    """(value, guarantee) of the kind's reference evaluator at ``args``."""
    if kind == "RJ" and args[3] <= 0.0:
        raise DomainError("dispatch handles p > 0 only; use rj_pv for principal values")
    _, name, guar = _KIND[kind]
    return getattr(core, name)(*args), guar


def _case_args(kind: str, args) -> tuple:
    if kind in ("K", "E"):
        k = args[0]
        if not 0.0 <= k < 1.0:
            raise DomainError(f"modulus must lie in [0, 1) for asymptotic cases, got {k}")
        return (math.sqrt((1.0 - k) * (1.0 + k)),)
    return args


@dataclass
class _Candidate:
    step: PlanStep
    enclosure: asym.Enclosure | None = field(default=None, compare=False)
    value: float | None = None        # a closed form's value


def _candidates(req: EvalRequest) -> list[_Candidate]:
    out: list[_Candidate] = []
    cf = _closed_form(req.kind, req.args)
    if cf is not None:
        out.append(_Candidate(PlanStep("closed_form", None, 0, cf[1]), value=cf[0]))
    try:
        cargs = _case_args(req.kind, req.args)
    except DomainError:
        cargs = None
    asym_cands: list[_Candidate] = []
    if cargs is not None:
        for tag in asym.kind_cases(req.kind):
            try:
                if asym.case_ratio(tag, *cargs) > _RATIO_MAX:
                    continue
                enc = asym.enclose(tag, *cargs)
            except (DomainError, ValueError, ZeroDivisionError, OverflowError,
                    ConvergenceError):
                continue
            if enc.note is not None or enc.hi <= 0.0:
                # a reference-evaluator or non-finite endpoint, or rounding
                # in the case formula cancelled a positive integral
                continue
            hw = 0.5 * enc.rel_width()
            if not math.isfinite(hw):
                continue
            step = PlanStep("asym", tag, asym.case_cost(tag), hw + _ASYM_MARGIN, hw)
            asym_cands.append(_Candidate(step, enc))
    asym_cands.sort(key=lambda c: (c.step.cost, c.step.predicted_rel_halfwidth, c.step.case))
    out.extend(asym_cands)
    out.append(_Candidate(PlanStep("reference", None, 9, _KIND[req.kind][2])))
    return out


def plan(req: EvalRequest) -> list[PlanStep]:
    """Deterministic candidate ordering for a request."""
    return [c.step for c in _candidates(req)]


def evaluate(req: EvalRequest) -> EvalReport:
    """Evaluate with the cheapest method whose guarantee meets the tolerance."""
    for cand in _candidates(req):
        step = cand.step
        if step.guaranteed_rel_err > req.rel_tol:
            continue
        if step.method == "closed_form":
            return EvalReport(cand.value, "closed_form", None, step.guaranteed_rel_err)
        if step.method == "asym":
            enc = cand.enclosure
            return EvalReport(enc.estimate, "asym", step.case, step.guaranteed_rel_err, enc)
        value, guar = reference(req.kind, req.args)
        return EvalReport(value, "reference", None, guar)
    raise ToleranceError(
        f"no method certifies rel_tol={req.rel_tol:g} for {req.kind}{req.args}")
