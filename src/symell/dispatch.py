"""Tolerance-driven evaluation: cheapest method that certifies the request.

Method ladder: closed forms (exact argument patterns), then asymptotic
enclosures by cost class, then the reference evaluator, which K and E (one
AGM run each) try before their cases; twin cases (C2c, F1b) are not walked.
One lazy walk serves both entry points: it builds enclosures one cost class
at a time, cheapest first, and orders a class by half-width; ``evaluate``
stops at the first step that certifies the request, and ``plan`` lists
every step, in the order ``evaluate`` tries them.
The half-width that orders a class is that of the built enclosure itself,
so "meets tolerance" is a guarantee rather than a heuristic, and the
narrowest step of a class certifies if any of it does; building the whole
class is the price of that order.

Asymptotic cases are considered only when their regime ratio is at most
1e-2 — the territory the containment campaigns certify.  A request's
arguments are checked once, when the request is built; one ratio pass per
request (``asym._ratio_pass``, on that checked tuple) evaluates each
case's ratio and groups the in-ratio cases by cost, and each
enclosure is built from its case row and the same tuple, behind the case's
gate and asym's error boundary.  Left out silently are a case whose ratio
fails in float64 or exceeds 1e-2, or whose arguments lie outside asym's
window; a complete case (J1b, J4b, J6complete, G1b) whose zero argument is
not 0, unbuilt; a case whose enclosure is refused or fails in float64 (asym
raises RegimeError or ConvergenceError); and an enclosure whose upper end
is not positive.  What is left out falls through to the reference path.

Guarantee table: elementary closed forms 1e-14; closed forms routed
through the branchy rc evaluation 1e-13, rc's principal value at RC's
y < 0 among them; asymptotic = relative half-width plus a 2e-13 margin for
the auxiliary core terms; reference 1e-12 (1e-13 for rc), rj's principal
value at RJ's p < 0 among them (no case gate accepts p < 0).
Requests no method can certify raise ToleranceError.

Requests, plan steps and reports are immutable named tuples; a request
checks its kind, arguments and rel_tol (in [1e-14, 1e-1]) when built.

The case catalog, ``asym``, is imported at the first ratio pass or case
reference, not with this module: a request answered before its ratio pass
(by a closed form, or by K's and E's reference) leaves it unloaded.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from . import core
from ._util import _checked
from .errors import ConvergenceError, DomainError, RegimeError, ToleranceError

if TYPE_CHECKING:
    from .asym import Enclosure

__all__ = ["EvalRequest", "EvalReport", "PlanStep", "evaluate", "plan"]

_REL_TOL_MIN = 1e-14
_REL_TOL_MAX = 1e-1

# regime ratio beyond which an asymptotic case is not trusted by the dispatcher
_RATIO_MAX = 1e-2

# guarantee margin covering auxiliary core terms inside enclosure endpoints
_ASYM_MARGIN = 2e-13

# what a case's enclosure may raise outside its territory
_SKIP = (DomainError, RegimeError, ConvergenceError)

_GUAR_ELEMENTARY = 1e-14
_GUAR_RC = 1e-13
_GUAR_REFERENCE = 1e-12

# kind -> (reference evaluator, its guarantee, whether the walk tries it
# before the kind's cases: K's and E's is one AGM run, DLMF 19.8(i), cheaper
# than any of their enclosures); the arity is _util.KIND_ARITY.  The
# evaluator is named, not bound, so each call looks it up on core.
_KIND = {
    "RC": ("rc", _GUAR_RC, False),
    "RF": ("rf", _GUAR_REFERENCE, False),
    "RD": ("rd", _GUAR_REFERENCE, False),
    "RJ": ("rj", _GUAR_REFERENCE, False),
    "RG": ("rg", _GUAR_REFERENCE, False),
    "K": ("legendre_k", _GUAR_REFERENCE, True),
    "E": ("legendre_e", _GUAR_REFERENCE, True),
}

KINDS = tuple(_KIND)

# the case catalog, bound by _catalog on first use; after that a request
# pays one global test for it, not an import statement
asym = None


def _catalog():
    global asym
    from . import asym
    return asym


class EvalRequest(NamedTuple("_Request",
                             [("kind", str), ("args", tuple), ("rel_tol", float)])):
    """A checked request; ``_replace``, ``_make``, copy and pickle check it too."""

    __slots__ = ()

    def __new__(cls, kind, args, rel_tol):
        if kind not in KINDS:
            raise DomainError(f"unknown kind {kind!r}; expected one of {KINDS}")
        args = _checked(kind, kind, args)
        try:
            t = float(rel_tol)
        except OverflowError:
            raise DomainError(f"rel_tol must lie in [{_REL_TOL_MIN}, {_REL_TOL_MAX}], "
                              "got a value too large for float64") from None
        if not _REL_TOL_MIN <= t <= _REL_TOL_MAX:
            raise DomainError(
                f"rel_tol must lie in [{_REL_TOL_MIN}, {_REL_TOL_MAX}], got {t}")
        return tuple.__new__(cls, (kind, args, t))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class PlanStep(NamedTuple):
    method: str                       # closed_form | asym | reference
    case: str | None
    cost: int
    guaranteed_rel_err: float
    predicted_rel_halfwidth: float | None = None


class EvalReport(NamedTuple):
    value: float
    method: str
    case: str | None
    guaranteed_rel_err: float
    enclosure: Enclosure | None = None

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
    # rc's exact 0 at x = 0, y < 0 is the one closed-form value below the range
    if cf is not None and not (math.isfinite(cf[0]) and cf[0] >= sys.float_info.min
                               or kind == "RC" and cf[0] == 0.0 == args[0]):
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
    """(value, guarantee) of the kind's reference evaluator."""
    name, guar, _ = _KIND[kind]
    return getattr(core, name)(*args), guar


def case_reference(kind: str, args) -> float:
    """Reference value of the integral that cases of ``kind`` approximate."""
    kind, args, factor = (asym or _catalog()).reference_route(kind, args)
    return factor * reference(kind, args)[0]


def _case_args(kind: str, args) -> tuple:
    if kind in ("K", "E"):
        k = args[0]
        if not 0.0 <= k < 1.0:
            raise DomainError(f"modulus must lie in [0, 1) for asymptotic cases, got {k}")
        return (math.sqrt((1.0 - k) * (1.0 + k)),)
    return args


def _walk(req: EvalRequest):
    """(method, case, cost, guarantee, half-width, value or enclosure) per step."""
    cf = _closed_form(req.kind, req.args)
    if cf is not None:
        yield "closed_form", None, 0, cf[1], None, cf[0]
    _, guar, reference_first = _KIND[req.kind]
    if reference_first:
        yield "reference", None, 9, guar, None, None
    try:
        cargs = _case_args(req.kind, req.args)
        classes = (asym or _catalog())._ratio_pass(req.kind, cargs, _RATIO_MAX)
    except DomainError:
        classes = []
    for cost, cases in classes:
        steps = []
        for case in cases:
            try:
                enc = asym._build(case, cargs)
            except _SKIP:
                continue
            if enc.hi <= 0.0:  # a cancelled integral
                continue
            hw = 0.5 * enc.rel_width()
            if math.isfinite(hw):
                steps.append((hw, enc.case, enc))
        for hw, tag, enc in sorted(steps, key=lambda s: s[:2]):
            yield "asym", tag, cost, hw + _ASYM_MARGIN, hw, enc
    if not reference_first:
        yield "reference", None, 9, guar, None, None


def plan(req: EvalRequest) -> list[PlanStep]:
    """Every step of the request's walk, in the order evaluate tries them."""
    return [PlanStep(*s[:5]) for s in _walk(req)]


def evaluate(req: EvalRequest) -> EvalReport:
    """Evaluate with the cheapest method whose guarantee meets the tolerance."""
    for method, case, _, guar, _, got in _walk(req):
        if guar > req.rel_tol:
            continue
        if method == "closed_form":
            return EvalReport(got, method, None, guar)
        if method == "asym":
            return EvalReport(got.estimate, method, case, guar, got)
        value, guar = reference(req.kind, req.args)
        return EvalReport(value, method, None, guar)
    raise ToleranceError(
        f"no method certifies rel_tol={req.rel_tol:g} for {req.kind}{req.args}")
