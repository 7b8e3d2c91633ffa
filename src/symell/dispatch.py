"""Tolerance-driven evaluation: cheapest method that certifies the request.

Method ladder: closed forms (exact argument patterns), then asymptotic
enclosures by cost class, then the reference evaluator, which K and E (one
AGM run each) try before their cases; twin cases (C2c, F1b) are not walked.
``evaluate`` climbs this ladder and returns at the first rung that meets
rel_tol; ``plan`` lists every rung in the same order (each states the
ladder, and a test checks that they agree).  Both draw the asym rungs from
one lazy generator, which builds enclosures one cost class at a time,
cheapest first, and orders a class by half-width.
The half-width that orders a class is that of the built enclosure itself,
so "meets tolerance" is a guarantee rather than a heuristic, and the
narrowest step of a class certifies if any of it does; building the whole
class is the price of that order.

Asymptotic cases are considered only when their regime ratio is at most
1e-2 — the territory the containment campaigns certify.  A request's
arguments are checked once, when the request is built, and every step
runs on that checked tuple: the closed forms and the reference call
``core``'s checked bodies, which skip the rule that the public evaluators
apply; one ratio pass per request (``asym._ratio_pass``) evaluates each
distinct ratio function once and groups the in-ratio cases by cost, and
each enclosure is built from its case row and the same tuple, behind the
case's gate and asym's error boundary.  Left out silently are a case
whose ratio fails in float64 or exceeds 1e-2, or whose arguments lie
outside asym's window; a complete case (J1b, J4b, J6complete, G1b) whose
zero argument is not 0, unbuilt; a case whose enclosure is refused or
fails in float64 (asym raises RegimeError or ConvergenceError); and an
enclosure whose upper end is not positive.  What is left out falls through to the reference path.
Every asym guarantee is a half-width plus the 2e-13 margin, so at a rel_tol
below that margin no asym step can certify: there ``evaluate`` runs no
ratio pass and builds no enclosure, one comparison per request, while
``plan`` still lists those steps.

Guarantee table: elementary closed forms 1e-14; closed forms routed
through the branchy rc evaluation 1e-13, rc's principal value at RC's
y < 0 among them; asymptotic = relative half-width plus a 2e-13 margin for
the auxiliary core terms; reference 1e-12 (1e-13 for rc), rj's principal
value at RJ's p < 0 among them (no case gate accepts p < 0).
Requests no method can certify raise ToleranceError.

Requests, plan steps and reports are immutable named tuples.  A request
checks its kind, its arguments and rel_tol (in [1e-14, 1e-1]) when built:
its arguments by its kind's row of ``_util.KIND_TABLE``, which holds the
arity, the reference evaluator's name and the domain rule, so a request
outside the domain is refused then, whatever its rel_tol, in the
evaluator's own words.

The case catalog, ``asym``, is imported at the first ratio pass or case
reference, not with this module: a request answered before its ratio pass
(by a closed form, or by K's and E's reference) leaves it unloaded.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from . import core
from ._util import KIND_TABLE, checked, number
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

# kind -> (the reference evaluator's guarantee, whether the ladder tries it
# before the kind's cases: K's and E's is one AGM run, DLMF 19.8(i), cheaper
# than any of their enclosures, and the evaluator's checked body in core);
# the arity, the evaluator's name and the domain are _util.KIND_TABLE's, and
# the body, core's _<name>_body, is resolved from that name once, here
_KIND = {kind: (guar, first, getattr(core, f"_{KIND_TABLE[kind].evaluator}_body"))
         for kind, guar, first in (("RC", _GUAR_RC, False),
                                   ("RF", _GUAR_REFERENCE, False),
                                   ("RD", _GUAR_REFERENCE, False),
                                   ("RJ", _GUAR_REFERENCE, False),
                                   ("RG", _GUAR_REFERENCE, False),
                                   ("K", _GUAR_REFERENCE, True),
                                   ("E", _GUAR_REFERENCE, True))}

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
        args = checked(kind, args)
        t = number("rel_tol", rel_tol)
        if not _REL_TOL_MIN <= t <= _REL_TOL_MAX:
            raise DomainError(
                f"rel_tol must lie in [{_REL_TOL_MIN}, {_REL_TOL_MAX}], got {t}")
        return tuple.__new__(cls, (kind, args, t))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# builds a report without the named tuple's generated Python __new__, which
# costs about a fifth of a closed-form answer
_new = tuple.__new__


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
        return core._rc_body(*args), _GUAR_RC
    if kind == "RF":
        a, b, c = sorted(args)
        if a == b == c:
            return a ** -0.5, _GUAR_ELEMENTARY
        # RF's rule leaves at most one argument 0, so rc's y is positive:
        # its closed forms
        if b == c:
            return core._rc(a, b), _GUAR_RC
        if a == b:
            return core._rc(c, a), _GUAR_RC
        return None
    if kind == "RD":
        x, y, z = args
        if x == y == z:
            return x ** -1.5, _GUAR_ELEMENTARY
        a, b = sorted((x, y))
        if a == 0.0 and b == z:
            return 0.75 * math.pi * z ** -1.5, _GUAR_ELEMENTARY
        return None
    if kind == "RJ":
        # rj(x, y, z, z) = rd(x, y, z), at the first of x, y, z equal to p
        x, y, z, p = args
        if x == p:
            return _pattern("RD", (y, z, p))
        if y == p:
            return _pattern("RD", (x, z, p))
        if z == p:
            return _pattern("RD", (x, y, p))
        return None
    if kind == "RG":
        a, b, c = sorted(args)
        if a == b == c:
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


def case_reference(kind: str, args) -> float:
    """Reference value of the integral that cases of ``kind`` approximate, by
    the public evaluator, which checks the arguments."""
    kind, args, factor = (asym or _catalog()).reference_route(kind, args)
    return factor * getattr(core, KIND_TABLE[kind].evaluator)(*args)


def _case_args(kind: str, args) -> tuple:
    if kind in ("K", "E"):
        k = args[0]
        return (math.sqrt((1.0 - k) * (1.0 + k)),)
    return args


def _asym_steps(kind: str, args):
    """(cost, half-width, enclosure) of each asym step, one cost class at a
    time, cheapest first, a class in order of half-width and then tag."""
    cargs = _case_args(kind, args)
    for cost, rows in (asym or _catalog())._ratio_pass(kind, cargs, _RATIO_MAX):
        steps = []
        for case in rows:
            try:
                enc = asym._build(case, cargs)
            except _SKIP:
                continue
            if enc.hi <= 0.0:  # a cancelled integral
                continue
            hw = 0.5 * enc.rel_width()
            if math.isfinite(hw):
                steps.append((hw, enc.case, enc))
        steps.sort(key=lambda s: s[:2])
        for hw, _, enc in steps:
            yield cost, hw, enc


def plan(req: EvalRequest) -> list[PlanStep]:
    """Every rung of the request's ladder, in the order evaluate tries them."""
    kind, args, _ = req
    steps = []
    cf = _closed_form(kind, args)
    if cf is not None:
        steps.append(PlanStep("closed_form", None, 0, cf[1]))
    guar, reference_first, _ = _KIND[kind]
    reference = PlanStep("reference", None, 9, guar)
    if reference_first:
        steps.append(reference)
    steps += [PlanStep("asym", enc.case, cost, hw + _ASYM_MARGIN, hw)
              for cost, hw, enc in _asym_steps(kind, args)]
    if not reference_first:
        steps.append(reference)
    return steps


def evaluate(req: EvalRequest) -> EvalReport:
    """Evaluate at the first rung whose guarantee meets the tolerance."""
    kind, args, tol = req
    cf = _closed_form(kind, args)
    if cf is not None and cf[1] <= tol:
        return _new(EvalReport, (cf[0], "closed_form", None, cf[1], None))
    guar, reference_first, body = _KIND[kind]
    if reference_first and guar <= tol:
        return _new(EvalReport, (body(*args), "reference", None, guar, None))
    if tol >= _ASYM_MARGIN:
        for _, hw, enc in _asym_steps(kind, args):
            g = hw + _ASYM_MARGIN
            if g <= tol:
                return _new(EvalReport, (enc.estimate, "asym", enc.case, g, enc))
    if guar <= tol:  # a reference-first kind has returned already
        return _new(EvalReport, (body(*args), "reference", None, guar, None))
    raise ToleranceError(f"no method certifies rel_tol={tol:g} for {kind}{args}")
