"""Argument checks and small helpers shared across modules, on the standard
library alone.

``number`` is the one conversion of caller input: float(), with a value
past float64, a non-number and (by default) a value that is not finite
refused as a DomainError that names the caller; ``floats`` applies it to a
sequence.  ``KIND_TABLE`` holds, per dispatcher kind, its arity, the name
of its reference evaluator in ``core`` and its domain rule; each rule is
written once, in the words of that evaluator.  ``checked`` reads the table,
so ``core``'s evaluators, ``dispatch.EvalRequest`` and the quadrature
oracle refuse an argument with the same text, and ``dispatch`` and ``cli``
check a request without loading the case catalog.  ``positive`` is the rule
of r_minus1, agm and the oracle's integrals of positive arguments.  The
rest are the numeric helpers of ``asym`` and ``bounds``, written once for
both: ``ag`` (the means of a pair), ``cbrt``, the widening and the band.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import DomainError

_WIDEN_ULPS = 8


def number(name: str, v, finite: bool = True) -> float:
    """float(v); a value past float64, a non-number and, where ``finite``,
    a value that is not finite are a DomainError that names ``name``."""
    try:
        v = float(v)
    except OverflowError:
        raise DomainError(f"{name}: got a value too large for float64") from None
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name}: got a non-number ({exc})") from None
    if finite and not math.isfinite(v):
        raise DomainError(f"{name}: got {v!r}, not a finite number")
    return v


def floats(name: str, args, arity: int | None = None) -> tuple:
    """``args`` as finite floats by ``number``, ``arity`` of them where given."""
    try:
        vals = tuple([number(name, v) for v in args])
    except TypeError:  # number raises DomainError, so ``args`` is no sequence
        raise DomainError(f"{name}: got {args!r}, not a sequence of numbers") from None
    if arity is not None and len(vals) != arity:
        raise DomainError(f"{name} takes {arity} arguments, got {len(vals)}")
    return vals


# domain rules: rule(name, args) takes a tuple of the kind's arity, refuses
# it outside the domain of the evaluator called ``name`` and returns it as
# finite floats.  Each converts its arguments itself: a call per argument
# costs less than iterating over them.  core's evaluators call their rules
# by name, which spares them checked's table lookup and arity test.


def xyz_rule(name: str, args: tuple) -> tuple:
    """RF's domain, and RJ's on x, y, z: nonnegative, at most one of them 0."""
    x, y, z = args
    x, y, z = number(name, x), number(name, y), number(name, z)
    if x < 0.0 or y < 0.0 or z < 0.0 or (x == 0.0) + (y == 0.0) + (z == 0.0) > 1:
        raise DomainError(f"{name} requires x, y, z >= 0, at most one of them 0, "
                          f"got {(x, y, z)}")
    return x, y, z


def rc_rule(name: str, args: tuple) -> tuple:
    x, y = args
    x, y = number(name, x), number(name, y)
    if x < 0.0 or y == 0.0:  # y < 0 is the principal value
        raise DomainError(f"{name} requires x >= 0 and y != 0, got {(x, y)}")
    return x, y


def rd_rule(name: str, args: tuple) -> tuple:
    x, y, z = args
    x, y, z = number(name, x), number(name, y), number(name, z)
    if x < 0.0 or y < 0.0 or x == y == 0.0 or z <= 0.0:
        raise DomainError(f"{name} requires x, y >= 0, not both 0, and z > 0, "
                          f"got {(x, y, z)}")
    return x, y, z


def rj_rule(name: str, args: tuple) -> tuple:
    x, y, z, p = args
    x, y, z = xyz_rule(name, (x, y, z))
    p = number(name, p)
    # p < 0 is the principal value, which needs x, y, z > 0
    if p == 0.0 or p < 0.0 and (x == 0.0 or y == 0.0 or z == 0.0):
        raise DomainError(f"{name} requires p != 0, and x, y, z > 0 at p < 0, "
                          f"got {(x, y, z, p)}")
    return x, y, z, p


def rg_rule(name: str, args: tuple) -> tuple:
    x, y, z = args
    x, y, z = number(name, x), number(name, y), number(name, z)
    if x < 0.0 or y < 0.0 or z < 0.0 or x == y == z == 0.0:
        raise DomainError(f"{name} requires x, y, z >= 0, not all 0, got {(x, y, z)}")
    return x, y, z


def k_rule(name: str, args: tuple) -> tuple:
    k = number(name, args[0])
    if not 0.0 <= k < 1.0:
        raise DomainError(f"{name} requires 0 <= k < 1, got {k}")
    return (k,)


def e_rule(name: str, args: tuple) -> tuple:
    k = number(name, args[0])
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"{name} requires 0 <= k <= 1, got {k}")
    return (k,)


class Kind(NamedTuple):
    arity: int
    evaluator: str       # the reference evaluator's name in core
    rule: Callable


# the dispatcher kinds; a K or E case takes k', not k, and keeps its own gate
KIND_TABLE = {
    "RC": Kind(2, "rc", rc_rule),
    "RF": Kind(3, "rf", xyz_rule),
    "RD": Kind(3, "rd", rd_rule),
    "RJ": Kind(4, "rj", rj_rule),
    "RG": Kind(3, "rg", rg_rule),
    "K": Kind(1, "legendre_k", k_rule),
    "E": Kind(1, "legendre_e", e_rule),
}


def checked(kind: str, args) -> tuple:
    """``args`` as floats in the domain of ``kind``'s reference evaluator."""
    arity, name, rule = KIND_TABLE[kind]
    if type(args) is not tuple or len(args) != arity:
        args = floats(name, args, arity)  # another sequence, or the wrong count
    return rule(name, args)


def positive(name: str, args, arity: int | None = None) -> tuple:
    """``args`` as positive finite floats, ``arity`` of them where given."""
    vals = floats(name, args, arity)
    if not min(vals) > 0.0:
        raise DomainError(f"{name} requires positive arguments, got {vals}")
    return vals


def ag(x: float, y: float) -> tuple[float, float]:
    """The arithmetic and geometric means of x and y."""
    return (x + y) / 2.0, math.sqrt(x * y)


def cbrt(v: float) -> float:
    """Cube root accurate to ~1 ulp.

    pow(v, 1/3) drifts by ~|ln v|/3 ulps far from 1; one Newton step on
    g**3 - v restores full precision (needed where near-equal variables
    make bracket margins a few ulps wide).
    """
    if v == 0.0:
        return 0.0
    g = v ** (1.0 / 3.0)
    return g - (g - v / (g * g)) / 3.0


def widen_down(v: float) -> float:
    """Shift v down by the standard outward-widening margin (8 ulps)."""
    return v - _WIDEN_ULPS * math.ulp(abs(v))


def widen_up(v: float) -> float:
    return v + _WIDEN_ULPS * math.ulp(abs(v))


def equal_within_band(u: float, v: float) -> bool:
    """True when u and v differ by at most 4 ulps of the larger magnitude."""
    return abs(u - v) <= 4 * math.ulp(max(abs(u), abs(v)))
