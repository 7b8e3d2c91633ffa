"""Small helpers shared across modules, on the standard library alone: the
arity of each kind of integral and the one argument check that reads it,
which ``dispatch`` and ``cli`` use without loading the case catalog, and
the numeric helpers of ``asym`` and ``bounds``."""

from __future__ import annotations

import math

from .errors import DomainError

_WIDEN_ULPS = 8

# arguments of each kind of integral; a K or E case takes k' alone
KIND_ARITY = {"RC": 2, "RF": 3, "RD": 3, "RJ": 4, "RG": 3, "K": 1, "E": 1}


def _checked(name: str, kind: str, args) -> tuple:
    """``args`` as floats, as many as ``kind`` takes and all finite."""
    try:
        vals = tuple(map(float, args))
    except OverflowError:
        raise DomainError(f"{name} arguments must be finite, got a value too large "
                          "for float64") from None
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} arguments must be numbers: {exc}") from None
    arity = KIND_ARITY[kind]
    if len(vals) != arity:
        raise DomainError(f"{name} takes {arity} arguments, got {len(vals)}")
    for v in vals:
        if not math.isfinite(v):
            raise DomainError(f"{name} arguments must be finite, got {vals}")
    return vals


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


def equal_within_band(u: float, v: float, n: int = 4) -> bool:
    """True when u and v differ by at most n ulps of the larger magnitude."""
    return abs(u - v) <= n * math.ulp(max(abs(u), abs(v)))
