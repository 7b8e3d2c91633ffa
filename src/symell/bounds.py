"""Elementary inequality brackets used to derive the enclosure endpoints.

Each entry evaluates a triple (lower bound, exact middle quantity, upper
bound) for one of the inequalities A1..A10, AX, AY, AZ.  The equality
forms A3, A4, A5, A6a, A7, A8 additionally expose the solved error factor
through :func:`theta_of`.

Middles are computed in cancellation-free rearrangements (difference
quotients, expm1/log1p) — the textbook subtractive forms lose every digit
when one variable dwarfs another, which would corrupt a fuzz suite long
before the mathematics fails.

Strict inequalities cannot be checked at machine-equal inputs; comparisons
in the fuzz suite therefore use a 4-ulp equality band (see
:func:`equal_within_band`).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from ._util import cbrt, equal_within_band
from .errors import ConvergenceError, DomainError

__all__ = ["INEQ_TAGS", "THETA_TAGS", "Bracket", "bracket", "theta_of",
           "arity", "strictness", "equal_within_band"]


class Bracket(NamedTuple):
    lo: float
    mid: float
    hi: float


class _Ineq(NamedTuple):
    bracket: Callable[..., Bracket]
    arity: int                  # total argument count, the leading t included
    strict: tuple[bool, bool]   # (lo < mid, mid < hi) strict
    t_zero_ok: bool             # the middle has no division by t
    theta: Callable[..., float] | None   # solved error factor of an equality form


def arity(tag: str) -> int:
    """Total argument count (the leading t plus the variables)."""
    return _ineq(tag).arity


def strictness(tag: str) -> tuple[bool, bool]:
    return _ineq(tag).strict


def _ineq(tag: str) -> _Ineq:
    try:
        return _INEQ[tag]
    except KeyError:
        raise DomainError(f"unknown inequality tag {tag!r}; expected one of {INEQ_TAGS}") from None


def _checked(tag: str, ineq: _Ineq, args) -> tuple[float, ...]:
    vals = tuple(float(a) for a in args)
    if len(vals) != ineq.arity:
        raise DomainError(f"{tag} takes {ineq.arity} arguments (t first), got {len(vals)}")
    t = vals[0]
    if ineq.t_zero_ok:
        if t < 0.0:
            raise DomainError(f"{tag} requires t >= 0, got t={t}")
    elif t <= 0.0:
        raise DomainError(f"{tag} requires t > 0, got t={t}")
    for v in vals[1:]:
        if v <= 0.0:
            raise DomainError(f"{tag} requires positive variables, got {vals}")
    for v in vals:
        if not math.isfinite(v):
            raise DomainError(f"{tag} requires finite arguments, got {vals}")
    return vals


def _ag(x: float, y: float) -> tuple[float, float]:
    return (x + y) / 2.0, math.sqrt(x * y)


def _sqrt_prod2(t: float, x: float, y: float) -> float:
    return math.sqrt((t + x) * (t + y))


# -- stable middle expressions ----------------------------------------------


def _mid_a1(t, x):
    # 1/sqrt(t) - 1/sqrt(t+x)
    return x / (math.sqrt(t * (t + x)) * (math.sqrt(t + x) + math.sqrt(t)))


def _mid_a3(t, x):
    # 1/t^{3/2} - 1/(t+x)^{3/2}
    return -math.expm1(-1.5 * math.log1p(x / t)) / t ** 1.5


def _sp_minus_t(t, x, y):
    # sqrt((t+x)(t+y)) - t, free of cancellation for t >> x, y
    return (t * (x + y) + x * y) / (_sqrt_prod2(t, x, y) + t)


def _mid_a9(t, x, y, z):
    # 1/t^{3/2} - ((t+x)(t+y)(t+z))^{-1/2}
    s = math.log1p(x / t) + math.log1p(y / t) + math.log1p(z / t)
    return -math.expm1(-0.5 * s) / t ** 1.5


def _mid_a10(t, x, y, z):
    # (xyz)^{-1/2} - ((t+x)(t+y)(t+z))^{-1/2}
    s = math.log1p(t / x) + math.log1p(t / y) + math.log1p(t / z)
    return -math.expm1(-0.5 * s) / math.sqrt(x * y * z)


# -- solved error factors ----------------------------------------------------


def _theta_a3(t, x):
    y = math.sqrt(1.0 + x / t)
    return 1.0 + 1.0 / (y * (y + 1.0))


def _theta_a4(t, x):
    return _theta_a3(x, t)


def _theta_a5(t, x, y):
    return _sp_minus_t(t, x, y)


def _theta_a6a(t, x, y):
    _, g = _ag(x, y)
    sp = _sqrt_prod2(t, x, y)
    return (t + g) * (t + x + y) / (sp * (sp + g))


def _theta_a7(t, x, y):
    sx = math.sqrt(x)
    stx = math.sqrt(t + x)
    n = t * stx + y * t / (stx + sx)
    return n * (t + y) / (t * stx * (t + y))


def _theta_a8(t, x, y, z):
    _, g = _ag(x, y)
    sp = _sqrt_prod2(t, x, y)
    return (sp + z * (t + x + y) / (sp + g)) / (t + z)


def _past_float64(tag: str, vals, detail) -> ConvergenceError:
    return ConvergenceError(f"{tag} at {vals} is past float64: {detail}")


def theta_of(tag: str, *args: float) -> float:
    """Solve an equality-form inequality for its error factor."""
    ineq = _ineq(tag)
    if ineq.theta is None:
        raise DomainError(f"{tag} has no equality form; theta_of supports {THETA_TAGS}")
    vals = _checked(tag, ineq, args)
    try:
        theta = ineq.theta(*vals)
    except ArithmeticError as exc:
        raise _past_float64(tag, vals, exc) from exc
    if math.isfinite(theta):
        return theta
    raise _past_float64(tag, vals, f"theta is {theta!r}")


# -- bracket evaluators ------------------------------------------------------


def _br_a1(t, x):
    mid = _mid_a1(t, x)
    return Bracket(x / (2.0 * math.sqrt(t) * (t + x)), mid,
                   x / (2.0 * t * math.sqrt(t + x)))


def _br_a2(t, x):
    return _br_a1(x, t)


def _br_a3(t, x):
    base = x / (t ** 1.5 * (t + x))
    return Bracket(base, _mid_a3(t, x), 1.5 * base)


def _br_a4(t, x):
    base = t / (x ** 1.5 * (t + x))
    return Bracket(base, _mid_a3(x, t), 1.5 * base)


def _br_a5(t, x, y):
    # endpoints and middle share the denominator t*sqrt(P), so the only
    # ordering noise left is theta vs g and a (a few ulps, inside the band)
    a, g = _ag(x, y)
    d = t * _sqrt_prod2(t, x, y)
    return Bracket(g / d, _sp_minus_t(t, x, y) / d, a / d)


def _br_a6(t, x, y):
    a, g = _ag(x, y)
    sp = _sqrt_prod2(t, x, y)
    common = t / (g * sp)
    mid = common * (t + x + y) / (sp + g)
    return Bracket(common * sp / (t + g), mid, common * (a / g))


def _br_a6a(t, x, y):
    a, g = _ag(x, y)
    base = t / (g * (t + g))
    return Bracket(base, _theta_a6a(t, x, y) * base, (a / g) * base)


def _br_a7(t, x, y):
    sx = math.sqrt(x)
    stx = math.sqrt(t + x)
    # 1/(sqrt(x) y) - 1/(sqrt(t+x)(t+y)) over common ground
    n = t * stx + y * t / (stx + sx)
    mid = n / (sx * y * stx * (t + y))
    base = t / (sx * y * (t + y))
    return Bracket(base, mid, (1.0 + y / (2.0 * x)) * base)


def _br_a8(t, x, y, z):
    a, g = _ag(x, y)
    sp = _sqrt_prod2(t, x, y)
    num = t * sp + z * t * (t + x + y) / (sp + g)
    mid = num / (g * z * sp * (t + z))
    base = t / (g * z * sp)
    return Bracket(base, mid, (a / g + g / z) * base)


def _br_a9(t, x, y, z):
    a = (x + y + z) / 3.0
    b = math.sqrt(3.0 * (x * y + x * z + y * z)) / 2.0
    mid = _mid_a9(t, x, y, z)
    return Bracket(b / (t ** 1.5 * (t + b)), mid, 1.5 * a / (t ** 1.5 * (t + a)))


def _br_a10(t, x, y, z):
    g = cbrt(x * y * z)
    h = 3.0 / (1.0 / x + 1.0 / y + 1.0 / z)
    mid = _mid_a10(t, x, y, z)
    return Bracket(t / (g ** 1.5 * (t + g)), mid, 1.5 * t / (g ** 1.5 * (t + h)))


def _br_ax(t, x, y):
    a, g = _ag(x, y)
    return Bracket(t + g, _sqrt_prod2(t, x, y), t + a)


def _br_ay(t, x, y, z):
    a = (x + y + z) / 3.0
    b = math.sqrt(3.0 * (x * y + x * z + y * z)) / 2.0
    mid = math.sqrt((t + x) * (t + y) * (t + z))
    # hi = (t+a)^{3/2}, expressed as mid times an exactly-cancelling ratio so
    # the ordering survives rounding at the x = y = z equality configurations
    ehi = 0.5 * (
        math.log1p((a - x) / (t + x))
        + math.log1p((a - y) / (t + y))
        + math.log1p((a - z) / (t + z))
    )
    return Bracket(math.sqrt(t) * (t + b), mid, mid * math.exp(ehi))


def _az_offset(t, x, y, z, m):
    # 1.5*log1p(t/m) - 0.5*sum log1p(t/x_i).  Near v ~ m the difference is
    # collapsed through one log1p so nothing cancels; far from equality the
    # collapsed argument approaches -1 (ill-conditioned), but there the two
    # logs are far apart and direct subtraction is safe.
    s = 0.0
    lm = math.log1p(t / m)
    for v in (x, y, z):
        u = t * (v - m) / (m * (t + v))
        if abs(u) <= 0.5:
            s += math.log1p(u)
        else:
            s += lm - math.log1p(t / v)
    return 0.5 * s


def _br_az(t, x, y, z):
    g = cbrt(x * y * z)
    h = 3.0 / (1.0 / x + 1.0 / y + 1.0 / z)
    mid = math.sqrt((t + x) * (t + y) * (t + z))
    # lo = (t+g)^{3/2}, hi = (g/h)^{3/2}(t+h)^{3/2}; both become equalities as
    # t -> 0 for any variables, so evaluate them as log-space offsets from mid
    lo = mid * math.exp(_az_offset(t, x, y, z, g))
    hi = mid * math.exp(_az_offset(t, x, y, z, h))
    return Bracket(lo, mid, hi)


def bracket(tag: str, *args: float) -> Bracket:
    """Evaluate (lower bound, exact middle, upper bound) for one inequality.

    Arguments are positional with t first, then the variables in the order
    the inequality names them (t, x[, y[, z]]).  Where float64 runs out
    inside the formulas (an arithmetic error, or an endpoint or middle that
    is not finite) it raises ConvergenceError.
    """
    ineq = _ineq(tag)
    vals = _checked(tag, ineq, args)
    try:
        br = ineq.bracket(*vals)
    except ArithmeticError as exc:
        raise _past_float64(tag, vals, exc) from exc
    if math.isfinite(br.lo) and math.isfinite(br.mid) and math.isfinite(br.hi):
        return br
    raise _past_float64(tag, vals, br)


# one row per inequality (fields as in _Ineq); the order is the tag order of
# INEQ_TAGS, which seeds the fuzz campaigns and spans CLI ranges like A1:A10
_INEQ = {
    "A1":  _Ineq(_br_a1,   2, (True, True),   False, None),
    "A2":  _Ineq(_br_a2,   2, (True, True),   False, None),
    "A3":  _Ineq(_br_a3,   2, (True, True),   False, _theta_a3),
    "A4":  _Ineq(_br_a4,   2, (True, True),   False, _theta_a4),
    "A5":  _Ineq(_br_a5,   3, (False, False), False, _theta_a5),
    "A6":  _Ineq(_br_a6,   3, (False, False), False, None),
    "A6a": _Ineq(_br_a6a,  3, (False, False), False, _theta_a6a),
    "A7":  _Ineq(_br_a7,   3, (True, True),   False, _theta_a7),
    "A8":  _Ineq(_br_a8,   4, (True, True),   False, _theta_a8),
    "A9":  _Ineq(_br_a9,   4, (True, True),   False, None),
    "A10": _Ineq(_br_a10,  4, (True, True),   False, None),
    "AX":  _Ineq(_br_ax,   3, (False, False), True,  None),
    "AY":  _Ineq(_br_ay,   4, (True, False),  True,  None),
    "AZ":  _Ineq(_br_az,   4, (False, False), True,  None),
}

INEQ_TAGS = tuple(_INEQ)
THETA_TAGS = tuple(tag for tag, ineq in _INEQ.items() if ineq.theta is not None)
