"""Quadrature ground truth for the defining integrals.

Every kind is evaluated directly from its defining integral over [0, inf):
the arguments are first rescaled by their maximum (using homogeneity), the
half-line is split at t = 1, and each piece is mapped to [0, 1] with a
substitution that absorbs the endpoint behaviour exactly (t = u**2 on the
head, t = v**-2 on the tail).  Adaptive Gauss-Kronrod quadrature does the
rest, with break points placed at the argument scales.

This module intentionally shares no evaluation code with
:mod:`symell.core`; it is the independent side of every dual-route check.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from .errors import ConvergenceError, DomainError

__all__ = ["oracle", "oracle_with_error", "oracle_rj_pv", "KINDS"]

_TARGET_REL = 1e-10


def _quad(f, points=None, limit=200):
    res = quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=limit,
               points=points, full_output=1)
    ok = len(res) == 3
    return res[0], res[1], ok


def _head_points(args):
    pts = sorted({math.sqrt(a) for a in args if 0.0 < a < 1.0})
    return pts or None


def _integrate(head, tail, args):
    pts = _head_points(args)
    v1, e1, ok1 = _quad(head, points=pts)
    v2, e2, ok2 = _quad(tail)
    value, err = v1 + v2, e1 + e2
    if not (ok1 and ok2) or err > _TARGET_REL * abs(value):
        v1, e1, ok1 = _quad(head, points=pts, limit=800)
        v2, e2, ok2 = _quad(tail, limit=800)
        value, err = v1 + v2, e1 + e2
        if not (ok1 and ok2) or err > _TARGET_REL * abs(value):
            raise ConvergenceError(
                f"quadrature error estimate {err:.3e} exceeds target for value {value:.6e}"
            )
    return value, err


def _require(cond, msg):
    if not cond:
        raise DomainError(msg)


def _check_triple(x, y, z):
    _require(min(x, y, z) >= 0.0, "arguments must be nonnegative")
    _require(sum(1 for v in (x, y, z) if v == 0.0) <= 1, "at most one argument may be zero")


def _rc_integral(x, y):
    _require(x >= 0.0 and y > 0.0, "RC requires x >= 0 and y > 0")
    s = max(x, y)
    xn, yn = x / s, y / s

    def head(u):
        t = u * u
        return u / (math.sqrt(t + xn) * (t + yn))

    def tail(v):
        w = v * v
        return 1.0 / (math.sqrt(1.0 + xn * w) * (1.0 + yn * w))

    val, err = _integrate(head, tail, (xn, yn))
    return val / math.sqrt(s), err / math.sqrt(s)


def _rf_integral(x, y, z):
    _check_triple(x, y, z)
    s = max(x, y, z)
    xn, yn, zn = x / s, y / s, z / s

    def head(u):
        t = u * u
        return u / math.sqrt((t + xn) * (t + yn) * (t + zn))

    def tail(v):
        w = v * v
        return 1.0 / math.sqrt((1.0 + xn * w) * (1.0 + yn * w) * (1.0 + zn * w))

    val, err = _integrate(head, tail, (xn, yn, zn))
    return val / math.sqrt(s), err / math.sqrt(s)


def _rd_integral(x, y, z):
    _require(x >= 0.0 and y >= 0.0 and (x > 0.0 or y > 0.0), "RD requires x, y >= 0, not both 0")
    _require(z > 0.0, "RD requires z > 0")
    s = max(x, y, z)
    xn, yn, zn = x / s, y / s, z / s

    def head(u):
        t = u * u
        return 3.0 * u / (math.sqrt((t + xn) * (t + yn)) * (t + zn) ** 1.5)

    def tail(v):
        w = v * v
        return 3.0 * w / (math.sqrt((1.0 + xn * w) * (1.0 + yn * w)) * (1.0 + zn * w) ** 1.5)

    val, err = _integrate(head, tail, (xn, yn, zn))
    return val / s ** 1.5, err / s ** 1.5


def _rj_integral(x, y, z, p):
    _check_triple(x, y, z)
    _require(p > 0.0, "RJ oracle requires p > 0")
    s = max(x, y, z, p)
    xn, yn, zn, pn = x / s, y / s, z / s, p / s

    def head(u):
        t = u * u
        return 3.0 * u / (math.sqrt((t + xn) * (t + yn) * (t + zn)) * (t + pn))

    def tail(v):
        w = v * v
        return 3.0 * w / (
            math.sqrt((1.0 + xn * w) * (1.0 + yn * w) * (1.0 + zn * w)) * (1.0 + pn * w)
        )

    val, err = _integrate(head, tail, (xn, yn, zn, pn))
    return val / s ** 1.5, err / s ** 1.5


def _rg_integral(x, y, z):
    _require(min(x, y, z) >= 0.0, "RG requires nonnegative arguments")
    s = max(x, y, z)
    _require(s > 0.0, "RG requires at least one positive argument")
    xn, yn, zn = x / s, y / s, z / s

    def head(u):
        t = u * u
        num = sum(a / (t + a) for a in (xn, yn, zn) if a > 0.0)
        return 0.5 * u ** 3 * num / math.sqrt((t + xn) * (t + yn) * (t + zn))

    def tail(v):
        w = v * v
        num = sum(a / (1.0 + a * w) for a in (xn, yn, zn))
        return 0.5 * num / math.sqrt((1.0 + xn * w) * (1.0 + yn * w) * (1.0 + zn * w))

    val, err = _integrate(head, tail, (xn, yn, zn))
    return val * math.sqrt(s), err * math.sqrt(s)


def _rm1_integral(x, y, z):
    _require(min(x, y, z) > 0.0, "Rm1 requires positive arguments")
    s = max(x, y, z)
    xn, yn, zn = x / s, y / s, z / s

    def head(u):
        t = u * u
        return 2.0 * u / (math.sqrt((t + xn) * (t + yn)) * (t + zn))

    def tail(v):
        w = v * v
        return 2.0 * v / (math.sqrt((1.0 + xn * w) * (1.0 + yn * w)) * (1.0 + zn * w))

    val, err = _integrate(head, tail, (xn, yn, zn))
    return val / s, err / s


_DISPATCH = {
    "RC": _rc_integral,
    "RF": _rf_integral,
    "RD": _rd_integral,
    "RJ": _rj_integral,
    "RG": _rg_integral,
    "Rm1": _rm1_integral,
}

KINDS = tuple(_DISPATCH)


def oracle(kind: str, args) -> float:
    """Evaluate the defining integral of ``kind`` at ``args`` by quadrature.

    Target relative error 1e-10; raises ConvergenceError when the adaptive
    scheme cannot certify it or the integrand leaves the float64 range.
    """
    return oracle_with_error(kind, args)[0]


def oracle_with_error(kind: str, args) -> tuple[float, float]:
    """Like :func:`oracle` but also returns the quadrature error estimate."""
    try:
        fn = _DISPATCH[kind]
    except KeyError:
        raise DomainError(f"unknown oracle kind {kind!r}; expected one of {KINDS}") from None
    vals = tuple(float(a) for a in args)
    for v in vals:
        if not math.isfinite(v):
            raise DomainError(f"oracle arguments must be finite, got {vals}")
    try:
        return fn(*vals)
    except ArithmeticError as exc:
        # the rescaled integrand left the float64 range, e.g. a product of
        # tiny arguments underflowed to zero in a denominator
        raise ConvergenceError(f"{kind} quadrature integrand at {vals}: {exc}") from exc


def oracle_rj_pv(x: float, y: float, z: float, p: float) -> float:
    """Principal-value quadrature of the third-kind integral for p < 0.

    Symmetric-interval treatment of the pole at t = |p|: Cauchy-weighted
    quadrature on [0, 2|p|] plus an ordinary tail integral.
    """
    vals = [float(v) for v in (x, y, z)]
    _require(min(vals) > 0.0, "principal-value oracle requires positive x, y, z")
    p = float(p)
    _require(p < 0.0, "principal-value oracle requires p < 0")
    q = -p
    s = max(*vals, q)
    xn, yn, zn, qn = vals[0] / s, vals[1] / s, vals[2] / s, q / s

    def g(t):
        return 1.0 / math.sqrt((t + xn) * (t + yn) * (t + zn))

    # tail: t = 2q/u, u in (0, 1]
    def tail(u):
        t = 2.0 * qn / u
        return g(t) * 2.0 / (u * (2.0 - u))

    try:
        res = quad(g, 0.0, 2.0 * qn, weight="cauchy", wvar=qn, epsabs=0.0,
                   epsrel=1e-12, limit=400, full_output=1)
        res2 = quad(tail, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=400, full_output=1)
    except ArithmeticError as exc:
        raise ConvergenceError(f"principal-value quadrature integrand: {exc}") from exc
    head, e1 = res[0], res[1]
    tail_val, e2 = res2[0], res2[1]
    value = 1.5 * (head + tail_val)
    err = 1.5 * (e1 + e2)
    if err > 1e-8 * max(abs(value), 1e-300):
        raise ConvergenceError(f"principal-value quadrature error {err:.3e} too large")
    return value / s ** 1.5
