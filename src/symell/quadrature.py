"""Quadrature ground truth for the defining integrals.

Every kind is evaluated directly from its integral over [0, inf):
the arguments are first rescaled by their maximum (using homogeneity), the
half-line is split at t = 1, and each piece is mapped to [0, 1] with a
substitution that absorbs the endpoint behaviour exactly (t = u**2 on the
head, t = v**-2 on the tail).

A fixed-node rule then evaluates a whole batch of argument rows at once.
The head is cut into 24 panels graded geometrically from min sqrt(a) / 64
up to 1, so every argument scale sqrt(a) sits on the mesh; the tail is one
panel.  Each panel gets Gauss-Legendre rules with n and 2n nodes; the
2n-node value is returned, and |I_2n - I_n| summed over head and tail is
its error estimate.  The rows whose estimate misses the 1e-10 relative
target, or whose value is not finite, are run again together with twice as
many head panels, up to 384; a row still uncertified there raises
ConvergenceError.  This rule, :func:`quad`, is the only integration route.

Two more integrals take the same route: the principal value of RJ at p < 0,
whose pole is subtracted off, and the log-derivative integral of the identity
suite, integrated by parts so that no logarithm is left.

This module intentionally shares no evaluation code with
:mod:`symell.core`; it is the independent side of every dual-route check.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, DomainError

__all__ = ["oracle_batch", "oracle_with_error", "KINDS"]

_TARGET_REL = 1e-10

# head panels of each try: [0, lo] and P - 1 geometric ones from lo to 1;
# a row goes on to the next count only while it misses the target
_PANELS = (24, 48, 96, 192, 384)
_GRADE = 64.0    # lo = min sqrt(a) / _GRADE over the positive arguments
_NODES = 10      # nodes per panel of the coarse level; the fine one has 2n
_CHUNK = 16      # rows evaluated together: larger node arrays fall out of cache


_X_COARSE, _W_COARSE = leggauss(_NODES)
_X_FINE, _W_FINE = leggauss(2 * _NODES)
_X = np.concatenate([_X_COARSE, _X_FINE])   # the nodes of both levels on [-1, 1]
_GRADING = {p: np.linspace(1.0, 0.0, p) for p in _PANELS}


def _require(cond, msg):
    if not cond:
        raise DomainError(msg)


def _check_triple(x, y, z):
    _require(min(x, y, z) >= 0.0, "arguments must be nonnegative")
    _require(sum(1 for v in (x, y, z) if v == 0.0) <= 1, "at most one argument may be zero")


# --------------------------------------------------------------------------
# integrands of the rescaled arguments (max 1): head in u with t = u**2,
# tail in v with t = v**-2.  They take broadcasting arrays of nodes and
# argument columns.
# --------------------------------------------------------------------------


def _rc_check(x, y):
    _require(x >= 0.0 and y > 0.0, "RC requires x >= 0 and y > 0")


def _rc_head(u, x, y):
    t = u * u
    return u / (np.sqrt(t + x) * (t + y))


def _rc_tail(v, x, y):
    w = v * v
    return 1.0 / (np.sqrt(1.0 + x * w) * (1.0 + y * w))


def _rf_head(u, x, y, z):
    t = u * u
    return u / (np.sqrt(t + x) * np.sqrt(t + y) * np.sqrt(t + z))


def _rf_tail(v, x, y, z):
    w = v * v
    return 1.0 / np.sqrt((1.0 + x * w) * (1.0 + y * w) * (1.0 + z * w))


def _rd_check(x, y, z):
    _require(x >= 0.0 and y >= 0.0 and (x > 0.0 or y > 0.0), "RD requires x, y >= 0, not both 0")
    _require(z > 0.0, "RD requires z > 0")


def _rd_head(u, x, y, z):
    t = u * u
    return 3.0 * u / (np.sqrt(t + x) * np.sqrt(t + y) * (t + z) ** 1.5)


def _rd_tail(v, x, y, z):
    w = v * v
    return 3.0 * w / (np.sqrt((1.0 + x * w) * (1.0 + y * w)) * (1.0 + z * w) ** 1.5)


def _rj_check(x, y, z, p):
    _check_triple(x, y, z)
    _require(p > 0.0, "RJ oracle requires p > 0")


def _rj_head(u, x, y, z, p):
    t = u * u
    return 3.0 * u / (np.sqrt(t + x) * np.sqrt(t + y) * np.sqrt(t + z) * (t + p))


def _rj_tail(v, x, y, z, p):
    w = v * v
    return 3.0 * w / (np.sqrt((1.0 + x * w) * (1.0 + y * w) * (1.0 + z * w)) * (1.0 + p * w))


def _rg_check(x, y, z):
    _require(min(x, y, z) >= 0.0, "RG requires nonnegative arguments")
    _require(max(x, y, z) > 0.0, "RG requires at least one positive argument")


def _rg_head(u, x, y, z):
    t = u * u
    num = x / (t + x) + y / (t + y) + z / (t + z)
    return 0.5 * u ** 3 * num / (np.sqrt(t + x) * np.sqrt(t + y) * np.sqrt(t + z))


def _rg_tail(v, x, y, z):
    w = v * v
    num = x / (1.0 + x * w) + y / (1.0 + y * w) + z / (1.0 + z * w)
    return 0.5 * num / np.sqrt((1.0 + x * w) * (1.0 + y * w) * (1.0 + z * w))


def _positive_check(x, y, z):
    _require(min(x, y, z) > 0.0, "arguments must be positive")


def _rm1_head(u, x, y, z):
    t = u * u
    return 2.0 * u / (np.sqrt(t + x) * np.sqrt(t + y) * (t + z))


def _rm1_tail(v, x, y, z):
    w = v * v
    return 2.0 * v / (np.sqrt((1.0 + x * w) * (1.0 + y * w)) * (1.0 + z * w))


def _rsqrt3(x, y, z):
    return 1.0 / (np.sqrt(x) * np.sqrt(y) * np.sqrt(z))


def _rjpv_check(x, y, z, q):
    _require(min(x, y, z) > 0.0, "principal-value oracle requires positive x, y, z")
    _require(q > 0.0, "principal-value oracle requires p < 0")


def _rjpv_head(u, x, y, z, q):
    t = u * u
    g = _rsqrt3(t + x, t + y, t + z)
    return 3.0 * u * (g - _rsqrt3(q + x, q + y, q + z) * 2.0 * q / (t + q)) / (t - q)


def _rjpv_tail(v, x, y, z, q):
    w = v * v
    g = v / np.sqrt((1.0 + x * w) * (1.0 + y * w) * (1.0 + z * w))
    return 3.0 * v * (g - _rsqrt3(q + x, q + y, q + z) * 2.0 * q / (1.0 + q * w)) / (1.0 - q * w)


def _mlog_head(u, x, y, z):
    t = u * u
    log_ratio = np.log1p(t / x) + np.log1p(t / y) + np.log1p(t / z)
    return -2.0 * np.expm1(-0.5 * log_ratio) / u * _rsqrt3(x, y, z)


def _mlog_tail(v, x, y, z):
    w = v * v
    return -2.0 * w / np.sqrt((1.0 + x * w) * (1.0 + y * w) * (1.0 + z * w))


# kind -> (argument check, head, tail, degree d): the integral at arguments
# s * a (max a = 1) is s**-d times the integral at a.  With g(t) = ((t + x)(t + y)(t + z))**-0.5:
# - RJpv (x, y, z, q) = PV int 1.5 g(t) / (t - q) dt = RJ(x, y, z, -q).  Less
#   g(q) 2q / (t**2 - q**2), whose PV is 0, it is regular at t = q; a node on the
#   pole gives NaN and is refined.  The row carries q for the rescale and the mesh.
# - Mlog (x, y, z) = int log(t / m) g'(t) dt, m = max = 1, by parts: -(g(t) - g(0)) / t
#   on the head, with expm1 so that nothing cancels, and -g(t) / t on the tail.
_KIND = {
    "RC": (_rc_check, _rc_head, _rc_tail, 0.5),
    "RF": (_check_triple, _rf_head, _rf_tail, 0.5),
    "RD": (_rd_check, _rd_head, _rd_tail, 1.5),
    "RJ": (_rj_check, _rj_head, _rj_tail, 1.5),
    "RG": (_rg_check, _rg_head, _rg_tail, -0.5),
    "Rm1": (_positive_check, _rm1_head, _rm1_tail, 1.0),
    "RJpv": (_rjpv_check, _rjpv_head, _rjpv_tail, 1.5),
    "Mlog": (_positive_check, _mlog_head, _mlog_tail, 1.5),
}

KINDS = tuple(_KIND)


def _fixed_rule(head, tail, a, panels):
    """(value, error estimate) arrays of the two-level rule on ``panels``
    head panels for the rows of rescaled arguments ``a`` (rows x arity)."""
    pos = np.where(a > 0.0, a, 1.0)
    lo = np.sqrt(pos.min(axis=1)) / _GRADE
    edges = np.zeros((len(a), panels + 1))
    edges[:, 1:] = lo[:, None] ** _GRADING[panels]
    half = 0.5 * np.diff(edges, axis=1)
    u = (edges[:, :-1] + half)[:, :, None] + half[:, :, None] * _X
    fh = head(u, *(a[:, i, None, None] for i in range(a.shape[1])))
    ft = tail(0.5 + 0.5 * _X, *(a[:, i, None] for i in range(a.shape[1])))
    n = _NODES
    h_coarse = ((fh[:, :, :n] * _W_COARSE).sum(axis=2) * half).sum(axis=1)
    h_fine = ((fh[:, :, n:] * _W_FINE).sum(axis=2) * half).sum(axis=1)
    t_coarse = 0.5 * (ft[:, :n] * _W_COARSE).sum(axis=1)
    t_fine = 0.5 * (ft[:, n:] * _W_FINE).sum(axis=1)
    return h_fine + t_fine, abs(h_fine - h_coarse) + abs(t_fine - t_coarse)


def _certified(value, err):
    return np.isfinite(value) & (err <= _TARGET_REL * np.abs(value))


def quad(head, tail, a):
    """(value, error estimate, certified) arrays for the rows ``a``: the rows
    that miss the target are run again, together, on twice the head panels
    until they meet it or the last panel count is spent."""
    with np.errstate(all="ignore"):
        value, err = _fixed_rule(head, tail, a, _PANELS[0])
        ok = _certified(value, err)
        for panels in _PANELS[1:]:
            if ok.all():
                break
            miss = np.flatnonzero(~ok)
            value[miss], err[miss] = _fixed_rule(head, tail, a[miss], panels)
            ok = _certified(value, err)
    return value, err, ok


def _checked_row(check, args):
    vals = tuple(float(a) for a in args)
    for v in vals:
        if not math.isfinite(v):
            raise DomainError(f"oracle arguments must be finite, got {vals}")
    check(*vals)
    return vals


def _where(kind: str, row) -> str:
    # an RJpv row carries q = -p; name the p of the integral
    return (f"RJpv quadrature at {row[:3]} with p = {-row[3]!r}" if kind == "RJpv"
            else f"{kind} quadrature at {row}")


def oracle_batch(kind: str, rows) -> list[tuple[float, float]]:
    """(value, error estimate) of the integral of ``kind`` at each
    argument row, by the fixed-node rule with panel doubling.

    Every row is checked before any is integrated, so an invalid row raises
    DomainError first; otherwise the first row (in order) that cannot be
    certified to relative error 1e-10 on 384 head panels, or whose value
    leaves the float64 range when scaled back, raises ConvergenceError.
    """
    try:
        check, head, tail, degree = _KIND[kind]
    except KeyError:
        raise DomainError(f"unknown oracle kind {kind!r}; expected one of {KINDS}") from None
    vals = [_checked_row(check, args) for args in rows]
    out = []
    for start in range(0, len(vals), _CHUNK):
        chunk = vals[start:start + _CHUNK]
        scale = [max(v) for v in chunk]
        a = np.array(chunk) / np.array(scale)[:, None]
        values, errs, oks = quad(head, tail, a)
        for row, s, value, err, ok in zip(chunk, scale, values.tolist(), errs.tolist(),
                                          oks.tolist()):
            if not ok:
                raise ConvergenceError(
                    f"{_where(kind, row)}: error estimate {err:.3e} misses the "
                    f"target for value {value:.6e} on {_PANELS[-1]} head panels")
            try:
                out.append((value / s ** degree, err / s ** degree))
            except OverflowError:
                # s ** degree is past float64, its square root is not
                half = s ** (0.5 * degree)
                value, err = value / half / half, err / half / half
                if not value >= sys.float_info.min:
                    raise ConvergenceError(f"{_where(kind, row)}: value {value!r} "
                                           "is below the normal float64 range") from None
                out.append((value, err))
            except ArithmeticError as exc:
                # the scale factor left the float64 range
                raise ConvergenceError(f"{_where(kind, row)}: {exc}") from exc
    return out


def oracle_with_error(kind: str, args) -> tuple[float, float]:
    """(value, error estimate) at one argument row: the one-row case of
    :func:`oracle_batch`.  The library calls :func:`oracle_batch`; this view
    stays while ``bench/spans.py`` wraps it to time the oracle in traced runs."""
    return oracle_batch(kind, [args])[0]
