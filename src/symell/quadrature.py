"""Quadrature ground truth for the defining integrals.

Every kind is integrated over [0, inf) by one trapezoid rule in s = log t:
with t = e**s the integral of f(t) dt is that of t f(t) ds, analytic in the
strip |Im s| < pi, so the rule's error falls like exp(-2 pi**2 / h)
(Trefethen & Weideman, SIAM Review 56 (2014) 385-458).

The nodes are one fixed table s = j h, h = 1/4, of normal floats t.  A row
is scaled by an exact power of 4 that takes its largest argument into
[1, 4), further up only where its nodes would start below the table, and
takes the nodes from 40 / e below the log of its smallest positive argument
to 40 / e' above the log of its largest: t f(t) falls like e**(e s) below
the arguments and like e**(-e' s) above them, e and e' >= 1/2 the kind's
tail exponents (e less 1/2 for each zero argument), so where the nodes end
it has fallen by e**-40, and each cut tail is at most twice its end node.
Each integrand is a product of factors taken in an order that keeps every
partial product inside float64 wherever the whole is not negligible.  The
value is T(h); its error estimate is |T(h) - T(2h)|, T(2h) from every other
node, plus a rounding term and the integrand at the two end nodes.  A row
whose estimate misses the 1e-10 relative target, whose nodes run past the
table or whose value leaves the normal float64 range raises
ConvergenceError.  Each row's sums take its own nodes alone, so they never
depend on its batch.  This rule, :func:`quad`, is the only integration
route.  It also integrates the principal value of RJ at p < 0, its pole
subtracted off, and the log-derivative integral of the identity suite.

This module intentionally shares no evaluation code with
:mod:`symell.core`; it is the independent side of every dual-route check.
It shares the argument checks: an RF, RD or RG row is refused by the
kind's rule in ``_util.KIND_TABLE``, an RC or RJ row by the kind's rule and
the oracle's own limit (y > 0, p > 0), and the rows of the other integrals
by ``_util.positive`` at their arities, with the evaluators' texts.
``oracle_batch`` is that check and then its body, ``_oracle_rows``, which
the containment campaigns call at once: a case's gate implies the check.
"""

from __future__ import annotations

import sys
from functools import partial

import numpy as np

from ._util import checked, positive
from .errors import ConvergenceError, DomainError

__all__ = ["oracle_batch", "oracle_with_error", "KINDS"]

_TARGET_REL = 1e-10
_H = 0.25                     # node step in s = log t
_DECAY = 40.0                 # a row's nodes end where t f(t) has fallen by e**-_DECAY
_J_LO, _J_HI = -2816, 2836    # the table s = j h: t from e**-704 to e**709
_T = np.exp(_H * np.arange(_J_LO, _J_HI + 3))   # and two spare nodes
_CHUNK = 32                   # rows integrated together, in the order of their nodes
_ROUNDING = 32 * sys.float_info.epsilon   # times the rule on |t f(t)|


# integrands t f(t) of the scaled arguments, g(t) = ((t + x)(t + y)(t + z))**-0.5;
# they take a row of nodes t and argument columns, and broadcast.  One whose
# terms cancel also returns their summed size, for the rounding term


def _last_positive(kind: str, name: str):
    """The kind's argument check, and the oracle's own limit: its last argument > 0."""
    def check(row):
        vals = checked(kind, row)
        if not vals[-1] > 0.0:
            raise DomainError(f"{kind} oracle requires {name} > 0, got {vals}")
        return vals
    return check


def _g(t, *cols, g=1.0):
    """g ((t + a)(t + b)...)**-0.5 over the argument columns, one root at a
    time from the smallest argument up: each partial product then stays in
    range wherever the whole one is not negligible."""
    for a in np.sort(np.hstack(cols), axis=1).T:
        g = g / np.sqrt(t + a[:, None])
    return g


def _ratio(g, t, a):
    """g t / (t + a), the ratio taken as sqrt(t) / sqrt(t + a) twice: each
    factor stays normal where the ratio itself would not."""
    r = np.sqrt(t) / np.sqrt(t + a)
    return g * r * r


def _rc(t, x, y):
    return _ratio(0.5 * _g(t, x), t, y)


def _rf(t, x, y, z):
    # t g(t) rises with t at its lower end, so one sqrt(t) starts the product
    return 0.5 * np.sqrt(t) * _g(t, x, y, z, g=np.sqrt(t))


def _rd(t, x, y, z):
    return _ratio(1.5 * _g(t, x, y, z), t, z)


def _rj(t, x, y, z, p):
    # sqrt(t) / sqrt(t + p) opens the product: alone, g(t) passes DBL_MAX where x, y, z << p
    r = np.sqrt(t) / np.sqrt(t + p)
    return _g(t, x, y, z, g=1.5 * r) * r


def _rg(t, x, y, z):
    # t**2 g(t) sum a / (t + a) / 4, the first factor the root of t prod t / (t + a)
    return 0.25 * np.sqrt(t / (t + x) * (t / (t + y)) * (t / (t + z)) * t) * (
        x / (t + x) + y / (t + y) + z / (t + z))


def _rm1(t, x, y, z):
    return _ratio(_g(t, x, y), t, z)


def _rjpv(t, x, y, z, q):
    # PV int 1.5 g(t) / (t - q) dt less g(q) 2q / (t**2 - q**2), whose PV is 0:
    # t f(t) = 1.5 t (g(t) - g(q) 2q / (t + q)) / (t - q).  Within q / 2 of the
    # pole, with ra = t / (t + a) and sa = sqrt((q + a) / (t + a)), the divided
    # difference t (g(t) - g(q)) / (t - q) is the negative of the positive sum
    # g(q) (rx / (1 + sx) + sx ry / (1 + sy) + sx sy rz / (1 + sz)): nothing cancels.
    # Away from it t / |t - q| <= 3, as v = sqrt(t) / sqrt(|t - q|) twice, opens
    # and closes the product, as in RJ
    v, gq = np.sqrt(t) / np.sqrt(abs(t - q)), _g(q, x, y, z)
    sx, sy, sz = (np.sqrt(q + a) / np.sqrt(t + a) for a in (x, y, z))
    dd = gq * (t / (t + x) / (1.0 + sx) + t * sx / (t + y) / (1.0 + sy)
               + sx * (t * sy / (t + z)) / (1.0 + sz))
    near, pole = abs(t - q) < 0.5 * q, v * v * 2.0 * q * gq / (t + q)
    gw = _g(t, x, y, z, g=v) * v
    return (1.5 * np.where(near, t * gq / (t + q) - dd, np.sign(t - q) * (gw - pole)),
            1.5 * np.where(near, t * gq / (t + q) + dd, gw + pole))


def _mlog(t, x, y, z):
    # (s - log m) t g'(t), m the largest argument: t g'(t) = -g(t) sum t / (t + a) / 2
    m = np.maximum(np.maximum(x, y), z)
    return -0.5 * (np.log(t) - np.log(m)) * _g(t, x, y, z) * (t / (t + x) + t / (t + y)
                                                              + t / (t + z))


# kind -> (argument check: row -> floats, t f(t), degree d: the integral at
# arguments s * a is s**-d times that at a, and the tail exponents lower and
# upper of the module docstring); an RJpv row (x, y, z, q) has q = -p
_KIND = {
    "RC": (_last_positive("RC", "y"), _rc, 0.5, 1.0, 0.5),
    "RF": (partial(checked, "RF"), _rf, 0.5, 1.0, 0.5),
    "RD": (partial(checked, "RD"), _rd, 1.5, 1.0, 1.5),
    "RJ": (_last_positive("RJ", "p"), _rj, 1.5, 1.0, 1.5),
    "RG": (partial(checked, "RG"), _rg, -0.5, 2.0, 0.5),
    "Rm1": (partial(positive, "Rm1", arity=3), _rm1, 1.0, 1.0, 1.0),
    "RJpv": (partial(positive, "RJpv", arity=4), _rjpv, 1.5, 1.0, 1.0),
    "Mlog": (partial(positive, "Mlog", arity=3), _mlog, 1.5, 0.5, 0.5),
}

KINDS = tuple(_KIND)


def _place(a, lower, upper):
    """(k, j_lo, j_hi) arrays: row i of ``a`` scaled by 4**k[i] runs on the
    table nodes j_lo[i]..j_hi[i], where t f(t) at the tail exponents ``lower``
    and ``upper`` has fallen by e**-_DECAY; they may end past the table."""
    top = a.max(axis=1)
    lo = np.log(np.where(a > 0.0, a, np.inf).min(axis=1))
    below = _DECAY / (lower - 0.5 * (a == 0.0).sum(axis=1))
    k = np.maximum(-((np.frexp(top)[1] - 1) // 2),
                   np.ceil((_J_LO * _H + below - lo) / np.log(4.0))).astype(int)
    shift = k * np.log(4.0)
    return (k, np.maximum(_J_LO, np.floor((lo + shift - below) / _H)).astype(int),
            np.ceil((np.log(top) + shift + _DECAY / upper) / _H).astype(int))


def quad(f, a, j_lo, j_hi):
    """(value, error estimate) arrays of the trapezoid rule for ``f`` at the
    scaled rows ``a`` (rows x arity), row i on the table nodes j_lo[i]..j_hi[i]:
    ``f`` runs on the nodes of all rows at once, each row's sums on its own."""
    j0 = int(j_lo.min()) & ~1          # even: columns 0, 2, ... are the nodes of T(2h)
    n = int(j_hi.max()) - j0 + 3       # spare columns keep every sum's end in range
    rows, lo, hi = np.arange(len(a)), j_lo - j0, j_hi - j0 + 1

    def sums(v, width, start, end):
        # the sum of each row of v over its columns start..end - 1
        return np.add.reduceat(v.ravel(), np.stack([rows * width + start,
                                                    rows * width + end], axis=1).ravel())[::2]

    with np.errstate(all="ignore"):
        tf = f(_T[j0 - _J_LO:j0 - _J_LO + n], *(a[:, i, None] for i in range(a.shape[1])))
        tf, size = tf if isinstance(tf, tuple) else (tf, np.abs(tf))
        fine = _H * sums(tf, n, lo, hi)
        coarse = 2.0 * _H * sums(tf[:, ::2], (n + 1) // 2, (lo + 1) // 2, (hi + 1) // 2)
        err = (abs(fine - coarse) + _ROUNDING * _H * sums(size, n, lo, hi)
               + 2.0 * (size[rows, lo] + size[rows, hi - 1]) + sys.float_info.min)
    return fine, err


def oracle_batch(kind: str, rows) -> list[tuple[float, float]]:
    """(value, error estimate) of the integral of ``kind`` at each
    argument row, by the trapezoid rule in log t.

    Every row is checked before any is integrated, so an invalid row raises
    DomainError first; otherwise the first row (in order) that cannot be
    certified to relative error 1e-10, whose arguments spread past the node
    table, or whose value leaves the normal float64 range when scaled back,
    raises ConvergenceError.
    """
    try:
        check = _KIND[kind][0]
    except KeyError:
        raise DomainError(f"unknown oracle kind {kind!r}; expected one of {KINDS}") from None
    return _oracle_rows(kind, [check(args) for args in rows])


def _oracle_rows(kind: str, vals: list) -> list[tuple[float, float]]:
    """oracle_batch at rows that its row check of ``kind`` would pass as
    they are: tuples of finite floats of the kind's arity, in its domain."""
    if not vals:
        return []
    _, f, degree, lower, upper = _KIND[kind]
    a = np.array(vals)
    k, j_lo, j_hi = _place(a, lower, upper)
    value, err = np.full(len(a), np.nan), np.full(len(a), np.nan)
    order = np.lexsort((j_hi, j_lo))
    order = order[j_hi[order] <= _J_HI]
    with np.errstate(all="ignore"):   # a row past the table overflows when scaled
        a = np.ldexp(a, 2 * k[:, None])
        for start in range(0, len(order), _CHUNK):
            i = order[start:start + _CHUNK]
            value[i], err[i] = quad(f, a[i], j_lo[i], j_hi[i])
        ok = np.isfinite(value) & (err <= _TARGET_REL * abs(value))
        value, err = (np.ldexp(v, k * round(2 * degree)) for v in (value, err))
    fine = ok & (abs(value) >= sys.float_info.min) & (abs(value) < np.inf)
    if not fine.all():
        i = int(np.argmin(fine))
        row, v = vals[i], float(value[i])   # an RJpv row carries q = -p; name p
        raise ConvergenceError((f"RJpv quadrature at {row[:3]} with p = {-row[3]!r}: "
                                if kind == "RJpv" else f"{kind} quadrature at {row}: ") + (
            "arguments spread past the node table" if j_hi[i] > _J_HI else
            f"error estimate {err[i]:.3e} misses the target for value {v:.6e}" if not ok[i]
            else "value is past the float64 range" if np.isinf(v)
            else f"value {v!r} is below the normal float64 range"))
    return list(zip(value.tolist(), err.tolist()))


def oracle_with_error(kind: str, args) -> tuple[float, float]:
    """(value, error estimate) at one argument row: the one-row case of
    :func:`oracle_batch`.  The library calls :func:`oracle_batch`; this view
    stays while ``bench/spans.py`` wraps it to time the oracle in traced runs."""
    return oracle_batch(kind, [args])[0]
