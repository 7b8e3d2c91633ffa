"""Ground truth and verdicts for evaluator answers.

scipy's ``elliprc/rf/rd/rj/rg`` give a first truth for every distinct
request.  Any answer that scipy would fail, or pass only narrowly, is
judged again against mpmath at 40 digits, because scipy is itself off by
up to ~2e-12 at some points.  Only a verdict from mpmath can fail an
answer.

An answer fails when its value is not finite, when
``|value - truth| > guaranteed_rel_err * |value|`` (the dispatcher's
width is relative to its own estimate, hence ``|value|``), or, for an
asymptotic answer, when the truth lies outside ``[lo, hi]``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import scipy.special as sc

# method codes shared with the workloads
CLOSED_FORM, ASYM, REFERENCE, TYPED_ERROR, UNTYPED_ERROR = range(5)
METHOD_CODE = {"closed_form": CLOSED_FORM, "asym": ASYM, "reference": REFERENCE}

_MP_DPS = 40
# scipy agreement this close to a verdict boundary is not trusted
_NARROW = 0.5
_EDGE_REL = 1e-15


def _complement(k):
    return (1.0 - k) * (1.0 + k)


def scipy_truth(kind: str, args: np.ndarray) -> np.ndarray:
    """Vectorised scipy values; ``args`` has one row per request."""
    a = args.T
    if kind == "RC":
        return sc.elliprc(a[0], a[1])
    if kind == "RF":
        return sc.elliprf(a[0], a[1], a[2])
    if kind == "RD":
        return sc.elliprd(a[0], a[1], a[2])
    if kind == "RJ":
        return sc.elliprj(a[0], a[1], a[2], a[3])
    if kind == "RG":
        return sc.elliprg(a[0], a[1], a[2])
    zero = np.zeros_like(a[0])
    one = np.ones_like(a[0])
    if kind == "K":
        return sc.elliprf(zero, _complement(a[0]), one)
    return 2.0 * sc.elliprg(zero, _complement(a[0]), one)


def mpmath_truth(kind: str, args):
    """The value at 40 digits, as an mpmath number."""
    import mpmath as mp

    with mp.workdps(_MP_DPS):
        v = [mp.mpf(x) for x in args]
        if kind == "RC":
            return +mp.elliprc(*v)
        if kind == "RF":
            return +mp.elliprf(*v)
        if kind == "RD":
            return +mp.elliprd(*v)
        if kind == "RJ":
            return +mp.elliprj(*v)
        if kind == "RG":
            return +mp.elliprg(*v)
        if kind == "K":
            return +mp.ellipk(v[0] ** 2)
        return +mp.ellipe(v[0] ** 2)


def _fails(value, guar, lo, hi, asym, truth) -> bool:
    """Verdict in whatever arithmetic ``truth`` carries (float or mpf)."""
    if abs(value - truth) > guar * abs(value):
        return True
    return asym and not (lo <= truth <= hi)


def _narrow(value, guar, lo, hi, asym, truth) -> bool:
    if not math.isfinite(truth):
        return True
    if abs(value - truth) > _NARROW * guar * abs(value):
        return True
    edge = _EDGE_REL * abs(truth)
    return asym and not (lo + edge <= truth <= hi - edge)


class Judge:
    """Judges answers to a fixed list of requests ``(slice, kind, args, tol)``."""

    def __init__(self, requests):
        self.requests = requests
        self.scipy_checked = 0
        self.escalated = 0
        self.scipy_false_alarms = 0
        self.repeat_mismatches = 0   # one request answered in two ways
        self.misses = []             # (request index, method code, rel_err), mpmath-confirmed

    def verdicts(self, index, code, value, guar, lo, hi) -> np.ndarray:
        """Failure flag per answer; the arrays hold one entry per answer."""
        index, code = np.asarray(index), np.asarray(code)
        value, guar = np.asarray(value, dtype=float), np.asarray(guar, dtype=float)
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        failed = code == UNTYPED_ERROR
        answered = code <= REFERENCE
        failed |= answered & ~np.isfinite(value)
        good = np.flatnonzero(answered & np.isfinite(value))
        if good.size == 0:
            return failed
        uniq, first, inverse = np.unique(index[good], return_index=True,
                                         return_inverse=True)
        rows = good[first]
        for col in (code, value, guar, lo, hi):
            same = (col[good] == col[rows][inverse]) | (np.isnan(col[good])
                                                        & np.isnan(col[rows][inverse]))
            self.repeat_mismatches += int((~same).sum())
        bad = np.zeros(uniq.size, dtype=bool)
        by_kind = {}
        for u, (j, row) in enumerate(zip(uniq, rows)):
            by_kind.setdefault(self.requests[j][1], []).append((u, j, row))
        for kind, items in by_kind.items():
            args = np.array([self.requests[j][2] for _, j, _ in items], dtype=float)
            with np.errstate(all="ignore"):
                truth = scipy_truth(kind, args)
            self.scipy_checked += len(items)
            for (u, j, row), s in zip(items, truth):
                ans = (float(value[row]), float(guar[row]), float(lo[row]),
                       float(hi[row]), bool(code[row] == ASYM))
                s = float(s)
                if not _narrow(*ans, s):
                    continue
                self.escalated += 1
                t = mpmath_truth(kind, self.requests[j][2])
                if _fails(*ans, t):
                    bad[u] = True
                    self.misses.append((int(j), int(code[row]),
                                        float(abs((ans[0] - t) / t))))
                elif not math.isfinite(s) or _fails(*ans, s):
                    self.scipy_false_alarms += 1
        failed[good] |= bad[inverse]
        return failed

    def report(self) -> list[str]:
        """Judge statistics and the confirmed misses grouped by slice, kind and method."""
        names = {c: m for m, c in METHOD_CODE.items()}
        groups = Counter((self.requests[j][0], self.requests[j][1], names[c])
                         for j, c, _ in self.misses)
        lines = [f"judge: {self.scipy_checked} distinct requests checked with scipy, "
                 f"{self.escalated} escalated to mpmath, {self.scipy_false_alarms} scipy "
                 f"false alarms cleared, {len(self.misses)} mpmath-confirmed misses"]
        lines += [f"misses slice={sl} kind={kind} method={m}: {n}"
                  for (sl, kind, m), n in sorted(groups.items())]
        for j, c, err in self.misses[:5]:
            sl, kind, args, tol = self.requests[j]
            lines.append(f"miss example: {kind}{args} rel_tol={tol:g} method={names[c]} "
                         f"rel_err={err:.3g}")
        return lines
