"""Seeded request streams for the dispatch-mixed and cli-eval workloads.

Every request is ``(slice, kind, args, rel_tol)``.  The four slices cover
the ways the dispatcher answers:

* ``generic``: magnitudes log-uniform on 1e-3..1e3, answered by the
  reference evaluators;
* ``deep``: some arguments scaled by a ratio log-uniform on 1e-9..1e-3,
  the regimes the asymptotic enclosures certify;
* ``exact``: argument patterns with a closed form;
* ``wide``: magnitudes log-uniform on 1e-30..1e30.  The known ``rj``
  misses on this range are meant to show in the failure count.

Arguments near the float64 limits are left out on purpose: ``rf``, ``rd``
and ``rg`` never return there, and a timing loop cannot contain a call
that never returns.

Only the standard library is used, so the stream is the same under any
numpy version.
"""

from __future__ import annotations

import math
import random

KINDS = ("RC", "RF", "RD", "RJ", "RG", "K", "E")
ARITY = {"RC": 2, "RF": 3, "RD": 3, "RJ": 4, "RG": 3, "K": 1, "E": 1}
REL_TOLS = (1e-3, 1e-6, 1e-9, 1e-12)
SLICES = ("generic", "deep", "exact", "wide")


def _lu(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _modulus(rng: random.Random, lo: float, hi: float) -> float:
    """k in [0, 1) with 1 - k**2 log-uniform on [lo, hi]."""
    return math.sqrt(1.0 - _lu(rng, lo, hi))


def _generic(rng, kind):
    if kind in ("K", "E"):
        return (rng.uniform(0.01, 0.99),)
    return tuple(_lu(rng, 1e-3, 1e3) for _ in range(ARITY[kind]))


def _deep(rng, kind):
    ratio = _lu(rng, 1e-9, 1e-3)
    if kind in ("K", "E"):
        return (math.sqrt(1.0 - ratio),)
    n = ARITY[kind]
    scale = _lu(rng, 1e-3, 1e3)
    vals = [scale * _lu(rng, 0.1, 10.0) for _ in range(n)]
    small = rng.sample(range(n), rng.randint(1, n - 1))
    for i in small:
        vals[i] *= ratio
    # one small argument of a three-argument form may vanish outright
    # (the complete-integral cases); rd's z and rj's p must stay positive
    zero_ok = [i for i in small if i < 3 and not (kind == "RD" and i == 2)]
    if kind != "RC" and zero_ok and rng.random() < 0.25:
        vals[rng.choice(zero_ok)] = 0.0
    return tuple(vals)


def _exact(rng, kind):
    a = _lu(rng, 1e-3, 1e3)
    b = _lu(rng, 1e-3, 1e3)
    if kind == "RC":
        vals = [a, b]
    elif kind == "RF":
        vals = rng.choice(([a, a, a], [a, b, b], [0.0, b, b]))
    elif kind == "RD":
        vals = rng.choice(([a, a, a], [0.0, b, b], [b, 0.0, b]))
        return tuple(vals)  # z stays last
    elif kind == "RJ":
        vals = rng.choice(([a, a, a], [0.0, a, a]))
        rng.shuffle(vals)
        return tuple(vals) + (a,)
    elif kind == "RG":
        vals = rng.choice(([a, a, a], [0.0, 0.0, b], [0.0, b, b]))
    elif kind == "K":
        return (0.0,)
    else:
        return (rng.choice((0.0, 1.0)),)
    rng.shuffle(vals)
    return tuple(vals)


def _wide(rng, kind):
    if kind in ("K", "E"):
        return (_modulus(rng, 1e-15, 1.0),)
    return tuple(_lu(rng, 1e-30, 1e30) for _ in range(ARITY[kind]))


_MAKERS = {"generic": _generic, "deep": _deep, "exact": _exact, "wide": _wide}


def make_requests(seed: int, n: int, stream: str) -> list[tuple]:
    """``n`` requests drawn from ``seed``; ``stream`` separates workloads."""
    rng = random.Random(f"{stream}:{seed}")
    out = []
    for _ in range(n):
        sl = rng.choice(SLICES)
        kind = rng.choice(KINDS)
        tol = rng.choice(REL_TOLS)
        out.append((sl, kind, _MAKERS[sl](rng, kind), tol))
    return out
