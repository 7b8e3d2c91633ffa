"""Certified enclosures from the asymptotic case catalog.

Each case (C1..G2) names a displayed approximation formula together with a
two-sided bracket for its error symbol.  Substituting the bracket endpoints
into the formula gives a closed interval that contains the true integral
whenever the case's preconditions hold; the interval is widened outward by
8 ulps per endpoint to absorb evaluation rounding, and the estimate is the
interval midpoint.

The catalog is a registry of case rows, named tuples as the enclosures are:
kind, cost, gate, smallness ratio, argument sampler, formula and form, the
expected order-fit slope, and a complete case's zero argument; the arity
and the reference route follow from the kind.  A formula returns the
bracket endpoints and the coefficients of its form from one call, so what
they share (a, g, a logarithm, an rc term) is computed once per call.
Rows with one ratio share its function (C2a/C2b, F1e/F1f/G1c, F2a/D2*/G2
among them), so the ratio pass computes each ratio once per request.
A term that takes case arguments the gate has checked calls core's
checked body (D4's rd, J1a's rf, J4a's and J4c's rc(z, p), J5's rj,
J6complete's rc(p, z)); a term whose arguments the formula computes calls
the public evaluator, whose rule checks them.
Most forms are affine in the error symbol; the C2/F1e/F1f family is affine
in log(symbol) instead, and J1b is a multiplicative form.  A case's gate
holds every condition its displayed endpoints need (G1a's upper endpoint
needs 5a < z).  Gates run on every enclosure and symbol call, so a gate
formats its RegimeError text, with each float's repr, only when it refuses.

case_ratio answers for one case.  Outside the argument window below a
ratio can be finite and wrong, so there case_ratio refuses.  The
dispatcher has checked its request already, so it skips the public
entries: _ratio_pass takes that checked tuple and returns a kind's case
rows whose ratio is in range, grouped by cost, and finds none outside the
window; _build is enclose for one of those rows, which runs the case's
gate and the same error boundary but neither the argument checks nor the
window test again.  A verification campaign looks its case row up once.
Per sample, _sample draws one in-regime argument tuple with the ratio
pinned, floats of the row's arity, so no argument check runs; one _call
runs the gate, the window test (the ratios a campaign pins come from the
user) and the formula.  The campaign keeps that formula result:
_enclosure_of makes the enclosure from it, and _window the symbol window,
behind _call with the gate and the window test off, so no formula runs
twice.

Four cases expand about a vanishing argument: J1b and J4b need z = 0,
J6complete y = 0 and G1b x = 0.  Each such complete case's row records
that argument's index, and the ratio pass leaves the case out where the
argument is not 0, so the dispatcher builds no enclosure that the gate
would refuse.  The gates keep the check and its text for enclose and
theta_window, and case_ratio answers there.

theta_window is the symbol entry: from one gate and one formula call it
inverts a case formula for the realized error symbol given the true value,
which must land inside the stated bracket (the bracket-realization tests),
or returns None where that inversion is ill-conditioned.  theta_recover
shares its body and is the raw recovery: (theta, sigma) even there, as
where a bracket collapses to a point.

C2c and F1b, whose displayed bounds are one-sided, are C2a's and F1a's
rows under their own tags.  The ratio pass leaves these twins out: each
enclosure is its sibling's and sorts after it, so it never answers.

The catalog loads the first time something needs it: ``import symell``
leaves it out, the dispatcher imports it at its first ratio pass or case
reference, and the package serves its public names on first access.  The
table of kinds and the argument checks live in _util, so a request is
checked without the catalog.  An entry point converts its arguments with
``_util.floats`` and leaves the domain to the case's gate: a K or E case
takes k', not k, so the kinds' rules do not apply to it.

A float64 failure inside a case formula (an overflow, an underflow to a
division by zero, a math-domain error, an inner evaluator's DomainError, or
an enclosure, ratio, bracket endpoint, term or symbol that is not finite)
raises ConvergenceError, as does, past any gate, a nonzero argument of an
RC..RG case outside the window [1e-100, 1e100]: no formula multiplies more
than three arguments (x*y*z in J2a and J2b, p*lam**2 in J2b, g**3 in D2c),
so only inside it do their products surely stay in the normal range.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from ._util import KIND_TABLE, ag, cbrt, floats, number, widen_down, widen_up
from .core import (_rc_body, _rd_body, _rf_body, _rf_complete, _rg_complete, _rj_body,
                   rc, rj)
from .errors import ConvergenceError, DomainError, RegimeError

__all__ = [
    "CASE_TAGS",
    "Enclosure",
    "case_kind",
    "case_ratio",
    "enclose",
    "kind_cases",
    "reference_route",
    "theta_recover",
    "theta_window",
]


class Enclosure(NamedTuple):
    """Closed interval certified to contain the true integral value."""

    lo: float
    hi: float
    estimate: float
    case: str
    strict_lo: bool
    strict_hi: bool

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def rel_width(self) -> float:
        scale = abs(self.estimate)
        return (self.hi - self.lo) / scale if scale > 0.0 else math.inf

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= value <= self.hi + slack


def _pos(name, v):
    if not (v > 0.0):
        raise DomainError(f"{name} must be positive, got {v}")


def _nonneg(name, v):
    if not (v >= 0.0):
        raise DomainError(f"{name} must be nonnegative, got {v}")


def _gate(cond: bool, fmt: str, *args):
    """Refuse unless ``cond`` holds; the text is formatted only on refusal."""
    if not cond:
        raise RegimeError(fmt.format(*args))


# --------------------------------------------------------------------------
# case descriptors
# --------------------------------------------------------------------------

# relative error of a true value given to a symbol entry: 4 ulps of 1.0
_VALUE_REL_ERR = 4.0 * 2.220446049250313e-16

# a recovery whose sigma passes this share of the bracket width is ill-conditioned
_ILLCOND_FRACTION = 0.02


class _Form(NamedTuple):
    """How a formula's coefficients and its error symbol make the value."""
    value: Callable    # (coefficients, sym) -> value
    recover: Callable  # (coefficients, value) -> sym, None if the value ignores sym
    deriv: Callable    # (coefficients, value) -> |d(sym)/d(value)|


def _log_recover(c, v):
    a, b, kappa = c
    return math.exp((v - a) / b) / kappa


# value = a + b*sym over (a, b)
_AFFINE = _Form(lambda c, s: c[0] + c[1] * s,
                lambda c, v: None if c[1] == 0.0 else (v - c[0]) / c[1],
                lambda c, v: math.inf if c[1] == 0.0 else 1.0 / abs(c[1]))


# value = a + b*log(kappa*sym) over (a, b, kappa); where b is within the
# value's own error the value says nothing of sym
_LOG = _Form(lambda c, s: c[0] + c[1] * math.log(c[2] * s), _log_recover,
             lambda c, v: math.inf if abs(c[1]) <= _VALUE_REL_ERR * abs(v)
             else abs(_log_recover(c, v) / c[1]))

# J1b's value = c / (1 - sym/p) over (c, p)
_J1B = _Form(lambda c, s: c[0] / (1.0 - s / c[1]),
             lambda c, v: c[1] * (1.0 - c[0] / v),
             lambda c, v: abs(c[1] * c[0] / (v * v)))


class _Case(NamedTuple):
    tag: str
    kind: str
    cost: int
    strict: tuple[bool, bool]
    gate: Callable
    ratio: Callable
    sample: Callable             # (ratio, s, w, lu, coin) -> args, see _sample
    formula: Callable            # args -> (sym_lo, sym_hi, coefficients of form)
    form: _Form
    # slope of log(max relative width) against log(ratio) that the order fit
    # (harness.run_order_fit) expects: fitted by this code on ratios 1e-3..1e-7
    # at 100 samples a ratio, and stated by no external source.  It is not an
    # integer where the width has a log factor (C2*, F1c-F1f, G1*), or where
    # the bracket's spread is a fixed fraction of the leading error scale
    # (D2a, J4a, J4b near 0.5); J2a's is near 0, as its lower endpoint
    # does not depend on the ratio
    slope: float
    # the index of the argument that a complete case expands about, which
    # its gate requires to be 0; None for every other case
    zero: int | None


_CASES: dict[str, _Case] = {}
_TWINS: set[str] = set()  # tags that _twin registers; the ratio pass leaves them out


def _register(tag, kind, cost, gate, ratio, sample, formula, slope, form=_AFFINE,
              strict=(True, True), zero=None):
    _CASES[tag] = _Case(tag, kind, cost, strict, gate, ratio, sample, formula, form, slope, zero)


def _twin(tag, of):
    """Register the case ``of``'s row under ``tag``."""
    _CASES[tag] = _CASES[of]._replace(tag=tag)
    _TWINS.add(tag)


# ---- argument samplers -----------------------------------------------------
# sample(r, s, w, lu, coin) is an in-regime argument tuple with the case ratio
# pinned to r, given a magnitude s drawn log-uniformly over [1e-3, 1e3], a
# shape factor w over [0.1, 10], and the draws lu(lo, hi), log-uniform, and
# coin(), uniform on [0, 1).  Within-group factors span at most two decades.


def _small_pair(m, lu, coin):
    """Two values with the larger pinned to m, skew at most two decades."""
    u = lu(0.01, 1.0)
    return (m, m * u) if coin() < 0.5 else (m * u, m)


# ---- case formulas ---------------------------------------------------------
# formula(*args) -> (sym_lo, sym_hi, coefficients) computes the bracket
# endpoints first and the coefficients after them, each in the order of its
# displayed expression, so the first float64 failure and its text are those
# of the endpoints; a quantity both need is computed once, where the
# endpoints first need it.


# ---- RC cases --------------------------------------------------------------


def _c1_gate(x, y):
    _nonneg("x", x)
    _pos("y", y)


def _c1(x, y):
    return 1.0 / (1.0 + math.sqrt(x / y)), 1.0, \
        (math.pi / (2.0 * math.sqrt(y)) - math.sqrt(x) / y, math.pi * x / (4.0 * y ** 1.5))


_register("C1", "RC", 1, gate=_c1_gate, ratio=lambda x, y: x / y,
          sample=lambda r, s, *_: (r * s, s), formula=_c1, strict=(False, False), slope=1.5)


def _c2_gate(x, y):
    _pos("x", x)
    _pos("y", y)
    _gate(y < 2.0 * x, "C2 requires 0 < y < 2x, got ({}, {})", x, y)


def _c2_ratio(x, y):
    return y / x


def _c2_sample(r, s, *_):
    return (s, r * s)


def _c2a(x, y):
    inv = 1.0 / (2.0 * math.sqrt(x))
    return 1.0, 4.0, (inv * math.log(4.0 * x / y), inv * y / (2.0 * x - y), x / y)


_register("C2a", "RC", 1, gate=_c2_gate, ratio=_c2_ratio, sample=_c2_sample,
          formula=_c2a, form=_LOG, slope=1.08)


def _c2b(x, y):
    inv = 1.0 / (2.0 * math.sqrt(x))
    a = inv * ((1.0 + y / (2.0 * x)) * math.log(4.0 * x / y) - y / (2.0 * x))
    b = inv * 3.0 * y * y / (4.0 * x * (2.0 * x - y))
    return 1.0, 4.0, (a, b, x / y)


_register("C2b", "RC", 1, gate=_c2_gate, ratio=_c2_ratio, sample=_c2_sample,
          formula=_c2b, form=_LOG, slope=1.85)


_twin("C2c", "C2a")


# ---- RF cases --------------------------------------------------------------


def _f1_dom(x, y, z):
    _nonneg("x", x)
    _nonneg("y", y)
    _pos("z", z)
    if x == 0.0 and y == 0.0:
        raise DomainError("at most one of x, y may vanish")


def _f1_gate(x, y, z):
    _f1_dom(x, y, z)
    a, g = ag(x, y)
    _gate(a < 2.0 * z and g < z, "F1 requires a < 2z and g < z, got a={}, g={}, z={}", a, g, z)


def _f1_ratio(x, y, z):
    return max(x, y) / z


def _f1_sample(r, s, w, lu, coin):
    return (*_small_pair(r * s, lu, coin), s)


def _f1a(x, y, z):
    a, g = ag(x, y)
    l2 = math.log(2.0 * z / (a + g))
    l8 = math.log(8.0 * z / (a + g))
    return g / (1.0 - g / z) * l2, a / (1.0 - a / (2.0 * z)) * l8, \
        (l8 / (2.0 * math.sqrt(z)), 1.0 / (4.0 * z ** 1.5))


_register("F1a", "RF", 1, gate=_f1_gate, ratio=_f1_ratio, sample=_f1_sample, formula=_f1a,
          slope=1.0)


_twin("F1b", "F1a")


def _f1cd_gate(x, y, z):
    _f1_gate(x, y, z)
    _gate(max(x, y) < z, "F1c/F1d require max(x, y)/z < 1")


def _f1cd(coefficients):
    """The formula of F1c or F1d: their one bracket, then
    ``coefficients(a, g, z, l8)``."""
    def formula(x, y, z):
        a, g = ag(x, y)
        rho = max(x, y) / z
        l8 = math.log(8.0 * z / (a + g))
        return math.log(1.0 / rho) / (1.0 - rho), l8 / (1.0 - a / (2.0 * z)), \
            coefficients(a, g, z, l8)
    return formula


_register("F1c", "RF", 1, gate=_f1cd_gate, ratio=_f1_ratio, sample=_f1_sample,
          formula=_f1cd(lambda a, g, z, l8: (l8 / (2.0 * math.sqrt(z)), a / (4.0 * z ** 1.5))),
          slope=1.08)


def _f1d_ab(a, g, z, l8):
    av = ((1.0 + a / (2.0 * z)) * l8 - (2.0 * a - g) / (2.0 * z)) / (2.0 * math.sqrt(z))
    bv = 3.0 * (3.0 * a * a - g * g) / (32.0 * z ** 2.5)
    return av, bv


_register("F1d", "RF", 1, gate=_f1cd_gate, ratio=_f1_ratio, sample=_f1_sample,
          formula=_f1cd(_f1d_ab), slope=1.85)


def _kprime_gate(kp):
    _gate(0.0 < kp < 1.0, "requires 0 < k' < 1, got {}", kp)


def _kprime_ratio(kp):
    return kp * kp


def _kprime_sample(r, *_):
    return (math.sqrt(r),)


_register("F1e", "K", 1, gate=_kprime_gate, ratio=_kprime_ratio, sample=_kprime_sample,
          formula=lambda kp: (1.0, 4.0, (math.log(4.0 / kp), kp * kp / (4.0 - kp * kp), 1.0 / kp)),
          form=_LOG, slope=1.07)


def _f1f(kp):
    k2 = kp * kp
    a = (1.0 + k2 / 4.0) * math.log(4.0 / kp) - k2 / 4.0
    b = 9.0 * k2 * k2 / (16.0 * (4.0 - k2))
    return 1.0, 4.0, (a, b, 1.0 / kp)


_register("F1f", "K", 1, gate=_kprime_gate, ratio=_kprime_ratio, sample=_kprime_sample,
          formula=_f1f, form=_LOG, slope=1.83)


def _f2a_gate(x, y, z):
    _pos("x", x)
    _pos("y", y)
    _nonneg("z", z)
    _, g = ag(x, y)
    _gate(z < g, "F2a requires z < g, got z={}, g={}", z, g)


def _d2_ratio(x, y, z):
    return z / math.sqrt(x * y)


def _d2_sample(r, s, w, *_):
    x, y = s * w, s / w
    return (x, y, r * math.sqrt(x * y))


def _f2a(x, y, z):
    g = math.sqrt(x * y)
    return 1.0 / (1.0 + math.sqrt(z / g)), (x + y) / (2.0 * g), \
        (_rf_complete(x, y) - math.sqrt(z) / g, math.pi * z / (4.0 * g ** 1.5))


_register("F2a", "RF", 1, gate=_f2a_gate, ratio=_d2_ratio, sample=_d2_sample, formula=_f2a,
          slope=1.0)


# ---- RD cases --------------------------------------------------------------


def _d1_gate(x, y, z):
    _f1_dom(x, y, z)
    a, g = ag(x, y)
    _gate(g < z and a < z, "D1 requires g < z and a < z, got a={}, g={}, z={}", a, g, z)


def _d1(x, y, z):
    a, g = ag(x, y)
    lo, hi = g / (1.0 - g / z), 1.5 * a / (1.0 - (x + y) / (2.0 * z))
    pre = 3.0 / (2.0 * z ** 1.5)
    return lo, hi, (pre * (math.log(8.0 * z / (a + g)) - 2.0),
                    pre * math.log(2.0 * z / (a + g)) / z)


_register("D1", "RD", 1, gate=_d1_gate, ratio=_f1_ratio, sample=_f1_sample, formula=_d1,
          slope=1.0)


def _d2_gate(x, y, z):
    _pos("x", x)
    _pos("y", y)
    _pos("z", z)
    _, g = ag(x, y)
    _gate(z < g, "D2 requires z < g, got z={}, g={}", z, g)


def _d2a(x, y, z):
    g = math.sqrt(x * y)
    s = math.sqrt(z / g)
    lo, hi = 1.0 - (4.0 / math.pi) * s, (x + y) / (2.0 * g)
    pre = 3.0 / math.sqrt(x * y * z)
    return lo, hi, (pre, -pre * (math.pi / 2.0) * s)


_register("D2a", "RD", 1, gate=_d2_gate, ratio=_d2_ratio, sample=_d2_sample, formula=_d2a,
          slope=0.52)


def _d2_complete(x, y, z):
    """3/sqrt(xyz) - rd(0, x, y) - rd(0, y, x), the pair by one AGM run:
    rd(0, x, y) + rd(0, y, x) = 6 rg(0, x, y)/(xy) (DLMF 19.21.10 at x = 0)."""
    return 3.0 / math.sqrt(x * y * z) - (6.0 / (x * y)) * _rg_complete(x, y)


def _d2b(x, y, z):
    a, g = ag(x, y)
    s = math.sqrt(z / g)
    lo, hi = 1.0 / (math.sqrt(2.0 / 3.0) + s), 1.5 * a / (g * (1.0 + s))
    bv = 3.0 * math.pi * math.sqrt(z) / (2.0 * g * g * (1.0 + s))
    return lo, hi, (_d2_complete(x, y, z), bv)


_register("D2b", "RD", 2, gate=_d2_gate, ratio=_d2_ratio, sample=_d2_sample, formula=_d2b,
          slope=1.0)


def _d2c(x, y, z):
    a, g = ag(x, y)
    r, s = a / g, math.sqrt(z / a)
    lo, hi = 1.0 / (1.0 + s), r ** 1.5 * (3.0 - 1.0 / (r * r))
    t = 6.0 * a * math.sqrt(z) / g ** 3
    av = _d2_complete(x, y, z) + t
    return lo, hi, (av, -t * (math.pi / 4.0) * s)


_register("D2c", "RD", 2, gate=_d2_gate, ratio=_d2_ratio, sample=_d2_sample, formula=_d2c,
          slope=1.51)


def _d3_gate(x, y, z):
    _pos("x", x)
    _nonneg("y", y)
    _pos("z", z)
    a, g = ag(y, z)
    _gate(g < x and a < 2.0 * x, "D3 requires g < x and a < 2x, got a={}, g={}, x={}", a, g, x)


def _d3(x, y, z):
    a, g = ag(y, z)
    lo = math.log(2.0 * x / (a + g)) / (1.0 - g / x) - 2.0 * z / (g + z)
    hi = math.log(8.0 * x / (a + g)) / (1.0 - a / (2.0 * x))
    return lo, hi, ((3.0 / math.sqrt(x)) / (g + z), -3.0 / (4.0 * x ** 1.5))


_register("D3", "RD", 1, gate=_d3_gate,
          ratio=lambda x, y, z: max(y, z) / x,
          sample=lambda r, s, w, lu, coin: (s, *_small_pair(r * s, lu, coin)),
          formula=_d3, slope=1.0)


def _d4_gate(x, y, z):
    _nonneg("x", x)
    _pos("y", y)
    _pos("z", z)


def _d4(x, y, z):
    a, g = ag(y, z)
    s = math.sqrt(x / a)
    lo, hi = 1.0 / (1.0 + s), (a / g) ** 1.5 * (1.0 + y / a)
    t = 3.0 * math.sqrt(x) / (g * z)
    return lo, hi, (_rd_body(0.0, y, z) - t, t * (math.pi / 4.0) * s)


_register("D4", "RD", 2, gate=_d4_gate,
          ratio=lambda x, y, z: x / math.sqrt(y * z),
          sample=lambda r, s, w, *_: (r * math.sqrt(s * w * (s / w)), s * w, s / w),
          formula=_d4, slope=1.02)


# ---- RJ cases --------------------------------------------------------------


def _rj_dom(x, y, z, p):
    # _util.xyz_rule's test and text on floats that are finite already
    if x < 0.0 or y < 0.0 or z < 0.0 or (x == 0.0) + (y == 0.0) + (z == 0.0) > 1:
        raise DomainError(f"rj requires x, y, z >= 0, at most one of them 0, "
                          f"got {(x, y, z)}")
    if not p > 0.0:
        raise DomainError(f"p must be positive (principal values are not approximated), got {p}")


def _j1_small_means(x, y, z):
    a = (x + y + z) / 3.0
    b = math.sqrt(3.0 * (x * y + x * z + y * z)) / 2.0
    return a, b


def _j1a_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    a, b = _j1_small_means(x, y, z)
    _gate(a < p and b < p, "J1 requires a < p and b < p, got a={}, b={}, p={}", a, b, p)


def _j1a(x, y, z, p):
    a, b = _j1_small_means(x, y, z)
    u = math.sqrt(a / p)
    v = math.sqrt(b / p)
    lo, hi = v / (1.0 + v), 1.5 * u / (1.0 + u)
    c = 3.0 * math.pi / (2.0 * p ** 1.5)
    return lo, hi, ((3.0 / p) * _rf_body(x, y, z) - c, c)


def _j1a_sample(r, s, w, lu, _):
    x, y, z = s * w, s / w, s * lu(0.2, 5.0)
    return (x, y, z, max(x, y, z) / r)


_register("J1a", "RJ", 2, gate=_j1a_gate,
          ratio=lambda x, y, z, p: max(x, y, z) / p, sample=_j1a_sample,
          formula=_j1a, slope=1.01)


def _j1b_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _gate(z == 0.0, "J1b is the complete case and requires z = 0")
    _gate((x + y) / 2.0 < p, "J1b requires (x + y)/2 < p")


def _j1b(x, y, z, p):
    return math.sqrt(x * y), (x + y) / 2.0, \
        ((3.0 / p) * (_rf_complete(x, y) - math.pi / (2.0 * math.sqrt(p))), p)


_register("J1b", "RJ", 1, gate=_j1b_gate, ratio=lambda x, y, z, p: max(x, y) / p,
          sample=lambda r, s, w, *_: (s * w, s / w, 0.0, max(s * w, s / w) / r),
          formula=_j1b, form=_J1B, strict=(False, False), slope=1.0, zero=2)


def _j2_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _pos("x", x)
    _pos("y", y)
    _pos("z", z)
    h = 3.0 / (1.0 / x + 1.0 / y + 1.0 / z)
    _gate(p < h, "J2 requires p < h, got p={}, h={}", p, h)


def _j2_ratio(x, y, z, p):
    return p * (1.0 / x + 1.0 / y + 1.0 / z) / 3.0


def _j2_sample(r, s, w, lu, _):
    x, y, z = s * w, s / w, s * lu(0.2, 5.0)
    return (x, y, z, r * (3.0 / (1.0 / x + 1.0 / y + 1.0 / z)))


def _j2a(x, y, z, p):
    g = cbrt(x * y * z)
    h = 3.0 / (1.0 / x + 1.0 / y + 1.0 / z)
    lo, hi = -math.log(g / h), 1.5 * p / (g - p) * math.log(g / p)
    pre = 1.5 / math.sqrt(x * y * z)
    return lo, hi, (pre * (math.log(4.0 * g / p) - 2.0), pre)


_register("J2a", "RJ", 1, gate=_j2_gate, ratio=_j2_ratio, sample=_j2_sample, formula=_j2a,
          slope=0.09)


def _j2b(x, y, z, p):
    g = cbrt(x * y * z)
    h = 3.0 / (1.0 / x + 1.0 / y + 1.0 / z)
    lo, hi = 2.0 / (g - p) * math.log(g / p), 3.0 / (h - p) * math.log(h / p)
    lam = math.sqrt(x * y) + math.sqrt(x * z) + math.sqrt(y * z)
    s = math.sqrt(x * y * z)
    av = 1.5 / s * math.log(4.0 * x * y * z / (p * lam * lam)) \
        + 2.0 * rj(x + lam, y + lam, z + lam, lam)
    return lo, hi, (av, 0.75 * p / s)


_register("J2b", "RJ", 3, gate=_j2_gate, ratio=_j2_ratio, sample=_j2_sample, formula=_j2b,
          slope=1.0)


def _j3_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _pos("z", z)
    a, g = ag(x, y)
    _gate(a < p and g < p, "J3 requires a < p and g < p, got a={}, g={}, p={}", a, g, p)


def _j3(x, y, z, p):
    a, g = ag(x, y)
    lo, hi = g / (1.0 - g / p), a / (1.0 - a / p) * (1.0 + p / (2.0 * z))
    pre = 1.5 / (math.sqrt(z) * p)
    return lo, hi, (pre * (math.log(8.0 * z / (a + g)) - 2.0 * rc(1.0, p / z)),
                    pre * math.log(2.0 * p / (a + g)) / p)


_register("J3", "RJ", 1, gate=_j3_gate,
          ratio=lambda x, y, z, p: max(x, y) / min(z, p),
          sample=lambda r, s, w, lu, coin: (
              *_small_pair(r * min(s * w, s / w), lu, coin), s * w, s / w),
          formula=_j3, slope=1.01)


def _j4_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _pos("x", x)
    _pos("y", y)
    _, g = ag(x, y)
    _gate(z < g and p < g, "J4 requires z < g and p < g, got z={}, p={}, g={}", z, p, g)


def _j4_ratio(x, y, z, p):
    return max(z, p) / math.sqrt(x * y)


def _j4_sample(r, s, w, lu, coin):
    x, y = s * w, s / w
    return (x, y, *_small_pair(r * math.sqrt(x * y), lu, coin))


def _j4a(x, y, z, p):
    g = math.sqrt(x * y)
    hi = (x + y) / (2.0 * g)
    r = _rc_body(z, p)
    return 1.0, hi, ((3.0 / g) * r, -(3.0 / (g - p)) * (rc(z, g) - (p / g) * r))


_register("J4a", "RJ", 1, gate=_j4_gate, ratio=_j4_ratio, sample=_j4_sample, formula=_j4a,
          strict=(False, False), slope=0.51)


def _j4b_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _gate(z == 0.0, "J4b is the complete case and requires z = 0")
    _, g = ag(x, y)
    _gate(p < g, "J4b requires p < g, got p={}, g={}", p, g)


def _j4b(x, y, z, p):
    g = math.sqrt(x * y)
    hi = (x + y) / (2.0 * g)
    c = 3.0 * math.pi / (2.0 * math.sqrt(x * y * p))
    return 1.0, hi, (c, -c * math.sqrt(p) / (math.sqrt(g) + math.sqrt(p)))


_register("J4b", "RJ", 1, gate=_j4b_gate, ratio=lambda x, y, z, p: p / math.sqrt(x * y),
          sample=lambda r, s, w, *_: (s * w, s / w, 0.0, r * math.sqrt(s * w * (s / w))),
          formula=_j4b, strict=(False, False), slope=0.51, zero=2)


def _j4c(x, y, z, p):
    a, g = ag(x, y)
    b = math.sqrt(3.0 * p * (p + 2.0 * z)) / 2.0
    d = (z + 2.0 * p) / 3.0
    lo = math.sqrt(b) / (1.0 + math.sqrt(b / g))
    hi = (1.5 * a / g) * math.sqrt(d) / (1.0 + math.sqrt(d / g))
    av = (3.0 / g) * _rc_body(z, p) - (6.0 / (x * y)) * _rg_complete(x, y)
    return lo, hi, (av, 1.5 * math.pi / (x * y))


_register("J4c", "RJ", 2, gate=_j4_gate, ratio=_j4_ratio, sample=_j4_sample, formula=_j4c,
          slope=0.99)


def _j5_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _pos("y", y)
    _pos("z", z)
    a, _ = ag(y, z)
    _gate(x < a, "J5 requires x < (y + z)/2, got x={}, a={}", x, a)


def _j5(x, y, z, p):
    a, g = ag(y, z)
    lo, hi = math.sqrt(g / a) / (1.0 + math.sqrt(x / a)), a / g + g / p
    t = 3.0 * math.sqrt(x) / (g * p)
    return lo, hi, (_rj_body(0.0, y, z, p) - t, t * (math.pi / 4.0) * math.sqrt(x / g))


def _j5_sample(r, s, w, lu, _):
    y, z, p = s * w, s / w, s * lu(0.2, 5.0)
    return (r * min(y, z, p), y, z, p)


_register("J5", "RJ", 3, gate=_j5_gate,
          ratio=lambda x, y, z, p: x / min(y, z, p), sample=_j5_sample,
          formula=_j5, slope=1.01)


def _j6a_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _pos("x", x)
    a, g = ag(y, z)
    _gate(g < x and a < 2.0 * x, "J6 requires g < x and a < 2x, got a={}, g={}, x={}", a, g, x)


def _j6a(x, y, z, p):
    a, g = ag(y, z)
    l2 = math.log(2.0 * x / (a + g)) / (x - g)
    r = rc((g + p) ** 2, 2.0 * (a + g) * p)
    lo, hi = l2 - (2.0 * p / x) * r, math.log(8.0 * x / (a + g)) / (x - a / 2.0)
    return lo, hi, ((3.0 / math.sqrt(x)) * r, -0.75 / math.sqrt(x))


_register("J6a", "RJ", 1, gate=_j6a_gate,
          ratio=lambda x, y, z, p: max(y, z, p) / x,
          sample=lambda r, s, w, lu, coin: (
              s, *_small_pair(r * s, lu, coin), r * s * lu(0.1, 1.0)),
          formula=_j6a, slope=1.0)


def _j6complete_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _gate(y == 0.0, "the complete J6 case requires y = 0")
    _gate(z < 4.0 * x, "the complete J6 case requires z < 4x, got z={}, x={}", z, x)


def _j6complete(x, y, z, p):
    l4 = math.log(4.0 * x / z)
    r = _rc_body(p, z)
    lo, hi = l4 - 2.0 * math.sqrt(p) * r, math.log(16.0 * x / z) / (1.0 - z / (4.0 * x))
    return lo, hi, ((3.0 / math.sqrt(x * p)) * r, -0.75 / x ** 1.5)


_register("J6complete", "RJ", 1, gate=_j6complete_gate,
          ratio=lambda x, y, z, p: max(z, p) / x,
          sample=lambda r, s, w, lu, coin: (s, 0.0, *_small_pair(r * s, lu, coin)),
          formula=_j6complete, slope=1.0, zero=1)


# ---- RG cases --------------------------------------------------------------


def _g1a_gate(x, y, z):
    _f1_dom(x, y, z)
    a, _ = ag(x, y)
    # 5a < z, which the upper endpoint needs, implies the lower's g < z and a < z
    _gate(5.0 * a < z, "G1a requires 5a < z, got a={}, z={}", a, z)


def _g1a(x, y, z):
    a, g = ag(x, y)
    l2 = math.log(2.0 * z / (a + g))
    lo = 0.5 * (a + g) * l2 + 2.0 * g - 4.0 * a / 3.0
    hi = (3.0 * a - g) * l2 + 2.0 * g - a / 3.0
    return lo, hi, (0.5 * math.sqrt(z), 0.25 / math.sqrt(z))


_register("G1a", "RG", 1, gate=_g1a_gate, ratio=_f1_ratio, sample=_f1_sample, formula=_g1a,
          slope=0.92)


def _g1b_gate(x, y, z):
    _gate(x == 0.0, "G1b is the complete case and requires x = 0")
    _pos("y", y)
    _pos("z", z)
    _gate(y < z, "G1b requires y < z, got y={}, z={}", y, z)


def _g1b(x, y, z):
    lo, l16 = 0.75 * math.log(z / y), math.log(16.0 * z / y)
    hi = (l16 - 13.0 / 6.0) / (1.0 - y / z)
    c = y / (8.0 * math.sqrt(z))
    return lo, hi, (0.5 * math.sqrt(z) + c * (l16 - 1.0), c * y / (2.0 * z))


_register("G1b", "RG", 1, gate=_g1b_gate, ratio=lambda x, y, z: y / z,
          sample=lambda r, s, *_: (0.0, r * s, s), formula=_g1b, slope=1.88, zero=0)


def _g1c(kp):
    k2 = kp * kp
    k = math.sqrt(1.0 - k2)
    lo, l4 = 0.375 * math.log(1.0 / kp), math.log(4.0 / kp)
    return lo, (l4 - 13.0 / 12.0) / (k * (1.0 + k)), \
        (1.0 + 0.5 * k2 * (l4 - 0.5), 0.5 * k2 * k2)


_register("G1c", "E", 1, gate=_kprime_gate, ratio=_kprime_ratio, sample=_kprime_sample,
          formula=_g1c, slope=1.88)


def _g2_gate(x, y, z):
    _pos("x", x)
    _pos("y", y)
    _nonneg("z", z)
    a, g = ag(x, y)
    _gate(z < g, "G2 requires z < g, got z={}, g={}", z, g)
    _gate((4.0 / math.pi) * math.sqrt(z / a) < 1.0,
          "G2 lower endpoint requires (4/pi) sqrt(z/a) < 1")


def _g2(x, y, z):
    a, g = ag(x, y)
    lo = (1.0 - (4.0 / math.pi) * math.sqrt(z / a)) / math.sqrt(a)
    hi = (2.0 / (a * g + g * g)) ** 0.25
    return lo, hi, (_rg_complete(x, y), math.pi * z / 8.0)


_register("G2", "RG", 2, gate=_g2_gate, ratio=_d2_ratio, sample=_d2_sample, formula=_g2,
          slope=1.0)


# --------------------------------------------------------------------------
# public interface
# --------------------------------------------------------------------------

CASE_TAGS = tuple(_CASES)


def _ratio_at_zero(case: _Case) -> Callable:
    """A complete case's ratio where its zero argument is 0, and inf, which
    no ratio bound admits, where its gate would refuse."""
    i, ratio = case.zero, case.ratio
    return lambda *vals: ratio(*vals) if vals[i] == 0.0 else math.inf


def _ratio_groups(cases) -> tuple:
    """(ratio, ((case, cost), ...)) per distinct ratio function of ``cases``,
    at the place of its first case: the row fields that the ratio pass
    reads, taken out of the rows once, a complete case's ratio wrapped so
    that the pass leaves it out unless its zero argument is 0.  No case of
    the catalog falls between two cases of one cost that share a ratio, so
    a pass group by group keeps catalog order within each cost."""
    groups: dict[Callable, list] = {}
    for c in cases:
        ratio = c.ratio if c.zero is None else _ratio_at_zero(c)
        groups.setdefault(ratio, []).append((c, c.cost))
    return tuple((ratio, tuple(rows)) for ratio, rows in groups.items())


# the ratio groups of the cases of each kind of integral but the twins
_KIND_CASES = {kind: _ratio_groups(c for c in _CASES.values()
                                   if c.kind == kind and c.tag not in _TWINS)
               for kind in dict.fromkeys(c.kind for c in _CASES.values())}


def _case(tag: str) -> _Case:
    try:
        return _CASES[tag]
    except KeyError:
        raise DomainError(f"unknown case tag {tag!r}") from None


def _entry(tag: str, args) -> tuple[_Case, tuple]:
    """(case row, arguments as floats of its arity, all finite) of an entry point."""
    case = _case(tag)
    return case, floats(tag, args, KIND_TABLE[case.kind].arity)


def _in_window(kind: str, vals) -> bool:
    """Whether every nonzero argument lies in [1e-100, 1e100]; K and E cases
    take k' and have no window."""
    if kind != "K" and kind != "E":
        for v in vals:
            if v and not 1e-100 <= v <= 1e100:
                return False
    return True


def _call(case: _Case, vals, gated: bool, windowed: bool, body, *extra):
    """``body(case, vals, *extra)`` at checked arguments, behind the error
    boundary that every entry point and the dispatcher share: where
    ``gated`` the case's gate, then where ``windowed`` the argument window.
    A float64 failure inside the case formula, an ArithmeticError, a
    math-domain ValueError, an argument outside the window or, past the
    gate, a DomainError from an inner evaluator, raises ConvergenceError."""
    in_body = False
    try:
        if gated:
            case.gate(*vals)
        if windowed and not _in_window(case.kind, vals):
            raise OverflowError("an argument lies outside [1e-100, 1e100]")
        in_body = True
        return body(case, vals, *extra)
    except (RegimeError, ConvergenceError):
        raise
    except (ArithmeticError, ValueError) as exc:  # DomainError is a ValueError
        if isinstance(exc, DomainError) and not in_body:
            raise
        raise ConvergenceError(f"{case.tag} at {vals} is past float64: {exc}") from exc


def _enclosure(case: _Case, vals) -> Enclosure:
    return _enclosure_of(case, case.formula(*vals))


_new = tuple.__new__


def _enclosure_of(case: _Case, result) -> Enclosure:
    """The enclosure of a formula result (sym_lo, sym_hi, terms), built by
    tuple.__new__, which skips the named tuple's generated constructor."""
    # one unpacking reads the row's fields: a named-tuple field read costs
    # about 22 ns on Python 3.11, and an enclosure needs three of them
    tag, _, _, (sl, sh), _, _, _, _, form, _, _ = case
    s_lo, s_hi, terms = result
    value = form.value
    lo, hi = value(terms, s_lo), value(terms, s_hi)
    if hi < lo:
        lo, hi, sl, sh = hi, lo, sh, sl
    est = 0.5 * (lo + hi)
    lo, hi = widen_down(lo), widen_up(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(est)):
        raise OverflowError("the enclosure is not finite")
    return _new(Enclosure, (lo, hi, est, tag, sl, sh))


def enclose(tag: str, *args: float) -> Enclosure:
    """Build the certified enclosure of case ``tag`` at ``args``."""
    return _call(*_entry(tag, args), True, True, _enclosure)


def _build(case: _Case, vals) -> Enclosure:
    """enclose for the dispatcher: a case row that _ratio_pass found, at the
    request's checked arguments, which lie inside the window."""
    return _call(case, vals, True, False, _enclosure)


def _sample(case: _Case, ratio: float, lu, coin) -> tuple:
    """One in-regime argument tuple of a case row with its ratio pinned,
    from the draws ``lu(lo, hi)`` and ``coin()``; s is drawn before w."""
    return case.sample(ratio, lu(1e-3, 1e3), lu(0.1, 10.0), lu, coin)


def _symbol(case: _Case, result, v: float):
    """(sym_lo, sym_hi, sigma, terms) of the error symbol at the value ``v``
    from a formula result: the body every symbol entry shares."""
    s_lo, s_hi, terms = result
    if not all(map(math.isfinite, (s_lo, s_hi, *terms))):
        raise OverflowError("the error symbol's bracket or terms are not finite")
    try:
        slope = case.form.deriv(terms, v)
    except ArithmeticError:  # the symbol is past float64
        slope = math.inf
    # a NaN or infinite slope (a value past float64) leaves sigma infinite
    sigma = slope * _VALUE_REL_ERR * abs(v) if slope < math.inf else math.inf
    return s_lo, s_hi, sigma, terms


def _theta(case: _Case, v: float, symbol) -> float:
    s_lo, s_hi, _, terms = symbol
    theta = case.form.recover(terms, v)
    if theta is None:  # the value does not depend on the symbol
        theta = 0.5 * (s_lo + s_hi)
    if not math.isfinite(theta):
        raise OverflowError("the error symbol is not finite")
    return theta


def _window(case: _Case, vals, v: float, result=None):
    """theta_window's body; a campaign passes the formula ``result`` it has."""
    symbol = _symbol(case, case.formula(*vals) if result is None else result, v)
    s_lo, s_hi, sigma, _ = symbol
    width = s_hi - s_lo
    if width <= 0.0 or not math.isfinite(sigma) or sigma > _ILLCOND_FRACTION * width:
        return None
    return s_lo, s_hi, sigma, _theta(case, v, symbol)


def theta_window(tag: str, args, true_value: float) \
        -> tuple[float, float, float, float] | None:
    """(sym_lo, sym_hi, sigma, theta): the bracket of the case's error symbol,
    the uncertainty sigma and the realized symbol theta at the true value, as
    theta_recover gives them; None where that recovery is ill-conditioned:
    sigma is not finite or exceeds 2 % of the bracket width, or the bracket
    is empty."""
    case, vals, v = _symbol_entry(tag, args, true_value)
    return _call(case, vals, True, True, _window, v)


def _recovered(case: _Case, vals, v: float) -> tuple[float, float]:
    symbol = _symbol(case, case.formula(*vals), v)
    return _theta(case, v, symbol), symbol[2]


def theta_recover(tag: str, args, true_value: float) -> tuple[float, float]:
    """(theta, sigma): the realized error symbol of a case formula at the true
    integral value, and its uncertainty when that value carries a relative
    error of 4 ulps.  Outside the case's regime it raises RegimeError.

    When the error-term coefficient vanishes (C1 at x = 0, F2a at z = 0)
    theta is the bracket midpoint, which for a collapsed bracket is the
    collapsed point itself.  A theta that is not finite raises
    ConvergenceError; sigma is inf where the symbol is past float64.
    """
    case, vals, v = _symbol_entry(tag, args, true_value)
    return _call(case, vals, True, True, _recovered, v)


def _symbol_entry(tag: str, args, true_value) -> tuple[_Case, tuple, float]:
    """(case row, checked arguments, true value as a float) of a symbol
    entry.  An int past float64 or a non-number is a DomainError; an
    infinite true value passes, so theta_window returns None there and
    theta_recover raises ConvergenceError."""
    v = number("true value", true_value, finite=False)
    return (*_entry(tag, args), v)


def case_kind(tag: str) -> str:
    return _case(tag).kind


def kind_cases(kind: str) -> tuple[str, ...]:
    """Tags of the cases that approximate integrals of ``kind``, but the
    twins, in catalog order."""
    return tuple(c.tag for c in _CASES.values() if c.kind == kind and c.tag not in _TWINS)


def _ratio(case: _Case, vals) -> float:
    ratio = case.ratio(*vals)
    if not math.isfinite(ratio):
        raise OverflowError("the ratio is not finite")
    return ratio


def case_ratio(tag: str, *args: float) -> float:
    """Smallness parameter governing the case's enclosure width."""
    return _call(*_entry(tag, args), False, True, _ratio)


def _ratio_pass(kind: str, vals, ratio_max: float) -> list[tuple[int, list[_Case]]]:
    """(cost, case rows) of the cases of ``kind`` whose ratio at the checked
    ``vals`` is at most ``ratio_max``, cheapest first and in catalog order
    within a cost.  Each distinct ratio function runs once, for all the
    cases that share it (C2a and C2b share _c2_ratio, F1a, F1c and F1d
    _f1_ratio, F1e and F1f _kprime_ratio, D2a..D2c _d2_ratio, J2a and J2b
    _j2_ratio, J4a and J4c _j4_ratio).  Left out are
    a case where case_ratio would raise ConvergenceError and a complete case
    whose zero argument is not 0."""
    if not _in_window(kind, vals):
        return []
    classes: dict[int, list[_Case]] = {}
    for ratio_of, rows in _KIND_CASES[kind]:
        try:
            ratio = ratio_of(*vals)
        except (ArithmeticError, ValueError):
            continue
        if math.isfinite(ratio) and ratio <= ratio_max:
            for case, cost in rows:
                classes.setdefault(cost, []).append(case)
    return sorted(classes.items())


def reference_route(kind: str, args) -> tuple[str, tuple, float]:
    """(kind, arguments, factor) of the integral that cases of ``kind``
    approximate at ``args``: a K or E case takes k', so K is RF(0, k'^2, 1)
    and E is 2 RG(0, k'^2, 1).  Where k'^2 is below the normal range, K is
    k'^(-1/2) RF(0, k', 1/k') by homogeneity, both arguments normal."""
    if kind == "K":
        kp = args[0]
        if 0.0 < kp and kp * kp < sys.float_info.min:
            return "RF", (0.0, kp, 1.0 / kp), kp ** -0.5
        return "RF", (0.0, kp * kp, 1.0), 1.0
    if kind == "E":
        return "RG", (0.0, args[0] * args[0], 1.0), 2.0
    return kind, args, 1.0

