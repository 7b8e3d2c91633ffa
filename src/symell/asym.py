"""Certified enclosures from the asymptotic case catalog.

Each case (C1..G2) names a displayed approximation formula together with a
two-sided bracket for its error symbol.  Substituting the bracket endpoints
into the formula gives a closed interval that contains the true integral
whenever the case's preconditions hold; the interval is widened outward by
8 ulps per endpoint to absorb evaluation rounding, and the estimate is the
interval midpoint.

The catalog is a registry of case rows: kind, cost, gate, smallness ratio,
argument sampler, bracket and formula; the arity and the reference route
follow from the kind.  Most formulas are affine in their error symbol; the
C2/F1e/F1f family is affine in log(symbol) instead, and J1b is a
multiplicative form.  theta_recover inverts a case formula for the realized
error symbol given the true value, which must land inside the stated
bracket (the bracket-realization tests).

Cases whose displayed formula covers only one side (C2c, F1b) are paired
with the best same-family endpoint so the return type stays uniform.  G1a's
displayed upper bound requires 5a < z; outside that the enclosure keeps the
displayed lower endpoint, takes the reference evaluator's value as upper
endpoint, and carries a note.  An enclosure whose endpoints or estimate are
not finite (float64 overflow or underflow in the case formula) also carries
a note; it certifies nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ._util import cbrt, widen_down, widen_up
from .core import agm, rc, rd, rf, rg, rj
from .errors import ConvergenceError, DomainError, RegimeError

__all__ = [
    "CASE_TAGS",
    "Enclosure",
    "KIND_ARITY",
    "approx_e",
    "approx_k",
    "approx_rc",
    "approx_rd",
    "approx_rf",
    "approx_rg",
    "approx_rj",
    "case_cost",
    "case_kind",
    "case_ratio",
    "enclose",
    "has_symbol",
    "kind_cases",
    "recover_sigma",
    "reference_route",
    "sample_case",
    "sym_bracket",
    "theta_recover",
]


@dataclass(frozen=True)
class Enclosure:
    """Closed interval certified to contain the true integral value."""

    lo: float
    hi: float
    estimate: float
    case: str
    strict_lo: bool
    strict_hi: bool
    note: str | None = None

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def rel_width(self) -> float:
        scale = abs(self.estimate)
        return self.width / scale if scale > 0.0 else math.inf

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= value <= self.hi + slack


def _pos(name, v):
    if not (v > 0.0):
        raise DomainError(f"{name} must be positive, got {v}")


def _nonneg(name, v):
    if not (v >= 0.0):
        raise DomainError(f"{name} must be nonnegative, got {v}")


def _gate(cond: bool, msg: str):
    if not cond:
        raise RegimeError(msg)


def _ag(x, y):
    return (x + y) / 2.0, math.sqrt(x * y)


def _rf_complete(x, y):
    # first-kind integral with a vanishing argument, via the AGM
    return math.pi / (2.0 * agm(math.sqrt(x), math.sqrt(y)))


# --------------------------------------------------------------------------
# case descriptors
# --------------------------------------------------------------------------

# arguments of each kind of integral; a K or E case takes k' alone
KIND_ARITY = {"RC": 2, "RF": 3, "RD": 3, "RJ": 4, "RG": 3, "K": 1, "E": 1}


@dataclass(frozen=True)
class _Case:
    tag: str
    kind: str
    cost: int
    strict: tuple[bool, bool]
    gate: Callable
    ratio: Callable
    sample: Callable             # (ratio, s, w, lu, coin) -> args, see sample_case
    bracket: Callable            # args -> (sym_lo, sym_hi)
    value: Callable              # (args, sym) -> float
    recover: Callable | None     # (args, value) -> sym, None for one-sided
    deriv: Callable | None = None  # (args, value) -> d(sym)/d(value)
    build: Callable | None = None  # custom enclosure constructor


_CASES: dict[str, _Case] = {}


def _register(case: _Case):
    _CASES[case.tag] = case


def _affine(tag, kind, cost, gate, ratio, sample, bracket, ab, strict=(True, True),
            build=None):
    """Case whose formula is value = A + B*sym."""

    def value(args, s):
        a, b = ab(*args)
        return a + b * s

    def recover(args, v):
        a, b = ab(*args)
        if b == 0.0:
            slo, shi = bracket(*args)
            return 0.5 * (slo + shi)
        return (v - a) / b

    def deriv(args, v):
        _, b = ab(*args)
        return math.inf if b == 0.0 else 1.0 / abs(b)

    _register(_Case(tag, kind, cost, strict, gate, ratio, sample, bracket, value,
                    recover, deriv, build))


def _log_theta(tag, kind, cost, gate, ratio, sample, bracket, abk, strict=(True, True)):
    """Case whose formula is value = A + B*log(kappa*sym)."""

    def value(args, s):
        a, b, kappa = abk(*args)
        return a + b * math.log(kappa * s)

    def recover(args, v):
        a, b, kappa = abk(*args)
        try:
            return math.exp((v - a) / b) / kappa
        except OverflowError:
            raise ConvergenceError(f"{tag} error symbol at {args} is past float64") from None

    def deriv(args, v):
        try:
            return abs(recover(args, v) / abk(*args)[1])
        except ConvergenceError:
            return math.inf

    _register(_Case(tag, kind, cost, strict, gate, ratio, sample, bracket, value,
                    recover, deriv))


# ---- argument samplers -----------------------------------------------------
# sample(r, s, w, lu, coin) is an in-regime argument tuple with the case ratio
# pinned to r, given a magnitude s drawn log-uniformly over [1e-3, 1e3], a
# shape factor w over [0.1, 10], and the draws lu(lo, hi), log-uniform, and
# coin(), uniform on [0, 1).  Within-group factors span at most two decades.


def _small_pair(m, lu, coin):
    """Two values with the larger pinned to m, skew at most two decades."""
    u = lu(0.01, 1.0)
    return (m, m * u) if coin() < 0.5 else (m * u, m)


# ---- RC cases --------------------------------------------------------------


def _c1_gate(x, y):
    _nonneg("x", x)
    _pos("y", y)


def _c1_ab(x, y):
    return math.pi / (2.0 * math.sqrt(y)) - math.sqrt(x) / y, \
        math.pi * x / (4.0 * y ** 1.5)


_affine(
    "C1", "RC", 1,
    gate=_c1_gate,
    ratio=lambda x, y: x / y,
    sample=lambda r, s, *_: (r * s, s),
    bracket=lambda x, y: (1.0 / (1.0 + math.sqrt(x / y)), 1.0),
    ab=_c1_ab,
    strict=(False, False),
)


def _c2_gate(x, y):
    _pos("x", x)
    _pos("y", y)
    _gate(y < 2.0 * x, f"C2 requires 0 < y < 2x, got ({x}, {y})")


def _c2_sample(r, s, *_):
    return (s, r * s)


def _c2a_abk(x, y):
    inv = 1.0 / (2.0 * math.sqrt(x))
    return inv * math.log(4.0 * x / y), inv * y / (2.0 * x - y), x / y


_log_theta(
    "C2a", "RC", 1,
    gate=_c2_gate,
    ratio=lambda x, y: y / x,
    sample=_c2_sample,
    bracket=lambda x, y: (1.0, 4.0),
    abk=_c2a_abk,
)


def _c2b_abk(x, y):
    inv = 1.0 / (2.0 * math.sqrt(x))
    a = inv * ((1.0 + y / (2.0 * x)) * math.log(4.0 * x / y) - y / (2.0 * x))
    b = inv * 3.0 * y * y / (4.0 * x * (2.0 * x - y))
    return a, b, x / y


_log_theta(
    "C2b", "RC", 1,
    gate=_c2_gate,
    ratio=lambda x, y: y / x,
    sample=_c2_sample,
    bracket=lambda x, y: (1.0, 4.0),
    abk=_c2b_abk,
)


def _c2c_build(x, y):
    a, b, kappa = _c2a_abk(x, y)
    lo = a + b * math.log(kappa)  # C2a formula at theta = 1
    hi = math.log(4.0 * x / y) / (2.0 * math.sqrt(x) * (1.0 - y / (2.0 * x)))
    return lo, hi, None


_register(_Case("C2c", "RC", 1, (True, True), _c2_gate, lambda x, y: y / x,
                sample=_c2_sample, bracket=lambda x, y: (1.0, 4.0),
                value=None, recover=None, build=_c2c_build))


# ---- RF cases --------------------------------------------------------------


def _f1_dom(x, y, z):
    _nonneg("x", x)
    _nonneg("y", y)
    _pos("z", z)
    if x == 0.0 and y == 0.0:
        raise DomainError("at most one of x, y may vanish")


def _f1_gate(x, y, z):
    _f1_dom(x, y, z)
    a, g = _ag(x, y)
    _gate(a < 2.0 * z and g < z, f"F1 requires a < 2z and g < z, got a={a}, g={g}, z={z}")


def _f1_ratio(x, y, z):
    return max(x, y) / z


def _f1_sample(r, s, w, lu, coin):
    return (*_small_pair(r * s, lu, coin), s)


def _f1_bracket(x, y, z):
    a, g = _ag(x, y)
    l2 = math.log(2.0 * z / (a + g))
    l8 = math.log(8.0 * z / (a + g))
    return g / (1.0 - g / z) * l2, a / (1.0 - a / (2.0 * z)) * l8


def _f1a_ab(x, y, z):
    a, g = _ag(x, y)
    l8 = math.log(8.0 * z / (a + g))
    return l8 / (2.0 * math.sqrt(z)), 1.0 / (4.0 * z ** 1.5)


_affine("F1a", "RF", 1, gate=_f1_gate, ratio=_f1_ratio, sample=_f1_sample,
        bracket=_f1_bracket, ab=_f1a_ab)


def _f1b_build(x, y, z):
    a, g = _ag(x, y)
    r_lo, _ = _f1_bracket(x, y, z)
    av, bv = _f1a_ab(x, y, z)
    lo = av + bv * r_lo
    hi = math.log(8.0 * z / (a + g)) / (2.0 * math.sqrt(z) * (1.0 - a / (2.0 * z)))
    return lo, hi, None


_register(_Case("F1b", "RF", 1, (True, True), _f1_gate, _f1_ratio, _f1_sample,
                bracket=_f1_bracket, value=None, recover=None, build=_f1b_build))


def _f1cd_gate(x, y, z):
    _f1_gate(x, y, z)
    _gate(max(x, y) < z, "F1c/F1d require max(x, y)/z < 1")


def _f1cd_bracket(x, y, z):
    a, g = _ag(x, y)
    rho = max(x, y) / z
    l8 = math.log(8.0 * z / (a + g))
    return math.log(1.0 / rho) / (1.0 - rho), l8 / (1.0 - a / (2.0 * z))


def _f1c_ab(x, y, z):
    a, g = _ag(x, y)
    l8 = math.log(8.0 * z / (a + g))
    return l8 / (2.0 * math.sqrt(z)), a / (4.0 * z ** 1.5)


_affine("F1c", "RF", 1, gate=_f1cd_gate, ratio=_f1_ratio, sample=_f1_sample,
        bracket=_f1cd_bracket, ab=_f1c_ab)


def _f1d_ab(x, y, z):
    a, g = _ag(x, y)
    l8 = math.log(8.0 * z / (a + g))
    av = ((1.0 + a / (2.0 * z)) * l8 - (2.0 * a - g) / (2.0 * z)) / (2.0 * math.sqrt(z))
    bv = 3.0 * (3.0 * a * a - g * g) / (32.0 * z ** 2.5)
    return av, bv


_affine("F1d", "RF", 1, gate=_f1cd_gate, ratio=_f1_ratio, sample=_f1_sample,
        bracket=_f1cd_bracket, ab=_f1d_ab)


def _kprime_gate(kp):
    _gate(0.0 < kp < 1.0, f"requires 0 < k' < 1, got {kp}")


def _kprime_sample(r, *_):
    return (math.sqrt(r),)


def _f1e_abk(kp):
    return math.log(4.0 / kp), kp * kp / (4.0 - kp * kp), 1.0 / kp


_log_theta("F1e", "K", 1, gate=_kprime_gate, ratio=lambda kp: kp * kp,
           sample=_kprime_sample, bracket=lambda kp: (1.0, 4.0), abk=_f1e_abk)


def _f1f_abk(kp):
    k2 = kp * kp
    a = (1.0 + k2 / 4.0) * math.log(4.0 / kp) - k2 / 4.0
    b = 9.0 * k2 * k2 / (16.0 * (4.0 - k2))
    return a, b, 1.0 / kp


_log_theta("F1f", "K", 1, gate=_kprime_gate, ratio=lambda kp: kp * kp,
           sample=_kprime_sample, bracket=lambda kp: (1.0, 4.0), abk=_f1f_abk)


def _f2a_gate(x, y, z):
    _pos("x", x)
    _pos("y", y)
    _nonneg("z", z)
    _, g = _ag(x, y)
    _gate(z < g, f"F2a requires z < g, got z={z}, g={g}")


def _d2_sample(r, s, w, *_):
    x, y = s * w, s / w
    return (x, y, r * math.sqrt(x * y))


def _f2a_ab(x, y, z):
    _, g = _ag(x, y)
    return _rf_complete(x, y) - math.sqrt(z) / g, math.pi * z / (4.0 * g ** 1.5)


_affine("F2a", "RF", 1,
        gate=_f2a_gate,
        ratio=lambda x, y, z: z / math.sqrt(x * y),
        sample=_d2_sample,
        bracket=lambda x, y, z: (1.0 / (1.0 + math.sqrt(z / math.sqrt(x * y))),
                                 (x + y) / (2.0 * math.sqrt(x * y))),
        ab=_f2a_ab)


# ---- RD cases --------------------------------------------------------------


def _d1_gate(x, y, z):
    _f1_dom(x, y, z)
    a, g = _ag(x, y)
    _gate(g < z and a < z, f"D1 requires g < z and a < z, got a={a}, g={g}, z={z}")


def _d1_ab(x, y, z):
    a, g = _ag(x, y)
    pre = 3.0 / (2.0 * z ** 1.5)
    return pre * (math.log(8.0 * z / (a + g)) - 2.0), \
        pre * math.log(2.0 * z / (a + g)) / z


_affine("D1", "RD", 1, gate=_d1_gate, ratio=_f1_ratio, sample=_f1_sample,
        bracket=lambda x, y, z: (
            math.sqrt(x * y) / (1.0 - math.sqrt(x * y) / z),
            1.5 * ((x + y) / 2.0) / (1.0 - (x + y) / (2.0 * z))),
        ab=_d1_ab)


def _d2_gate(x, y, z):
    _pos("x", x)
    _pos("y", y)
    _pos("z", z)
    _, g = _ag(x, y)
    _gate(z < g, f"D2 requires z < g, got z={z}, g={g}")


def _d2_ratio(x, y, z):
    return z / math.sqrt(x * y)


def _d2a_ab(x, y, z):
    _, g = _ag(x, y)
    pre = 3.0 / math.sqrt(x * y * z)
    return pre, -pre * (math.pi / 2.0) * math.sqrt(z / g)


_affine("D2a", "RD", 1, gate=_d2_gate, ratio=_d2_ratio, sample=_d2_sample,
        bracket=lambda x, y, z: (
            1.0 - (4.0 / math.pi) * math.sqrt(z / math.sqrt(x * y)),
            (x + y) / (2.0 * math.sqrt(x * y))),
        ab=_d2a_ab)


def _d2b_ab(x, y, z):
    _, g = _ag(x, y)
    s = math.sqrt(z / g)
    av = 3.0 / math.sqrt(x * y * z) - rd(0.0, x, y) - rd(0.0, y, x)
    bv = 3.0 * math.pi * math.sqrt(z) / (2.0 * g * g * (1.0 + s))
    return av, bv


def _d2b_bracket(x, y, z):
    a, g = _ag(x, y)
    s = math.sqrt(z / g)
    return 1.0 / (math.sqrt(2.0 / 3.0) + s), 1.5 * a / (g * (1.0 + s))


_affine("D2b", "RD", 2, gate=_d2_gate, ratio=_d2_ratio, sample=_d2_sample,
        bracket=_d2b_bracket, ab=_d2b_ab)


def _d2c_ab(x, y, z):
    a, g = _ag(x, y)
    t = 6.0 * a * math.sqrt(z) / g ** 3
    av = 3.0 / math.sqrt(x * y * z) - (6.0 / (x * y)) * rg(x, y, 0.0) + t
    bv = -t * (math.pi / 4.0) * math.sqrt(z / a)
    return av, bv


def _d2c_bracket(x, y, z):
    a, g = _ag(x, y)
    r = a / g
    return 1.0 / (1.0 + math.sqrt(z / a)), r ** 1.5 * (3.0 - 1.0 / (r * r))


_affine("D2c", "RD", 2, gate=_d2_gate, ratio=_d2_ratio, sample=_d2_sample,
        bracket=_d2c_bracket, ab=_d2c_ab)


def _d3_gate(x, y, z):
    _pos("x", x)
    _nonneg("y", y)
    _pos("z", z)
    a, g = _ag(y, z)
    _gate(g < x and a < 2.0 * x, f"D3 requires g < x and a < 2x, got a={a}, g={g}, x={x}")


def _d3_bracket(x, y, z):
    a, g = _ag(y, z)
    lo = math.log(2.0 * x / (a + g)) / (1.0 - g / x) - 2.0 * z / (g + z)
    hi = math.log(8.0 * x / (a + g)) / (1.0 - a / (2.0 * x))
    return lo, hi


def _d3_ab(x, y, z):
    _, g = _ag(y, z)
    return (3.0 / math.sqrt(x)) / (g + z), -3.0 / (4.0 * x ** 1.5)


_affine("D3", "RD", 1, gate=_d3_gate,
        ratio=lambda x, y, z: max(y, z) / x,
        sample=lambda r, s, w, lu, coin: (s, *_small_pair(r * s, lu, coin)),
        bracket=_d3_bracket, ab=_d3_ab)


def _d4_gate(x, y, z):
    _nonneg("x", x)
    _pos("y", y)
    _pos("z", z)


def _d4_bracket(x, y, z):
    a, g = _ag(y, z)
    return 1.0 / (1.0 + math.sqrt(x / a)), (a / g) ** 1.5 * (1.0 + y / a)


def _d4_ab(x, y, z):
    a, g = _ag(y, z)
    t = 3.0 * math.sqrt(x) / (g * z)
    return rd(0.0, y, z) - t, t * (math.pi / 4.0) * math.sqrt(x / a)


_affine("D4", "RD", 2, gate=_d4_gate,
        ratio=lambda x, y, z: x / math.sqrt(y * z),
        sample=lambda r, s, w, *_: (r * math.sqrt(s * w * (s / w)), s * w, s / w),
        bracket=_d4_bracket, ab=_d4_ab)


# ---- RJ cases --------------------------------------------------------------


def _rj_dom(x, y, z, p):
    _nonneg("x", x)
    _nonneg("y", y)
    _nonneg("z", z)
    if sum(1 for v in (x, y, z) if v == 0.0) > 1:
        raise DomainError("at most one of x, y, z may vanish")
    if not p > 0.0:
        raise DomainError(f"p must be positive (principal values are not approximated), got {p}")


def _j1_small_means(x, y, z):
    a = (x + y + z) / 3.0
    b = math.sqrt(3.0 * (x * y + x * z + y * z)) / 2.0
    return a, b


def _j1a_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    a, b = _j1_small_means(x, y, z)
    _gate(a < p and b < p, f"J1 requires a < p and b < p, got a={a}, b={b}, p={p}")


def _j1a_bracket(x, y, z, p):
    a, b = _j1_small_means(x, y, z)
    u = math.sqrt(a / p)
    v = math.sqrt(b / p)
    return v / (1.0 + v), 1.5 * u / (1.0 + u)


def _j1a_ab(x, y, z, p):
    c = 3.0 * math.pi / (2.0 * p ** 1.5)
    return (3.0 / p) * rf(x, y, z) - c, c


def _j1a_sample(r, s, w, lu, _):
    x, y, z = s * w, s / w, s * lu(0.2, 5.0)
    return (x, y, z, max(x, y, z) / r)


_affine("J1a", "RJ", 2, gate=_j1a_gate,
        ratio=lambda x, y, z, p: max(x, y, z) / p, sample=_j1a_sample,
        bracket=_j1a_bracket, ab=_j1a_ab)


def _j1b_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _gate(z == 0.0, "J1b is the complete case and requires z = 0")
    _pos("x", x)
    _pos("y", y)
    _gate((x + y) / 2.0 < p, "J1b requires (x + y)/2 < p")


def _j1b_c(x, y, p):
    return (3.0 / p) * (_rf_complete(x, y) - math.pi / (2.0 * math.sqrt(p)))


def _j1b_value(args, s):
    x, y, z, p = args
    return _j1b_c(x, y, p) / (1.0 - s / p)


def _j1b_recover(args, v):
    x, y, z, p = args
    return p * (1.0 - _j1b_c(x, y, p) / v)


def _j1b_deriv(args, v):
    x, y, z, p = args
    return abs(p * _j1b_c(x, y, p) / (v * v))


_register(_Case("J1b", "RJ", 1, (False, False), _j1b_gate,
                lambda x, y, z, p: max(x, y) / p,
                sample=lambda r, s, w, *_: (s * w, s / w, 0.0, max(s * w, s / w) / r),
                bracket=lambda x, y, z, p: (math.sqrt(x * y), (x + y) / 2.0),
                value=_j1b_value, recover=_j1b_recover, deriv=_j1b_deriv))


def _j2_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _pos("x", x)
    _pos("y", y)
    _pos("z", z)
    h = 3.0 / (1.0 / x + 1.0 / y + 1.0 / z)
    _gate(p < h, f"J2 requires p < h, got p={p}, h={h}")


def _j2_ratio(x, y, z, p):
    return p * (1.0 / x + 1.0 / y + 1.0 / z) / 3.0


def _j2_sample(r, s, w, lu, _):
    x, y, z = s * w, s / w, s * lu(0.2, 5.0)
    return (x, y, z, r * (3.0 / (1.0 / x + 1.0 / y + 1.0 / z)))


def _j2a_bracket(x, y, z, p):
    g = cbrt(x * y * z)
    h = 3.0 / (1.0 / x + 1.0 / y + 1.0 / z)
    return -math.log(g / h), 1.5 * p / (g - p) * math.log(g / p)


def _j2a_ab(x, y, z, p):
    g = cbrt(x * y * z)
    pre = 1.5 / math.sqrt(x * y * z)
    return pre * (math.log(4.0 * g / p) - 2.0), pre


_affine("J2a", "RJ", 1, gate=_j2_gate, ratio=_j2_ratio, sample=_j2_sample,
        bracket=_j2a_bracket, ab=_j2a_ab)


def _j2b_bracket(x, y, z, p):
    g = cbrt(x * y * z)
    h = 3.0 / (1.0 / x + 1.0 / y + 1.0 / z)
    return 2.0 / (g - p) * math.log(g / p), 3.0 / (h - p) * math.log(h / p)


def _j2b_ab(x, y, z, p):
    lam = math.sqrt(x * y) + math.sqrt(x * z) + math.sqrt(y * z)
    s = math.sqrt(x * y * z)
    av = 1.5 / s * math.log(4.0 * x * y * z / (p * lam * lam)) \
        + 2.0 * rj(x + lam, y + lam, z + lam, lam)
    return av, 0.75 * p / s


_affine("J2b", "RJ", 3, gate=_j2_gate, ratio=_j2_ratio, sample=_j2_sample,
        bracket=_j2b_bracket, ab=_j2b_ab)


def _j3_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _pos("z", z)
    a, g = _ag(x, y)
    _gate(a < p and g < p, f"J3 requires a < p and g < p, got a={a}, g={g}, p={p}")


def _j3_bracket(x, y, z, p):
    a, g = _ag(x, y)
    return g / (1.0 - g / p), a / (1.0 - a / p) * (1.0 + p / (2.0 * z))


def _j3_ab(x, y, z, p):
    a, g = _ag(x, y)
    pre = 1.5 / (math.sqrt(z) * p)
    av = pre * (math.log(8.0 * z / (a + g)) - 2.0 * rc(1.0, p / z))
    return av, pre * math.log(2.0 * p / (a + g)) / p


_affine("J3", "RJ", 1, gate=_j3_gate,
        ratio=lambda x, y, z, p: max(x, y) / min(z, p),
        sample=lambda r, s, w, lu, coin: (
            *_small_pair(r * min(s * w, s / w), lu, coin), s * w, s / w),
        bracket=_j3_bracket, ab=_j3_ab)


def _j4_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _pos("x", x)
    _pos("y", y)
    _, g = _ag(x, y)
    _gate(z < g and p < g, f"J4 requires z < g and p < g, got z={z}, p={p}, g={g}")


def _j4_ratio(x, y, z, p):
    return max(z, p) / math.sqrt(x * y)


def _j4_sample(r, s, w, lu, coin):
    x, y = s * w, s / w
    return (x, y, *_small_pair(r * math.sqrt(x * y), lu, coin))


def _j4a_ab(x, y, z, p):
    _, g = _ag(x, y)
    return (3.0 / g) * rc(z, p), \
        -(3.0 / (g - p)) * (rc(z, g) - (p / g) * rc(z, p))


_affine("J4a", "RJ", 1, gate=_j4_gate, ratio=_j4_ratio, sample=_j4_sample,
        bracket=lambda x, y, z, p: (1.0, (x + y) / (2.0 * math.sqrt(x * y))),
        ab=_j4a_ab, strict=(False, False))


def _j4b_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _gate(z == 0.0, "J4b is the complete case and requires z = 0")
    _pos("x", x)
    _pos("y", y)
    _, g = _ag(x, y)
    _gate(p < g, f"J4b requires p < g, got p={p}, g={g}")


def _j4b_ab(x, y, z, p):
    _, g = _ag(x, y)
    c = 3.0 * math.pi / (2.0 * math.sqrt(x * y * p))
    return c, -c * math.sqrt(p) / (math.sqrt(g) + math.sqrt(p))


_affine("J4b", "RJ", 1, gate=_j4b_gate, ratio=lambda x, y, z, p: p / math.sqrt(x * y),
        sample=lambda r, s, w, *_: (s * w, s / w, 0.0, r * math.sqrt(s * w * (s / w))),
        bracket=lambda x, y, z, p: (1.0, (x + y) / (2.0 * math.sqrt(x * y))),
        ab=_j4b_ab, strict=(False, False))


def _j4c_bracket(x, y, z, p):
    a, g = _ag(x, y)
    b = math.sqrt(3.0 * p * (p + 2.0 * z)) / 2.0
    d = (z + 2.0 * p) / 3.0
    lo = math.sqrt(b) / (1.0 + math.sqrt(b / g))
    hi = (1.5 * a / g) * math.sqrt(d) / (1.0 + math.sqrt(d / g))
    return lo, hi


def _j4c_ab(x, y, z, p):
    _, g = _ag(x, y)
    av = (3.0 / g) * rc(z, p) - (6.0 / (x * y)) * rg(x, y, 0.0)
    return av, 1.5 * math.pi / (x * y)


_affine("J4c", "RJ", 2, gate=_j4_gate, ratio=_j4_ratio, sample=_j4_sample,
        bracket=_j4c_bracket, ab=_j4c_ab)


def _j5_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _pos("y", y)
    _pos("z", z)
    a, _ = _ag(y, z)
    _gate(x < a, f"J5 requires x < (y + z)/2, got x={x}, a={a}")


def _j5_bracket(x, y, z, p):
    a, g = _ag(y, z)
    return math.sqrt(g / a) / (1.0 + math.sqrt(x / a)), a / g + g / p


def _j5_ab(x, y, z, p):
    _, g = _ag(y, z)
    t = 3.0 * math.sqrt(x) / (g * p)
    return rj(0.0, y, z, p) - t, t * (math.pi / 4.0) * math.sqrt(x / g)


def _j5_sample(r, s, w, lu, _):
    y, z, p = s * w, s / w, s * lu(0.2, 5.0)
    return (r * min(y, z, p), y, z, p)


_affine("J5", "RJ", 3, gate=_j5_gate,
        ratio=lambda x, y, z, p: x / min(y, z, p), sample=_j5_sample,
        bracket=_j5_bracket, ab=_j5_ab)


def _j6a_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _pos("x", x)
    a, g = _ag(y, z)
    _gate(g < x and a < 2.0 * x, f"J6 requires g < x and a < 2x, got a={a}, g={g}, x={x}")


def _j6_rc_term(y, z, p):
    a, g = _ag(y, z)
    return rc((g + p) ** 2, 2.0 * (a + g) * p)


def _j6a_bracket(x, y, z, p):
    a, g = _ag(y, z)
    lo = math.log(2.0 * x / (a + g)) / (x - g) - (2.0 * p / x) * _j6_rc_term(y, z, p)
    hi = math.log(8.0 * x / (a + g)) / (x - a / 2.0)
    return lo, hi


def _j6a_ab(x, y, z, p):
    return (3.0 / math.sqrt(x)) * _j6_rc_term(y, z, p), -0.75 / math.sqrt(x)


_affine("J6a", "RJ", 1, gate=_j6a_gate,
        ratio=lambda x, y, z, p: max(y, z, p) / x,
        sample=lambda r, s, w, lu, coin: (
            s, *_small_pair(r * s, lu, coin), r * s * lu(0.1, 1.0)),
        bracket=_j6a_bracket, ab=_j6a_ab)


def _j6complete_gate(x, y, z, p):
    _rj_dom(x, y, z, p)
    _gate(y == 0.0, "the complete J6 case requires y = 0")
    _pos("x", x)
    _pos("z", z)
    _gate(z < 4.0 * x, f"the complete J6 case requires z < 4x, got z={z}, x={x}")


def _j6complete_bracket(x, y, z, p):
    lo = math.log(4.0 * x / z) - 2.0 * math.sqrt(p) * rc(p, z)
    hi = math.log(16.0 * x / z) / (1.0 - z / (4.0 * x))
    return lo, hi


def _j6complete_ab(x, y, z, p):
    return (3.0 / math.sqrt(x * p)) * rc(p, z), -0.75 / x ** 1.5


_affine("J6complete", "RJ", 1, gate=_j6complete_gate,
        ratio=lambda x, y, z, p: max(z, p) / x,
        sample=lambda r, s, w, lu, coin: (s, 0.0, *_small_pair(r * s, lu, coin)),
        bracket=_j6complete_bracket, ab=_j6complete_ab)


# ---- RG cases --------------------------------------------------------------


def _g1a_gate(x, y, z):
    _f1_dom(x, y, z)
    a, g = _ag(x, y)
    _gate(g < z and a < z, f"G1a requires g < z and a < z, got a={a}, g={g}, z={z}")


def _g1a_bracket(x, y, z):
    a, g = _ag(x, y)
    l2 = math.log(2.0 * z / (a + g))
    lo = 0.5 * (a + g) * l2 + 2.0 * g - 4.0 * a / 3.0
    hi = (3.0 * a - g) * l2 + 2.0 * g - a / 3.0
    return lo, hi


def _g1a_ab(x, y, z):
    return 0.5 * math.sqrt(z), 0.25 / math.sqrt(z)


def _g1a_build(x, y, z):
    a, _ = _ag(x, y)
    r_lo, r_hi = _g1a_bracket(x, y, z)
    av, bv = _g1a_ab(x, y, z)
    lo = av + bv * r_lo
    if 5.0 * a < z:
        return lo, av + bv * r_hi, None
    ref = rg(x, y, z)
    return lo, ref, "upper endpoint requires 5a < z; reference value used instead"


_affine("G1a", "RG", 1, gate=_g1a_gate, ratio=_f1_ratio, sample=_f1_sample,
        bracket=_g1a_bracket, ab=_g1a_ab, build=_g1a_build)


def _g1b_gate(x, y, z):
    if x != 0.0:
        raise RegimeError("G1b is the complete case and requires x = 0")
    _pos("y", y)
    _pos("z", z)
    _gate(y < z, f"G1b requires y < z, got y={y}, z={z}")


def _g1b_bracket(x, y, z):
    lo = 0.75 * math.log(z / y)
    hi = (math.log(16.0 * z / y) - 13.0 / 6.0) / (1.0 - y / z)
    return lo, hi


def _g1b_ab(x, y, z):
    c = y / (8.0 * math.sqrt(z))
    av = 0.5 * math.sqrt(z) + c * (math.log(16.0 * z / y) - 1.0)
    return av, c * y / (2.0 * z)


_affine("G1b", "RG", 1, gate=_g1b_gate, ratio=lambda x, y, z: y / z,
        sample=lambda r, s, *_: (0.0, r * s, s),
        bracket=_g1b_bracket, ab=_g1b_ab)


def _g1c_bracket(kp):
    k = math.sqrt(1.0 - kp * kp)
    lo = 0.375 * math.log(1.0 / kp)
    hi = (math.log(4.0 / kp) - 13.0 / 12.0) / (k * (1.0 + k))
    return lo, hi


def _g1c_ab(kp):
    k2 = kp * kp
    return 1.0 + 0.5 * k2 * (math.log(4.0 / kp) - 0.5), 0.5 * k2 * k2


_affine("G1c", "E", 1, gate=_kprime_gate, ratio=lambda kp: kp * kp,
        sample=_kprime_sample, bracket=_g1c_bracket, ab=_g1c_ab)


def _g2_gate(x, y, z):
    _pos("x", x)
    _pos("y", y)
    _nonneg("z", z)
    a, g = _ag(x, y)
    _gate(z < g, f"G2 requires z < g, got z={z}, g={g}")
    _gate((4.0 / math.pi) * math.sqrt(z / a) < 1.0,
          "G2 lower endpoint requires (4/pi) sqrt(z/a) < 1")


def _g2_bracket(x, y, z):
    a, g = _ag(x, y)
    lo = (1.0 - (4.0 / math.pi) * math.sqrt(z / a)) / math.sqrt(a)
    hi = (2.0 / (a * g + g * g)) ** 0.25
    return lo, hi


def _g2_ab(x, y, z):
    return rg(x, y, 0.0), math.pi * z / 8.0


_affine("G2", "RG", 2, gate=_g2_gate, ratio=_d2_ratio, sample=_d2_sample,
        bracket=_g2_bracket, ab=_g2_ab)


# --------------------------------------------------------------------------
# public interface
# --------------------------------------------------------------------------

CASE_TAGS = tuple(_CASES)

# case tags by the kind of integral they approximate, in catalog order
_KIND_CASES = {kind: tuple(t for t, c in _CASES.items() if c.kind == kind)
               for kind in dict.fromkeys(c.kind for c in _CASES.values())}


def _case(tag: str) -> _Case:
    try:
        return _CASES[tag]
    except KeyError:
        raise DomainError(f"unknown case tag {tag!r}") from None


def _checked_args(case: _Case, args) -> tuple[float, ...]:
    vals = tuple(float(a) for a in args)
    arity = KIND_ARITY[case.kind]
    if len(vals) != arity:
        raise DomainError(f"{case.tag} takes {arity} arguments, got {len(vals)}")
    for v in vals:
        if not math.isfinite(v):
            raise DomainError(f"{case.tag} arguments must be finite, got {vals}")
    return vals


def enclose(tag: str, *args: float) -> Enclosure:
    """Build the certified enclosure of case ``tag`` at ``args``."""
    case = _case(tag)
    vals = _checked_args(case, args)
    case.gate(*vals)
    if case.build is not None:
        lo, hi, note = case.build(*vals)
        sl, sh = case.strict
    else:
        s_lo, s_hi = case.bracket(*vals)
        v1 = case.value(vals, s_lo)
        v2 = case.value(vals, s_hi)
        if v1 <= v2:
            lo, hi = v1, v2
            sl, sh = case.strict
        else:
            lo, hi = v2, v1
            sh, sl = case.strict
        note = None
    est = 0.5 * (lo + hi)
    lo, hi = widen_down(lo), widen_up(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(est)):
        # overflow or underflow inside the case formula: no certificate
        note = "enclosure is not finite at these arguments"
    return Enclosure(lo, hi, est, tag, sl, sh, note)


def theta_recover(tag: str, args, true_value: float) -> float:
    """Realized error symbol of a case formula at the true integral value.

    When the error-term coefficient vanishes (C1 at x = 0, F2a at z = 0)
    the bracket midpoint is returned, which for a collapsed bracket is the
    collapsed point itself.
    """
    case = _case(tag)
    vals = _checked_args(case, args)
    case.gate(*vals)
    if case.recover is None:
        raise DomainError(f"{tag} exposes no error symbol (one-sided bound)")
    return case.recover(vals, float(true_value))


def recover_sigma(tag: str, args, true_value: float, value_rel_err: float = 4.0 * 2.220446049250313e-16) -> float:
    """Uncertainty of the recovered symbol given the value's relative error."""
    case = _case(tag)
    vals = _checked_args(case, args)
    if case.deriv is None:
        raise DomainError(f"{tag} exposes no error symbol (one-sided bound)")
    v = float(true_value)
    return case.deriv(vals, v) * value_rel_err * abs(v)


def sym_bracket(tag: str, *args: float) -> tuple[float, float]:
    """Stated bracket endpoints of the case's error symbol."""
    case = _case(tag)
    vals = _checked_args(case, args)
    case.gate(*vals)
    return case.bracket(*vals)


def has_symbol(tag: str) -> bool:
    return _case(tag).recover is not None


def case_kind(tag: str) -> str:
    return _case(tag).kind


def case_cost(tag: str) -> int:
    return _case(tag).cost


def kind_cases(kind: str) -> tuple[str, ...]:
    """Tags of the cases that approximate integrals of ``kind``."""
    return _KIND_CASES.get(kind, ())


def case_ratio(tag: str, *args: float) -> float:
    """Smallness parameter governing the case's enclosure width."""
    case = _case(tag)
    vals = _checked_args(case, args)
    return case.ratio(*vals)


def sample_case(tag: str, ratio: float, lu, coin) -> tuple:
    """One in-regime argument tuple of case ``tag`` with its ratio pinned,
    from the draws ``lu(lo, hi)`` and ``coin()``; s is drawn before w."""
    return _case(tag).sample(ratio, lu(1e-3, 1e3), lu(0.1, 10.0), lu, coin)


def reference_route(kind: str, args) -> tuple[str, tuple, float]:
    """(kind, arguments, factor) of the integral that cases of ``kind``
    approximate at ``args``: a K or E case takes k', so K is RF(0, k'^2, 1)
    and E is 2 RG(0, k'^2, 1)."""
    if kind == "K":
        return "RF", (0.0, args[0] * args[0], 1.0), 1.0
    if kind == "E":
        return "RG", (0.0, args[0] * args[0], 1.0), 2.0
    return kind, args, 1.0


def _family_call(kind, tag, *args):
    tags = kind_cases(kind)
    if tag not in tags:
        raise DomainError(
            f"approx_{kind.lower()} does not handle case {tag!r}; expected one of {tags}")
    return enclose(tag, *args)


def approx_rc(x: float, y: float, case: str) -> Enclosure:
    return _family_call("RC", case, x, y)


def approx_rf(x: float, y: float, z: float, case: str) -> Enclosure:
    return _family_call("RF", case, x, y, z)


def approx_rd(x: float, y: float, z: float, case: str) -> Enclosure:
    return _family_call("RD", case, x, y, z)


def approx_rj(x: float, y: float, z: float, p: float, case: str) -> Enclosure:
    return _family_call("RJ", case, x, y, z, p)


def approx_rg(x: float, y: float, z: float, case: str) -> Enclosure:
    return _family_call("RG", case, x, y, z)


def approx_k(kprime: float, case: str) -> Enclosure:
    return _family_call("K", case, kprime)


def approx_e(kprime: float) -> Enclosure:
    return enclose("G1c", kprime)
