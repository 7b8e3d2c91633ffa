"""Reference evaluators for the symmetric elliptic integrals.

The integrals handled here are the homogeneous symmetric forms

    rf(x, y, z)      first kind,       degree -1/2
    rd(x, y, z)      second kind,      degree -3/2, symmetric in (x, y)
    rj(x, y, z, p)   third kind,       degree -3/2
    rg(x, y, z)      second kind,      degree +1/2, fully symmetric
    rc(x, y)         degenerate rf(x, y, y), elementary closed forms

plus the Cauchy principal values rc_pv / rj_pv for a negative last
argument, the auxiliary function r_minus1, Gauss's arithmetic-geometric
mean, and Legendre's complete integrals K and E expressed through rf/rg.

rf, rd and rj use the standard duplication iteration (argument averaging
until the Taylor expansion about the common limit converges); rc is pure
closed forms.  rg shares one duplication run between its RF and RD terms:
the iterates are the same, and each term keeps its own mean, stop and sum,
so rg's values are those of separate rf and rd runs bit for bit.  Each
tail series is written once: RF's for rf and rg, and RD's for rd, rj and
rg.  Symmetric arguments are canonicalized by sorting before
evaluation, so permutation symmetry is bit-exact.  The quadrature-based
ground truth lives in :mod:`symell.quadrature` and deliberately shares no code
with this module.

All functions return plain finite floats and raise
:class:`~symell.errors.DomainError` on invalid input.  Where float64
overflows or underflows inside rf, rd, rj, rg, rc_pv, rj_pv or r_minus1
(arguments near the ends of the range, where an inner call may get
arguments outside its own domain), or rc_pv would return a value below
the normal range (it is exactly 0 only at x = 0) or rd and rj one outside
it, they raise
:class:`~symell.errors.ConvergenceError` instead of hanging, leaking an
arithmetic exception or an inner call's DomainError, or returning 0, inf or NaN.
"""

from __future__ import annotations

import math
import sys

from .errors import ConvergenceError, DomainError

__all__ = [
    "rc",
    "rc_pv",
    "rf",
    "rd",
    "rj",
    "rj_pv",
    "rg",
    "r_minus1",
    "agm",
    "legendre_k",
    "legendre_e",
]

_EPS = sys.float_info.epsilon
_MIN_NORMAL = sys.float_info.min


def _as_finite(name: str, v) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {v!r}")
    return v


def _sym_args(x, y, z, p=None) -> tuple[float, ...]:
    """(x, y, z[, p]) as finite floats: x, y, z nonnegative with at most one
    zero, and p, when given, nonzero (negative p = principal value)."""
    xyz = (_as_finite("x", x), _as_finite("y", y), _as_finite("z", z))
    if min(xyz) < 0.0:
        raise DomainError(f"arguments must be nonnegative, got {xyz}")
    if xyz.count(0.0) > 1:
        raise DomainError(f"at most one argument may be zero, got {xyz}")
    if p is None:
        return xyz
    p = _as_finite("p", p)
    if p == 0.0:
        raise DomainError("p must be nonzero")
    return xyz + (p,)


# --------------------------------------------------------------------------
# degenerate case rc and its principal value
# --------------------------------------------------------------------------

# Small-eccentricity series for rc(y(1+e), y): sum_k binom(-1/2,k) e^k/(2k+1),
# the coefficients of e^1..e^4.
_RC1, _RC2, _RC3, _RC4 = -1.0 / 6.0, 3.0 / 40.0, -5.0 / 112.0, 35.0 / 1152.0

# Relative argument difference below which the closed forms are replaced by
# the series (both 0/0 at x == y).
_RC_SERIES_CUT = 1e-6


def rc(x: float, y: float) -> float:
    """Degenerate integral rf(x, y, y), y > 0, by closed forms.

    Inverse-circular branch for x < y, inverse-hyperbolic for x > y,
    x**-0.5 on the diagonal, and a short series just off the diagonal.
    Relative error <= 1e-13 everywhere.
    """
    x = _as_finite("x", x)
    y = _as_finite("y", y)
    if x < 0.0 or y <= 0.0:
        raise DomainError(f"rc requires x >= 0 and y > 0, got ({x}, {y})")
    return _rc(x, y)


def _rc(x: float, y: float) -> float:
    """rc's closed forms at checked arguments: finite x >= 0 and y > 0."""
    if x == 0.0:
        return math.pi / (2.0 * math.sqrt(y))
    d = x - y
    # the diagonal by name too: the cut underflows to 0 for subnormal y
    if d == 0.0 or abs(d) < _RC_SERIES_CUT * y:
        e = d / y
        e2 = e * e
        e3 = e2 * e
        return (1.0 + _RC1 * e + _RC2 * e2 + _RC3 * e3 + _RC4 * (e3 * e)) / math.sqrt(y)
    if x < y:
        # acos(sqrt(x/y))/sqrt(y-x), written so the conditioning stays O(eps)
        return math.atan(math.sqrt(-d / x)) / math.sqrt(-d)
    if x <= 2.0 * y:
        # atanh argument <= sqrt(1/2); safe away from 1
        return math.atanh(math.sqrt(d / x)) / math.sqrt(d)
    return math.log((math.sqrt(x) + math.sqrt(d)) / math.sqrt(y)) / math.sqrt(d)


def rc_pv(x: float, y_abs: float) -> float:
    """Cauchy principal value rc(x, -y_abs) for y_abs > 0; 0.0 only at x = 0."""
    x = _as_finite("x", x)
    y_abs = _as_finite("y_abs", y_abs)
    if x < 0.0 or y_abs <= 0.0:
        raise DomainError(f"rc_pv requires x >= 0 and y_abs > 0, got ({x}, {y_abs})")
    if x == 0.0:
        return 0.0
    q = x / (x + y_abs)
    # a quotient below the normal range has lost digits; the square roots have not
    r = math.sqrt(q) if q >= _MIN_NORMAL else math.sqrt(x) / math.sqrt(x + y_abs)
    try:
        value = r * rc(x + y_abs, y_abs)
    except DomainError as exc:  # x + y_abs overflows
        raise _range_error("rc_pv", exc) from exc
    if not value >= _MIN_NORMAL:
        raise _range_error("rc_pv", f"value {value!r} is below the normal range")
    return value


# --------------------------------------------------------------------------
# duplication iterations
# --------------------------------------------------------------------------

# Cap on duplication steps.  Arguments whose mean and spread are normal
# floats converge in under 20 steps.  An infinite stopping threshold q (the
# mean or the spread overflows) would loop forever, so it is refused before
# the loop.  With q finite the loop ends by step 513 at the latest, when the
# power of four f overflows; a run past the cap (underflow) is refused after
# it.  Neither check costs anything per step, and neither fires for
# arguments in 1e-30..1e30.
_MAX_STEPS = 100
_MAX_F = 4.0 ** _MAX_STEPS  # f after _MAX_STEPS steps


def _range_error(name: str, detail: object) -> ConvergenceError:
    return ConvergenceError(f"{name}: float64 range exceeded ({detail})")


# stopping thresholds of the duplication runs, over the argument spread
_RF_Q = (3.0 * _EPS) ** -0.125
_RD_Q = (0.25 * _EPS) ** (-1.0 / 6.0)  # rd and rj


def _rf_tail(a0: float, x: float, y: float, f: float, am: float) -> float:
    """RF from a duplication run stopped at power f and mean am: the Taylor
    series about am of the arguments' scaled deviations."""
    xx = (a0 - x) / (f * am)
    yy = (a0 - y) / (f * am)
    zz = -xx - yy
    e2 = xx * yy - zz * zz
    e3 = xx * yy * zz
    s = (
        1.0
        - e2 / 10.0
        + e3 / 14.0
        + e2 * e2 / 24.0
        - 3.0 * e2 * e3 / 44.0
        - 5.0 * e2 ** 3 / 208.0
        + 3.0 * e3 * e3 / 104.0
        + e2 * e2 * e3 / 16.0
    )
    return s / math.sqrt(am)


def _rdj_series(e2: float, e3: float, e4: float, e5: float) -> float:
    """The Taylor series of RD and RJ about the mean, in the elementary
    symmetric functions of the scaled deviations."""
    return (
        1.0
        - 3.0 * e2 / 14.0
        + e3 / 6.0
        + 9.0 * e2 * e2 / 88.0
        - 3.0 * e4 / 22.0
        - 9.0 * e2 * e3 / 52.0
        + 3.0 * e5 / 26.0
    )


def _rd_tail(a0: float, x: float, y: float, f: float, am: float, acc: float) -> float:
    """RD from a duplication run stopped at power f, mean am and sum acc."""
    xx = (a0 - x) / (f * am)
    yy = (a0 - y) / (f * am)
    zz = -(xx + yy) / 3.0
    e2 = xx * yy - 6.0 * zz * zz
    e3 = (3.0 * xx * yy - 8.0 * zz * zz) * zz
    e4 = 3.0 * (xx * yy - zz * zz) * zz * zz
    e5 = xx * yy * zz ** 3
    return _rdj_series(e2, e3, e4, e5) / (f * am * math.sqrt(am)) + 3.0 * acc


def _rf_core(x: float, y: float, z: float) -> float:
    a0 = (x + y + z) / 3.0
    dev = max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    if dev == 0.0:
        return 1.0 / math.sqrt(a0)
    q = _RF_Q * dev
    if not q < math.inf:
        raise _range_error("rf", "argument mean or spread overflows")
    am, f = a0, 1.0
    xm, ym, zm = x, y, z
    while q >= f * abs(am):
        sx, sy, sz = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm)
        lam = sx * (sy + sz) + sy * sz
        xm = 0.25 * (xm + lam)
        ym = 0.25 * (ym + lam)
        zm = 0.25 * (zm + lam)
        am = 0.25 * (am + lam)
        f *= 4.0
    if f > _MAX_F:
        raise _range_error("rf", f"no convergence in {_MAX_STEPS} duplication steps")
    return _rf_tail(a0, x, y, f, am)


def _rd_core(x: float, y: float, z: float) -> float:
    a0 = (x + y + 3.0 * z) / 5.0
    dev = max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    if dev == 0.0:
        return a0 ** -1.5
    q = _RD_Q * dev
    if not q < math.inf:
        raise _range_error("rd", "argument mean or spread overflows")
    am, f, acc = a0, 1.0, 0.0
    xm, ym, zm = x, y, z
    while q >= f * abs(am):
        sx, sy, sz = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm)
        lam = sx * (sy + sz) + sy * sz
        acc += 1.0 / (f * sz * (zm + lam))
        xm = 0.25 * (xm + lam)
        ym = 0.25 * (ym + lam)
        zm = 0.25 * (zm + lam)
        am = 0.25 * (am + lam)
        f *= 4.0
    if f > _MAX_F:
        raise _range_error("rd", f"no convergence in {_MAX_STEPS} duplication steps")
    return _rd_tail(a0, x, y, f, am, acc)


def _rf_rd_core(x: float, y: float, z: float) -> tuple[float, float]:
    """(rf(x, y, z), rd(x, y, z)) at x <= y <= z, y > 0, from one run.

    The two duplication loops iterate the same x, y and z; only their means,
    stopping thresholds and RD's running sum differ.  Each series keeps its
    own power of four, mean and sum, and advances them only until its own
    stop, so both values are those of _rf_core and _rd_core bit for bit.
    Range failures name rg, the run's one caller.
    """
    fa0 = (x + y + z) / 3.0
    da0 = (x + y + 3.0 * z) / 5.0
    ddev = max(abs(da0 - x), abs(da0 - y), abs(da0 - z))
    # a zero spread stops a series at once; RF's tail is then 1/sqrt(fa0) exactly
    fq = _RF_Q * max(abs(fa0 - x), abs(fa0 - y), abs(fa0 - z))
    dq = _RD_Q * ddev
    if not (fq < math.inf and dq < math.inf):
        raise _range_error("rg", "argument mean or spread overflows")
    ff, fam = 1.0, fa0
    fd, dam, acc = 1.0, da0, 0.0
    xm, ym, zm = x, y, z
    while True:
        rf_on = fq >= ff * abs(fam)
        rd_on = dq >= fd * abs(dam)
        if not (rf_on or rd_on):
            break
        sx, sy, sz = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm)
        lam = sx * (sy + sz) + sy * sz
        if rd_on:
            acc += 1.0 / (fd * sz * (zm + lam))
            dam = 0.25 * (dam + lam)
            fd *= 4.0
        if rf_on:
            fam = 0.25 * (fam + lam)
            ff *= 4.0
        xm = 0.25 * (xm + lam)
        ym = 0.25 * (ym + lam)
        zm = 0.25 * (zm + lam)
    if ff > _MAX_F or fd > _MAX_F:
        raise _range_error("rg", f"no convergence in {_MAX_STEPS} duplication steps")
    rd_v = da0 ** -1.5 if ddev == 0.0 else _rd_tail(da0, x, y, fd, dam, acc)
    return _rf_tail(fa0, x, y, ff, fam), rd_v


def _rj_core(x: float, y: float, z: float, p: float) -> float:
    a0 = (x + y + z + 2.0 * p) / 5.0
    delta = (p - x) * (p - y) * (p - z)
    dev = max(abs(a0 - x), abs(a0 - y), abs(a0 - z), abs(a0 - p))
    q = _RD_Q * dev
    if not q < math.inf:
        raise _range_error("rj", "argument mean or spread overflows")
    if not abs(delta) < math.inf:
        raise _range_error("rj", "(p-x)(p-y)(p-z) overflows")
    am, f, f3, acc = a0, 1.0, 1.0, 0.0
    xm, ym, zm, pm = x, y, z, p
    while q >= f * abs(am):
        sx, sy, sz, sp = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm), math.sqrt(pm)
        lam = sx * (sy + sz) + sy * sz
        dm = (sp + sx) * (sp + sy) * (sp + sz)
        em = delta / (f3 * dm * dm)
        yc = 1.0 + em
        if not 0.0 < yc < math.inf:
            rc(1.0, yc)  # not a positive finite float: rc's own check refuses it
        acc += _rc(1.0, yc) / (f * dm)
        xm = 0.25 * (xm + lam)
        ym = 0.25 * (ym + lam)
        zm = 0.25 * (zm + lam)
        pm = 0.25 * (pm + lam)
        am = 0.25 * (am + lam)
        f *= 4.0
        f3 *= 64.0
    if f > _MAX_F:
        raise _range_error("rj", f"no convergence in {_MAX_STEPS} duplication steps")
    xx = (a0 - x) / (f * am)
    yy = (a0 - y) / (f * am)
    zz = (a0 - z) / (f * am)
    pp = -(xx + yy + zz) / 2.0
    e2 = xx * yy + xx * zz + yy * zz - 3.0 * pp * pp
    e3 = xx * yy * zz + 2.0 * pp * e2 + 4.0 * pp ** 3
    e4 = (2.0 * xx * yy * zz + pp * e2 + 3.0 * pp ** 3) * pp
    e5 = xx * yy * zz * pp * pp
    return _rdj_series(e2, e3, e4, e5) / (f * am * math.sqrt(am)) + 6.0 * acc


# --------------------------------------------------------------------------
# public evaluators
# --------------------------------------------------------------------------


def rf(x: float, y: float, z: float) -> float:
    """Symmetric integral of the first kind; relative error <= 1e-12."""
    a, b, c = sorted(_sym_args(x, y, z))
    try:
        return _rf_core(a, b, c)
    except ArithmeticError as exc:
        raise _range_error("rf", exc) from exc


def rd(x: float, y: float, z: float) -> float:
    """Symmetric integral of the second kind, symmetric in (x, y); z > 0."""
    x = _as_finite("x", x)
    y = _as_finite("y", y)
    z = _as_finite("z", z)
    if x < 0.0 or y < 0.0:
        raise DomainError(f"rd requires x, y >= 0, got ({x}, {y})")
    if x == 0.0 and y == 0.0:
        raise DomainError("rd diverges when x and y both vanish")
    if z <= 0.0:
        raise DomainError(f"rd requires z > 0, got z={z}")
    a, b = sorted((x, y))
    try:
        value = _rd_core(a, b, z)
    except ArithmeticError as exc:
        raise _range_error("rd", exc) from exc
    if not _MIN_NORMAL <= value <= sys.float_info.max:
        raise _range_error("rd", f"value {value!r} is outside the normal range")
    return value


def rj(x: float, y: float, z: float, p: float) -> float:
    """Symmetric integral of the third kind for p > 0.

    Delegates exactly to rd when p coincides with one of x, y, z.
    """
    x, y, z, p = _sym_args(x, y, z, p)
    if p < 0.0:
        raise DomainError("rj requires p > 0; use rj_pv for negative p")
    a, b, c = sorted((x, y, z))
    try:
        if p == c:
            return rd(a, b, c)
        if p == b:
            return rd(a, c, b)
        if p == a:
            return rd(b, c, a)
        value = _rj_core(a, b, c, p)
    except (ArithmeticError, DomainError, ConvergenceError) as exc:
        raise _range_error("rj", exc) from exc
    if not _MIN_NORMAL <= value <= sys.float_info.max:
        raise _range_error("rj", f"value {value!r} is outside the normal range")
    return value


def rj_pv(x: float, y: float, z: float, p: float) -> float:
    """Cauchy principal value of the third kind for p < 0.

    The arguments are permuted so the middle one sits in the y slot, which
    makes (z-y)(y-x) >= 0 and hence q >= y > 0 in the shifted evaluation.
    """
    x, y, z, p = _sym_args(x, y, z, p)
    if p >= 0.0:
        raise DomainError("rj_pv requires p < 0")
    if min(x, y, z) <= 0.0:
        raise DomainError("rj_pv requires strictly positive x, y, z")
    lo, med, hi = sorted((x, y, z))
    pabs = -p
    try:
        q = med + (hi - med) * (med - lo) / (med + pabs)
        u = lo * hi + pabs * q
        term = 3.0 * math.sqrt(lo * med * hi / u) * rc(u, pabs * q)
        value = ((q - med) * rj(lo, med, hi, q) - 3.0 * rf(lo, med, hi) + term) / (med + pabs)
    except (ArithmeticError, DomainError, ConvergenceError) as exc:
        raise _range_error("rj_pv", exc) from exc
    if not math.isfinite(value):
        raise _range_error("rj_pv", f"value is {value!r}")
    return value


def rg(x: float, y: float, z: float) -> float:
    """Completely symmetric integral of the second kind, degree +1/2.

    Evaluated through RF and RD with the largest argument in the RD z
    slot, which keeps the subtracted term single-signed.  Two zero
    arguments are allowed: rg(0, 0, z) = sqrt(z)/2 is the finite limit.
    """
    vals = []
    for name, v in (("x", x), ("y", y), ("z", z)):
        v = _as_finite(name, v)
        if v < 0.0:
            raise DomainError(f"rg requires nonnegative arguments, got {name}={v}")
        vals.append(v)
    a, b, c = sorted(vals)
    if c == 0.0:
        raise DomainError("rg requires at least one positive argument")
    return _rg(a, b, c)


def _rg(a: float, b: float, c: float) -> float:
    """rg at checked arguments a <= b <= c, c > 0: 2 RG = c RF - (c-a)(c-b)/3 RD
    + sqrt(ab/c) (DLMF 19.21.10), RF and RD from one duplication run."""
    if b == 0.0:
        return math.sqrt(c) / 2.0
    try:
        rf_v, rd_v = _rf_rd_core(a, b, c)
    except ArithmeticError as exc:
        raise _range_error("rg", exc) from exc
    if not _MIN_NORMAL <= rd_v <= sys.float_info.max:
        raise _range_error("rg", f"rd value {rd_v!r} is outside the normal range")
    two_rg = c * rf_v - (c - a) * (c - b) / 3.0 * rd_v + math.sqrt(a * b / c)
    if not math.isfinite(two_rg):
        raise _range_error("rg", f"three-term sum is {two_rg!r}")
    return two_rg / 2.0


def r_minus1(x: float, y: float, z: float) -> float:
    """Auxiliary integral of (t+x)^-1/2 (t+y)^-1/2 (t+z)^-1 over t >= 0."""
    for name, v in (("x", x), ("y", y), ("z", z)):
        if _as_finite(name, v) <= 0.0:
            raise DomainError(f"r_minus1 requires positive arguments, got {name}={v}")
    try:
        sxy = math.sqrt(x * y)
        s = math.sqrt(x) + math.sqrt(y)
        value = 2.0 * rc((sxy + z) ** 2, s * s * z)
    except (ArithmeticError, DomainError) as exc:
        raise _range_error("r_minus1", exc) from exc
    if not math.isfinite(value):
        raise _range_error("r_minus1", f"value is {value!r}")
    return value


def agm(u: float, v: float) -> float:
    """Gauss's arithmetic-geometric mean; relative error <= 1e-14."""
    u = _as_finite("u", u)
    v = _as_finite("v", v)
    if u <= 0.0 or v <= 0.0:
        raise DomainError(f"agm requires positive arguments, got ({u}, {v})")
    a, g = (u, v) if u >= v else (v, u)
    for _ in range(64):
        if a - g <= 4.0 * _EPS * a:
            break
        a, g = 0.5 * (a + g), math.sqrt(a * g)
    return 0.5 * (a + g)


def legendre_k(k: float) -> float:
    """Complete elliptic integral of the first kind, k in [0, 1)."""
    k = _as_finite("k", k)
    if not 0.0 <= k < 1.0:
        raise DomainError(f"legendre_k requires 0 <= k < 1, got {k}")
    # (1-k)(1+k) rounds to at most 1, so the arguments are in order
    return _rf_core(0.0, (1.0 - k) * (1.0 + k), 1.0)


def legendre_e(k: float) -> float:
    """Complete elliptic integral of the second kind, k in [0, 1]."""
    k = _as_finite("k", k)
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"legendre_e requires 0 <= k <= 1, got {k}")
    return 2.0 * _rg(0.0, (1.0 - k) * (1.0 + k), 1.0)
