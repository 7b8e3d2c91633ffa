"""Reference evaluators for the symmetric elliptic integrals.

The integrals handled here are the homogeneous symmetric forms

    rf(x, y, z)      first kind,       degree -1/2
    rd(x, y, z)      second kind,      degree -3/2, symmetric in (x, y)
    rj(x, y, z, p)   third kind,       degree -3/2
    rg(x, y, z)      second kind,      degree +1/2, fully symmetric
    rc(x, y)         degenerate rf(x, y, y), elementary closed forms

plus the auxiliary function r_minus1, Gauss's arithmetic-geometric mean,
and Legendre's complete integrals K and E.  At a negative last argument rc
and rj return their Cauchy principal values, as Carlson defines them
(arXiv:math/9409227) and as scipy's elliprc and elliprj do.

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

The complete integrals (rf and rg with one zero argument, K, E, agm, and
the complete terms of asym's cases) take one arithmetic-geometric-mean
run: with M the mean of sqrt(z) and sqrt(y), RF(0, y, z) = pi/(2M) and
RG(0, y, z) = pi/(4M) (a1**2 - sum_{n>=2} 2**(n-1) c_n**2) (DLMF 19.8(i),
19.22; Carlson, arXiv:math/9409227).  The run is scaled by a power of two
and its iterates stay normal floats, so it cannot overflow or underflow.

All functions return plain finite floats and raise
:class:`~symell.errors.DomainError` on invalid input: each reference
evaluator checks its arguments by the rule of its row of
``_util.KIND_TABLE``, the one place each domain is written, and r_minus1
and agm by ``_util.positive``, so the dispatcher and the quadrature oracle
refuse an argument with the same text.  A reference evaluator ``name`` is
that rule followed by one call to its checked body ``_name_body``, which
takes the floats the rule returns; the dispatcher has checked a request by
the same rule when it was built, so its reference and closed-form answers
call the bodies, as do asym's case terms at arguments their gates have
checked.  Where float64
overflows or underflows inside rf, rd, rj, rg, rc's principal value or
r_minus1 (arguments near the ends of the range, where an inner call may get
arguments outside its own domain), or rc's principal value or agm would
return a value below the normal range (it is exactly 0 only at x = 0) or
rd and rj one outside it, they raise
:class:`~symell.errors.ConvergenceError` instead of hanging, leaking an
arithmetic exception or an inner call's DomainError, or returning 0, inf or NaN.
"""

from __future__ import annotations

import math
import sys

from ._util import e_rule, k_rule, positive, rc_rule, rd_rule, rg_rule, rj_rule, xyz_rule
from .errors import ConvergenceError, DomainError

__all__ = [
    "rc",
    "rf",
    "rd",
    "rj",
    "rg",
    "r_minus1",
    "agm",
    "legendre_k",
    "legendre_e",
]

_EPS = sys.float_info.epsilon
_MIN_NORMAL = sys.float_info.min


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
    """Degenerate integral rf(x, y, y), y > 0, by closed forms; at y < 0
    its Cauchy principal value sqrt(x/(x-y)) rc(x-y, -y), 0.0 only at x = 0.

    Inverse-circular branch for x < y, inverse-hyperbolic for x > y,
    x**-0.5 on the diagonal, and a short series just off the diagonal.
    Relative error <= 1e-13 everywhere.
    """
    return _rc_body(*rc_rule("rc", (x, y)))


def _rc_body(x: float, y: float) -> float:
    """rc at checked arguments: finite x >= 0 and y != 0."""
    if y > 0.0:
        return _rc(x, y)
    if x == 0.0:
        return 0.0
    y_abs = -y
    q = x / (x + y_abs)
    # a quotient below the normal range has lost digits; the square roots have not
    r = math.sqrt(q) if q >= _MIN_NORMAL else math.sqrt(x) / math.sqrt(x + y_abs)
    try:
        value = r * rc(x + y_abs, y_abs)
    except DomainError as exc:  # x + y_abs overflows
        raise _range_error("rc", exc) from exc
    if not value >= _MIN_NORMAL:
        raise _range_error("rc", f"value {value!r} is below the normal range")
    return value


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
    q = (math.sqrt(x) + math.sqrt(d)) / math.sqrt(y)
    if q == math.inf:  # x/y past float64: the log of the quotient as a difference
        return (math.log(math.sqrt(x) + math.sqrt(d)) - 0.5 * math.log(y)) / math.sqrt(d)
    return math.log(q) / math.sqrt(d)


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
            raise _range_error("rj", f"1 + em = {yc!r} is not a positive finite float")
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
# complete integrals: one arithmetic-geometric-mean run
# --------------------------------------------------------------------------

# stop at c_n <= _AGM_TOL * a_n: the mean is then within eps/16 of a_n
_AGM_TOL = 2.0 ** -27


def _agm_run(a0: float, g0: float) -> tuple[float, float, float, int]:
    """(a1, M, S, e) for a0, g0 > 0: a1 = (a0 + g0)/2, the mean M and
    S = sum_{n>=2} 2**(n-1) c_n**2, scaled by 2**-e (S by 4**-e) so that
    a1 lies in [0.5, 1).  The iterates stay normal while sqrt(a0)*sqrt(g0)
    and sqrt(g0/a0) are, as at a0 = sqrt(z), g0 = sqrt(y)."""
    a1, e = math.frexp(0.5 * a0 + 0.5 * g0)
    a, g = a1, math.ldexp(math.sqrt(a0) * math.sqrt(g0), -e)
    s, w = 0.0, 1.0
    while True:
        c = 0.5 * (a - g)
        a, g = 0.5 * (a + g), math.sqrt(a * g)
        w += w
        s += w * c * c
        if c <= _AGM_TOL * a:
            return a1, a, s, e


def _rf_complete(y: float, z: float) -> float:
    """rf(0, y, z) at positive finite y, z: pi / (2 M(sqrt(z), sqrt(y)))."""
    _, m, _, e = _agm_run(math.sqrt(z), math.sqrt(y))
    return math.ldexp(math.pi / (2.0 * m), -e)


def _rg_complete(y: float, z: float) -> float:
    """rg(0, y, z) at positive finite y, z: pi/(4M) (a1**2 - S)."""
    a1, m, s, e = _agm_run(math.sqrt(z), math.sqrt(y))
    return math.ldexp(math.pi / (4.0 * m) * (a1 * a1 - s), e)


# --------------------------------------------------------------------------
# public evaluators
# --------------------------------------------------------------------------


def rf(x: float, y: float, z: float) -> float:
    """Symmetric integral of the first kind; relative error <= 1e-12."""
    return _rf_body(*xyz_rule("rf", (x, y, z)))


def _rf_body(x: float, y: float, z: float) -> float:
    """rf at checked arguments: finite x, y, z >= 0, at most one of them 0."""
    a, b, c = sorted((x, y, z))
    if a == 0.0:
        return _rf_complete(b, c)
    try:
        return _rf_core(a, b, c)
    except ArithmeticError as exc:
        raise _range_error("rf", exc) from exc


def rd(x: float, y: float, z: float) -> float:
    """Symmetric integral of the second kind, symmetric in (x, y); z > 0."""
    return _rd_body(*rd_rule("rd", (x, y, z)))


def _rd_body(x: float, y: float, z: float) -> float:
    """rd at checked arguments: finite x, y >= 0, not both 0, and z > 0."""
    a, b = sorted((x, y))
    try:
        value = _rd_core(a, b, z)
    except ArithmeticError as exc:
        raise _range_error("rd", exc) from exc
    if not _MIN_NORMAL <= value <= sys.float_info.max:
        raise _range_error("rd", f"value {value!r} is outside the normal range")
    return value


def rj(x: float, y: float, z: float, p: float) -> float:
    """Symmetric integral of the third kind; at p < 0 its Cauchy principal
    value, which needs x, y, z > 0.

    Delegates exactly to rd when p coincides with one of x, y, z.
    """
    return _rj_body(*rj_rule("rj", (x, y, z, p)))


def _rj_body(x: float, y: float, z: float, p: float) -> float:
    """rj at checked arguments: finite x, y, z >= 0, at most one of them 0,
    and p != 0, with x, y, z > 0 at p < 0."""
    if p < 0.0:
        return _rj_principal(x, y, z, p)
    a, b, c = sorted((x, y, z))
    # p equal to one of them is an rd whose arguments the rule has checked
    try:
        if p == c:
            return _rd_body(a, b, c)
        if p == b:
            return _rd_body(a, c, b)
        if p == a:
            return _rd_body(b, c, a)
    except ConvergenceError as exc:
        raise _range_error("rj", exc) from exc
    try:
        value = _rj_core(a, b, c, p)
    except ArithmeticError as exc:  # its own range errors name rj already
        raise _range_error("rj", exc) from exc
    if not _MIN_NORMAL <= value <= sys.float_info.max:
        raise _range_error("rj", f"value {value!r} is outside the normal range")
    return value


def _rj_principal(x: float, y: float, z: float, p: float) -> float:
    """rj's Cauchy principal value at checked arguments with p < 0.

    The arguments are permuted so the middle one sits in the y slot, which
    makes (z-y)(y-x) >= 0 and hence q >= y > 0 in the shifted evaluation.
    """
    lo, med, hi = sorted((x, y, z))
    pabs = -p
    try:
        q = med + (hi - med) * (med - lo) / (med + pabs)
        u = lo * hi + pabs * q
        term = 3.0 * math.sqrt(lo * med * hi / u) * rc(u, pabs * q)
        rf3 = 3.0 * rf(lo, med, hi)
    except (ArithmeticError, DomainError, ConvergenceError) as exc:
        raise _range_error("rj", exc) from exc
    # rc has refused a q that is not finite, so the inner rj, at q >= med > 0,
    # raises only its own range errors, which name rj already
    value = ((q - med) * rj(lo, med, hi, q) - rf3 + term) / (med + pabs)
    if not math.isfinite(value):
        raise _range_error("rj", f"value is {value!r}")
    return value


def rg(x: float, y: float, z: float) -> float:
    """Completely symmetric integral of the second kind, degree +1/2.

    Evaluated through RF and RD with the largest argument in the RD z
    slot, which keeps the subtracted term single-signed, and with one zero
    argument by the AGM.  Two zero arguments are allowed: rg(0, 0, z) =
    sqrt(z)/2 is the finite limit.
    """
    return _rg_body(*rg_rule("rg", (x, y, z)))


def _rg_body(x: float, y: float, z: float) -> float:
    """rg at checked arguments: finite x, y, z >= 0, not all 0."""
    return _rg(*sorted((x, y, z)))


def _rg(a: float, b: float, c: float) -> float:
    """rg at checked arguments a <= b <= c, c > 0: 2 RG = c RF - (c-a)(c-b)/3 RD
    + sqrt(ab/c) (DLMF 19.21.10), RF and RD from one duplication run."""
    if b == 0.0:
        return math.sqrt(c) / 2.0
    if a == 0.0:
        return _rg_complete(b, c)
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
    x, y, z = positive("r_minus1", (x, y, z))
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
    """Gauss's arithmetic-geometric mean; relative error <= 1e-14, and
    ConvergenceError below the normal range."""
    u, v = positive("agm", (u, v))
    # scaled up below 1, the first step taken here stays normal and leaves
    # the run a g0/a0 >= 3e-316
    k = min(math.frexp(max(u, v))[1], 0)
    u, v = math.ldexp(u, -k), math.ldexp(v, -k)
    _, m, _, e = _agm_run(0.5 * u + 0.5 * v, math.sqrt(u) * math.sqrt(v))
    value = math.ldexp(m, e + k)
    if value < _MIN_NORMAL:
        raise _range_error("agm", f"value {value!r} is below the normal range")
    return value


def legendre_k(k: float) -> float:
    """Complete elliptic integral of the first kind, k in [0, 1)."""
    return _legendre_k_body(*k_rule("legendre_k", (k,)))


def _legendre_k_body(k: float) -> float:
    """legendre_k at a checked k: finite, in [0, 1)."""
    return _rf_complete((1.0 - k) * (1.0 + k), 1.0)


def legendre_e(k: float) -> float:
    """Complete elliptic integral of the second kind, k in [0, 1]."""
    return _legendre_e_body(*e_rule("legendre_e", (k,)))


def _legendre_e_body(k: float) -> float:
    """legendre_e at a checked k: finite, in [0, 1]."""
    return 2.0 * _rg(0.0, (1.0 - k) * (1.0 + k), 1.0)
