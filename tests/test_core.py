import hashlib
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import elliprc, elliprj

from symell import (
    ConvergenceError,
    DomainError,
    agm,
    core,
    legendre_e,
    legendre_k,
    r_minus1,
    rc,
    rd,
    rf,
    rg,
    rj,
)
from symell._util import KIND_TABLE
from symell.quadrature import oracle_batch

mp.mp.dps = 30

positive = st.floats(min_value=1e-3, max_value=1e3)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def mp_rc(x, y):
    """High-precision closed forms: the inverse-circular / hyperbolic branches."""
    x, y = mp.mpf(x), mp.mpf(y)
    if x == y:
        return 1 / mp.sqrt(x)
    if x < y:
        return mp.acos(mp.sqrt(x / y)) / mp.sqrt(y - x)
    return mp.log((mp.sqrt(x) + mp.sqrt(x - y)) / mp.sqrt(y)) / mp.sqrt(x - y)


class TestRC:
    def test_diagonal(self):
        assert rc(1.0, 1.0) == 1.0
        assert rel(rc(4.0, 4.0), 0.5) < 1e-15

    @pytest.mark.parametrize("y", [5e-324, 1e-320, 2.5e-318])
    def test_subnormal_diagonal(self, y):
        # the series cut 1e-6 y underflows to 0 here; this was a bare
        # ZeroDivisionError
        assert rc(y, y) == 1.0 / math.sqrt(y)

    def test_zero_first_argument(self):
        assert rc(0.0, 1.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_circular_branch(self):
        # acos(sqrt(1/2))/sqrt(1) = pi/4
        assert rc(1.0, 2.0) == pytest.approx(math.pi / 4, rel=1e-14)

    def test_hyperbolic_branch(self):
        assert rc(2.0, 1.0) == pytest.approx(math.log(1 + math.sqrt(2)), rel=1e-14)

    def test_matches_high_precision_closed_forms(self, rng):
        for _ in range(2000):
            x = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            y = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            assert rel(rc(x, y), float(mp_rc(x, y))) < 1e-13

    def test_near_diagonal_series_region(self, rng):
        for _ in range(500):
            y = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            d = float(rng.uniform(-1, 1)) * 10.0 ** float(rng.uniform(-12, -4))
            x = y * (1.0 + d)
            assert rel(rc(x, y), float(mp_rc(x, y))) < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            rc(-1.0, 1.0)
        with pytest.raises(DomainError):
            rc(1.0, 0.0)
        with pytest.raises(DomainError):
            rc(math.inf, 1.0)


class TestRCPrincipalValue:
    def test_zero_numerator(self):
        assert rc(0.0, -1.0) == 0.0

    def test_shifted_form(self):
        expected = math.sqrt(0.5) * rc(2.0, 1.0)
        assert rc(1.0, -1.0) == pytest.approx(expected, rel=1e-15)

    def test_against_principal_value_quadrature(self):
        # symmetric-interval principal value of (1/2)(t+4)^(-1/2)(t-4)^(-1)
        def g(t):
            return 0.5 / math.sqrt(t + 4.0)

        head = quad(g, 0.0, 8.0, weight="cauchy", wvar=4.0,
                    epsabs=0.0, epsrel=1e-12, limit=300)[0]
        tail = quad(lambda t: g(t) / (t - 4.0), 8.0, np.inf,
                    epsabs=1e-14, epsrel=1e-12, limit=300)[0]
        assert rc(4.0, -4.0) == pytest.approx(head + tail, rel=1e-10)

    def test_domain(self):
        # a negative y is the principal value, no longer a refusal
        assert rc(1.0, -1.0) == pytest.approx(float(elliprc(1.0, -1.0)), rel=1e-13)
        with pytest.raises(DomainError):
            rc(-1.0, -1.0)
        with pytest.raises(DomainError):
            rc(1.0, -0.0)


class TestRF:
    def test_equal_arguments(self):
        assert rf(1.0, 1.0, 1.0) == 1.0

    def test_one_zero(self):
        assert rf(0.0, 1.0, 1.0) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_reduction_to_rc(self):
        assert rf(0.01, 0.01, 1.0) == pytest.approx(rc(1.0, 0.01), rel=1e-13)

    def test_against_quadrature(self):
        assert rf(1.0, 2.0, 4.0) == pytest.approx(
            oracle_batch("RF", [(1, 2, 4)])[0][0], rel=1e-10)

    def test_two_zeros_rejected(self):
        with pytest.raises(DomainError):
            rf(0.0, 0.0, 1.0)

    @given(x=positive, y=positive, z=positive)
    @settings(max_examples=200, deadline=None)
    def test_permutations_bit_identical(self, x, y, z):
        v = rf(x, y, z)
        assert all(
            rf(*p) == v
            for p in [(x, z, y), (y, x, z), (y, z, x), (z, x, y), (z, y, x)]
        )

    @given(x=positive, y=positive, z=positive, k=st.integers(-4, 4))
    @settings(max_examples=200, deadline=None)
    def test_power_of_four_scaling_exact(self, x, y, z, k):
        lam = 4.0 ** k
        assert rf(lam * x, lam * y, lam * z) == 2.0 ** -k * rf(x, y, z)


class TestRD:
    def test_equal_arguments(self):
        assert rd(1.0, 1.0, 1.0) == 1.0

    def test_beta_integral_value(self):
        # (3/2) * B(1/2, 3/2) = 3 pi / 4
        assert rd(0.0, 1.0, 1.0) == pytest.approx(0.75 * math.pi, rel=1e-13)

    def test_against_quadrature(self):
        assert rd(0.0, 2.0, 1.0) == pytest.approx(
            oracle_batch("RD", [(0, 2, 1)])[0][0], rel=1e-10)

    def test_swap_symmetry(self, rng):
        for _ in range(100):
            x, y, z = np.exp(rng.uniform(-3, 3, 3) * np.log(10))
            assert rd(x, y, z) == rd(y, x, z)

    def test_domain(self):
        with pytest.raises(DomainError):
            rd(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            rd(0.0, 0.0, 1.0)


class TestRJ:
    def test_equal_arguments(self):
        assert rj(1.0, 1.0, 1.0, 1.0) == 1.0

    def test_reduces_to_rd(self):
        assert rj(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.75 * math.pi, rel=1e-13)

    def test_against_quadrature(self):
        assert rj(1.0, 2.0, 4.0, 3.0) == pytest.approx(
            oracle_batch("RJ", [(1, 2, 4, 3)])[0][0], rel=1e-9)

    def test_p_equal_argument_delegates_exactly(self, rng):
        for _ in range(50):
            x, y, z = np.exp(rng.uniform(-3, 3, 3) * np.log(10))
            assert rj(x, y, z, z) == rd(x, y, z)
            assert rj(x, y, z, x) == rd(y, z, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            rj(1.0, 2.0, 3.0, 0.0)
        # a negative p is the principal value, no longer a refusal
        assert rj(1.0, 2.0, 3.0, -1.0) == pytest.approx(
            float(elliprj(1.0, 2.0, 3.0, -1.0)), rel=1e-12)


class TestRJPrincipalValue:
    def test_equal_arguments(self):
        # q = y makes the first right-side term vanish
        expected = (-3.0 * rf(1, 1, 1)
                    + 3.0 * math.sqrt(1.0 / 1.5) * rc(1.5, 0.5)) / 1.5
        assert rj(1.0, 1.0, 1.0, -0.5) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(-0.128, abs=5e-4)

    def test_against_principal_value_quadrature(self):
        # an RJpv row carries q = -p
        assert rj(1.0, 2.0, 4.0, -1.0) == pytest.approx(
            oracle_batch("RJpv", [(1.0, 2.0, 4.0, 1.0)])[0][0], rel=1e-10)

    def test_fuzz_against_quadrature(self, rng):
        rows = []
        for _ in range(25):
            x, y, z = np.exp(rng.uniform(-1, 1, 3) * np.log(10))
            p = -float(np.exp(rng.uniform(-1, 1) * np.log(10)))
            rows.append((x, y, z, p))
        quads = oracle_batch("RJpv", [(x, y, z, -p) for x, y, z, p in rows])
        for (x, y, z, p), (value, _) in zip(rows, quads):
            assert rj(x, y, z, p) == pytest.approx(value, rel=1e-10)

    def test_domain(self):
        # rj's own check accepts one zero argument; the principal value does not
        with pytest.raises(DomainError, match=r"^rj requires p != 0, and x, y, z > 0 at p < 0, "
                                              r"got \(0\.0, 1\.0, 1\.0, -1\.0\)$"):
            rj(0.0, 1.0, 1.0, -1.0)


class TestRG:
    def test_equal_arguments(self):
        assert rg(1.0, 1.0, 1.0) == 1.0

    def test_complete_value(self):
        assert rg(0.0, 1.0, 1.0) == pytest.approx(math.pi / 4, rel=1e-14)
        assert rg(1.0, 1.0, 0.0) == pytest.approx(math.pi / 4, rel=1e-14)

    def test_against_quadrature(self):
        assert rg(1.0, 2.0, 4.0) == pytest.approx(
            oracle_batch("RG", [(1, 2, 4)])[0][0], rel=1e-10)

    def test_two_zero_limit(self):
        assert rg(0.0, 0.0, 4.0) == 1.0

    @given(x=positive, y=positive, z=positive)
    @settings(max_examples=100, deadline=None)
    def test_permutations_bit_identical(self, x, y, z):
        v = rg(x, y, z)
        assert rg(z, y, x) == v and rg(y, z, x) == v


class TestAuxiliary:
    def test_r_minus1_unit(self):
        assert r_minus1(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_r_minus1_equal_arguments(self, rng):
        for _ in range(50):
            x = float(np.exp(rng.uniform(-3, 3) * np.log(10)))
            assert r_minus1(x, x, x) == pytest.approx(1.0 / x, rel=1e-13)

    def test_r_minus1_against_quadrature(self):
        assert r_minus1(1.0, 4.0, 2.0) == pytest.approx(
            oracle_batch("Rm1", [(1, 4, 2)])[0][0], rel=1e-10)

    def test_agm_fixed_point(self):
        assert agm(1.0, 1.0) == 1.0

    def test_agm_one_step_invariance(self, rng):
        for _ in range(200):
            u, v = np.exp(rng.uniform(-6, 6, 2) * np.log(10))
            a = agm(u, v)
            b = agm((u + v) / 2.0, math.sqrt(u * v))
            assert rel(a, b) < 5e-16 or a == b

    def test_agm_links_to_complete_rf(self):
        lhs = math.pi / (2.0 * agm(1.0, math.sqrt(2.0)))
        assert lhs == pytest.approx(rf(0.0, 1.0, 2.0), rel=1e-12)
        assert lhs == pytest.approx(
            oracle_batch("RF", [(0, 1, 2)])[0][0], rel=1e-10)

    def test_legendre_endpoints(self):
        assert legendre_k(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert legendre_e(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert legendre_e(1.0) == 1.0

    def test_legendre_difference_identity(self):
        k = 0.8
        lhs = legendre_k(k) - legendre_e(k)
        rhs = k * k / 3.0 * rd(0.0, 1.0 - k * k, 1.0)
        assert rel(lhs, rhs) < 1e-12

    @pytest.mark.parametrize("kp", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-15])
    def test_legendre_near_one(self, kp):
        # 1 - k*k lost digits as k -> 1: K(1 - 1e-8) was 2.7e-11 off
        k = 1.0 - kp
        with mp.workdps(40):
            m = mp.mpf(k) ** 2
            assert rel(legendre_k(k), mp.ellipk(m)) <= 1e-12
            assert rel(legendre_e(k), mp.ellipe(m)) <= 1e-12

    def test_legendre_domain(self):
        with pytest.raises(DomainError):
            legendre_k(1.0)
        with pytest.raises(DomainError):
            legendre_e(1.5)


class TestArgumentTypes:
    def test_rf_rejects_two_zeros(self):
        with pytest.raises(DomainError, match=r"^rf requires x, y, z >= 0, at most one of them 0, "
                                              r"got \(0\.0, 0\.0, 1\.0\)$"):
            rf(0, 0, 1)

    def test_rj_rejects_zero_p(self):
        with pytest.raises(DomainError, match=r"^rj requires p != 0, and x, y, z > 0 at p < 0, "
                                              r"got \(1\.0, 2\.0, 3\.0, 0\.0\)$"):
            rj(1, 2, 3, 0)

    def test_checks_keep_their_order(self):
        # finiteness first, then x, y, z (signs and the zero count), then p
        with pytest.raises(DomainError, match="^rj: got nan, not a finite number$"):
            rj(-1.0, math.nan, 0.0, 0.0)
        with pytest.raises(DomainError, match="^rj requires x, y, z >= 0"):
            rj(-1.0, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError, match="^rj requires x, y, z >= 0"):
            rj(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError, match="^rj: got inf, not a finite number$"):
            rj(1.0, 2.0, 3.0, math.inf)


_CALL = """
from symell import core
try:
    print(repr(core.{call}))
except Exception as exc:
    print(type(exc).__name__)
"""


class TestFloat64Extremes:
    """Near the ends of float64 the duplication cores raise ConvergenceError.

    Each call runs in a child with a time limit, because a loop that never
    ends is one way to fail.  In the first three the argument mean or the
    stopping threshold overflows, in the next two a divisor underflows to
    zero, the sixth needs more than the step cap, and in the last two rj's
    (p-x)(p-y)(p-z) overflows.  (rf and rg with a zero argument take the
    AGM run, which stays in range; tests/test_wide_range.py judges them at
    the ends of float64.)
    """

    @pytest.mark.parametrize("call", [
        "rf(1e308, 1.7e308, 1.5e308)",
        "rd(1e308, 1e308, 1e308)",
        "rg(5e-324, 5e-324, 1e307)",
        "rd(5e-324, 1e-320, 1e-320)",
        "rj(1e-320, 2e-320, 1.0, 3e-320)",
        "rj(1e-90, 1e-270, 1e-200, 1e-30)",
        "rj(1e200, 1e201, 1e202, 1e-200)",
        "rj(1e300, 2e300, 3e300, 1e-300)",
    ])
    def test_convergence_error(self, spawn, call):
        res = spawn("-c", _CALL.format(call=call), timeout=30)
        assert res.stdout.strip() == "ConvergenceError", res.stderr


class TestValueRange:
    """rd and rj refuse a value outside the normal float64 range, and rg a
    three-term sum that is not finite, instead of returning 0, inf, -inf or NaN."""

    @pytest.mark.parametrize("fn,args", [
        (rd, (1e-320, 1e-300, 1e300)),       # true value about 2e-447
        (rj, (1e300, 2e-300, 0.0, 1e300)),   # through rd: p equals z
        (rg, (5e-324, 2e300, 2e-300)),       # was NaN; mpmath gives 7.07e149
        (rg, (1.0, 2.0, 1e200)),             # was -inf; mpmath gives 5e99
        # was inf; mpmath gives 4.30e313
        (rd, (9.513233213501431e-257, 3.3959025741232045e-104, 1.5084659262934478e-267)),
        (rj, (790922910312.0035, 5e-324, 0.0, 5e-324)),   # was inf, through rd: p equals y
        (rg, (5e-324, 5e-324, 1e307)),       # the argument spread overflows
    ])
    def test_convergence_error(self, fn, args):
        # rj's rows fail inside its delegation to rd, and rg's inside its
        # duplication run; each names the function that was called
        with pytest.raises(ConvergenceError, match=f"^{fn.__name__}:"):
            fn(*args)

    @pytest.mark.parametrize("args, text", [
        # _rj_core's own refusal already names rj; it was wrapped a second time
        ((1e-90, 1e-270, 1e-200, 1e-30),
         "rj: float64 range exceeded (no convergence in 100 duplication steps)"),
        # a refusal of the rd that rj delegates to is wrapped once, naming rj
        ((1e300, 2e-300, 0.0, 1e300),
         "rj: float64 range exceeded (rd: float64 range exceeded "
         "(value 0.0 is outside the normal range))"),
        # at p < 0 the inner rj's refusal already names rj; it was wrapped again
        ((2.7027341872482865e-280, 1e-310, 3.218908163891085e-80, -3.3040249905512133e+291),
         "rj: float64 range exceeded (rd: float64 range exceeded "
         "(value inf is outside the normal range))"),
    ])
    def test_rj_names_itself_once(self, args, text):
        with pytest.raises(ConvergenceError) as got:
            rj(*args)
        assert str(got.value) == text

    def test_normal_values_kept(self):
        assert rel(rd(1e200, 2e200, 3e200), mp.elliprd(1e200, 2e200, 3e200)) <= 1e-12
        assert rel(rj(1e50, 2e50, 3e50, 4e50),
                   mp.elliprj(1e50, 2e50, 3e50, 4e50)) <= 1e-12
        assert rel(rg(1.0, 2.0, 1e150), mp.elliprg(1.0, 2.0, 1e150)) <= 1e-12


def _core_sweep(rng, n):
    """Rows of four values, log-uniform over 1e-3..1e3, 1e-30..1e30 or
    1e-300..1e300 (one span a row); about one value in eight is zero and one
    in eight repeats a value of its row."""
    for _ in range(n):
        e = (3.0, 30.0, 300.0)[int(rng.integers(3))]
        row = [10.0 ** float(rng.uniform(-e, e)) for _ in range(4)]
        for i in range(4):
            u = rng.random()
            if u < 0.125:
                row[i] = 0.0
            elif u < 0.25:
                row[i] = row[int(rng.integers(4))]
        yield row


def test_answers_are_pinned():
    """A digest of rg, rj, legendre_k and legendre_e on a seeded sweep,
    floats as hex and failures by type: a change to how the duplication
    runs are shared or checked must move no answer.  (Pinned again when the
    complete integrals, K, E and rg with one zero argument, moved to the
    AGM run.)"""
    digest = hashlib.sha256()
    for x, y, z, p in _core_sweep(np.random.default_rng(20), 3000):
        k = x / (x + y) if x + y else 1.0
        for fn, args in ((rg, (x, y, z)), (rj, (x, y, z, p)),
                         (legendre_k, (k,)), (legendre_e, (k,))):
            try:
                got = fn(*args).hex()
            except (ConvergenceError, DomainError) as exc:
                got = type(exc).__name__
            digest.update(f"{fn.__name__}{args!r}={got};".encode())
    assert digest.hexdigest() == "cb0919aa2022bbf47e4bee8468fdc2c5af85a73340ee0dc51aff977fda69e5c1"


def test_principal_values_are_pinned():
    """A digest of rc(x, -|y|) and rj(x, y, z, -|p|) on a seeded sweep, floats
    as hex and failures by type.  Pinned through rc_pv(x, |y|) and
    rj_pv(x, y, z, -|p|) before those two were folded into rc and rj, so
    the fold moved no principal value."""
    digest = hashlib.sha256()
    for x, y, z, p in _core_sweep(np.random.default_rng(21), 3000):
        for name, fn, args in (("rc", rc, (x, -y)), ("rj", rj, (x, y, z, -p))):
            try:
                got = fn(*args).hex()
            except (ConvergenceError, DomainError) as exc:
                got = type(exc).__name__
            digest.update(f"{name}{args!r}={got};".encode())
    assert digest.hexdigest() == "ebe09a933f68cc7cae39a76314962340f0151b35c49e3f4be8fa449df950468f"


def test_principal_values_match_scipy():
    """scipy's elliprc and elliprj take the principal value at a negative
    last argument too, so they are a second judge beside the quadrature
    oracle: on 5,000 rows over 1e-3..1e3, rc within its 1e-13 and rj within
    its 1e-12 (both were about 1e-15).  rj's p stays at or below
    -4 max(x, y, z), away from the principal value's zero, where no relative
    bound holds."""
    rng = np.random.default_rng(22)
    rows = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), (5000, 4))).tolist()
    for x, y, z, w in rows:
        assert rel(rc(x, -y), float(elliprc(x, -y))) <= 1e-13, (x, y)
        p = -4.0 * max(x, y, z) * math.sqrt(w / 1e-3)
        assert rel(rj(x, y, z, p), float(elliprj(x, y, z, p))) <= 1e-12, (x, y, z, p)


def _parity_rows(rng, n, arity):
    """Rows log-uniform over 1e-300..1e300, about 5 % of the values zero,
    subnormal, the least normal or DBL_MAX, and 2 % negated; a modulus v
    becomes v / (1 + v), which fills [0, 1] and takes both ends exactly."""
    rows = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), (n, arity)))
    special = rng.random((n, arity)) < 0.05
    rows[special] = rng.choice([0.0, 5e-324, 2.5e-310, sys.float_info.min,
                                sys.float_info.max], int(special.sum()))
    if arity == 1:
        rows = rows / (1.0 + rows)
    rows[rng.random((n, arity)) < 0.02] *= -1.0
    return rows.tolist()


def _outcome(fn, args):
    try:
        return fn(*args).hex()
    except (ConvergenceError, DomainError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("kind", list(KIND_TABLE))
def test_checked_body_is_the_public_evaluator(kind):
    """A reference evaluator is its kind's rule and then its checked body,
    which the dispatcher calls on a request's checked tuple: at the rule's
    output the body gives the public evaluator's value bit for bit, or the
    same error with the same text."""
    _, name, rule = KIND_TABLE[kind]
    public, body = getattr(core, name), getattr(core, f"_{name}_body")
    values = 0
    for args in _parity_rows(np.random.default_rng(31), 2000, KIND_TABLE[kind].arity):
        try:
            vals = rule(name, tuple(args))
        except DomainError:
            continue
        got = _outcome(body, vals)
        assert got == _outcome(public, args), (name, args)
        values += isinstance(got, str)
    assert values > 100
