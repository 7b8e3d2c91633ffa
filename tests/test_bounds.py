import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symell import DomainError
from symell.bounds import (INEQ_TAGS, THETA_TAGS, arity, bracket, equal_within_band,
                           strictness, theta_of)

wide = st.floats(min_value=1e-6, max_value=1e6)


def test_a5_equality_at_equal_variables():
    br = bracket("A5", 1.0, 4.0, 4.0)
    assert br.lo == br.mid == br.hi == pytest.approx(0.8, rel=1e-15)


def test_a3_solved_factor_closed_form():
    # theta = 1 + 1/(y(y+1)) with y = sqrt(1 + x/t)
    y = math.sqrt(2.0)
    assert theta_of("A3", 1.0, 1.0) == pytest.approx(1.0 + 1.0 / (y * (y + 1.0)), rel=1e-15)
    assert 1.0 < theta_of("A3", 1.0, 1.0) < 1.5


def test_ax_at_t_zero_reduces_to_am_gm():
    br = bracket("AX", 0.0, 1.0, 4.0)
    assert (br.lo, br.mid, br.hi) == (2.0, 2.0, 2.5)


def test_a9_direct_evaluation():
    br = bracket("A9", 1.0, 1.0, 1.0, 1.0)
    assert br.mid == pytest.approx(1.0 - 8.0 ** -0.5, rel=1e-14)
    assert br.lo == pytest.approx(0.6, rel=1e-14)
    assert br.hi == pytest.approx(0.75, rel=1e-14)


def test_a5_solved_factor_limits():
    # theta runs from g (t -> 0) up to a (t -> infinity)
    assert theta_of("A5", 1e-12, 1.0, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-6)
    assert theta_of("A5", 1e12, 1.0, 2.0) == pytest.approx(1.5, rel=1e-6)


def test_a6a_equality_case():
    assert theta_of("A6a", 2.5, 3.0, 3.0) == pytest.approx(1.0, abs=4 * math.ulp(1.0))


def test_a8_window():
    th = theta_of("A8", 1.0, 1.0, 2.0, 3.0)
    a, g = 1.5, math.sqrt(2.0)
    assert 1.0 < th < a / g + g / 3.0


def test_a3_monotone_in_t():
    x = 3.7
    ts = [10.0 ** (0.5 * k - 6.0) for k in range(25)]
    thetas = [theta_of("A3", t, x) for t in ts]
    assert all(a < b for a, b in zip(thetas, thetas[1:]))
    assert thetas[0] > 1.0 and thetas[-1] < 1.5


def test_interchange_symmetry():
    assert bracket("A1", 2.0, 5.0) == bracket("A2", 5.0, 2.0)
    assert theta_of("A3", 2.0, 5.0) == theta_of("A4", 5.0, 2.0)


def test_az_implies_a10_endpoints(rng):
    # direct substitution: AZ's endpoints are (t+g)^{3/2} and
    # (g/h)^{3/2}(t+h)^{3/2}, and the A10 bounds built from the same g, h
    # must order consistently on the same tuples
    for _ in range(500):
        t, x, y, z = np.exp(rng.uniform(-6, 6, 4) * np.log(10))
        az = bracket("AZ", t, x, y, z)
        a10 = bracket("A10", t, x, y, z)
        g = (x * y * z) ** (1.0 / 3.0)
        h = 3.0 / (1.0 / x + 1.0 / y + 1.0 / z)
        assert az.lo == pytest.approx((t + g) ** 1.5, rel=5e-13)
        assert az.hi == pytest.approx((g / h) ** 1.5 * (t + h) ** 1.5, rel=5e-13)
        assert a10.lo == pytest.approx(t / (g ** 1.5 * (t + g)), rel=5e-13)
        assert a10.hi == pytest.approx(1.5 * t / (g ** 1.5 * (t + h)), rel=5e-13)
        band = 4 * math.ulp(max(a10.lo, a10.mid, a10.hi))
        assert a10.lo <= a10.mid + band <= a10.hi + 2 * band


@pytest.mark.parametrize("tag", INEQ_TAGS)
def test_ordering_fuzz(tag, rng):
    n = arity(tag)
    strict_lo, strict_hi = strictness(tag)
    for i in range(3000):
        vals = list(np.exp(rng.uniform(-6, 6, n) * np.log(10)))
        if i % 7 == 6 and n >= 3:
            vals[2] = vals[1]  # equality probes
        br = bracket(tag, *vals)
        band = 4 * math.ulp(max(abs(br.lo), abs(br.mid), abs(br.hi)))
        assert br.lo <= br.mid + band, (tag, vals)
        assert br.mid <= br.hi + band, (tag, vals)
        if i % 7 != 6:
            if strict_lo and not equal_within_band(br.lo, br.mid):
                assert br.lo < br.mid, (tag, vals)
            if strict_hi and not equal_within_band(br.mid, br.hi):
                assert br.mid < br.hi, (tag, vals)


@pytest.mark.parametrize("tag", THETA_TAGS)
def test_theta_within_stated_window(tag, rng):
    for _ in range(2000):
        n = arity(tag)
        t, *vals = np.exp(rng.uniform(-6, 6, n) * np.log(10))
        th = theta_of(tag, t, *vals)
        if tag in ("A3", "A4"):
            lo, hi = 1.0, 1.5
        elif tag == "A5":
            lo, hi = math.sqrt(vals[0] * vals[1]), (vals[0] + vals[1]) / 2.0
        elif tag == "A6a":
            lo, hi = 1.0, (vals[0] + vals[1]) / (2.0 * math.sqrt(vals[0] * vals[1]))
        elif tag == "A7":
            lo, hi = 1.0, 1.0 + vals[1] / (2.0 * vals[0])
        else:  # A8
            a, g = (vals[0] + vals[1]) / 2.0, math.sqrt(vals[0] * vals[1])
            lo, hi = 1.0, a / g + g / vals[2]
        band = 4 * math.ulp(max(abs(lo), abs(hi), abs(th)))
        assert lo - band <= th <= hi + band, (tag, t, vals, th)


@given(t=wide, x=wide)
@settings(max_examples=300, deadline=None)
def test_a1_bracket_property(t, x):
    br = bracket("A1", t, x)
    band = 4 * math.ulp(max(abs(br.lo), abs(br.mid), abs(br.hi)))
    assert br.lo <= br.mid + band <= br.hi + 2 * band


def test_domain_errors():
    with pytest.raises(DomainError):
        bracket("A1", 0.0, 1.0)  # t must be positive here
    with pytest.raises(DomainError):
        bracket("AX", -1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        bracket("A5", 1.0, 1.0)  # wrong arity
    with pytest.raises(DomainError):
        theta_of("A1", 1.0, 1.0)  # no equality form
    with pytest.raises(DomainError):
        bracket("B7", 1.0, 1.0)
