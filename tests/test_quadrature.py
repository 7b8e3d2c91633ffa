import math

import numpy as np
import pytest

from symell import ConvergenceError, DomainError, oracle, oracle_rj_pv, oracle_with_error
from symell import core


def test_unit_values():
    assert oracle("RF", (1, 1, 1)) == pytest.approx(1.0, rel=1e-10)
    assert oracle("RC", (2, 1)) == pytest.approx(math.log(1 + math.sqrt(2)), rel=1e-10)


def test_error_estimate_is_honest():
    v, err = oracle_with_error("RJ", (1, 2, 4, 3))
    assert err < 1e-10 * abs(v)
    assert v == pytest.approx(core.rj(1, 2, 4, 3), rel=1e-9)


def test_unknown_kind():
    with pytest.raises(DomainError):
        oracle("RX", (1, 2))


def test_integrand_underflow_is_typed():
    # (t + x)(t + y)(t + z) underflows to 0 near t = 0
    with pytest.raises(ConvergenceError):
        oracle("RF", (1e-300, 2e-300, 1))
    with pytest.raises(ConvergenceError):
        oracle_rj_pv(1e-300, 2e-300, 1.0, -1.0)


def test_domain_checks():
    with pytest.raises(DomainError):
        oracle("RC", (1, 0))
    with pytest.raises(DomainError):
        oracle("RF", (0, 0, 1))
    with pytest.raises(DomainError):
        oracle("RJ", (1, 2, 3, -1))


def test_scaling_normalization_wide_magnitudes(rng):
    # extreme argument scales must not degrade the quadrature
    for _ in range(40):
        s = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        r = 10.0 ** float(rng.uniform(-8, -2))
        x, y, z = s * r * 0.3, s * r, s
        assert oracle("RF", (x, y, z)) == pytest.approx(core.rf(x, y, z), rel=1e-9)
        assert oracle("RD", (x, y, z)) == pytest.approx(core.rd(x, y, z), rel=1e-9)


def test_rg_with_zero_argument():
    assert oracle("RG", (0, 1, 1)) == pytest.approx(math.pi / 4, rel=1e-10)
