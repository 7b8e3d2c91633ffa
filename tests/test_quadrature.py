import math

import mpmath as mp
import numpy as np
import pytest

from symell import ConvergenceError, DomainError, oracle, oracle_rj_pv, oracle_with_error
from symell import core, harness, quadrature
from symell.asym import CASE_TAGS
from symell.quadrature import oracle_batch


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


# --------------------------------------------------------------------------
# the batched fixed-node rule and its quad fallback
# --------------------------------------------------------------------------

_MP_REF = {
    "RC": mp.elliprc,
    "RF": mp.elliprf,
    "RD": mp.elliprd,
    "RJ": mp.elliprj,
    "RG": mp.elliprg,
    # Rm1(x, y, z) = 2 RC((sqrt(xy) + z)^2, (sqrt(x) + sqrt(y))^2 z)
    "Rm1": lambda x, y, z: 2 * mp.elliprc((mp.sqrt(x * y) + z) ** 2,
                                          (mp.sqrt(x) + mp.sqrt(y)) ** 2 * z),
}


def _mp_value(kind, args):
    with mp.workdps(40):
        return float(_MP_REF[kind](*(mp.mpf(a) for a in args)))


@pytest.fixture
def count_quad(monkeypatch):
    """Number of scipy quad calls made by the oracle so far."""
    calls = []
    real = quadrature.quad

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "quad", counting)
    return lambda: len(calls)


def _campaign_rows():
    """Two seeded rows per case and default ratio, grouped by oracle kind,
    plus log-kernel Rm1 rows."""
    rows = {}
    for index, tag in enumerate(CASE_TAGS):
        for ri, ratio in enumerate(harness._DEFAULT_RATIOS):
            rng = np.random.default_rng([5, index, ri])
            for _ in range(2):
                kind, args, _ = harness._kind_route(tag, harness.sample_args(tag, ratio, rng))
                rows.setdefault(kind, []).append(args)
    rng = np.random.default_rng(6)
    for _ in range(20):
        z = harness._lu(rng, 1e-3, 1e3)
        s = 0.01 * z * harness._lu(rng, 1e-4, 1.0)
        x = s * harness._lu(rng, 0.01, 1.0)
        rows.setdefault("Rm1", []).append((x, s - x if s > x else 0.5 * s, z))
    return rows


def test_batch_error_estimate_is_honest(count_quad):
    rows = _campaign_rows()
    assert set(rows) == set(quadrature.KINDS)
    for kind, batch in rows.items():
        for args, (value, err) in zip(batch, oracle_batch(kind, batch)):
            true = _mp_value(kind, args)
            assert abs(value - true) <= max(4.0 * err, 2e-13 * abs(value)), (kind, args)
            assert err <= 1e-10 * abs(value)
    # the campaign rows never need the fallback
    assert count_quad() == 0


def test_batch_rows_equal_one_row_calls():
    rows = _campaign_rows()["RJ"]
    batch = oracle_batch("RJ", rows)
    assert batch == [oracle_with_error("RJ", args) for args in rows]
    assert oracle_batch("RF", [(1.0, 2.0, 4.0)]) == [oracle_with_error("RF", (1, 2, 4))]
    assert oracle_batch("RF", []) == []


def test_forced_fallback_takes_quad(count_quad):
    # the pole of (t + p) at p = 1e-30 is too sharp for the fixed panels
    value, err = oracle_with_error("RJ", (1.0, 2.0, 3.0, 1e-30))
    assert count_quad() > 0
    assert abs(value - _mp_value("RJ", (1.0, 2.0, 3.0, 1e-30))) <= max(4.0 * err, 2e-13 * value)
    before = count_quad()
    oracle_with_error("RJ", (1.0, 2.0, 3.0, 1e-3))
    assert count_quad() == before


def test_batch_mixes_fine_and_fallback_rows(count_quad):
    rows = [(1.0, 2.0, 4.0, 3.0), (1.0, 2.0, 3.0, 1e-30), (1e-3, 2.0, 5.0, 7.0)]
    batch = oracle_batch("RJ", rows)
    assert count_quad() > 0
    assert batch == [oracle_with_error("RJ", args) for args in rows]


def test_batch_with_failing_row_raises():
    with pytest.raises(ConvergenceError):
        oracle_batch("RF", [(1.0, 2.0, 4.0), (1e-300, 2e-300, 1.0), (3.0, 2.0, 1.0)])
    # every row is checked before any is integrated
    with pytest.raises(DomainError):
        oracle_batch("RF", [(1e-300, 2e-300, 1.0), (0.0, 0.0, 1.0)])
    with pytest.raises(DomainError):
        oracle_batch("RF", [(1.0, 2.0, math.inf)])
