import ast
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from symell import ConvergenceError, DomainError
from symell import asym, core, harness, quadrature
from symell.asym import CASE_TAGS
from symell.quadrature import oracle_batch, oracle_with_error


def test_unit_values():
    (rf, _), = oracle_batch("RF", [(1, 1, 1)])
    (rc, _), = oracle_batch("RC", [(2, 1)])
    assert rf == pytest.approx(1.0, rel=1e-10)
    assert rc == pytest.approx(math.log(1 + math.sqrt(2)), rel=1e-10)


def test_error_estimate_is_honest():
    v, err = oracle_with_error("RJ", (1, 2, 4, 3))
    assert err < 1e-10 * abs(v)
    assert v == pytest.approx(core.rj(1, 2, 4, 3), rel=1e-9)


def test_unknown_kind():
    with pytest.raises(DomainError):
        oracle_batch("RX", [(1, 2)])


def test_integrand_underflow_is_typed():
    # at subnormal arguments t + x leaves the normal range near t = 0
    with pytest.raises(ConvergenceError):
        oracle_batch("RF", [(1e-320, 2e-320, 1)])
    # the error names the integral's p, not the row's q = -p
    with pytest.raises(ConvergenceError, match=r"with p = -1\.0:"):
        oracle_batch("RJpv", [(1e-320, 2e-320, 1.0, 1.0)])


def test_domain_checks():
    with pytest.raises(DomainError):
        oracle_batch("RC", [(1, 0)])
    with pytest.raises(DomainError):
        oracle_batch("RF", [(0, 0, 1)])
    with pytest.raises(DomainError):
        oracle_batch("RJ", [(1, 2, 3, -1)])


def test_scaling_normalization_wide_magnitudes(rng):
    # extreme argument scales must not degrade the quadrature
    for _ in range(40):
        s = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        r = 10.0 ** float(rng.uniform(-8, -2))
        x, y, z = s * r * 0.3, s * r, s
        assert oracle_batch("RF", [(x, y, z)])[0][0] == pytest.approx(core.rf(x, y, z), rel=1e-9)
        assert oracle_batch("RD", [(x, y, z)])[0][0] == pytest.approx(core.rd(x, y, z), rel=1e-9)


def test_rg_with_zero_argument():
    assert oracle_batch("RG", [(0, 1, 1)])[0][0] == pytest.approx(math.pi / 4, rel=1e-10)


# --------------------------------------------------------------------------
# the batched fixed-node rule and its panel doubling
# --------------------------------------------------------------------------


def _mp_rj_pv(x, y, z, p):
    """Principal value of RJ at p < 0 by DLMF 19.20.14, with y the middle
    argument so that every right-side integral has positive arguments."""
    lo, med, hi = sorted((x, y, z))
    q = med + (hi - med) * (med - lo) / (med - p)
    u = lo * hi - p * q
    return ((q - med) * mp.elliprj(lo, med, hi, q) - 3 * mp.elliprf(lo, med, hi)
            + 3 * mp.sqrt(lo * med * hi / u) * mp.elliprc(u, -p * q)) / (med - p)


def _mp_mlog(x, y, z):
    """The log-derivative integral M: the right side of the identity suite's
    log-derivative-shift plus log(max(x, y, z)) / sqrt(xyz)."""
    lam = mp.sqrt(x * y) + mp.sqrt(x * z) + mp.sqrt(y * z)
    return (mp.log(lam * lam / (4 * x * y * z)) + mp.log(max(x, y, z))) / mp.sqrt(x * y * z) \
        - mp.mpf(4) / 3 * mp.elliprj(x + lam, y + lam, z + lam, lam)


_MP_REF = {
    "RC": mp.elliprc,
    "RF": mp.elliprf,
    "RD": mp.elliprd,
    "RJ": mp.elliprj,
    "RG": mp.elliprg,
    # Rm1(x, y, z) = 2 RC((sqrt(xy) + z)^2, (sqrt(x) + sqrt(y))^2 z)
    "Rm1": lambda x, y, z: 2 * mp.elliprc((mp.sqrt(x * y) + z) ** 2,
                                          (mp.sqrt(x) + mp.sqrt(y)) ** 2 * z),
    "RJpv": lambda x, y, z, q: _mp_rj_pv(x, y, z, -q),
    "Mlog": _mp_mlog,
}


_ARITY = {"RC": 2, "RF": 3, "RD": 3, "RJ": 4, "RG": 3, "Rm1": 3, "RJpv": 4, "Mlog": 3}


def _mp_value(kind, args):
    with mp.workdps(40):
        return float(_MP_REF[kind](*(mp.mpf(a) for a in args)))


@pytest.fixture
def panel_counts(monkeypatch):
    """Head panel counts of the fixed-node rule runs so far, one per row."""
    counts = []
    real = quadrature._fixed_rule

    def recording(head, tail, a, panels):
        counts.extend([panels] * len(a))
        return real(head, tail, a, panels)

    monkeypatch.setattr(quadrature, "_fixed_rule", recording)
    return counts


def _assert_honest(kind, args, value, err):
    true = _mp_value(kind, args)
    assert abs(value - true) <= max(4.0 * err, 2e-13 * abs(value)), (kind, args, value, true)


def _campaign_rows():
    """Two seeded rows per case and default ratio, grouped by oracle kind,
    plus log-kernel Rm1 rows, principal-value rows over 0.1..10 and the
    log-derivative rows of the identity suite."""
    rows = {}
    for index, tag in enumerate(CASE_TAGS):
        for ri, ratio in enumerate(harness._DEFAULT_RATIOS):
            draws = harness.Draws(np.random.default_rng([5, index, ri]))
            for _ in range(2):
                args = harness.sample_args(tag, ratio, draws)
                kind, args, _ = asym.reference_route(asym.case_kind(tag), args)
                rows.setdefault(kind, []).append(args)
    rng = np.random.default_rng(6)
    for _ in range(20):
        z = harness._lu(rng, 1e-3, 1e3)
        s = 0.01 * z * harness._lu(rng, 1e-4, 1.0)
        x = s * harness._lu(rng, 0.01, 1.0)
        rows.setdefault("Rm1", []).append((x, s - x if s > x else 0.5 * s, z))
    rows["RJpv"] = [tuple(10.0 ** rng.uniform(-1.0, 1.0, 4)) for _ in range(20)]
    rows["Mlog"] = list(harness._lu_rows(rng, 1e-2, 1e2, 20, 3))
    return rows


def test_batch_error_estimate_is_honest(panel_counts):
    rows = _campaign_rows()
    assert set(rows) == set(quadrature.KINDS)
    for kind, batch in rows.items():
        for args, (value, err) in zip(batch, oracle_batch(kind, batch)):
            _assert_honest(kind, args, value, err)
            assert err <= 1e-10 * abs(value)
    # the campaign rows never need more than the first panel count
    assert set(panel_counts) == {24}


def test_batch_rows_equal_one_row_calls():
    rows = _campaign_rows()["RJ"]
    batch = oracle_batch("RJ", rows)
    assert batch == [oracle_with_error("RJ", args) for args in rows]
    assert oracle_batch("RF", [(1.0, 2.0, 4.0)]) == [oracle_with_error("RF", (1, 2, 4))]
    assert oracle_batch("RF", []) == []


def test_sharp_pole_row_is_refined(panel_counts):
    # the pole of (t + p) at p = 1e-30 is too sharp for the first 24 panels
    args = (1.0, 2.0, 3.0, 1e-30)
    value, err = oracle_with_error("RJ", args)
    _assert_honest("RJ", args, value, err)
    assert max(panel_counts) > 24
    panel_counts.clear()
    oracle_with_error("RJ", (1.0, 2.0, 3.0, 1e-3))
    assert panel_counts == [24]


def test_batch_mixes_fine_and_refined_rows(panel_counts):
    rows = [(1.0, 2.0, 4.0, 3.0), (1.0, 2.0, 3.0, 1e-30), (1e-3, 2.0, 5.0, 7.0),
            (8.130592002746585e-08, 2.1530578149271714e-11, 1.2820260685739767e-36,
             5.1496630363401775e-17)]
    batch = oracle_batch("RJ", rows)
    assert panel_counts[:4] == [24] * 4 and len(panel_counts) > 4
    assert batch == [oracle_with_error("RJ", args) for args in rows]


# rows where the quad fallback of the first fixed-node oracle was dishonest,
# then two whose scale factor s ** 1.5 overflows although the value is in range,
# then three where the product (t + x)(t + y)(t + z) left the float64 range
@pytest.mark.parametrize("kind, args", [
    ("RD", (0.09832583294902476, 1.6380176824183885e-39, 1.1810760391621617e-38)),
    ("RF", (4.501531775713857e-10, 2.2557579298299387e-31, 0.00014519348391965926)),
    ("RJ", (8.130592002746585e-08, 2.1530578149271714e-11, 1.2820260685739767e-36,
            5.1496630363401775e-17)),
    ("RD", (1.83e183, 3.90e226, 4.18e127)),
    ("RJ", (4.51e184, 4.33e19, 5.24e214, 2.56e111)),
    ("RF", (1.04e-9, 1.20e166, 1.23e-6)),
    ("RF", (1e-300, 2e-300, 1.0)),
    ("RJpv", (1e-300, 2e-300, 1.0, 1.0)),
])
def test_wide_range_rows_are_honest(kind, args):
    _assert_honest(kind, args, *oracle_with_error(kind, args))


def test_principal_value_oracle_is_certified():
    # scipy's Cauchy-weight route returned -145989.59 here
    args = (6.500404196562734e-20, 1.3379862296249213e-19, 4.8413380722514775e-19,
            -0.008941854917109752)
    true = _mp_value("RJpv", (*args[:3], -args[3]))
    value, _ = oracle_batch("RJpv", [(*args[:3], -args[3])])[0]
    assert abs(value - true) <= 1e-10 * abs(true)


def test_principal_value_judge_is_mpmath_real_part():
    # mpmath's elliprj is complex at p < 0 and its real part is the principal
    # value; it takes 0.1 s to seconds a row, so two rows check the judge
    for args in [(1.0, 2.0, 4.0, -1.0), (0.3, 0.02, 5.0, -2.0)]:
        with mp.workdps(40):
            a = [mp.mpf(v) for v in args]
            judge = _mp_rj_pv(*a)
            assert abs(judge - mp.elliprj(*a).real) <= mp.mpf(1e-35) * abs(judge)


def test_value_below_the_normal_range_is_typed():
    # s ** 1.5 overflows and the rescaled value underflows: no answer, not 0
    with pytest.raises(ConvergenceError, match="below the normal float64 range"):
        oracle_batch("RD", [(1e300, 1e300, 1e300)])


def test_wide_range_sweep_is_honest():
    # 100 log-uniform rows per kind, 25 each with arguments down to 1e-3,
    # 1e-10, 1e-20 and 1e-40; an RJpv row's last argument is the pole q = -p
    rng = np.random.default_rng(11)
    answered = 0
    for kind in quadrature.KINDS:
        rows = [tuple(float(v) for v in 10.0 ** rng.uniform(lo, 0.0, _ARITY[kind]))
                for lo in (-3, -10, -20, -40) for _ in range(25)]
        for args in rows:
            try:
                value, err = oracle_with_error(kind, args)
            except ConvergenceError:
                continue
            answered += 1
            _assert_honest(kind, args, value, err)
    assert answered >= 0.95 * 100 * len(quadrature.KINDS)


def test_batch_with_failing_row_raises():
    with pytest.raises(ConvergenceError):
        oracle_batch("RF", [(1.0, 2.0, 4.0), (1e-320, 2e-320, 1.0), (3.0, 2.0, 1.0)])
    # every row is checked before any is integrated
    with pytest.raises(DomainError):
        oracle_batch("RF", [(1e-300, 2e-300, 1.0), (0.0, 0.0, 1.0)])
    with pytest.raises(DomainError):
        oracle_batch("RF", [(1.0, 2.0, math.inf)])


def test_oracle_shares_no_code_with_the_evaluators():
    # the oracle is the independent route: of symell it may import only errors
    tree = ast.parse(Path(quadrature.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
                imported.update(f"symell.{name}" for name in names)
            else:
                imported.add(node.module)
    assert {m for m in imported if m.split(".")[0] == "symell"} == {"symell.errors"}
