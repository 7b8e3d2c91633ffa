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
    # RD at the smallest subnormal is past float64: no answer, not inf
    with pytest.raises(ConvergenceError):
        oracle_batch("RD", [(5e-324, 5e-324, 5e-324)])
    # the error names the integral's p, not the row's q = -p
    with pytest.raises(ConvergenceError, match=r"with p = -1\.0:"):
        oracle_batch("RJpv", [(1e300, 1e300, 1e300, 1.0)])


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
# the batched trapezoid rule and its error estimate
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


def _mp_value(kind, args, dps=40):
    with mp.workdps(dps):
        return float(_MP_REF[kind](*(mp.mpf(a) for a in args)))


def _judge(kind, args):
    """(truth, (value at 40 digits, value at 80)) of a row by mpmath; the
    truth is None, undecided, unless both values are finite and agree to
    1e-15 relative.  mpmath's elliprj is wrong at some widely spread rows,
    and there its two levels disagree."""
    levels = _mp_value(kind, args), _mp_value(kind, args, 80)
    lo, hi = levels
    decided = math.isfinite(lo) and math.isfinite(hi) \
        and abs(lo - hi) <= 1e-15 * max(abs(lo), abs(hi))
    return (lo if decided else None), levels


def _assert_honest(kind, args, value, err):
    true, levels = _judge(kind, args)
    assert true is not None, ("judge undecided", kind, args, levels)
    assert abs(value - true) <= max(4.0 * err, 2e-13 * abs(value)), (kind, args, value, true)
    return true


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
    rows["Mlog"] = list(harness._rows(rng, 20, ((1e-2, 1e2),) * 3))
    return rows


# the kinds the harness judges by its containment slack: the case campaigns'
# reference kinds and the log-kernel bracket's Rm1
_CONTAINMENT_KINDS = {"RC", "RF", "RD", "RJ", "RG", "Rm1"}


def test_batch_error_estimate_is_honest():
    rows = _campaign_rows()
    assert set(rows) == set(quadrature.KINDS)
    for kind, batch in rows.items():
        for args, (value, err) in zip(batch, oracle_batch(kind, batch)):
            true = _assert_honest(kind, args, value, err)
            assert err <= 1e-10 * abs(value)
            # the estimate is a bound, not only inside the containment slack
            assert abs(value - true) <= err, (kind, args, value, err)
            if kind in _CONTAINMENT_KINDS:
                # the 2e-13 floor, not the estimate, sets these rows' slack
                assert 4.0 * err <= 2e-13 * abs(value), (kind, args, value, err)


def test_batch_rows_equal_one_row_calls():
    rows = _campaign_rows()["RJ"]
    batch = oracle_batch("RJ", rows)
    assert batch == [oracle_with_error("RJ", args) for args in rows]
    assert oracle_batch("RF", [(1.0, 2.0, 4.0)]) == [oracle_with_error("RF", (1, 2, 4))]
    assert oracle_batch("RF", []) == []


def test_sharp_pole_row_is_honest():
    # the pole of (t + p) at p = 1e-30, thirty decades below the other arguments
    args = (1.0, 2.0, 3.0, 1e-30)
    value, err = oracle_with_error("RJ", args)
    _assert_honest("RJ", args, value, err)


def test_batch_of_mixed_rows_equals_one_row_calls():
    # rows on different node spans, integrated together
    rows = [(1.0, 2.0, 4.0, 3.0), (1.0, 2.0, 3.0, 1e-30), (1e-3, 2.0, 5.0, 7.0),
            (8.130592002746585e-08, 2.1530578149271714e-11, 1.2820260685739767e-36,
             5.1496630363401775e-17)]
    batch = oracle_batch("RJ", rows)
    assert batch == [oracle_with_error("RJ", args) for args in rows]


# one row per kind and per count of zero arguments its check allows
@pytest.mark.parametrize("kind, args", [
    ("RC", (1.0, 2.0)), ("RC", (0.0, 2.0)), ("RF", (1.0, 2.0, 3.0)), ("RF", (0.0, 2.0, 3.0)),
    ("RD", (1.0, 2.0, 3.0)), ("RD", (0.0, 2.0, 3.0)), ("RJ", (1.0, 2.0, 3.0, 0.5)),
    ("RJ", (0.0, 2.0, 3.0, 0.5)), ("RG", (1.0, 2.0, 3.0)), ("RG", (0.0, 2.0, 3.0)),
    ("RG", (0.0, 0.0, 3.0)), ("Rm1", (1.0, 2.0, 3.0)), ("RJpv", (1.0, 2.0, 3.0, 0.5)),
    ("Mlog", (1.0, 2.0, 3.0)),
])
def test_tail_exponents_match_the_integrands(kind, args):
    # a row's nodes end where t f(t), falling at the kind's tail exponents, has
    # fallen by e**-_DECAY; the integrand must fall at least that fast, 40 to 60
    # past the row's arguments in s = log t, or the cut tails are not negligible
    check, f, _, lower, upper = quadrature._KIND[kind]
    a = np.array([check(args)])
    k, j_lo, j_hi = quadrature._place(a, lower, upper)
    a = np.ldexp(a, 2 * k[:, None])
    lo, hi = np.log(a[a > 0.0].min()), np.log(a.max())
    s = np.array([lo - 60.0, lo - 40.0, hi + 40.0, hi + 60.0])
    tf = f(np.exp(s), *(a[:, i, None] for i in range(a.shape[1])))
    tf = np.log(np.abs(tf[0] if isinstance(tf, tuple) else tf))[0]
    below, above = lo - j_lo[0] * quadrature._H, j_hi[0] * quadrature._H - hi
    assert (tf[1] - tf[0]) / 20.0 >= quadrature._DECAY / below - 0.05, (tf, below)
    assert (tf[2] - tf[3]) / 20.0 >= quadrature._DECAY / above - 0.05, (tf, above)


# rows where the quad fallback of the first fixed-node oracle was dishonest,
# then two whose scale factor s ** 1.5 overflows although the value is in range,
# then three where the product (t + x)(t + y)(t + z) left the float64 range,
# then four that the Gauss-Legendre panel oracle got wrong (RC: 2.8e-10 off
# with an estimate of 2.1e-11) or refused (the rescale left a subnormal, or
# RD's head integrand passed DBL_MAX), then one that a reach of 80 for every
# kind refused (its extra scale took the value within 1e10 of DBL_MIN), then
# one where x, y and z lie far below p and g(t) alone passed DBL_MAX
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
    ("RC", (4.847581717359966e+223, 3.36047135371184e-94)),
    ("RF", (1e-320, 2e-320, 1.0)),
    ("RJpv", (1e-320, 2e-320, 1.0, 1.0)),
    ("RD", (3.0292681650559047e+128, 3.03412236785022e-110, 5.394996702091581e-88)),
    ("RJ", (2.7278165896494126e+84, 195500239730.08374, 1.2003448750918282e-291,
            2.690051083454208e+234)),
    ("RJ", (9.563282042513753e-226, 1.0775098785394738e-209, 3.1128878064974263e-56,
            2.6054497642568287e+200)),
])
def test_wide_range_rows_are_honest(kind, args):
    _assert_honest(kind, args, *oracle_with_error(kind, args))


def test_judge_is_undecided_where_mpmath_disagrees_with_itself():
    # elliprj gives 2.130e-193 here at 40 digits and inf at 80; the oracle's
    # 7.837e-193 agrees with mp.quad of the defining integral
    args = (6.148807173159727e+54, 5.206549295339948e+76, 7.337151133574415e+258,
            4.2759729686181293e-293)
    true, (lo, hi) = _judge("RJ", args)
    assert true is None and lo == pytest.approx(2.130e-193, rel=1e-3) and hi == math.inf
    with pytest.raises(AssertionError, match="judge undecided"):
        _assert_honest("RJ", args, *oracle_with_error("RJ", args))


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
        oracle_batch("RD", [(1.0, 2.0, 4.0), (5e-324, 5e-324, 5e-324), (3.0, 2.0, 1.0)])
    # every row is checked before any is integrated
    with pytest.raises(DomainError):
        oracle_batch("RF", [(1e-300, 2e-300, 1.0), (0.0, 0.0, 1.0)])
    with pytest.raises(DomainError):
        oracle_batch("RF", [(1.0, 2.0, math.inf)])


def test_oracle_shares_no_code_with_the_evaluators():
    # the oracle is the independent route: of symell it may import only errors
    # and the argument checks, which evaluate nothing
    tree = ast.parse(Path(quadrature.__file__).read_text())
    imported = set()
    from_util = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
                imported.update(f"symell.{name}" for name in names)
                if node.module == "_util":
                    from_util.update(a.name for a in node.names)
            else:
                imported.add(node.module)
    assert {m for m in imported if m.split(".")[0] == "symell"} == {"symell.errors",
                                                                     "symell._util"}
    assert from_util == {"checked", "positive"}
