"""Acceptance suite: every criterion at its stated tolerance, desk scale.

Each test's docstring first line is echoed with PASS/FAIL in the terminal
summary (see conftest).  Containment checks use the quadrature oracle with
slack for its own uncertainty, per the harness contract.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from symell import core, dispatch
from symell.asym import (
    CASE_TAGS,
    KIND_ARITY,
    case_kind,
    enclose,
    theta_recover,
)
from symell.bounds import INEQ_TAGS, theta_of
from symell.harness import (
    Campaign,
    Draws,
    containment_slack,
    expected_slope,
    run_bounds_fuzz,
    run_containment,
    run_identities,
    run_order_fit,
    sample_args,
)
from symell.quadrature import oracle_batch

mp.mp.dps = 30

FULL_RATIOS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


def _lu(rng, lo, hi, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def _oracle_in_order(requests):
    """Oracle (value, error estimate) for each (kind, args) request, in
    request order, from one oracle_batch call per kind."""
    out = [None] * len(requests)
    by_kind = {}
    for i, (kind, _) in enumerate(requests):
        by_kind.setdefault(kind, []).append(i)
    for kind, idx in by_kind.items():
        for i, row in zip(idx, oracle_batch(kind, [requests[i][1] for i in idx])):
            out[i] = row
    return out


def test_criterion_1_dual_oracle_agreement():
    """criterion 1: dual-oracle agreement to 1e-9 on 1000 tuples per function"""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    rows = []
    for _ in range(1000):
        x, y, z, p = (float(v) for v in _lu(rng, 1e-3, 1e3, 4))
        rows += [
            ("RC", core.rc(x, y), "RC", (x, y)),
            ("RF", core.rf(x, y, z), "RF", (x, y, z)),
            ("RD", core.rd(x, y, z), "RD", (x, y, z)),
            ("RJ", core.rj(x, y, z, p), "RJ", (x, y, z, p)),
            ("RG", core.rg(x, y, z), "RG", (x, y, z)),
        ]
    worst = {}
    refs = _oracle_in_order([(kind, args) for _, _, kind, args in rows])
    for (name, mine, _, _), (ref, _) in zip(rows, refs):
        rel = abs(mine - ref) / abs(ref)
        worst[name] = max(worst.get(name, 0.0), rel)
    elapsed = time.perf_counter() - t0
    assert all(v <= 1e-9 for v in worst.values()), worst
    assert elapsed < 120.0, f"dual-oracle run took {elapsed:.1f}s"


def test_criterion_2_closed_form_exactness():
    """criterion 2: rc matches the closed forms to 1e-13 on 1e4 samples"""

    def mp_rc(x, y):
        x, y = mp.mpf(x), mp.mpf(y)
        if x == y:
            return 1 / mp.sqrt(x)
        if x < y:
            return mp.acos(mp.sqrt(x / y)) / mp.sqrt(y - x)
        return mp.log((mp.sqrt(x) + mp.sqrt(x - y)) / mp.sqrt(y)) / mp.sqrt(x - y)

    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(10000):
        y = float(_lu(rng, 1e-3, 1e3))
        if i % 3 == 0:
            # near-diagonal region, both sides of the series switch
            d = float(rng.uniform(-1, 1)) * 10.0 ** float(rng.uniform(-12, -4))
            x = y * (1.0 + d)
        else:
            x = float(_lu(rng, 1e-3, 1e3))
        ref = float(mp_rc(x, y))
        worst = max(worst, abs(core.rc(x, y) - ref) / abs(ref))
    assert worst <= 1e-13, worst

    for _ in range(1000):
        x = float(_lu(rng, 1e-3, 1e3))
        v = core.rf(x, x, x)
        expect = x ** -0.5
        assert abs(v - expect) <= 2.0 * math.ulp(expect)


@pytest.fixture(scope="module")
def containment_reports():
    t0 = time.perf_counter()
    reports = {}
    for tag in CASE_TAGS:
        reports[tag] = run_containment(
            Campaign(tag, FULL_RATIOS, samples=500, seed=42))
    return reports, time.perf_counter() - t0


def test_criterion_3_enclosure_containment(containment_reports):
    """criterion 3: zero containment violations, 6 ratios x 500 samples per case"""
    reports, elapsed = containment_reports
    bad = {t: r.violation_samples for t, r in reports.items()
           if any(v["kind"] == "containment" for v in r.violation_samples)}
    assert not bad, bad
    total = sum(r.evaluated for r in reports.values())
    assert total >= 0.9 * len(CASE_TAGS) * len(FULL_RATIOS) * 500
    assert elapsed < 600.0, f"containment campaigns took {elapsed:.1f}s"


def test_criterion_4_bracket_realization(containment_reports):
    """criterion 4: recovered error symbols land inside the stated brackets"""
    reports, _ = containment_reports
    for tag, rep in reports.items():
        assert rep.theta.get("outside", 0) == 0, (tag, rep.theta)

    # endpoint attainment at the documented equality configurations
    assert theta_recover("C1", (0.0, 2.0), core.rc(0.0, 2.0))[0] == 1.0

    for x, p in ((1.0, 40.0), (3.0, 17.0)):
        v = core.rj(x, x, 0.0, p)
        th, sig = theta_recover("J1b", (x, x, 0.0, p), v)
        assert abs(th - x) <= max(4.0 * math.ulp(x), sig)

    for x, z, p in ((2.0, 0.01, 0.02), (1.0, 0.005, 0.001)):
        v = core.rj(x, x, z, p)
        th, sig = theta_recover("J4a", (x, x, z, p), v)
        assert abs(th - 1.0) <= max(4.0 * math.ulp(1.0), sig)

    assert abs(theta_of("A5", 1.7, 3.0, 3.0) - 3.0) <= 4.0 * math.ulp(3.0)
    assert abs(theta_of("A6a", 1.7, 3.0, 3.0) - 1.0) <= 4.0 * math.ulp(1.0)


def test_criterion_5_monotone_sharpening():
    """criterion 5: higher-order cases are strictly narrower at small ratios"""
    pairs = {
        ("F1d", "F1a"): "F1a",
        ("C2b", "C2a"): "C2a",
        ("D2b", "D2a"): "D2a",
        ("D2c", "D2b"): "D2a",
        ("J2b", "J2a"): "J2a",
        ("F1f", "F1e"): "F1e",
    }
    draws = Draws(np.random.default_rng(505))
    for (sharp, coarse), sampler in pairs.items():
        for ratio in (1e-3, 1e-4, 1e-5):
            for _ in range(500):
                args = sample_args(sampler, ratio, draws)
                ws = enclose(sharp, *args).width
                wc = enclose(coarse, *args).width
                assert ws < wc, (sharp, coarse, ratio, args, ws, wc)


def test_criterion_6_order_fits():
    """criterion 6: fitted width slopes match the derived exponent table

    The table is the slope on each case's row in the asym registry, fitted by
    this code on the order fit's fixed grid (1e-3..1e-7, 100 samples a ratio).
    """
    for tag in CASE_TAGS:
        rep = run_order_fit(tag, seed=42)
        assert rep.expected == expected_slope(tag), tag
        assert abs(rep.slope - rep.expected) <= 0.15, (tag, rep.slope, rep.expected)
        assert rep.ok, tag


def test_criterion_7_identity_suite():
    """criterion 7: identity suite clean over 1e4 fuzzed tuples per identity"""
    rep = run_identities(seed=7, n=10000)
    assert rep.violations == 0, rep.violation_samples


def test_criterion_8_appendix_fuzz():
    """criterion 8: Appendix inequalities hold on 1e5 tuples each"""
    for tag in INEQ_TAGS:
        rep = run_bounds_fuzz(tag, n=100000, seed=42)
        assert rep.violations == 0, (tag, rep.violation_samples)


def test_criterion_9_dispatcher_soundness():
    """criterion 9: dispatcher meets every requested tolerance; fast path covers deep regimes"""
    draws = Draws(np.random.default_rng(909))
    regimes = {"C1": "RC", "C2a": "RC", "F1a": "RF", "F2a": "RF",
               "D1": "RD", "D2a": "RD", "D3": "RD", "D4": "RD",
               "J1a": "RJ", "J2a": "RJ", "J3": "RJ", "J4a": "RJ",
               "J5": "RJ", "J6a": "RJ", "G1a": "RG", "G2": "RG"}
    tags = list(regimes)
    tols = (1e-3, 1e-6, 1e-9)
    requests, reports = [], []
    for i in range(10000):
        tol = tols[i % 3]
        if i % 5 == 0:
            # generic magnitudes, usually served by the reference path
            kind = ("RC", "RF", "RD", "RJ", "RG")[(i // 5) % 5]
            n = KIND_ARITY[kind]
            args = tuple(draws.lu(1e-3, 1e3) for _ in range(n))
        else:
            tag = tags[i % len(tags)]
            kind = regimes[tag]
            ratio = 10.0 ** (-9.0 + 7.0 * draws.coin())   # uniform(-9, -2)
            args = sample_args(tag, ratio, draws)
        requests.append((kind, args))
        reports.append((tol, dispatch.evaluate(dispatch.EvalRequest(kind, args, tol))))
    checked = 0
    for (kind, args), (tol, rep), (ref, err) in zip(requests, reports,
                                                    _oracle_in_order(requests)):
        achieved = abs(rep.value - ref) / abs(ref)
        assert achieved <= tol + 4.0 * err / abs(ref), (kind, args, tol, achieved)
        checked += 1
    assert checked == 10000

    # fast path: deep-regime requests at tol 1e-6 never fall through to
    # reference (rc itself is the closed form, so RC's fast path is
    # closed_form by the dispatch contract; the other kinds go asymptotic)
    for tag, kind in regimes.items():
        for _ in range(25):
            args = sample_args(tag, 1e-8, draws)
            rep = dispatch.evaluate(dispatch.EvalRequest(kind, args, 1e-6))
            assert rep.method != "reference", (tag, args, rep.method)
            if kind != "RC":
                assert rep.method == "asym", (tag, args, rep.method)


def test_criterion_10_spot_values():
    """criterion 10: documented spot values sit inside their enclosures"""
    # complete first-kind integral at k' = 0.1
    enc = enclose("F1e", 0.1)
    assert enc.lo == pytest.approx(3.694650, abs=1e-6)
    assert enc.hi == pytest.approx(3.698125, abs=1e-6)
    k = math.sqrt((1 - 0.1) * (1 + 0.1))
    ref = core.legendre_k(k)
    assert enc.lo <= ref <= enc.hi

    enc = enclose("F1a", 0.01, 0.01, 1.0)
    v = core.rf(0.01, 0.01, 1.0)
    # derived: reduction to the degenerate case then the hyperbolic branch
    derived = math.log((1.0 + math.sqrt(0.99)) / 0.1) / math.sqrt(0.99)
    assert v == pytest.approx(derived, rel=1e-13)
    assert v == pytest.approx(3.0083021, abs=1e-6)
    assert enc.lo <= v <= enc.hi

    # rg(1,1,0) = pi/4 through the complete-pair decomposition
    via_pair = 1.0 * 1.0 * (core.rd(0.0, 1.0, 1.0) + core.rd(0.0, 1.0, 1.0)) / 6.0
    assert via_pair == pytest.approx(math.pi / 4, rel=1e-12)
    assert core.rg(1.0, 1.0, 0.0) == pytest.approx(math.pi / 4, rel=1e-12)
