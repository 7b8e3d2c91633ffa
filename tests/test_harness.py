import dataclasses
import json

import pytest

from symell import DomainError, asym, quadrature
from symell.harness import (
    Campaign,
    IDENTITY_TAGS,
    derive_order_table,
    expected_slope,
    run_bounds_fuzz,
    run_containment,
    run_identities,
    run_order_fit,
    sample_args,
    write_report_csv,
    write_report_json,
)
from symell.asym import CASE_TAGS, case_ratio


def test_samplers_pin_the_ratio(rng):
    for tag in CASE_TAGS:
        for ratio in (1e-2, 1e-5):
            args = sample_args(tag, ratio, rng)
            assert case_ratio(tag, *args) == pytest.approx(ratio, rel=1e-12)


def test_containment_small_campaign():
    rep = run_containment(Campaign("F1a", (1e-2, 1e-4), samples=40, seed=11))
    assert rep.violations == 0
    assert rep.evaluated == 80
    assert rep.max_rel_width[1e-2] > rep.max_rel_width[1e-4]
    assert rep.theta.get("outside", 0) == 0


def test_containment_reproducible():
    a = run_containment(Campaign("J2a", (1e-3,), samples=25, seed=5))
    b = run_containment(Campaign("J2a", (1e-3,), samples=25, seed=5))
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_time")
    db.pop("wall_time")
    assert da == db


def test_containment_gating_reported():
    # G1a samples violating the 5a < z condition are gated, not evaluated
    rep = run_containment(Campaign("G1a", (0.5,), samples=10, seed=3))
    assert rep.evaluated + rep.gated == 10
    assert rep.gated == 10
    assert rep.violations == 0


def test_non_positive_enclosure_is_a_violation(monkeypatch):
    # a case formula that comes out negative is checked against the oracle,
    # not gated: every integral in the catalog is positive
    real = asym.enclose

    def negated(tag, *args):
        enc = real(tag, *args)
        return dataclasses.replace(enc, lo=-enc.hi, hi=-enc.lo, estimate=-enc.estimate)

    monkeypatch.setattr(asym, "enclose", negated)
    rep = run_containment(Campaign("F1a", (1e-3,), samples=10, seed=11), check_theta=False)
    assert (rep.evaluated, rep.gated, rep.violations) == (10, 0, 10)
    assert {s["kind"] for s in rep.violation_samples} == {"containment"}
    assert all(s["hi"] < 0.0 for s in rep.violation_samples)


def test_order_fit_matches_expected_table():
    for tag in ("C1", "F1a", "D2a", "D2c", "G1b"):
        rep = run_order_fit(tag, (1e-3, 1e-4, 1e-5, 1e-6, 1e-7), seed=42, samples=60)
        assert rep.expected == expected_slope(tag)
        assert abs(rep.slope - rep.expected) <= 0.15, (tag, rep.slope, rep.expected)
        assert rep.ok


def test_order_fit_insufficient_grid():
    with pytest.raises(DomainError):
        run_order_fit("F1a", (1e-3, 1e-4), seed=1)
    with pytest.raises(DomainError):
        run_order_fit("F1a", (1e-3, 2e-3, 3e-3, 4e-3), seed=1)


def test_expected_slope_table_complete():
    for tag in CASE_TAGS:
        assert expected_slope(tag) is not None


def test_derive_order_table_runs():
    tbl = derive_order_table(seed=9, ratios=(1e-3, 1e-4, 1e-5, 1e-6), samples=20)
    assert set(tbl) == set(CASE_TAGS)


def test_identities_clean():
    rep = run_identities(seed=7, n=40)
    assert rep.violations == 0
    assert rep.evaluated == 40 * len(IDENTITY_TAGS)


def test_identities_reproducible():
    a = run_identities(seed=3, n=10)
    b = run_identities(seed=3, n=10)
    assert a.violations == b.violations == 0


def test_identities_subset_selection():
    rep = run_identities(seed=1, n=5, which=("rd-cyclic", "agm-chain"))
    assert rep.evaluated == 10
    with pytest.raises(DomainError):
        run_identities(seed=1, n=5, which=("no-such-identity",))


def test_batched_identity_reports_each_draw(monkeypatch):
    # the log-kernel bracket takes its oracle values as one batch; a value
    # outside every bracket is reported once per draw, in draw order
    clean = run_identities(seed=2, n=12, which=("log-kernel-bracket",))
    assert (clean.evaluated, clean.violations) == (12, 0)
    monkeypatch.setattr(quadrature, "oracle_batch",
                        lambda kind, rows: [(-1.0, 0.0)] * len(rows))
    rep = run_identities(seed=2, n=12, which=("log-kernel-bracket",))
    assert (rep.evaluated, rep.violations) == (12, 12)
    assert rep.violation_samples[0]["detail"].startswith("log-kernel bracket violated at (")


def test_bounds_fuzz_clean():
    for tag in ("A1", "A5", "AZ"):
        rep = run_bounds_fuzz(tag, n=3000, seed=42)
        assert rep.violations == 0


def test_report_writers(tmp_path):
    reps = [
        run_containment(Campaign("C1", (1e-2, 1e-3), samples=10, seed=2)),
        run_order_fit("C1", (1e-3, 1e-4, 1e-5, 1e-6), seed=2, samples=10),
    ]
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    write_report_json(reps, jpath)
    write_report_csv(reps, cpath)
    doc = json.loads(jpath.read_text())
    assert len(doc["reports"]) == 2
    assert doc["reports"][0]["violations"] == 0
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "case,ratio,samples,violations,max_rel_width,slope,seed"
    assert len(lines) == 1 + 2 + 4  # header + containment rows + order rows


def test_campaign_validation():
    with pytest.raises(DomainError):
        Campaign("F1a", (1.5,), samples=10, seed=1)
    with pytest.raises(DomainError):
        Campaign("F1a", (1e-2,), samples=0, seed=1)
