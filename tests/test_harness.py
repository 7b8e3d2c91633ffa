import dataclasses
import hashlib
import json

import numpy as np
import pytest

from symell import DomainError, asym, bounds, harness, quadrature
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


# sha256 prefix of each case's draws in _sampler_digest, taken before the
# samplers moved into the asym registry; a sampler that draws in another
# order, or pins its ratio with other arithmetic, changes its digest
_SAMPLER_DIGESTS = {
    "C1": "9b3454be39227816",
    "C2a": "09cc738266a7bdd9",
    "C2b": "09cc738266a7bdd9",
    "C2c": "09cc738266a7bdd9",
    "F1a": "f38c998a410a4738",
    "F1b": "f38c998a410a4738",
    "F1c": "f38c998a410a4738",
    "F1d": "f38c998a410a4738",
    "F1e": "5fa78d562dc410bf",
    "F1f": "5fa78d562dc410bf",
    "F2a": "f97021144460e1eb",
    "D1": "f38c998a410a4738",
    "D2a": "f97021144460e1eb",
    "D2b": "f97021144460e1eb",
    "D2c": "f97021144460e1eb",
    "D3": "5aec639cabf54829",
    "D4": "7aad47dc9e07650e",
    "J1a": "8cd9b95c7b47db86",
    "J1b": "78effd6e23dff1c6",
    "J2a": "9663216661c0446a",
    "J2b": "9663216661c0446a",
    "J3": "b47113e2f8b8d52a",
    "J4a": "c2a52699938d1cd1",
    "J4b": "c11870def8762e0d",
    "J4c": "c2a52699938d1cd1",
    "J5": "8f9bddb3aa5c59dc",
    "J6a": "e4a2aa75d163afd5",
    "J6complete": "baac04d318072c7c",
    "G1a": "f38c998a410a4738",
    "G1b": "654a472ef9467881",
    "G1c": "5fa78d562dc410bf",
    "G2": "f97021144460e1eb",
}


def _sampler_digest(tag):
    h = hashlib.sha256()
    for seed in (1, 2, 3, 4):
        rng = np.random.default_rng(seed)
        for e in range(2, 31, 2):   # ratios 1e-2 .. 1e-30
            for _ in range(5):
                args = sample_args(tag, 10.0 ** -e, rng)
                h.update(",".join(float(a).hex() for a in args).encode() + b";")
    return h.hexdigest()[:16]


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_sampler_stream_is_pinned(tag):
    assert _sampler_digest(tag) == _SAMPLER_DIGESTS[tag]


def test_sampler_digests_cover_every_case():
    assert tuple(_SAMPLER_DIGESTS) == CASE_TAGS


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


def test_bounds_fuzz_rejects_empty_runs():
    # a campaign that checks nothing must not report a pass
    for n in (0, -3):
        with pytest.raises(DomainError, match="n must be >= 1"):
            run_bounds_fuzz("A1", n=n, seed=1)


def test_block_draws_reproduce_scalar_stream():
    # the fuzz and identity campaigns draw their arguments in blocks; their
    # reports equal scalar draws only while numpy's array uniform and exp
    # give the scalar calls' values bit for bit, which this pins
    count = harness._BLOCK + 5   # crosses a block boundary
    for k in (2, 3, 4):
        for lo, hi in ((1e-6, 1e6), (1e-3, 1e3)):
            seq = np.random.SeedSequence([42, k, int(hi)])
            rng_block, rng_scalar = np.random.default_rng(seq), np.random.default_rng(seq)
            rows = list(harness._lu_rows(rng_block, lo, hi, count, k))
            flat = [v for row in rows for v in row]
            assert len(rows) == count and all(len(row) == k for row in rows)
            assert flat == [harness._lu(rng_scalar, lo, hi) for _ in range(count * k)]
    rng_block, rng_scalar = np.random.default_rng(7), np.random.default_rng(7)
    moduli = list(harness._on_modulus(lambda k: k)(rng_block, count))
    assert moduli == [float(rng_scalar.uniform(0.05, 0.995)) for _ in range(count)]


def test_bounds_fuzz_replays_scalar_loop(monkeypatch):
    # every inequality sees the tuples of the scalar loop the block draw
    # replaced, equal probes included
    seen = []
    real = bounds.bracket

    def recording(tag, *args):
        seen.append((tag, args))
        return real(tag, *args)

    monkeypatch.setattr(bounds, "bracket", recording)
    n, seed = 200, 3
    expected = []
    for index, tag in enumerate(bounds.INEQ_TAGS):
        run_bounds_fuzz(tag, n=n, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 777, index]))
        nargs = bounds.arity(tag)
        for i in range(n):
            t = harness._lu(rng, 1e-6, 1e6)
            vals = [harness._lu(rng, 1e-6, 1e6) for _ in range(nargs - 1)]
            if i % 10 == 9 and nargs >= 3:
                vals = [vals[0]] * (nargs - 1) if i % 20 == 19 else [vals[0], vals[0]] + vals[2:]
            expected.append((tag, (t, *vals)))
    assert seen == expected


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
