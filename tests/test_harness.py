import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from symell import (
    ConvergenceError,
    DomainError,
    RegimeError,
    asym,
    bounds,
    core,
    harness,
    quadrature,
)
from symell._fmt import dumps
from symell._util import KIND_TABLE, checked, rc_rule, rd_rule, rj_rule, xyz_rule
from symell.harness import (
    Campaign,
    Draws,
    IDENTITY_TAGS,
    run_bounds_fuzz,
    run_containment,
    run_identities,
    run_order_fit,
    sample_args,
    write_report_csv,
    write_report_json,
)
from symell.asym import CASE_TAGS, case_ratio


def test_samplers_pin_the_ratio(draws):
    for tag in CASE_TAGS:
        for ratio in (1e-2, 1e-5):
            args = sample_args(tag, ratio, draws)
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
        draws = Draws(np.random.default_rng(seed))
        for e in range(2, 31, 2):   # ratios 1e-2 .. 1e-30
            for _ in range(5):
                args = sample_args(tag, 10.0 ** -e, draws)
                h.update(",".join(float(a).hex() for a in args).encode() + b";")
    return h.hexdigest()[:16]


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_sampler_stream_is_pinned(tag):
    assert _sampler_digest(tag) == _SAMPLER_DIGESTS[tag]


def test_sampler_digests_cover_every_case():
    assert tuple(_SAMPLER_DIGESTS) == CASE_TAGS


# sha256 prefix of each case's containment report at 10 samples, seed 42 and
# the default ratios (canonical JSON without wall_time), taken before the
# symbol entries of asym shared one body (C2c's and F1b's when they became
# C2a's and F1a's rows, which gave them a theta; G2, D2c, J4c and J1b again
# when their complete rg and rf terms moved to the AGM run, which moved the
# last digits of some max_rel_width; D2b again when its rd(0, x, y) +
# rd(0, y, x) became D2c's AGM term, with the same effect); a change to a
# sampler, an enclosure, the oracle or the theta classification changes its
# digest
_CONTAINMENT_DIGESTS = {
    "C1": "69213e50df5c3c6a",
    "C2a": "f2cf2c15265fa5c9",
    "C2b": "085fdc8e21f1f668",
    "C2c": "97e4c70f6aca9826",
    "F1a": "f766c83ebb3b75a9",
    "F1b": "6e784bbfd9756832",
    "F1c": "d762855489265ba4",
    "F1d": "a8deeffca7ef8814",
    "F1e": "88447ae2c406bdb3",
    "F1f": "494c3bc4daf545e0",
    "F2a": "c0766fa846ba3427",
    "D1": "b02ad7ef38964332",
    "D2a": "ade31227c4da90ac",
    "D2b": "39677bae44f29673",
    "D2c": "83aa478403086451",
    "D3": "9748434fa0161906",
    "D4": "5494aa4d804de100",
    "J1a": "39e34f899d59f9f8",
    "J1b": "d7c905c47dac206b",
    "J2a": "6fc30350969ec137",
    "J2b": "6031396dc5fa028a",
    "J3": "fe8da2191ec68601",
    "J4a": "42d63d15b2931397",
    "J4b": "d1a3f5a652cacdf0",
    "J4c": "a86f04ef52c80e65",
    "J5": "ed43a51b82512bbc",
    "J6a": "e23f595ab296237d",
    "J6complete": "f89940f6ce7ff5b3",
    "G1a": "293bea378dbca78a",
    "G1b": "df28d038f95c33bf",
    "G1c": "c654504c6812b006",
    "G2": "f555fa2f501667e6",
}


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_containment_reports_are_pinned(tag):
    doc = run_containment(Campaign(tag, samples=10, seed=42)).to_dict()
    doc.pop("wall_time")
    assert hashlib.sha256(dumps(doc).encode()).hexdigest()[:16] == _CONTAINMENT_DIGESTS[tag]


# sha256 prefix of each case's order-fit report at seed 42 (canonical JSON
# without wall_time), taken before campaigns looked their case row up once;
# the fit shares the containment campaign's samples and enclosures, so a
# change to a sampler or an enclosure changes its digest, as does one to
# the widths or the fitted slope
_ORDER_DIGESTS = {
    "C1": "fefef002b03b3735",
    "C2a": "4e532644dbe46a32",
    "C2b": "f02c9c14cd031ed6",
    "C2c": "6cfbe4c26815d2b8",
    "F1a": "ef1375cecd8ff947",
    "F1b": "2e1a63c37616939a",
    "F1c": "db157e7d98afa891",
    "F1d": "55ee29fe2a480f7c",
    "F1e": "19cc0f918dfe4e2b",
    "F1f": "5ed7ce62f5f87f2c",
    "F2a": "f7a016f080dc9d35",
    "D1": "1d7b63e936709656",
    "D2a": "5d5128b36e49a7b3",
    "D2b": "4d5fa874a70df7b3",
    "D2c": "751ba952149ec22a",
    "D3": "c8a82d62bf99a437",
    "D4": "3dd11a018f283810",
    "J1a": "4bbb038620e6b33f",
    "J1b": "9f185ea7a3dc8187",
    "J2a": "4f97b3fd88d7a58c",
    "J2b": "4f5901136269d30e",
    "J3": "12c2ba8424ad1b7d",
    "J4a": "84a981718ec0ac93",
    "J4b": "4b17e39f541c6eb0",
    "J4c": "08b94472d70cd111",
    "J5": "c952875524a07568",
    "J6a": "73c7288de2ee615c",
    "J6complete": "bbde41690da93d35",
    "G1a": "5c272b20d1e19ab2",
    "G1b": "b4fcf9a05a392985",
    "G1c": "f3063f9c40a0f6bb",
    "G2": "60611ebf552a306c",
}


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_order_fit_reports_are_pinned(tag):
    doc = run_order_fit(tag, seed=42).to_dict()
    doc.pop("wall_time")
    assert hashlib.sha256(dumps(doc).encode()).hexdigest()[:16] == _ORDER_DIGESTS[tag]


def test_order_digests_cover_every_case():
    assert tuple(_ORDER_DIGESTS) == CASE_TAGS


def test_samples_are_floats_of_their_rows_arity():
    # campaigns enclose their sampler's tuples without the argument check
    # that the public entries make, which needs exactly these
    for tag in CASE_TAGS:
        arity = KIND_TABLE[asym.case_kind(tag)].arity
        for seed in (1, 2, 3, 4):
            draws = Draws(np.random.default_rng(seed))
            for e in range(2, 31, 2):
                for _ in range(5):
                    args = sample_args(tag, 10.0 ** -e, draws)
                    assert type(args) is tuple and len(args) == arity, (tag, args)
                    assert all(type(a) is float for a in args), (tag, args)


def test_campaign_looks_its_row_up_once(monkeypatch):
    calls = {"_case": 0, "floats": 0}

    def counted(name):
        real = getattr(asym, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(asym, name, counted(name))
    rep = run_containment(Campaign("J4a", samples=10, seed=42))
    assert rep.evaluated == 60 and rep.theta
    assert calls == {"_case": 1, "floats": 0}
    run_order_fit("F1a", seed=1)
    assert calls == {"_case": 2, "floats": 0}


def test_campaigns_call_each_samples_formula_once(monkeypatch):
    # the enclosure and, at THETA_RATIOS, the symbol window of a sample are
    # made from one formula result; a gated sample calls no formula
    calls = []

    def counted(tag):
        case = asym._CASES[tag]
        monkeypatch.setitem(asym._CASES, tag, case._replace(
            formula=lambda *a: calls.append(a) or case.formula(*a)))

    counted("J4a")
    rep = run_containment(Campaign("J4a", samples=10, seed=42))
    assert rep.evaluated == 60 and sum(rep.theta.values()) == 40
    assert len(calls) == 60
    calls.clear()
    counted("F1a")
    rep = run_order_fit("F1a", seed=1)
    assert rep.evaluated == len(calls) == 500


# the formula terms that call core's checked bodies: their rules and the
# arguments each takes from the case's arguments
_BODY_TERMS = {
    "D4": (rd_rule, lambda x, y, z: (0.0, y, z)),
    "J1a": (xyz_rule, lambda x, y, z, p: (x, y, z)),
    "J4a": (rc_rule, lambda x, y, z, p: (z, p)),
    "J4c": (rc_rule, lambda x, y, z, p: (z, p)),
    "J5": (rj_rule, lambda x, y, z, p: (0.0, y, z, p)),
    "J6complete": (rc_rule, lambda x, y, z, p: (p, z)),
}


def test_gates_imply_the_reference_rule():
    # the theta step calls the reference route's checked body, the
    # containment oracle skips its row check, and the terms of _BODY_TERMS
    # skip their evaluators' rules: every tuple that a case's gate accepts
    # must lie in its route's domain, pass the oracle's row check and give
    # each such term arguments in its evaluator's domain
    # 1e-170: K's route below k'^2 = DBL_MIN
    grid = (-1.0, 0.0, 1e-170, 1e-3, 0.5, 1.0, 3.0, 1e3)
    for tag in CASE_TAGS:
        case = asym._case(tag)
        accepted = 0
        for vals in itertools.product(grid, repeat=KIND_TABLE[case.kind].arity):
            try:
                case.gate(*vals)
            except (DomainError, RegimeError):
                continue
            accepted += 1
            kind, args, _ = asym.reference_route(case.kind, vals)
            checked(kind, args)
            assert quadrature._KIND[kind][0](args) == args, (tag, vals)
            if tag in _BODY_TERMS:
                rule, term_args = _BODY_TERMS[tag]
                rule(tag, term_args(*vals))
        assert accepted, tag


def test_containment_small_campaign():
    rep = run_containment(Campaign("F1a", (1e-2, 1e-4), samples=40, seed=11))
    assert rep.violations == 0
    assert rep.evaluated == 80
    assert rep.max_rel_width[1e-2] > rep.max_rel_width[1e-4]
    assert rep.theta.get("outside", 0) == 0


@pytest.mark.parametrize("ratios", [(1e-2, 1e-310), (1e-310, 1e-2)])
def test_containment_mixes_normal_and_subnormal_kprime_routes(ratios):
    # K's reference route scales a row by k'^(-1/2) where k'^2 is subnormal
    # and by 1 elsewhere: one oracle batch holding both kinds of row must
    # scale each by its own factor, in either ratio order
    rep = run_containment(Campaign("F1e", ratios, samples=10, seed=1))
    assert rep.evaluated == 20
    assert rep.violations == 0


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
    # not gated: every integral in the catalog is positive.  The row's form
    # negates the value its enclosure is made of; the symbol recovery, which
    # reads the form's inverse, is left as it was
    case = asym._CASES["F1a"]
    value = case.form.value
    negated = case.form._replace(value=lambda c, s: -value(c, s))
    monkeypatch.setitem(asym._CASES, "F1a", case._replace(form=negated))
    rep = run_containment(Campaign("F1a", (1e-3,), samples=10, seed=11))
    assert (rep.evaluated, rep.gated, rep.violations) == (10, 0, 10)
    assert {s["kind"] for s in rep.violation_samples} == {"containment"}
    assert all(s["hi"] < 0.0 for s in rep.violation_samples)


# checks that a clean run never fires: each is shown to fire on a code
# mutated by a few ulps or by 1e-9 relative, and to record what it saw


def test_theta_outside_its_bracket_is_a_violation(monkeypatch):
    # F1a's bracket shifted up by twice its width excludes every realized symbol
    case = asym._CASES["F1a"]

    def shifted(*args):
        lo, hi, terms = case.formula(*args)
        return hi + (hi - lo), hi + 2.0 * (hi - lo), terms

    monkeypatch.setitem(asym._CASES, "F1a", case._replace(formula=shifted))
    rep = run_containment(Campaign("F1a", (1e-3,), samples=5, seed=11))
    assert rep.evaluated == 5
    assert rep.theta == {"outside": 5}
    assert rep.violations >= 5
    sample = next(s for s in rep.violation_samples if s["kind"] == "theta")
    assert sample["bracket"][0] > sample["theta"]


def test_raised_inequality_bound_is_a_violation(monkeypatch):
    # A5's lower bound raised by 1e-9 relative passes its middle at the x = y probes
    row = bounds._INEQ["A5"]

    def raised(*args):
        br = row.bracket(*args)
        return bounds.Bracket(br.lo * (1.0 + 1e-9), br.mid, br.hi)

    monkeypatch.setitem(bounds._INEQ, "A5", row._replace(bracket=raised))
    rep = run_bounds_fuzz("A5", n=100, seed=42)
    assert rep.violations >= 10   # one x = y probe in ten
    assert len(rep.violation_samples) == min(rep.violations, harness._MAX_RECORDED)
    sample = rep.violation_samples[0]
    assert sample["kind"] == "A5" and sample["bracket"][0] > sample["bracket"][1]


def test_non_monotone_solved_factor_is_a_violation(monkeypatch):
    row = bounds._INEQ["A3"]
    monkeypatch.setitem(bounds._INEQ, "A3", row._replace(theta=lambda t, x: -row.theta(t, x)))
    rep = run_bounds_fuzz("A3", n=100, seed=42)
    assert rep.violations == 1
    assert rep.violation_samples == [{"kind": "A3", "detail": "monotonicity failed"}]


def test_perturbed_evaluator_misses_its_identity(monkeypatch):
    real = core.rd
    monkeypatch.setattr(core, "rd", lambda *a: real(*a) * (1.0 + 1e-9))
    rep = run_identities(seed=1, n=20, which=("rd-cyclic",))
    assert (rep.evaluated, rep.violations) == (20, 20)
    assert len(rep.violation_samples) == harness._MAX_RECORDED
    assert rep.violation_samples[0]["kind"] == "rd-cyclic"
    assert rep.violation_samples[0]["detail"].startswith("cyclic sum off by ")


@pytest.mark.parametrize("name, scaled, detail", [
    # rg plus a constant is no longer homogeneous
    ("rg", lambda real, *a: real(*a) + 1.0, "homogeneity drift "),
    # rf drifting 1e-15 per e-fold of x stays within the general-scale
    # band of 2e-14 over lam in [1e-3, 1e3], but power-of-four scaling is
    # no longer exact
    ("rf", lambda real, *a: real(*a) * (1.0 + 1e-15 * math.log(a[0])),
     "exact power-of-four scaling failed at k="),
], ids=["drift", "power-of-four"])
def test_perturbed_evaluator_misses_homogeneity(monkeypatch, name, scaled, detail):
    real = getattr(core, name)
    monkeypatch.setattr(core, name, lambda *a: scaled(real, *a))
    rep = run_identities(seed=1, n=50, which=("homogeneity",))
    assert rep.evaluated == 50 and rep.violations > 0
    assert all(s["detail"].startswith(detail) for s in rep.violation_samples)


def test_perturbed_evaluator_misses_rg_decomposition(monkeypatch):
    real = core.rg
    monkeypatch.setattr(core, "rg", lambda *a: real(*a) * (1.0 + 1e-9))
    rep = run_identities(seed=1, n=20, which=("rg-decomposition",))
    assert (rep.evaluated, rep.violations) == (20, 20)
    assert rep.violation_samples[0]["detail"].startswith("rg decomposition off by ")


def test_redrawn_identities_cover_their_integer_draws(monkeypatch):
    # homogeneity's exponent k and rg-decomposition's index zi of z come
    # from a uniform column of the block draw; at n = 200 they take every
    # value, read off the calls: rf(4^k x, 4^k y, 4^k z) beside rf(x, y, z),
    # and rg(x, y, z) with z the row's value zi
    rows, calls = [], []
    real_rows = harness._rows
    monkeypatch.setattr(harness, "_rows",
                        lambda *a: (rows.append(r) or r for r in real_rows(*a)))
    for name in ("rf", "rg"):
        real = getattr(core, name)
        monkeypatch.setattr(core, name,
                            lambda *a, name=name, real=real: calls.append((name, a)) or real(*a))

    def args_of(name):
        return [a for n, a in calls if n == name]

    run_identities(seed=1, n=200, which=("homogeneity",))
    rf = args_of("rf")   # per draw: rf at lam x, rf, rf at 4^k x, rf
    assert len(rf) == 4 * 200
    assert {round(math.log(rf[i + 2][0] / rf[i + 3][0], 4))
            for i in range(0, len(rf), 4)} == set(range(-4, 5))
    rows.clear(), calls.clear()
    run_identities(seed=1, n=200, which=("rg-decomposition",))
    assert len(args_of("rg")) == len(rows) == 200
    assert {row.index(z) for row, (_, _, z) in zip(rows, args_of("rg"))} == {0, 1, 2}


def test_expected_slope_table_complete():
    for tag in CASE_TAGS:
        assert asym._case(tag).slope is not None


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


# sha256 prefix of each inequality's fuzz reports at n = 2000 and seeds 1-3
# (canonical JSON without wall_time, one after another), taken before the
# fuzz called the body of bounds.bracket on a row it looks up once; a change
# to the draws, the probes, a bracket or the checks changes its digest
_FUZZ_DIGESTS = {
    "A1": "486ac46deace2ffc",
    "A2": "95b72e06e4c978f6",
    "A3": "ec32d610a3611c75",
    "A4": "afcc7b7f1274cc87",
    "A5": "39f06e2f32062529",
    "A6": "620c0902e65c033b",
    "A6a": "1816d5e602d9745a",
    "A7": "6ff4c82348b4e227",
    "A8": "c715327dacac636c",
    "A9": "2e0c54e275ecacd4",
    "A10": "3b8d49dbf38d407d",
    "AX": "587991727caf09c1",
    "AY": "c8eacd31c49f8b20",
    "AZ": "8fe9e1f651711379",
}


@pytest.mark.parametrize("tag", bounds.INEQ_TAGS)
def test_bounds_fuzz_reports_are_pinned(tag):
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        doc = run_bounds_fuzz(tag, 2000, seed).to_dict()
        doc.pop("wall_time")
        h.update(dumps(doc).encode())
    assert h.hexdigest()[:16] == _FUZZ_DIGESTS[tag]


def test_fuzz_digests_cover_every_inequality():
    assert tuple(_FUZZ_DIGESTS) == bounds.INEQ_TAGS


def test_bounds_fuzz_looks_its_row_up_once(monkeypatch):
    # the drawn tuples and the A3/A4 monotonicity check go to the row's
    # bodies: no lookup by tag and no argument check per tuple
    calls = {"_ineq": 0, "_checked": 0}

    def counted(name):
        real = getattr(bounds, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(bounds, name, counted(name))
    for tag in bounds.INEQ_TAGS:
        calls["_ineq"] = 0
        rep = run_bounds_fuzz(tag, n=40, seed=1)
        assert rep.evaluated == 40 and rep.violations == 0
        assert calls == {"_ineq": 1, "_checked": 0}, tag


@pytest.mark.parametrize("broken", ["ZeroDivisionError", "inf", "nan"])
def test_bracket_failure_in_the_fuzz_is_the_public_error(monkeypatch, broken):
    # a row whose bracket raises an ArithmeticError, or returns an endpoint
    # that is not finite, at an equal probe: the fuzz raises the
    # ConvergenceError that bounds.bracket raises at those arguments
    row = bounds._INEQ["A8"]
    seen = []

    def failing(*args):
        seen.append(args)
        br = row.bracket(*args)
        if len(seen) < 10 or args != seen[9]:
            return br
        if broken == "ZeroDivisionError":
            return br.hi / 0.0
        return br._replace(hi=float(broken))

    monkeypatch.setitem(bounds._INEQ, "A8", row._replace(bracket=failing))
    with pytest.raises(ConvergenceError) as fuzz:
        run_bounds_fuzz("A8", n=100, seed=1)
    args = seen[-1]
    assert len(seen) == 10 and args[1] == args[2]   # the tenth tuple is an x = y probe
    with pytest.raises(ConvergenceError) as public:
        bounds.bracket("A8", *args)
    assert len(seen) == 11
    assert str(fuzz.value) == str(public.value)
    assert str(fuzz.value).startswith(f"A8 at {args} is past float64: ")


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
            rows = list(harness._rows(rng_block, count, ((lo, hi),) * k))
            flat = [v for row in rows for v in row]
            assert len(rows) == count and all(len(row) == k for row in rows)
            assert flat == [harness._lu(rng_scalar, lo, hi) for _ in range(count * k)]
    rng_block, rng_scalar = np.random.default_rng(7), np.random.default_rng(7)
    moduli = [harness._modulus(u) for u, in harness._rows(rng_block, count, (None,))]
    assert moduli == [float(rng_scalar.uniform(0.05, 0.995)) for _ in range(count)]


def test_mixed_block_rows_reproduce_scalar_draws():
    # log-uniform and uniform columns side by side, as the identities draw
    # them, across a block boundary: each row is the next scalar _lu and
    # rng.random() calls on a twin generator, in column order
    columns = ((1e-3, 1e3), None, (1e-4, 1.0), (0.01, 1.0), None)
    seq = np.random.SeedSequence([7, 4242])
    rng_block, twin = np.random.default_rng(seq), np.random.default_rng(seq)
    rows = list(harness._rows(rng_block, harness._BLOCK + 5, columns))
    assert rows == [[twin.random() if c is None else harness._lu(twin, *c) for c in columns]
                    for _ in rows]


def test_campaign_stream_reproduces_scalar_draws():
    # a campaign stream maps one rng.random buffer per block; its draws are
    # those of scalar _lu and rng.random() calls on a twin generator, bit for
    # bit, over the five bound pairs the samplers use, with coins between
    # them and across three block refills
    pairs = ((1e-3, 1e3), (0.1, 10.0), (0.01, 1.0), (0.2, 5.0), (0.1, 1.0))
    picks = np.random.default_rng(1).integers(0, len(pairs) + 1, 3 * harness._DRAW_BLOCK + 7)
    seq = np.random.SeedSequence([42, 16])
    draws, twin = Draws(np.random.default_rng(seq)), np.random.default_rng(seq)
    got = [draws.coin() if i == len(pairs) else draws.lu(*pairs[i]) for i in picks.tolist()]
    want = [twin.random() if i == len(pairs) else harness._lu(twin, *pairs[i])
            for i in picks.tolist()]
    assert got == want


def test_campaign_stream_tables_met_mid_block():
    # a pair first met partway through a block gets its table then, over the
    # whole buffer; its draws, and coins on either side of the block
    # boundary, are those of scalar _lu and rng.random() calls, each a
    # Python float, not a numpy scalar
    block = harness._DRAW_BLOCK
    first, late = (1e-3, 1e3), (0.2, 5.0)
    plan = [first, None] * 60 + [late] * 3
    plan += [None] * (block - len(plan)) + [late, None, first] + [None] * 40 \
        + [(0.01, 1.0), late, None]
    assert plan[block - 1] is None and plan[block] is late   # a coin, then a new block
    seq = np.random.SeedSequence([3, 8])
    draws, twin = Draws(np.random.default_rng(seq)), np.random.default_rng(seq)
    got = [draws.coin() if pair is None else draws.lu(*pair) for pair in plan]
    want = [twin.random() if pair is None else harness._lu(twin, *pair) for pair in plan]
    assert got == want
    assert {type(v) for v in got} == {float}


def test_containment_reruns_are_equal():
    # each (case, ratio) stream owns its buffer and tables, so a second run
    # of the same campaign in one process, its streams past a block refill,
    # reports the same
    campaign = Campaign("F1a", ratios=(1e-2, 1e-5), samples=100, seed=5)
    first, second = (run_containment(campaign).to_dict() for _ in range(2))
    first.pop("wall_time"), second.pop("wall_time")
    assert first == second


def test_bounds_fuzz_replays_scalar_loop(monkeypatch):
    # every inequality sees the tuples of the scalar loop the block draw
    # replaced, equal probes included
    seen = []

    def recording(tag):
        row = bounds._INEQ[tag]

        def bracket(*args):
            seen.append((tag, args))
            return row.bracket(*args)
        return row._replace(bracket=bracket)

    n, seed = 200, 3
    expected = []
    for index, tag in enumerate(bounds.INEQ_TAGS):
        monkeypatch.setitem(bounds._INEQ, tag, recording(tag))
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
        run_order_fit("C1", seed=2),
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
    assert len(lines) == 1 + 2 + 5  # header + containment rows + order rows


def test_campaign_validation():
    with pytest.raises(DomainError):
        Campaign("F1a", (1.5,), samples=10, seed=1)
    with pytest.raises(DomainError):
        Campaign("F1a", (1e-2,), samples=0, seed=1)
    # a campaign that checks nothing must not report a pass
    with pytest.raises(DomainError, match="at least one ratio"):
        Campaign("C1", (), samples=10, seed=1)
    # the report keeps one maximum width per ratio, so two streams at 1e-2
    # printed the second stream's width on both rows
    with pytest.raises(DomainError, match=r"^ratios must not repeat, got \(0\.01, 0\.001, 0\.01"):
        Campaign("C1", (1e-2, 1e-3, 1e-2), samples=50, seed=42)


def test_identity_streams_reproduce_scalar_draws(monkeypatch):
    # the log-kernel bracket and the AGM chain draw block rows of mixed
    # columns over their identity's generator; the tuples they check are
    # those of scalar _lu and rng.random() calls on a twin generator, bit
    # for bit
    seen = []
    monkeypatch.setattr(quadrature, "oracle_batch",
                        lambda kind, rows: seen.extend(rows) or [(1.0, 0.0)] * len(rows))
    real_rf = core.rf
    monkeypatch.setattr(core, "rf", lambda *a: seen.append(a) or real_rf(*a))
    n, seed = 200, 7
    for tag in ("log-kernel-bracket", "agm-chain"):
        seen.clear()
        run_identities(seed=seed, n=n, which=(tag,))
        twin = np.random.default_rng(np.random.SeedSequence([seed, 4242, 0]))
        want = []
        for _ in range(n):
            if tag == "agm-chain":
                x, y, _ = (harness._lu(twin, 1e-3, 1e3) for _ in range(3))
                want.append((x, x if twin.random() < 0.1 else y, 0.0))
            else:
                z = harness._lu(twin, 1e-3, 1e3)
                s = 0.01 * z * harness._lu(twin, 1e-4, 1.0)
                x = s * harness._lu(twin, 0.01, 1.0)
                want.append((x, s - x if s > x else 0.5 * s, z))
        assert seen == want, tag
