import copy
import hashlib
import math
import pickle
import sys

import numpy as np
import pytest

from symell import (
    ConvergenceError,
    DomainError,
    EvalReport,
    EvalRequest,
    RegimeError,
    ToleranceError,
    asym,
    bounds,
    core,
    dispatch,
    evaluate,
    plan,
)
from symell._util import KIND_TABLE
from symell.dispatch import PlanStep
from symell.quadrature import oracle_batch


def labels(steps):
    return [f"asym({s.case})" if s.method == "asym" else s.method for s in steps]


_ARITY = {"RC": 2, "RF": 3, "RD": 3, "RJ": 4, "RG": 3, "K": 1, "E": 1}


def _mixed_batch(rng, rounds):
    """(kind, args) of every kind: generic magnitudes 1e-3..1e3, a deep
    regime with ratio 1e-9..1e-3, and equal arguments (a closed form)."""
    def lu(n):
        return tuple(float(v) for v in np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n)))

    for _ in range(rounds):
        for kind, n in _ARITY.items():
            ratio = 10.0 ** float(rng.uniform(-9, -3))
            if kind in ("K", "E"):
                yield kind, (float(rng.uniform(0.01, 0.99)),)
                yield kind, (math.sqrt(1.0 - ratio),)
                yield kind, (0.0,)
                continue
            yield kind, lu(n)
            vals = list(lu(n))
            for i in rng.choice(n, int(rng.integers(1, n)), replace=False):
                vals[i] *= ratio
            yield kind, tuple(vals)
            yield kind, lu(1) * n


@pytest.fixture
def built(monkeypatch):
    """Tags of the enclosures the dispatcher builds while the test runs, in
    call order."""
    tags = []
    build = asym._build

    def counting(case, vals):
        tags.append(case.tag)
        return build(case, vals)

    monkeypatch.setattr(asym, "_build", counting)
    return tags


class TestClosedForms:
    def test_equal_arguments_first_kind(self):
        rep = evaluate(EvalRequest("RF", (2.0, 2.0, 2.0), 1e-12))
        assert rep.method == "closed_form"
        assert rep.value == pytest.approx(2.0 ** -0.5, rel=1e-15)

    def test_rc_always_closed(self):
        rep = evaluate(EvalRequest("RC", (0.0, 5.0), 1e-3))
        assert rep.method == "closed_form"
        assert plan(EvalRequest("RC", (0.0, 5.0), 1e-3))[0].method == "closed_form"

    def test_two_equal_reduces_to_rc(self):
        rep = evaluate(EvalRequest("RF", (3.0, 1.0, 1.0), 1e-12))
        assert rep.method == "closed_form"
        assert rep.value == pytest.approx(core.rc(3.0, 1.0), rel=1e-14)

    def test_two_largest_equal_reduces_to_rc(self):
        rep = evaluate(EvalRequest("RF", (1.0, 3.0, 3.0), 1e-12))
        assert (rep.method, rep.guaranteed_rel_err) == ("closed_form", 1e-13)
        assert rep.value == core.rc(1.0, 3.0)
        assert rep.value == pytest.approx(math.atan(math.sqrt(2.0)) / math.sqrt(2.0), rel=1e-14)

    def test_rj_with_p_equal_reduces_to_rd_closed_form(self):
        rep = evaluate(EvalRequest("RJ", (0.0, 2.0, 2.0, 2.0), 1e-12))
        assert (rep.method, rep.guaranteed_rel_err) == ("closed_form", 1e-14)
        assert rep.value == pytest.approx(0.75 * math.pi * 2.0 ** -1.5, rel=1e-14)

    def test_rd_complete_pattern(self):
        rep = evaluate(EvalRequest("RD", (0.0, 2.0, 2.0), 1e-12))
        assert rep.method == "closed_form"
        assert rep.value == pytest.approx(0.75 * math.pi * 2.0 ** -1.5, rel=1e-14)

    def test_rg_patterns(self):
        assert evaluate(EvalRequest("RG", (4.0, 4.0, 0.0), 1e-12)).value == \
            pytest.approx(math.pi / 2, rel=1e-14)
        assert evaluate(EvalRequest("RG", (0.0, 0.0, 9.0), 1e-12)).value == 1.5

    def test_legendre_endpoints(self):
        assert evaluate(EvalRequest("K", (0.0,), 1e-12)).value == pytest.approx(math.pi / 2)
        assert evaluate(EvalRequest("E", (1.0,), 1e-12)).value == 1.0


class TestClosedFormRange:
    """A closed form whose value float64 cannot hold raises ConvergenceError."""

    @pytest.mark.parametrize("kind,args", [
        ("RD", (5e-324, 5e-324, 5e-324)),
        ("RJ", (5e-324, 5e-324, 5e-324, 5e-324)),
        ("RD", (1e308, 1e308, 1e308)),
        ("RD", (0.0, 1e308, 1e308)),
    ])
    def test_raises(self, kind, args):
        req = EvalRequest(kind, args, 1e-6)
        with pytest.raises(ConvergenceError):
            evaluate(req)
        with pytest.raises(ConvergenceError):
            plan(req)

    def test_normal_values_still_closed(self):
        rep = evaluate(EvalRequest("RD", (1e200, 1e200, 1e200), 1e-12))
        assert (rep.method, rep.value) == ("closed_form", 1e-300)


class TestPrincipalValues:
    """RC at y < 0 and RJ at p < 0 are principal values, answered by rc and
    rj under the guarantees of the rc closed forms and the reference."""

    def test_rc(self):
        rep = evaluate(EvalRequest("RC", (1.0, -2.0), 1e-9))
        assert rep == EvalReport(core.rc(1.0, -2.0), "closed_form", None, 1e-13)
        assert rep.value.hex() == core.rc(1.0, -2.0).hex()

    def test_rc_at_x_zero_is_exactly_zero(self):
        rep = evaluate(EvalRequest("RC", (0.0, -1.0), 1e-9))
        assert (rep.value, rep.method) == (0.0, "closed_form")

    def test_rj(self):
        req = EvalRequest("RJ", (1.0, 2.0, 4.0, -1.0), 1e-9)
        rep = evaluate(req)
        assert rep == EvalReport(core.rj(1.0, 2.0, 4.0, -1.0), "reference", None, 1e-12)
        assert rep.value.hex() == core.rj(1.0, 2.0, 4.0, -1.0).hex()
        # no case gate accepts p < 0, so the walk is the reference step alone
        assert labels(plan(req)) == ["reference"]

    @pytest.mark.parametrize("kind,args", [("RC", (1.0, -2.0)), ("RJ", (1.0, 2.0, 4.0, -1.0))])
    def test_below_the_guarantee(self, kind, args):
        with pytest.raises(ToleranceError, match="no method certifies rel_tol=1e-14"):
            evaluate(EvalRequest(kind, args, 1e-14))


class TestReferenceRange:
    """A reference value below the normal float64 range raises
    ConvergenceError instead of carrying the reference guarantee."""

    @pytest.mark.parametrize("kind,args", [
        ("RD", (1e-320, 1e-300, 1e300)),
        ("RJ", (1e300, 2e-300, 0.0, 1e300)),
        ("RG", (5e-324, 2e300, 2e-300)),
    ])
    def test_raises(self, kind, args):
        with pytest.raises(ConvergenceError):
            evaluate(EvalRequest(kind, args, 1e-6))

    def test_negative_enclosure_falls_through(self, monkeypatch):
        # the walk skips a case whose enclosure is not positive (a cancelled
        # integral), whose gate refuses or whose formula fails in float64:
        # RD(1, 1, 1e-8) plans D2a, D2c, D2b and the reference, and each
        # refusal in turn hands the answer to the next step
        req = EvalRequest("RD", (1.0, 1.0, 1e-8), 1e-3)
        assert labels(plan(req)) == ["asym(D2a)", "asym(D2c)", "asym(D2b)", "reference"]
        d2a = asym._case("D2a").formula

        def negative(*vals):
            lo, hi, terms = d2a(*vals)
            return lo, hi, tuple(-t for t in terms)

        def refuse(*vals):
            raise RegimeError("refused")

        def fail(*vals):
            raise ZeroDivisionError("float division by zero")

        refusals = [("D2a", "formula", negative, "D2c"), ("D2c", "gate", refuse, "D2b"),
                    ("D2b", "formula", fail, None)]
        for n, (tag, field, fn, nxt) in enumerate(refusals, 1):
            monkeypatch.setitem(asym._KIND_CASES, "RD", tuple(
                (ratio, tuple((c._replace(**{field: fn}) if c.tag == tag else c, cost)
                              for c, cost in rows))
                for ratio, rows in asym._KIND_CASES["RD"]))
            rep = evaluate(req)
            assert (rep.method, rep.case) == (("asym", nxt) if nxt else ("reference", None))
            assert rep.value == pytest.approx(core.rd(1.0, 1.0, 1e-8), rel=1e-3)
            assert labels(plan(req)) == [f"asym({t})" for t in ("D2c", "D2b")[n - 1:]] \
                + ["reference"]


class TestAsymptoticPath:
    def test_deep_regime_selects_enclosure(self):
        req = EvalRequest("RF", (1e-9, 2e-9, 1.0), 1e-6)
        rep = evaluate(req)
        assert rep.method == "asym"
        assert rep.case in ("F1a", "F1c", "F1d")
        assert rep.enclosure is not None
        hw = (rep.enclosure.hi - rep.enclosure.lo) / (2.0 * abs(rep.value))
        assert hw <= 1e-6
        assert rep.value == pytest.approx(core.rf(1e-9, 2e-9, 1.0), rel=1e-6)

    def test_plan_shape_for_deep_rf(self):
        steps = plan(EvalRequest("RF", (1e-9, 2e-9, 1.0), 1e-6))
        seq = labels(steps)
        # narrowest first within the formula-only class, reference last
        assert seq.index("asym(F1d)") < seq.index("asym(F1c)") < seq.index("asym(F1a)")
        assert seq[-1] == "reference"

    def test_plan_orders_d2_by_cost(self):
        steps = plan(EvalRequest("RD", (1.0, 1.0, 1e-8), 1e-3))
        seq = labels(steps)
        assert seq.index("asym(D2a)") < seq.index("asym(D2b)")

    def test_near_unit_ratios_use_reference(self):
        rep = evaluate(EvalRequest("RJ", (1.0, 2.0, 3.0, 2.5), 1e-12))
        assert rep.method == "reference"
        assert rep.value == pytest.approx(core.rj(1.0, 2.0, 3.0, 2.5), rel=1e-14)

    def test_k_uses_complete_case(self):
        """Below the reference's guarantee a complete case still answers K."""
        k = math.sqrt(1.0 - 1e-6)  # k' = 1e-3
        rep = evaluate(EvalRequest("K", (k,), 5e-13))
        assert rep.method == "asym"
        assert rep.case in ("F1e", "F1f")


class TestReferenceFirst:
    """K and E are one AGM run, cheaper than any of their enclosures, so
    their walk tries the reference before their cases."""

    # k = 0.5, and k' = 1e-3, 1e-5 and about 1.5e-8, where cases are in ratio
    _K = (0.5, math.sqrt(1.0 - 1e-6), math.sqrt(1.0 - 1e-10), 0.9999999999999999)

    @pytest.mark.parametrize("kind,fn", [("K", core.legendre_k), ("E", core.legendre_e)])
    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6, 1e-3, 1e-1])
    def test_reference_answers_without_cases(self, kind, fn, tol, built, monkeypatch):
        passes = []
        ratio_pass = asym._ratio_pass

        def counting(*args):
            passes.append(args)
            return ratio_pass(*args)

        monkeypatch.setattr(asym, "_ratio_pass", counting)
        for k in self._K:
            rep = evaluate(EvalRequest(kind, (k,), tol))
            assert rep == EvalReport(fn(k), "reference", None, 1e-12)
        assert passes == [] and built == []

    @pytest.mark.parametrize("kind", ["K", "E"])
    def test_plan_lists_reference_before_cases(self, kind):
        for k in self._K[1:]:
            seq = labels(plan(EvalRequest(kind, (k,), 1e-6)))
            assert seq[0] == "reference" and len(seq) > 1, seq
            assert all(s.startswith("asym(") for s in seq[1:]), seq


def test_twins_are_not_walked(built):
    """C2c and F1b are C2a's and F1a's rows under their own tags: the ratio
    pass leaves them out, and each stays enclosable by its tag."""
    twins = {"C2c": "C2a", "F1b": "F1a"}
    assert not set(twins) & {*asym.kind_cases("RC"), *asym.kind_cases("RF")}
    seen = set()
    for kind, args in _mixed_batch(np.random.default_rng(5), 40):
        if kind in ("RC", "RF"):
            evaluate(EvalRequest(kind, args, 1e-3))
            for _, cases in asym._ratio_pass(kind, args, math.inf):
                seen.update(c.tag for c in cases)
    assert set(twins.values()) <= seen and not set(twins) & (seen | set(built))
    for twin, sibling in twins.items():
        args = (100.0, 1.0) if twin == "C2c" else (0.01, 0.02, 1.0)
        assert asym.enclose(twin, *args) == asym.enclose(sibling, *args)._replace(case=twin)


def _classes(kind, args, ratio_max=1e-2):
    """(cost, tags) of the cases that the ratio pass finds in ratio at ``args``."""
    classes = asym._ratio_pass(kind, tuple(map(float, args)), ratio_max)
    return [(cost, [c.tag for c in cases]) for cost, cases in classes]


def _costs(kind, args, ratio_max=1e-2):
    """The cost of each case that the ratio pass finds in ratio at ``args``."""
    return {t: cost for cost, tags in _classes(kind, args, ratio_max) for t in tags}


class TestLazyWalk:
    """evaluate builds enclosures one cost class at a time and stops at the
    first step that certifies the request."""

    @pytest.mark.parametrize("kind,args", [
        ("RF", (2.0, 2.0, 2.0)),
        ("RD", (0.0, 2.0, 2.0)),  # D4 is in ratio and listed by plan
    ])
    def test_closed_form_builds_no_enclosure(self, built, kind, args):
        rep = evaluate(EvalRequest(kind, args, 1e-12))
        assert rep.method == "closed_form"
        assert built == []

    @pytest.mark.parametrize("kind,args,case", [
        ("RF", (1e-9, 2e-9, 1.0), "F1d"),
        ("RD", (1.0, 1.0, 1e-8), "D2a"),  # D2b and D2c (cost 2) are in ratio
    ])
    def test_cost_one_pick_builds_cost_one_only(self, built, kind, args, case):
        rep = evaluate(EvalRequest(kind, args, 1e-6))
        assert (rep.method, rep.case) == ("asym", case)
        assert built and {_costs(kind, args)[t] for t in built} == {1}

    def test_cost_two_pick_builds_no_cost_three(self, built):
        req = EvalRequest("RJ", (700.0, 150.0, 0.25, 0.003), 1e-3)
        rep = evaluate(req)
        # the cost-1 steps J4a (2.3e-3) and J2a miss; J4c (cost 2) certifies
        assert (rep.method, rep.case) == ("asym", "J4c")
        assert {_costs(req.kind, req.args)[t] for t in built} == {1, 2}
        assert "J2b" not in built
        assert "asym(J2b)" in labels(plan(req))  # cost 3 and in ratio

    @pytest.mark.parametrize("kind,args,rel_tol,steps", [
        ("RC", (1.0, 1e-6), 5e-14, ["closed_form", "asym(C2b)", "asym(C2a)", "reference"]),
        ("RF", (1e-9, 2e-9, 1.0), 1e-13, ["asym(F1d)", "asym(F1c)", "asym(F1a)", "reference"]),
        ("K", (0.999999,), 1e-13, ["reference", "asym(F1f)", "asym(F1e)"]),
    ])
    def test_no_enclosure_below_the_asym_margin(self, built, kind, args, rel_tol, steps):
        """Every asym guarantee is a half-width plus _ASYM_MARGIN, so below
        it evaluate builds no enclosure; plan still builds and lists them."""
        req = EvalRequest(kind, args, rel_tol)
        with pytest.raises(ToleranceError) as exc:
            evaluate(req)
        assert str(exc.value) == f"no method certifies rel_tol={rel_tol:g} for {kind}{args}"
        assert built == []
        listed = plan(req)
        assert labels(listed) == steps
        assert sorted(built) == sorted(s.case for s in listed if s.method == "asym")

    def test_one_argument_check_per_request(self, built, monkeypatch):
        """The request checks its arguments when it is built, by its kind's
        row of _util.KIND_TABLE; the ratio pass and every enclosure run on
        that checked tuple, and asym converts no argument again."""
        calls = []

        def counting(real):
            def wrapper(*args):
                calls.append(args)
                return real(*args)
            return wrapper

        monkeypatch.setattr(dispatch, "checked", counting(dispatch.checked))
        monkeypatch.setattr(asym, "floats", counting(asym.floats))
        evaluate(EvalRequest("RJ", (700.0, 150.0, 0.25, 0.003), 1e-3))
        assert len(built) >= 2
        assert calls == [("RJ", (700.0, 150.0, 0.25, 0.003))]

        # reference and closed-form answers run core's checked bodies, so
        # core applies none of its rules to a request's tuple again
        enclosures, rules = len(built), []
        for name in ("xyz_rule", "rc_rule", "rd_rule", "rj_rule", "rg_rule", "k_rule",
                     "e_rule"):
            rule = getattr(core, name)
            monkeypatch.setattr(core, name, lambda *a, rule=rule: rules.append(a) or rule(*a))
        for kind, args, method in [("RF", (1.0, 2.0, 4.0), "reference"),
                                   ("RF", (1.0, 2.0, 2.0), "closed_form"),
                                   ("RC", (1.0, 2.0), "closed_form"),
                                   ("K", (0.5,), "reference"),
                                   ("E", (0.5,), "reference")]:
            calls.clear()
            rep = evaluate(EvalRequest(kind, args, 1e-9))
            assert rep.method == method, kind
            assert calls == [(kind, args)] and rules == [], (kind, args)
            assert len(built) == enclosures, (kind, args)

    @pytest.mark.parametrize("kind,zero,nonzero,case", [
        ("RJ", (1e-6, 2e-6, 0.0, 1.0), (1e-6, 2e-6, 1e-9, 1.0), "J1b"),
        ("RJ", (1.0, 2.0, 0.0, 1e-6), (1.0, 2.0, 1e-9, 1e-6), "J4b"),
        ("RJ", (1.0, 0.0, 1e-6, 2e-6), (1.0, 1e-9, 1e-6, 2e-6), "J6complete"),
        ("RG", (0.0, 1e-6, 1.0), (1e-9, 1e-6, 1.0), "G1b"),
    ])
    def test_complete_cases_need_their_zero(self, built, kind, zero, nonzero, case):
        """A complete case expands about a vanishing argument, and its gate
        refuses elsewhere; the walk builds it only where that argument is 0,
        though its ratio is in range at both tuples."""
        for args in (zero, nonzero):
            assert asym.case_ratio(case, *args) <= 1e-2
        # every class of the walk, so that no earlier step stops it
        plan(EvalRequest(kind, nonzero, 1e-3))
        assert case not in built
        steps = plan(EvalRequest(kind, zero, 1e-3))
        assert case in built and f"asym({case})" in labels(steps)


# an in-window tuple at which the case formula leaves float64
_PAST_FLOAT64 = {
    "F1e": (5e-324,), "F1f": (5e-324,), "G1c": (5e-324,),
    "D4": (1e60, 1e-100, 1e-100),
    "J2a": (1e-60,) * 4, "J2b": (1e-60,) * 4, "J5": (0.0, 1e-100, 1e-100, 1e-30),
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ConvergenceError, DomainError, RegimeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("tag", asym.CASE_TAGS)
def test_dispatcher_entry_agrees_with_enclose(tag, draws, monkeypatch):
    """The dispatcher builds each enclosure from a case row and the request's
    checked tuple; it gets what asym.enclose gives at that tuple, the same
    Enclosure or the same error with the same text."""
    case = asym._case(tag)
    refused = (0.0,) * KIND_TABLE[case.kind].arity
    with pytest.raises((DomainError, RegimeError)):
        case.gate(*refused)
    rows = [asym._sample(case, r, draws.lu, draws.coin) for r in (1e-3, 1e-8)]
    rows += [refused, *([_PAST_FLOAT64[tag]] if tag in _PAST_FLOAT64 else [])]
    got = [_outcome(asym._build, case, vals) for vals in rows]
    assert got == [_outcome(asym.enclose, tag, *vals) for vals in rows]
    assert isinstance(got[0], asym.Enclosure)
    if tag in _PAST_FLOAT64:
        assert got[-1][0] is ConvergenceError
    # every case, past float64 in its terms
    broken = case._replace(formula=lambda *a: (*case.formula(*a)[:2], (math.exp(1e3),)))
    monkeypatch.setitem(asym._CASES, tag, broken)
    got = _outcome(asym._build, broken, rows[0])
    assert got == _outcome(asym.enclose, tag, *rows[0])
    assert got == (ConvergenceError, f"{tag} at {rows[0]} is past float64: math range error")


class TestContract:
    def test_determinism(self):
        req = EvalRequest("RD", (1e-7, 2e-7, 1.0), 1e-6)
        assert evaluate(req) == evaluate(req)
        assert plan(req) == plan(req)

    def test_tolerance_floor_validation(self):
        with pytest.raises(DomainError):
            EvalRequest("RF", (1.0, 2.0, 3.0), 1e-15)
        with pytest.raises(DomainError):
            EvalRequest("RF", (1.0, 2.0, 3.0), 0.5)

    def test_unachievable_tolerance(self):
        # rc's closed-form guarantee is 1e-13; nothing certifies below it
        with pytest.raises(ToleranceError):
            evaluate(EvalRequest("RC", (3.0, 1.0), 1e-14))

    def test_domain_propagates(self):
        with pytest.raises(DomainError):
            evaluate(EvalRequest("RD", (1.0, 1.0, -1.0), 1e-6))
        with pytest.raises(DomainError, match="requires p != 0"):
            evaluate(EvalRequest("RJ", (1.0, 1.0, 1.0, 0.0), 1e-6))

    def test_evaluate_takes_first_certifying_step(self, rng):
        seen = set()
        for kind, args in _mixed_batch(rng, 4):
            # below 1e-12 only asym steps and closed forms certify, and
            # 1e-14 is beyond every step but the elementary closed forms
            for tol in (1e-3, 1e-6, 1e-9, 1e-12, 5e-13, 2e-13, 1e-14):
                req = EvalRequest(kind, args, tol)
                first = next((s for s in plan(req) if s.guaranteed_rel_err <= tol), None)
                if first is None:
                    with pytest.raises(ToleranceError):
                        evaluate(req)
                    seen.add("refused")
                    continue
                rep = evaluate(req)
                assert (rep.method, rep.case, rep.guaranteed_rel_err) == \
                    (first.method, first.case, first.guaranteed_rel_err), req
                seen.add(rep.method)
        assert seen == {"closed_form", "asym", "reference", "refused"}

    def test_report_invariants(self):
        rep = evaluate(EvalRequest("RF", (1e-8, 1e-8, 1.0), 1e-6))
        assert isinstance(rep, EvalReport)
        assert rep.guaranteed_rel_err <= 1e-6
        if rep.method == "asym":
            assert rep.enclosure.lo <= rep.value <= rep.enclosure.hi


class TestRecords:
    """Requests, reports, plan steps and brackets are immutable, hashable
    named tuples with today's fields in today's order, and a request is
    checked however it is built."""

    @staticmethod
    def _record(name):
        req = EvalRequest("RF", (1e-9, 2e-9, 1.0), 1e-6)
        return {
            "EvalRequest": (req, ["kind", "args", "rel_tol"]),
            "EvalReport": (evaluate(req), ["value", "method", "case", "guaranteed_rel_err",
                                           "enclosure"]),
            "PlanStep": (plan(req)[0], ["method", "case", "cost", "guaranteed_rel_err",
                                        "predicted_rel_halfwidth"]),
            "Bracket": (bounds.bracket("A3", 1.0, 2.0), ["lo", "mid", "hi"]),
        }[name]

    @pytest.mark.parametrize("name", ["EvalRequest", "EvalReport", "PlanStep", "Bracket"])
    def test_immutable_and_hashable(self, name):
        record, fields = self._record(name)
        assert type(record).__name__ == name
        assert list(record._fields) == fields
        for attr in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, attr, record[0])
        assert hash(record) == hash(copy.copy(record))
        assert pickle.loads(pickle.dumps(record)) == record

    def test_defaults(self):
        assert EvalReport(1.0, "reference", None, 1e-12).enclosure is None
        assert PlanStep("reference", None, 9, 1e-12).predicted_rel_halfwidth is None

    @pytest.mark.parametrize("change, match", [
        ({"args": (math.inf, 1.0, 1.0)}, "rf: got inf, not a finite number"),
        ({"args": (1.0, 2.0)}, "takes 3 arguments, got 2"),
        ({"rel_tol": 1e-15}, "rel_tol must lie in"),
        ({"rel_tol": 0.5}, "rel_tol must lie in"),
        ({"args": (-1.0, 2.0, 4.0)}, "rf requires x, y, z >= 0"),
    ])
    def test_request_is_checked_however_built(self, change, match):
        req = EvalRequest("RF", (1.0, 2.0, 4.0), 1e-9)
        fields = {**req._asdict(), **change}.values()
        # a bad request smuggled past the constructor, to copy and pickle
        raw = tuple.__new__(EvalRequest, fields)
        for build in (lambda: req._replace(**change), lambda: EvalRequest._make(fields),
                      lambda: copy.copy(raw), lambda: pickle.loads(pickle.dumps(raw))):
            with pytest.raises(DomainError, match=match):
                build()
        # the same routes rebuild a good request unchanged, its args as floats
        assert req._replace(args=(1, 2, 4)) == req == EvalRequest._make(req)
        assert copy.copy(req) == req == pickle.loads(pickle.dumps(req))


# each complete case and the index of the argument its gate requires to be 0
_COMPLETE = {"J1b": 2, "J4b": 2, "J6complete": 1, "G1b": 0}


def test_ratio_pass_matches_per_case_ratios():
    """One ratio pass per request gives the cost classes that a case_ratio
    call per case gives under the walk's skip rules, on the whole float64
    range: log-uniform 1e-300..1e300, zeros, subnormals, DBL_MAX and a few
    negatives.  A complete case is left out where the argument it expands
    about is not 0."""
    rng = np.random.default_rng(3)
    costs = {}   # each case's cost, from the first ratio pass that finds it
    for kind in KIND_TABLE:
        n = KIND_TABLE[kind].arity
        rows = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), (3000, n)))
        special = rng.random((3000, n)) < 0.05
        rows[special] = rng.choice([0.0, 5e-324, 2.5e-310, sys.float_info.min / 2],
                                   int(special.sum()))
        rows[rng.random((3000, n)) < 0.02] *= -1.0
        rows[0] = sys.float_info.max
        rows[1, -1] = sys.float_info.max
        for args in rows.tolist():
            classes = {}
            for tag in asym.kind_cases(kind):
                if tag in _COMPLETE and args[_COMPLETE[tag]] != 0.0:
                    continue
                try:
                    if asym.case_ratio(tag, *args) > 1e-2:
                        continue
                except (DomainError, RegimeError, ConvergenceError):
                    continue
                if tag not in costs:
                    costs.update(_costs(kind, args, math.inf))
                classes.setdefault(costs[tag], []).append(tag)
            assert _classes(kind, args, 1e-2) == sorted(classes.items()), \
                (kind, args)


@pytest.mark.parametrize("kind, args, ratio, tags", [
    ("RF", (1e-9, 2e-9, 1.0), "_f1_ratio", {"F1a", "F1c", "F1d"}),
    ("RD", (1.0, 2.0, 1e-6), "_d2_ratio", {"D2a", "D2b", "D2c"}),
    ("RJ", (700.0, 150.0, 0.25, 0.003), "_j2_ratio", {"J2a", "J2b"}),
    ("RJ", (700.0, 150.0, 0.25, 0.003), "_j4_ratio", {"J4a", "J4c"}),
    ("RC", (1.0, 1e-6), "_c2_ratio", {"C2a", "C2b"}),
    ("K", (1e-3,), "_kprime_ratio", {"F1e", "F1f"}),
])
def test_ratio_pass_calls_each_ratio_function_once(kind, args, ratio, tags):
    """Cases that share a ratio function share its value: one ratio pass
    calls it once, though every case that shares it is in ratio."""
    code, calls = getattr(asym, ratio).__code__, []

    def profile(frame, event, _):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        classes = _classes(kind, args)
    finally:
        sys.setprofile(None)
    assert tags <= {t for _, found in classes for t in found}
    assert len(calls) == 1


def _answers_digest(tols):
    """sha256 of every answer on a seeded mixed batch at each of ``tols``,
    floats as hex, refusals as their error type and text."""
    digest = hashlib.sha256()
    for kind, args in _mixed_batch(np.random.default_rng(12), 40):
        for tol in tols:
            try:
                rep = evaluate(EvalRequest(kind, args, tol))
            except (ConvergenceError, DomainError, ToleranceError) as exc:
                got = (type(exc).__name__, str(exc))
            else:
                enc = rep.enclosure
                got = (rep.value.hex(), rep.method, rep.case, rep.guaranteed_rel_err.hex(),
                       enc and (enc.lo.hex(), enc.hi.hex(), enc.estimate.hex(), enc.case,
                                enc.strict_lo, enc.strict_hi))
            digest.update(repr(got).encode())
    return digest.hexdigest()


def test_answers_are_pinned():
    """A digest of every answer on a seeded mixed batch: a change to how
    evaluate finds its rung must move no answer.  (Pinned again when the
    complete integrals moved to the AGM run, and when K and E moved to their
    reference first.)"""
    assert _answers_digest((1e-3, 1e-6, 1e-9, 1e-12)) == \
        "fbe29473cfbec28df7b61ea55240f06b64c68e99152907b2657ad203e46fefb6"


def test_answers_below_the_reference_are_pinned():
    """The same digest below the reference's 1e-12: K's and E's asym answers
    where their reference misses, the asym margin's skip at 1e-13 and 1e-14,
    and the text of every ToleranceError."""
    assert _answers_digest((5e-13, 2e-13, 1e-13, 1e-14)) == \
        "43dd91192eed2c116db936764ee137d7ad16deb0035ccb4eff74e3053a17c742"


class TestSoundnessMiniFuzz:
    def test_regime_mixture(self, draws):
        from symell.harness import sample_args

        kinds = {"C1": "RC", "F1a": "RF", "F2a": "RF", "D1": "RD", "D2a": "RD",
                 "J2a": "RJ", "J3": "RJ", "J6a": "RJ", "G2": "RG"}
        for tag, kind in kinds.items():
            for tol in (1e-3, 1e-6, 1e-9):
                # uniform(-8, -3) reads one double as -8 + 5 u
                ratio = 10.0 ** (-8.0 + 5.0 * draws.coin())
                args = sample_args(tag, ratio, draws)
                rep = evaluate(EvalRequest(kind, args, tol))
                ref = oracle_batch(kind, [args])[0][0]
                assert abs(rep.value - ref) / abs(ref) <= tol, (tag, tol, args)
