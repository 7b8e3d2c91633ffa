import math

import numpy as np
import pytest

from symell import (
    ConvergenceError,
    DomainError,
    EvalReport,
    EvalRequest,
    ToleranceError,
    core,
    evaluate,
    oracle,
    plan,
)


def labels(steps):
    return [f"asym({s.case})" if s.method == "asym" else s.method for s in steps]


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
        k = math.sqrt(1.0 - 1e-6)  # k' = 1e-3
        rep = evaluate(EvalRequest("K", (k,), 1e-6))
        assert rep.method == "asym"
        assert rep.case in ("F1e", "F1f")


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
        with pytest.raises(DomainError):
            evaluate(EvalRequest("RJ", (1.0, 1.0, 1.0, -1.0), 1e-6))

    def test_report_invariants(self):
        rep = evaluate(EvalRequest("RF", (1e-8, 1e-8, 1.0), 1e-6))
        assert isinstance(rep, EvalReport)
        assert rep.guaranteed_rel_err <= 1e-6
        if rep.method == "asym":
            assert rep.enclosure.lo <= rep.value <= rep.enclosure.hi


class TestSoundnessMiniFuzz:
    def test_regime_mixture(self, rng):
        from symell.harness import sample_args

        kinds = {"C1": "RC", "F1a": "RF", "F2a": "RF", "D1": "RD", "D2a": "RD",
                 "J2a": "RJ", "J3": "RJ", "J6a": "RJ", "G2": "RG"}
        for tag, kind in kinds.items():
            for tol in (1e-3, 1e-6, 1e-9):
                ratio = 10.0 ** float(rng.uniform(-8, -3))
                args = sample_args(tag, ratio, rng)
                rep = evaluate(EvalRequest(kind, args, tol))
                ref = oracle(kind, args)
                assert abs(rep.value - ref) / abs(ref) <= tol, (tag, tol, args)
