import math

import numpy as np
import pytest

from symell import (
    ConvergenceError,
    DomainError,
    RegimeError,
    approx_e,
    approx_k,
    approx_rc,
    approx_rd,
    approx_rf,
    approx_rg,
    approx_rj,
    case_ratio,
    core,
    dispatch,
    enclose,
    oracle_with_error,
    theta_recover,
)
from symell.asym import (CASE_TAGS, case_kind, has_symbol, recover_sigma,
                         reference_route, sym_bracket)
from symell.harness import containment_slack, sample_args


def reference(tag, args):
    kind = case_kind(tag)
    if kind == "RC":
        return core.rc(*args)
    if kind == "RF":
        return core.rf(*args)
    if kind == "RD":
        return core.rd(*args)
    if kind == "RJ":
        return core.rj(*args)
    if kind == "RG":
        return core.rg(*args)
    kp = args[0]
    return core.legendre_k(math.sqrt(1 - kp * kp)) if kind == "K" \
        else core.legendre_e(math.sqrt(1 - kp * kp))


class TestRCCases:
    def test_c1_degenerate_at_zero(self):
        enc = approx_rc(0.0, 1.0, "C1")
        half_pi = math.pi / 2
        assert enc.lo <= half_pi <= enc.hi
        assert enc.hi - enc.lo < 1e-14  # ulp widening only

    def test_c1_bracket_endpoints(self):
        enc = approx_rc(0.01, 1.0, "C1")
        base = math.pi / 2 - 0.1
        coef = math.pi * 0.01 / 4.0
        assert enc.lo == pytest.approx(base + coef / 1.1, rel=1e-12)
        assert enc.hi == pytest.approx(base + coef, rel=1e-12)
        assert enc.contains(core.rc(0.01, 1.0))

    def test_c2a_contains_log_branch(self):
        enc = approx_rc(100.0, 1.0, "C2a")
        assert enc.contains(core.rc(100.0, 1.0))

    def test_c2b_sharper_than_c2a(self):
        a = approx_rc(100.0, 1.0, "C2a")
        b = approx_rc(100.0, 1.0, "C2b")
        assert b.width < a.width
        assert b.contains(core.rc(100.0, 1.0))

    def test_c2c_upper_bound_only(self):
        enc = approx_rc(100.0, 1.0, "C2c")
        v = core.rc(100.0, 1.0)
        assert enc.contains(v)
        with pytest.raises(DomainError):
            theta_recover("C2c", (100.0, 1.0), v)

    def test_c2_regime_gate(self):
        with pytest.raises(RegimeError):
            approx_rc(1.0, 2.5, "C2a")


class TestRFCases:
    def test_f1a_endpoints_and_containment(self):
        enc = approx_rf(0.01, 0.01, 1.0, "F1a")
        assert enc.lo == pytest.approx(3.00736, abs=2e-5)
        assert enc.hi == pytest.approx(3.01079, abs=2e-5)
        assert enc.contains(core.rf(0.01, 0.01, 1.0))

    def test_f2a_exact_at_zero(self):
        enc = approx_rf(2.0, 2.0, 0.0, "F2a")
        assert enc.estimate == pytest.approx(math.pi / (2.0 * math.sqrt(2.0)), rel=1e-14)
        assert enc.width < 1e-14

    def test_f1d_sharper_than_f1a(self):
        a = approx_rf(1.0, 2.0, 1e6, "F1a")
        d = approx_rf(1.0, 2.0, 1e6, "F1d")
        v, err = oracle_with_error("RF", (1.0, 2.0, 1e6))
        slack = containment_slack(err, v)
        assert d.width < a.width
        assert a.contains(v, slack) and d.contains(v, slack)

    def test_f1b_matches_f1a_upper(self):
        a = approx_rf(0.01, 0.02, 1.0, "F1a")
        b = approx_rf(0.01, 0.02, 1.0, "F1b")
        assert b.hi == pytest.approx(a.hi, rel=1e-13)
        assert b.lo == pytest.approx(a.lo, rel=1e-13)

    def test_f1_regime_gate(self):
        with pytest.raises(RegimeError):
            approx_rf(1.0, 1.0, 0.9, "F1a")  # g = 1 >= z


class TestRDCases:
    def test_d2a_example(self):
        enc = approx_rd(1.0, 1.0, 1e-4, "D2a")
        assert enc.lo == pytest.approx(295.288, abs=2e-3)
        assert enc.hi == pytest.approx(295.348, abs=2e-3)
        assert enc.contains(core.rd(1.0, 1.0, 1e-4))

    def test_d4_exact_at_zero(self):
        enc = approx_rd(0.0, 2.0, 3.0, "D4")
        assert enc.estimate == pytest.approx(core.rd(0.0, 2.0, 3.0), rel=1e-13)

    def test_d1_contains(self):
        enc = approx_rd(0.01, 0.02, 1.0, "D1")
        assert enc.contains(core.rd(0.01, 0.02, 1.0))

    def test_d2_higher_orders_tighter(self):
        args = (1.0, 3.0, 1e-4)
        wa = approx_rd(*args, "D2a").width
        wb = approx_rd(*args, "D2b").width
        wc = approx_rd(*args, "D2c").width
        assert wc < wb < wa
        v = core.rd(*args)
        for tag in ("D2a", "D2b", "D2c"):
            assert approx_rd(*args, tag).contains(v, 2e-13 * v)


class TestRJCases:
    def test_j1b_collapse_at_equal_pair(self):
        enc = approx_rj(1.0, 1.0, 0.0, 37.0, "J1b")
        assert enc.rel_width() < 1e-14
        assert enc.contains(core.rj(1.0, 1.0, 0.0, 37.0), 2e-13 * enc.estimate)

    def test_j1a_contains(self):
        enc = approx_rj(1.0, 2.0, 3.0, 1e5, "J1a")
        assert enc.contains(core.rj(1.0, 2.0, 3.0, 1e5), 1e-13 * enc.estimate)

    def test_j2a_leading_term_dominates(self):
        x, y, z, p = 1.0, 2.0, 3.0, 1e-5
        enc = approx_rj(x, y, z, p, "J2a")
        g = (x * y * z) ** (1 / 3)
        lead = 1.5 / math.sqrt(x * y * z) * (math.log(4 * g / p) - 2.0)
        assert enc.contains(core.rj(x, y, z, p), 1e-12)
        assert abs(enc.estimate - lead) < 0.05 * abs(enc.estimate)

    def test_j2b_tighter_than_j2a(self):
        args = (1.0, 2.0, 3.0, 1e-5)
        assert approx_rj(*args, "J2b").width < approx_rj(*args, "J2a").width

    def test_principal_value_not_approximated(self):
        with pytest.raises(DomainError):
            approx_rj(1.0, 2.0, 3.0, -1.0, "J2a")

    def test_complete_case_gates(self):
        with pytest.raises(RegimeError):
            approx_rj(1.0, 2.0, 0.5, 100.0, "J1b")  # z must be 0
        with pytest.raises(RegimeError):
            approx_rj(1.0, 0.5, 2.0, 0.001, "J6complete")  # y must be 0


class TestRGCases:
    def test_g2_example(self):
        enc = approx_rg(1.0, 1.0, 0.01, "G2")
        assert enc.estimate == pytest.approx(math.pi / 4 + math.pi * 0.01 / 8 * 0.9, rel=0.05)
        assert enc.contains(core.rg(1.0, 1.0, 0.01), 1e-13)
        # base term is the complete value pi/4
        assert core.rg(1.0, 1.0, 0.0) == pytest.approx(math.pi / 4, rel=1e-14)

    def test_g1b_contains(self):
        enc = approx_rg(0.0, 1e-4, 1.0, "G1b")
        assert enc.contains(core.rg(0.0, 1e-4, 1.0), 1e-13)

    def test_g1a_upper_gate_returns_note(self):
        enc = approx_rg(1.0, 1.0, 4.0, "G1a")
        assert enc.note is not None
        v = core.rg(1.0, 1.0, 4.0)
        assert enc.lo <= v <= enc.hi + 1e-12

    def test_g2_lower_endpoint_gate(self):
        with pytest.raises(RegimeError):
            approx_rg(1.0, 1.0, 0.7, "G2")


class TestLegendreCases:
    def test_f1e_brackets_k(self):
        enc = approx_k(0.1, "F1e")
        k = math.sqrt(1 - 0.01)
        assert enc.lo == pytest.approx(3.694650, abs=1e-6)
        assert enc.hi == pytest.approx(3.698125, abs=1e-6)
        assert enc.contains(core.legendre_k(k))

    def test_f1f_tighter(self):
        assert approx_k(0.1, "F1f").width < approx_k(0.1, "F1e").width

    def test_e_enclosure_collapses_near_zero(self):
        kp = 1e-5
        enc = approx_e(kp)
        lead = 1.0 + kp * kp / 2.0 * (math.log(4.0 / kp) - 0.5)
        assert enc.estimate == pytest.approx(lead, rel=1e-12)
        assert enc.rel_width() < 1e-18 * math.log(1 / kp) / 1e-10  # O(kp^4 log)
        k = math.sqrt(1 - kp * kp)
        assert enc.contains(core.legendre_e(k), 2e-13)


class TestThetaRecovery:
    def test_c1_degenerate_convention(self):
        assert theta_recover("C1", (0.0, 1.0), math.pi / 2) == 1.0

    def test_f1e_window(self):
        kp = 0.01
        k = math.sqrt(1 - kp * kp)
        th = theta_recover("F1e", (kp,), core.legendre_k(k))
        assert 1.0 < th < 4.0

    def test_j2a_window(self):
        args = (1.0, 2.0, 3.0, 1e-6)
        r = theta_recover("J2a", args, core.rj(*args))
        lo, hi = sym_bracket("J2a", *args)
        assert lo < r < hi

    @pytest.mark.parametrize("tag, args", [("F1f", (1e-6,)), ("C2b", (1.0, 1e-12))])
    def test_symbol_past_float64_is_ill_conditioned(self, tag, args):
        # the value from k' itself, as `symell asym` and `table` take it
        v = dispatch.case_reference(case_kind(tag), args)
        with pytest.raises(ConvergenceError, match="past float64"):
            theta_recover(tag, args, v)
        assert recover_sigma(tag, args, v) == math.inf

    def test_recover_inverts_value(self, rng):
        for tag in CASE_TAGS:
            if not has_symbol(tag):
                continue
            args = sample_args(tag, 1e-3, rng)
            try:
                enc = enclose(tag, *args)
            except RegimeError:
                continue
            v = reference(tag, args)
            th = theta_recover(tag, args, v)
            lo, hi = sym_bracket(tag, *args)
            sig = recover_sigma(tag, args, v)
            if math.isfinite(sig) and sig < 0.02 * (hi - lo):
                assert lo - sig <= th <= hi + sig, (tag, args, th, (lo, hi))


class TestConsistencyAtEqualLastArguments:
    """Third-kind cases must collapse onto the second-kind ones at p = z."""

    def check_pair(self, rj_tag, rd_tag, rj_args, rd_args, tol=5e-13):
        ej = enclose(rj_tag, *rj_args)
        ed = enclose(rd_tag, *rd_args)
        assert ej.lo == pytest.approx(ed.lo, rel=tol)
        assert ej.hi == pytest.approx(ed.hi, rel=tol)

    def test_j3_is_d1(self, rng):
        for _ in range(25):
            x, y, z = sample_args("D1", 1e-3, rng)
            self.check_pair("J3", "D1", (x, y, z, z), (x, y, z))

    def test_j6a_is_d3(self, rng):
        for _ in range(25):
            x, y, z = sample_args("D3", 1e-3, rng)
            self.check_pair("J6a", "D3", (x, y, z, z), (x, y, z))

    def test_j5_is_d4(self, rng):
        for _ in range(25):
            x, y, z = sample_args("D4", 1e-3, rng)
            self.check_pair("J5", "D4", (x, y, z, z), (x, y, z))

    def test_j4c_and_d2b_overlap(self, rng):
        # the p = z reduction of J4c alters the bracket while simplifying, so
        # the endpoints differ by a (1 + sqrt(z/g)) factor in the correction
        # term; both must still contain the true value
        for _ in range(25):
            x, y, z = sample_args("D2b", 1e-3, rng)
            ej = enclose("J4c", x, y, z, z)
            ed = enclose("D2b", x, y, z)
            v = core.rd(x, y, z)
            slack = 2e-13 * abs(v)
            assert ej.contains(v, slack) and ed.contains(v, slack)
            assert max(ej.lo, ed.lo) <= min(ej.hi, ed.hi) + slack


class TestContainmentSmoke:
    @pytest.mark.parametrize("tag", CASE_TAGS)
    def test_oracle_inside_enclosure(self, tag, rng):
        for ratio in (1e-2, 1e-4, 1e-6):
            for _ in range(5):
                args = sample_args(tag, ratio, rng)
                if tag == "G1a" and 5.0 * (args[0] + args[1]) / 2.0 >= args[2]:
                    continue
                enc = enclose(tag, *args)
                kind, oracle_args, factor = reference_route(case_kind(tag), args)
                v, err = oracle_with_error(kind, oracle_args)
                v, err = factor * v, factor * err
                assert enc.contains(v, containment_slack(err, v)), (tag, ratio, args)


def test_case_ratio_definitions():
    assert case_ratio("C1", 0.01, 1.0) == pytest.approx(0.01)
    assert case_ratio("F1a", 1.0, 2.0, 100.0) == pytest.approx(0.02)
    assert case_ratio("J2a", 1.0, 1.0, 1.0, 0.001) == pytest.approx(0.001)


def test_non_finite_enclosure_carries_note():
    enc = enclose("J2a", 1e300, 1e300, 1e300, 1e-300)
    assert math.isnan(enc.estimate)
    assert enc.note is not None
    assert enclose("J2a", 1.0, 2.0, 3.0, 1e-5).note is None


def test_family_wrappers_reject_foreign_tags():
    with pytest.raises(DomainError):
        approx_rc(1.0, 2.0, "F1a")
    with pytest.raises(DomainError):
        approx_rf(1.0, 2.0, 3.0, "D1")


def test_strictness_metadata():
    enc = approx_rc(0.5, 1e3, "C1")
    assert (enc.strict_lo, enc.strict_hi) == (False, False)
    enc = approx_rf(0.001, 0.002, 1.0, "F1a")
    assert enc.strict_lo and enc.strict_hi
