import hashlib
import itertools
import math

import numpy as np
import pytest

from symell import (
    ConvergenceError,
    DomainError,
    RegimeError,
    asym,
    case_ratio,
    core,
    dispatch,
    enclose,
    theta_recover,
)
from symell._util import KIND_TABLE, xyz_rule
from symell.asym import CASE_TAGS, Enclosure, case_kind, reference_route, theta_window
from symell.harness import Draws, containment_slack, sample_args
from symell.quadrature import oracle_with_error


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
        enc = enclose("C1", 0.0, 1.0)
        half_pi = math.pi / 2
        assert enc.lo <= half_pi <= enc.hi
        assert enc.hi - enc.lo < 1e-14  # ulp widening only

    def test_c1_bracket_endpoints(self):
        enc = enclose("C1", 0.01, 1.0)
        base = math.pi / 2 - 0.1
        coef = math.pi * 0.01 / 4.0
        assert enc.lo == pytest.approx(base + coef / 1.1, rel=1e-12)
        assert enc.hi == pytest.approx(base + coef, rel=1e-12)
        assert enc.contains(core.rc(0.01, 1.0))

    def test_c2a_contains_log_branch(self):
        enc = enclose("C2a", 100.0, 1.0)
        assert enc.contains(core.rc(100.0, 1.0))

    def test_c2b_sharper_than_c2a(self):
        a = enclose("C2a", 100.0, 1.0)
        b = enclose("C2b", 100.0, 1.0)
        assert b.width < a.width
        assert b.contains(core.rc(100.0, 1.0))

    def test_c2c_upper_bound_only(self):
        enc = enclose("C2c", 100.0, 1.0)
        v = core.rc(100.0, 1.0)
        assert enc.contains(v)
        assert theta_recover("C2c", (100.0, 1.0), v) == theta_recover("C2a", (100.0, 1.0), v)

    def test_c2_regime_gate(self):
        with pytest.raises(RegimeError):
            enclose("C2a", 1.0, 2.5)


class TestRFCases:
    def test_f1a_endpoints_and_containment(self):
        enc = enclose("F1a", 0.01, 0.01, 1.0)
        assert enc.lo == pytest.approx(3.00736, abs=2e-5)
        assert enc.hi == pytest.approx(3.01079, abs=2e-5)
        assert enc.contains(core.rf(0.01, 0.01, 1.0))

    def test_f2a_exact_at_zero(self):
        enc = enclose("F2a", 2.0, 2.0, 0.0)
        assert enc.estimate == pytest.approx(math.pi / (2.0 * math.sqrt(2.0)), rel=1e-14)
        assert enc.width < 1e-14

    def test_f1d_sharper_than_f1a(self):
        a = enclose("F1a", 1.0, 2.0, 1e6)
        d = enclose("F1d", 1.0, 2.0, 1e6)
        v, err = oracle_with_error("RF", (1.0, 2.0, 1e6))
        slack = containment_slack(err, v)
        assert d.width < a.width
        assert a.contains(v, slack) and d.contains(v, slack)

    def test_f1b_matches_f1a_upper(self):
        a = enclose("F1a", 0.01, 0.02, 1.0)
        b = enclose("F1b", 0.01, 0.02, 1.0)
        assert b.hi == a.hi
        assert b.lo == a.lo

    def test_f1_regime_gate(self):
        with pytest.raises(RegimeError):
            enclose("F1a", 1.0, 1.0, 0.9)  # g = 1 >= z


class TestRDCases:
    def test_d2a_example(self):
        enc = enclose("D2a", 1.0, 1.0, 1e-4)
        assert enc.lo == pytest.approx(295.288, abs=2e-3)
        assert enc.hi == pytest.approx(295.348, abs=2e-3)
        assert enc.contains(core.rd(1.0, 1.0, 1e-4))

    def test_d4_exact_at_zero(self):
        enc = enclose("D4", 0.0, 2.0, 3.0)
        assert enc.estimate == pytest.approx(core.rd(0.0, 2.0, 3.0), rel=1e-13)

    def test_d1_contains(self):
        enc = enclose("D1", 0.01, 0.02, 1.0)
        assert enc.contains(core.rd(0.01, 0.02, 1.0))

    def test_d2_higher_orders_tighter(self):
        args = (1.0, 3.0, 1e-4)
        wa = enclose("D2a", *args).width
        wb = enclose("D2b", *args).width
        wc = enclose("D2c", *args).width
        assert wc < wb < wa
        v = core.rd(*args)
        for tag in ("D2a", "D2b", "D2c"):
            assert enclose(tag, *args).contains(v, 2e-13 * v)


class TestRJCases:
    def test_j1b_collapse_at_equal_pair(self):
        enc = enclose("J1b", 1.0, 1.0, 0.0, 37.0)
        assert enc.rel_width() < 1e-14
        assert enc.contains(core.rj(1.0, 1.0, 0.0, 37.0), 2e-13 * enc.estimate)

    def test_j1a_contains(self):
        enc = enclose("J1a", 1.0, 2.0, 3.0, 1e5)
        assert enc.contains(core.rj(1.0, 2.0, 3.0, 1e5), 1e-13 * enc.estimate)

    def test_j2a_leading_term_dominates(self):
        x, y, z, p = 1.0, 2.0, 3.0, 1e-5
        enc = enclose("J2a", x, y, z, p)
        g = (x * y * z) ** (1 / 3)
        lead = 1.5 / math.sqrt(x * y * z) * (math.log(4 * g / p) - 2.0)
        assert enc.contains(core.rj(x, y, z, p), 1e-12)
        assert abs(enc.estimate - lead) < 0.05 * abs(enc.estimate)

    def test_j2b_tighter_than_j2a(self):
        args = (1.0, 2.0, 3.0, 1e-5)
        assert enclose("J2b", *args).width < enclose("J2a", *args).width

    def test_principal_value_not_approximated(self):
        with pytest.raises(DomainError):
            enclose("J2a", 1.0, 2.0, 3.0, -1.0)

    def test_complete_case_gates(self):
        with pytest.raises(RegimeError):
            enclose("J1b", 1.0, 2.0, 0.5, 100.0)  # z must be 0
        with pytest.raises(RegimeError):
            enclose("J6complete", 1.0, 0.5, 2.0, 0.001)  # y must be 0


class TestRGCases:
    def test_g2_example(self):
        enc = enclose("G2", 1.0, 1.0, 0.01)
        assert enc.estimate == pytest.approx(math.pi / 4 + math.pi * 0.01 / 8 * 0.9, rel=0.05)
        assert enc.contains(core.rg(1.0, 1.0, 0.01), 1e-13)
        # base term is the complete value pi/4
        assert core.rg(1.0, 1.0, 0.0) == pytest.approx(math.pi / 4, rel=1e-14)

    def test_g1b_contains(self):
        enc = enclose("G1b", 0.0, 1e-4, 1.0)
        assert enc.contains(core.rg(0.0, 1e-4, 1.0), 1e-13)

    def test_g1a_upper_gate(self):
        # the displayed upper endpoint needs 5a < z; outside it the gate refuses
        for call in (lambda: enclose("G1a", 1.0, 1.0, 4.0),
                     lambda: theta_window("G1a", (1.0, 1.0, 4.0), core.rg(1.0, 1.0, 4.0))):
            with pytest.raises(RegimeError, match="5a < z"):
                call()
        enc = enclose("G1a", 1.0, 1.0, 5.5)
        assert enc.contains(core.rg(1.0, 1.0, 5.5))

    def test_g2_lower_endpoint_gate(self):
        with pytest.raises(RegimeError):
            enclose("G2", 1.0, 1.0, 0.7)


class TestLegendreCases:
    def test_f1e_brackets_k(self):
        enc = enclose("F1e", 0.1)
        k = math.sqrt(1 - 0.01)
        assert enc.lo == pytest.approx(3.694650, abs=1e-6)
        assert enc.hi == pytest.approx(3.698125, abs=1e-6)
        assert enc.contains(core.legendre_k(k))

    def test_f1f_tighter(self):
        assert enclose("F1f", 0.1).width < enclose("F1e", 0.1).width

    def test_e_enclosure_collapses_near_zero(self):
        kp = 1e-5
        enc = enclose("G1c", kp)
        lead = 1.0 + kp * kp / 2.0 * (math.log(4.0 / kp) - 0.5)
        assert enc.estimate == pytest.approx(lead, rel=1e-12)
        assert enc.rel_width() < 1e-18 * math.log(1 / kp) / 1e-10  # O(kp^4 log)
        k = math.sqrt(1 - kp * kp)
        assert enc.contains(core.legendre_e(k), 2e-13)


class TestThetaRecovery:
    def test_c1_degenerate_convention(self):
        assert theta_recover("C1", (0.0, 1.0), math.pi / 2)[0] == 1.0

    def test_f1e_window(self):
        kp = 0.01
        k = math.sqrt(1 - kp * kp)
        th, _ = theta_recover("F1e", (kp,), core.legendre_k(k))
        assert 1.0 < th < 4.0

    def test_j2a_window(self):
        args = (1.0, 2.0, 3.0, 1e-6)
        v = core.rj(*args)
        lo, hi, sig, r = theta_window("J2a", args, v)
        assert lo < r < hi
        assert (r, sig) == theta_recover("J2a", args, v)

    def test_infinite_true_value(self):
        # an inf passes the true value's float64 check (an int past float64
        # is a DomainError), and the recovery then has no finite symbol
        assert theta_window("F1a", (0.01, 0.01, 1.0), math.inf) is None
        with pytest.raises(ConvergenceError, match="past float64"):
            theta_recover("F1a", (0.01, 0.01, 1.0), math.inf)

    @pytest.mark.parametrize("tag, args", [("F1f", (1e-7,)), ("C2b", (1.0, 1e-12))])
    def test_symbol_past_float64_is_ill_conditioned(self, tag, args):
        # the value from k' itself, as `symell asym` and `table` take it
        v = dispatch.case_reference(case_kind(tag), args)
        with pytest.raises(ConvergenceError, match="past float64"):
            theta_recover(tag, args, v)
        # its sigma is inf, so the window sees an ill-conditioned recovery
        assert theta_window(tag, args, v) is None

    @pytest.mark.parametrize("tag, kp", [
        ("F1e", 3e-8), ("F1e", 1e-9), ("F1e", 1e-12),
        ("F1f", 3e-5), ("F1f", 2e-6), ("F1f", 3e-8), ("F1f", 1e-9), ("F1f", 1e-12),
    ])
    def test_log_symbol_below_the_value_error_is_unknown(self, tag, kp):
        """Where the symbol's coefficient b is within the value's own error,
        value = a + b log(kappa sym) says nothing of sym: F1f returned theta
        0.0 with sigma 0, and F1e theta = k' outside [1, 4], as if recovered."""
        v = dispatch.case_reference(case_kind(tag), (kp,))
        b = asym._case(tag).formula(kp)[2][1]
        assert abs(b) <= asym._VALUE_REL_ERR * v
        assert theta_recover(tag, (kp,), v)[1] == math.inf
        assert theta_window(tag, (kp,), v) is None

    def test_log_symbol_above_the_value_error_is_recovered(self):
        # F1e at k' = 2e-6 has b = 1e-12, above the value's error of 1.3e-14
        v = dispatch.case_reference("K", (2e-6,))
        lo, hi, sigma, theta = theta_window("F1e", (2e-6,), v)
        assert lo <= theta <= hi and 0.0 < sigma < 0.02 * (hi - lo)

    def test_recover_sigma_runs_the_gate(self):
        # sigma is recovered with theta, behind the case's gate: G1a's upper
        # endpoint needs 5a < z; F1a's domain allows one vanishing x, y
        with pytest.raises(RegimeError, match="5a < z"):
            theta_recover("G1a", (1.0, 1.0, 4.0), 1.0)
        with pytest.raises(DomainError, match="^at most one of x, y may vanish$"):
            theta_recover("F1a", (0.0, 0.0, 1.0), 1.0)

    def test_recover_inverts_value(self, draws):
        for tag in CASE_TAGS:
            args = sample_args(tag, 1e-3, draws)
            try:
                enc = enclose(tag, *args)
            except RegimeError:
                continue
            v = reference(tag, args)
            th, sig = theta_recover(tag, args, v)
            window = theta_window(tag, args, v)
            if window is not None:
                assert window[2:] == (sig, th)
                lo, hi = window[:2]
                assert lo - sig <= th <= hi + sig, (tag, args, th, (lo, hi))


class TestConsistencyAtEqualLastArguments:
    """Third-kind cases must collapse onto the second-kind ones at p = z."""

    def check_pair(self, rj_tag, rd_tag, rj_args, rd_args, tol=5e-13):
        ej = enclose(rj_tag, *rj_args)
        ed = enclose(rd_tag, *rd_args)
        assert ej.lo == pytest.approx(ed.lo, rel=tol)
        assert ej.hi == pytest.approx(ed.hi, rel=tol)

    def test_j3_is_d1(self, draws):
        for _ in range(25):
            x, y, z = sample_args("D1", 1e-3, draws)
            self.check_pair("J3", "D1", (x, y, z, z), (x, y, z))

    def test_j6a_is_d3(self, draws):
        for _ in range(25):
            x, y, z = sample_args("D3", 1e-3, draws)
            self.check_pair("J6a", "D3", (x, y, z, z), (x, y, z))

    def test_j5_is_d4(self, draws):
        for _ in range(25):
            x, y, z = sample_args("D4", 1e-3, draws)
            self.check_pair("J5", "D4", (x, y, z, z), (x, y, z))

    def test_j4c_and_d2b_overlap(self, draws):
        # the p = z reduction of J4c alters the bracket while simplifying, so
        # the endpoints differ by a (1 + sqrt(z/g)) factor in the correction
        # term; both must still contain the true value
        for _ in range(25):
            x, y, z = sample_args("D2b", 1e-3, draws)
            ej = enclose("J4c", x, y, z, z)
            ed = enclose("D2b", x, y, z)
            v = core.rd(x, y, z)
            slack = 2e-13 * abs(v)
            assert ej.contains(v, slack) and ed.contains(v, slack)
            assert max(ej.lo, ed.lo) <= min(ej.hi, ed.hi) + slack


class TestContainmentSmoke:
    @pytest.mark.parametrize("tag", CASE_TAGS)
    def test_oracle_inside_enclosure(self, tag, draws):
        for ratio in (1e-2, 1e-4, 1e-6):
            for _ in range(5):
                args = sample_args(tag, ratio, draws)
                if tag == "G1a" and 5.0 * (args[0] + args[1]) / 2.0 >= args[2]:
                    continue
                enc = enclose(tag, *args)
                kind, oracle_args, factor = reference_route(case_kind(tag), args)
                v, err = oracle_with_error(kind, oracle_args)
                v, err = factor * v, factor * err
                assert enc.contains(v, containment_slack(err, v)), (tag, ratio, args)


# one tuple per gate condition and its exact refusal text; floats keep
# their repr
_REFUSALS = [
    ("C2a", (1.0, 3.0), "C2 requires 0 < y < 2x, got (1.0, 3.0)"),
    ("F1a", (1.0, 1.0, 1.0), "F1 requires a < 2z and g < z, got a=1.0, g=1.0, z=1.0"),
    ("F1e", (1.0,), "requires 0 < k' < 1, got 1.0"),
    ("F2a", (1.0, 1.0, 2.0), "F2a requires z < g, got z=2.0, g=1.0"),
    ("D1", (1.0, 2.0, 1.0),
     "D1 requires g < z and a < z, got a=1.5, g=1.4142135623730951, z=1.0"),
    ("D2a", (1.0, 1.0, 2.0), "D2 requires z < g, got z=2.0, g=1.0"),
    ("D3", (1.0, 2.0, 2.0), "D3 requires g < x and a < 2x, got a=2.0, g=2.0, x=1.0"),
    ("J1a", (1.0, 1.0, 1.0, 1.0), "J1 requires a < p and b < p, got a=1.0, b=1.5, p=1.0"),
    ("J2a", (1.0, 2.0, 3.0, 2.0), "J2 requires p < h, got p=2.0, h=1.6363636363636365"),
    ("J3", (1.0, 1.0, 1.0, 1.0), "J3 requires a < p and g < p, got a=1.0, g=1.0, p=1.0"),
    ("J4a", (1.0, 1.0, 2.0, 0.5), "J4 requires z < g and p < g, got z=2.0, p=0.5, g=1.0"),
    ("J4b", (1.0, 1.0, 0.0, 2.0), "J4b requires p < g, got p=2.0, g=1.0"),
    ("J5", (2.0, 1.0, 1.0, 1.0), "J5 requires x < (y + z)/2, got x=2.0, a=1.0"),
    ("J6a", (1.0, 2.0, 2.0, 1.0), "J6 requires g < x and a < 2x, got a=2.0, g=2.0, x=1.0"),
    ("J6complete", (1.0, 0.0, 5.0, 1.0),
     "the complete J6 case requires z < 4x, got z=5.0, x=1.0"),
    ("G1a", (1.0, 1.0, 4.0), "G1a requires 5a < z, got a=1.0, z=4.0"),
    ("G1b", (0.0, 2.0, 1.0), "G1b requires y < z, got y=2.0, z=1.0"),
    ("G2", (1.0, 1.0, 2.0), "G2 requires z < g, got z=2.0, g=1.0"),
    ("F1c", (0.0, 1.5, 1.0), "F1c/F1d require max(x, y)/z < 1"),
    ("J1b", (1.0, 1.0, 1.0, 2.0), "J1b is the complete case and requires z = 0"),
    ("J1b", (1.0, 1.0, 0.0, 0.5), "J1b requires (x + y)/2 < p"),
    ("J4b", (1.0, 1.0, 1.0, 0.5), "J4b is the complete case and requires z = 0"),
    ("J6complete", (1.0, 1.0, 1.0, 1.0), "the complete J6 case requires y = 0"),
    ("G2", (1.0, 1.0, 0.9), "G2 lower endpoint requires (4/pi) sqrt(z/a) < 1"),
    ("G1b", (1.0, 1.0, 2.0), "G1b is the complete case and requires x = 0"),
]


@pytest.mark.parametrize("tag, args, text", _REFUSALS)
def test_refusal_text(tag, args, text):
    with pytest.raises(RegimeError) as got:
        enclose(tag, *args)
    assert str(got.value) == text
    with pytest.raises(RegimeError) as got:
        theta_window(tag, args, 1.0)
    assert str(got.value) == text


def test_case_ratio_definitions():
    assert case_ratio("C1", 0.01, 1.0) == pytest.approx(0.01)
    assert case_ratio("F1a", 1.0, 2.0, 100.0) == pytest.approx(0.02)
    assert case_ratio("J2a", 1.0, 1.0, 1.0, 0.001) == pytest.approx(0.001)


def test_non_finite_enclosure_is_a_convergence_error():
    with pytest.raises(ConvergenceError, match="past float64"):
        enclose("J2a", 1e300, 1e300, 1e300, 1e-300)
    # a finite enclosure is the interval alone: no field marks a substitute endpoint
    enc = enclose("J2a", 1.0, 2.0, 3.0, 1e-5)
    assert list(Enclosure._fields) == \
        ["lo", "hi", "estimate", "case", "strict_lo", "strict_hi"]
    assert enc.contains(core.rj(1.0, 2.0, 3.0, 1e-5))
    # an immutable, hashable record: no field is reassigned and none added
    for name in ("lo", "note"):
        with pytest.raises(AttributeError):
            setattr(enc, name, 0.0)
    assert hash(enc) == hash(enc._replace())


@pytest.mark.parametrize("tag, args", [
    ("C1", (0.0, 1e-224)),      # y**1.5 underflows to zero
    ("J2a", (2.055664909053445e-174, 1.4719008802932014e-187, 5.194887725359986e+120,
             1.4227417530867443e-195)),  # log of a product that underflows
])
def test_bare_float64_failure_is_a_convergence_error(tag, args):
    with pytest.raises(ConvergenceError, match="past float64"):
        enclose(tag, *args)


@pytest.mark.parametrize("tag, args", [("C1", (0.0, 1e-224)), ("J2a", (1e300, 1e300, 1e300, 1e-300))])
def test_argument_window_refuses_before_the_formula(tag, args, monkeypatch):
    """A nonzero argument of an R case outside [1e-100, 1e100] is refused
    past the gate and before the formula runs."""
    # the formula is never reached: a call of None would raise TypeError
    monkeypatch.setitem(asym._CASES, tag, asym._CASES[tag]._replace(formula=None))
    with pytest.raises(ConvergenceError,
                       match=r"is past float64: an argument lies outside \[1e-100, 1e100\]$"):
        enclose(tag, *args)
    with pytest.raises(ConvergenceError, match=r"an argument lies outside \[1e-100, 1e100\]$"):
        case_ratio(tag, *args)
    with pytest.raises(RegimeError):  # the gate still speaks first
        enclose("C2a", 1e200, 3e200)


def test_ratio_pass_refuses_outside_the_window():
    """Outside the window a ratio can be finite and wrong: sqrt(y*z)
    overflows in D4's ratio at (1e200, 2e200, 3e200), where it is 0.41, so
    case_ratio refuses there and the ratio pass finds no case; the request
    still answers by the reference path.  K and E cases take k' and have no
    window."""
    args = (1e200, 2e200, 3e200)
    with pytest.raises(ConvergenceError, match=r"an argument lies outside \[1e-100, 1e100\]$"):
        case_ratio("D4", *args)
    assert asym._ratio_pass("RD", args, 1e-2) == []
    assert dispatch.evaluate(dispatch.EvalRequest("RD", args, 1e-6)).method == "reference"
    assert asym._ratio_pass("RD", (1e-90, 2e-90, 3e-90), 1.0) != []
    for kind in ("K", "E"):
        assert asym._ratio_pass(kind, (1e-120,), 1e-2) != []
        assert case_ratio(asym.kind_cases(kind)[0], 1e-120) <= 1e-2


def test_bare_float64_failure_inside_the_window(monkeypatch):
    """No in-window tuple of a seed-5 sweep fails in float64 with a bare
    ArithmeticError, so J4a's inner rc is made to."""
    def underflow(x, y):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(asym, "rc", underflow)
    with pytest.raises(ConvergenceError,
                       match=r"^J4a at \(1.0, 1.0, 1e-05, 1e-06\) is past float64: float division"):
        enclose("J4a", 1.0, 1.0, 1e-5, 1e-6)


def _assert_finite_results(tag, args, v):
    """Only typed errors escape, and every returned float is finite, except
    that theta_recover's sigma may be inf (the symbol is past float64)."""
    def window():
        got = theta_window(tag, args, v)
        assert got is None or len(got) == 4, got
        return got or ()

    calls = (lambda: tuple(enclose(tag, *args))[:3], lambda: [case_ratio(tag, *args)],
             lambda: theta_recover(tag, args, v)[:1], window)
    for call in calls:
        try:
            got = call()
        except (DomainError, RegimeError, ConvergenceError):
            continue
        assert all(map(math.isfinite, got)), (tag, args, v, got)
    try:
        assert not math.isnan(theta_recover(tag, args, v)[1]), (tag, args, v)
    except (DomainError, RegimeError, ConvergenceError):
        pass


def test_only_typed_errors_escape_on_the_whole_float64_range():
    # log-uniform tuples over 1e-300..1e300, about a tenth of them zeros,
    # through every entry point of every case
    rng = np.random.default_rng(5)
    for tag in CASE_TAGS:
        n = KIND_TABLE[case_kind(tag)].arity
        rows = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), (1000, n + 1)))
        rows[rng.random((1000, n + 1)) < 0.1] = 0.0
        for *args, v in rows.tolist():
            _assert_finite_results(tag, args, v)
    # the terms overflow to a zero sigma here, which read as a well-conditioned
    # window around a NaN theta
    _assert_finite_results("C1", (6.54e292, 9.70e-201), 1.0)
    with pytest.raises(ConvergenceError, match="past float64"):
        theta_window("C1", (6.54e292, 9.70e-201), 1.0)


def test_formula_terms_are_computed_once_per_enclosure(monkeypatch):
    calls = []

    def count(name, label):
        real = getattr(asym, name)
        monkeypatch.setattr(asym, name, lambda *a: calls.append(label) or real(*a))

    # a term whose arguments the case's gate has checked calls core's checked
    # body (J4a's rc(z, p), J6complete's rc(p, z)), counted as the evaluator
    for name, label in (("rj", "rj"), ("_rj_body", "rj"), ("_rd_body", "rd"),
                        ("_rg_complete", "_rg_complete"), ("rc", "rc"), ("_rc_body", "rc")):
        count(name, label)
    # theta_window returns the bracket, sigma and theta from one formula call;
    # D2b's rd(0, x, y) + rd(0, y, x) is one AGM run, as in D2c; J4a's terms
    # take rc(z, p) once and rc(z, g); J6a's and J6complete's bracket and
    # coefficients share one rc term
    for tag, args, value, expected in (
            ("J2b", (1.0, 2.0, 3.0, 1e-3), core.rj(1.0, 2.0, 3.0, 1e-3), ["rj"]),
            ("J4a", (1.0, 2.0, 1e-3, 2e-3), core.rj(1.0, 2.0, 1e-3, 2e-3), ["rc", "rc"]),
            ("D2b", (1.0, 2.0, 1e-3), core.rd(1.0, 2.0, 1e-3), ["_rg_complete"]),
            ("D2c", (1.0, 2.0, 1e-3), core.rd(1.0, 2.0, 1e-3), ["_rg_complete"]),
            ("J6a", (1.0, 1e-3, 2e-3, 1e-3), core.rj(1.0, 1e-3, 2e-3, 1e-3), ["rc"]),
            ("J6complete", (1.0, 0.0, 1e-3, 2e-3), core.rj(1.0, 0.0, 1e-3, 2e-3), ["rc"])):
        for call in (lambda: enclose(tag, *args), lambda: theta_window(tag, args, value)):
            calls.clear()
            assert call() is not None
            assert calls == expected, (tag, call)


def test_rj_gates_refuse_with_the_rule_text():
    """The RJ gates test x, y and z without _util.xyz_rule's conversions,
    and refuse with its text."""
    for xyz in ((-1.0, 1.0, 2.0), (1.0, -1e-300, 2.0), (0.0, 0.0, 2.0), (1.0, -0.0, 0.0)):
        with pytest.raises(DomainError) as want:
            xyz_rule("rj", xyz)
        for tag in asym.kind_cases("RJ"):
            with pytest.raises(DomainError) as got:
                enclose(tag, *xyz, 1.0)
            assert str(got.value) == str(want.value), tag


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_each_entry_calls_the_formula_once(tag, draws, monkeypatch):
    """enclose and the symbol entries take the bracket and the coefficients
    from one formula call."""
    case = asym._case(tag)
    calls = []
    monkeypatch.setitem(asym._CASES, tag, case._replace(
        formula=lambda *a: calls.append(a) or case.formula(*a)))
    args = sample_args(tag, 1e-3, draws)
    v = enclose(tag, *args).estimate
    for call in (lambda: enclose(tag, *args), lambda: theta_window(tag, args, v),
                 lambda: theta_recover(tag, args, v)):
        calls.clear()
        call()
        assert calls == [args], call


def test_strictness_metadata():
    enc = enclose("C1", 0.5, 1e3)
    assert (enc.strict_lo, enc.strict_hi) == (False, False)
    enc = enclose("F1a", 0.001, 0.002, 1.0)
    assert enc.strict_lo and enc.strict_hi


def test_rows_that_compute_one_quantity_share_its_function():
    """Two rows' ratio callables, or sampler callables, that compile to the
    same code are one object: a re-typed lambda would split a ratio group,
    and the ratio pass would compute the same ratio twice."""
    repeats = []
    for field in ("ratio", "sample"):
        first = {}
        for tag, case in asym._CASES.items():
            f = getattr(case, field)
            c = f.__code__
            seen_tag, seen = first.setdefault(
                (c.co_code, c.co_consts, c.co_names, c.co_varnames), (tag, f))
            if seen is not f:
                repeats.append(f"{tag}'s {field} repeats {seen_tag}'s")
    assert repeats == []


@pytest.mark.parametrize("tag, sibling", [("C2c", "C2a"), ("F1b", "F1a")])
def test_twin_case_is_its_sibling(tag, sibling):
    """C2c's one-sided bound is C2a's formula at theta = 4 and F1b's is F1a's
    at its upper bracket endpoint, so each is its sibling's row under its own
    tag: on campaign samples the enclosure, the symbol window and the ratio
    are the sibling's bit for bit."""
    draws = Draws(np.random.default_rng(0))
    for ratio in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        for _ in range(200):
            args = sample_args(tag, ratio, draws)
            one, sib = enclose(tag, *args), enclose(sibling, *args)
            assert one.case == tag
            assert one._replace(case=sibling) == sib, (tag, args)
            v = reference(tag, args)
            assert theta_window(tag, args, v) == theta_window(sibling, args, v), (tag, args)
            assert case_ratio(tag, *args) == case_ratio(sibling, *args)


def _hexed(got):
    """A result as text: each float by its hex form, a tuple item by item."""
    if isinstance(got, float):
        return got.hex()
    if isinstance(got, tuple):
        return "(" + ",".join(map(_hexed, got)) + ")"
    return repr(got)


def _outcome_digest(tag):
    """sha256 prefix of enclose, theta_window, theta_recover, case_ratio and
    the dispatcher's _build, which skips the argument window, on seeded
    campaign rows at ratios 1e-2..1e-7 and on every tuple of odd values:
    0, -1, 5e-324, 1e-120, 1, 1e120 and 1e308.  Each symbol entry takes the
    enclosure's lo, estimate and hi as true values, or 1.0 where there is
    none."""
    case = asym._case(tag)
    draws = Draws(np.random.default_rng(3))
    rows = [asym._sample(case, 10.0 ** -e, draws.lu, draws.coin)
            for e in range(2, 8) for _ in range(5)]
    rows += itertools.product((0.0, -1.0, 5e-324, 1e-120, 1.0, 1e120, 1e308),
                              repeat=len(rows[0]))
    h = hashlib.sha256()

    def pin(fn, *args):
        try:
            got = fn(*args)
        except (DomainError, RegimeError, ConvergenceError) as exc:
            h.update(f"{type(exc).__name__}: {exc};".encode())
            return None
        h.update(_hexed(got).encode() + b";")
        return got

    for args in rows:
        enc = pin(enclose, tag, *args)
        for v in (enc.lo, enc.estimate, enc.hi) if enc else (1.0,):
            pin(theta_window, tag, args, v)
            pin(theta_recover, tag, args, v)
        pin(case_ratio, tag, *args)
        pin(asym._build, case, args)
    return h.hexdigest()[:16]


# sha256 prefix of each case's _outcome_digest, taken before each case row
# computed its bracket and its coefficients in one formula call; an
# enclosure endpoint, a theta or sigma, a ratio, or the type or text of an
# error that moves changes its digest
_OUTCOME_DIGESTS = {
    "C1": "defa6164232966a0",
    "C2a": "db9f3fc954211786",
    "C2b": "a622efb14dd6c956",
    "C2c": "e521007076c810e1",
    "F1a": "793ae0d0f7c2d8fd",
    "F1b": "88c1603f4cf8a82c",
    "F1c": "ae9bcc402673dace",
    "F1d": "bc7dde21c390a53e",
    "F1e": "2ab90fbc3a0cd170",
    "F1f": "38730a88bb027369",
    "F2a": "4c2dd9f05fbfa01a",
    "D1": "4654f1a756e443e6",
    "D2a": "704a589ba98109f4",
    "D2b": "d4069fba332c86c5",
    "D2c": "7317319c55259915",
    "D3": "a49b0c7584ce7d13",
    "D4": "733d12c211d6ef66",
    "J1a": "6abd4c395404f1bd",
    "J1b": "48789de1e8e0bbcf",
    "J2a": "83eebaa46bf24338",
    "J2b": "90038cf65634c45b",
    "J3": "9ac089a6841f4914",
    "J4a": "c7ae4b644abc3641",
    "J4b": "f1486aa7d79aa88b",
    "J4c": "7936bc7bcab55028",
    "J5": "337081be2127d622",
    "J6a": "d3a03cd7496e9bd0",
    "J6complete": "c01f0631f17c2df3",
    "G1a": "d88e8478bc955f84",
    "G1b": "4263d2db2bbf1333",
    "G1c": "8afa7778a8b55577",
    "G2": "10c643452865ab74",
}


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_case_outcomes_are_pinned(tag):
    assert _outcome_digest(tag) == _OUTCOME_DIGESTS[tag]
