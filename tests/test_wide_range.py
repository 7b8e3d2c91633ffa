"""Contracts on the whole float64 range, not only 1e-3..1e3: a public
function returns a finite float or raises one of the typed errors, and the
CLI maps each such failure to its exit code."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from symell import (ConvergenceError, DomainError, EvalRequest, RegimeError, ToleranceError,
                    asym, bounds, core, evaluate, quadrature)
from symell._util import KIND_TABLE
from symell.cli import main
from symell.harness import Campaign, run_bounds_fuzz, run_identities, run_order_fit

TYPED = (ConvergenceError, DomainError, RegimeError, ToleranceError)


def _wide_rows(seed, n, width):
    """log-uniform 1e-300..1e300, about 5 % zeros and subnormals"""
    rng = np.random.default_rng(seed)
    rows = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), (n, width)))
    special = rng.random((n, width)) < 0.05
    rows[special] = rng.choice([0.0, 5e-324, 2.5e-310, sys.float_info.min / 2],
                               int(special.sum()))
    return rows.tolist()


@pytest.mark.parametrize("fn, width, negate_last", [
    (core.r_minus1, 3, False),
    (core.rj, 4, True),
])
def test_fails_only_with_typed_errors(fn, width, negate_last):
    """No bare OverflowError or ZeroDivisionError, and no NaN or inf, on
    3,000 wide tuples; a float64 failure is a ConvergenceError."""
    range_errors = 0
    for args in _wide_rows(3, 3000, width):
        if negate_last:
            args[-1] = -args[-1]
        try:
            value = fn(*args)
        except TYPED as exc:
            range_errors += isinstance(exc, ConvergenceError)
            continue
        assert math.isfinite(value), (fn.__name__, args, value)
    assert range_errors > 0


_PAST = 10 ** 400   # float() of it raises a bare OverflowError


@pytest.mark.parametrize("call", [
    lambda: core.rc(_PAST, 1),
    lambda: core.rf(_PAST, 1, 1),
    lambda: core.rd(1, 1, _PAST),
    lambda: core.rj(1, 1, 1, _PAST),
    lambda: core.rg(1, _PAST, 1),
    lambda: core.r_minus1(_PAST, 1, 1),
    lambda: core.agm(1, _PAST),
    lambda: core.legendre_k(_PAST),
    lambda: core.legendre_e(_PAST),
    lambda: EvalRequest("RF", (_PAST, 1, 1), 1e-6),
    lambda: EvalRequest("RF", (1, 2, 4), _PAST),
    lambda: asym.enclose("F1a", 0.01, 0.01, _PAST),
    lambda: asym.case_ratio("F1a", 0.01, _PAST, 1),
    lambda: asym.theta_window("F1a", (_PAST, 0.01, 1), 1.0),
    lambda: asym.theta_recover("F1a", (_PAST, 0.01, 1), 1.0),
    lambda: asym.theta_window("F1a", (0.01, 0.01, 1), _PAST),
    lambda: asym.theta_recover("F1a", (0.01, 0.01, 1), _PAST),
    lambda: bounds.bracket("A3", 1, _PAST),
    lambda: bounds.theta_of("A3", _PAST, 1),
    lambda: quadrature.oracle_batch("RF", [(1, 2, 4), (1, _PAST, 4)]),
    lambda: Campaign("F1a", ratios=(1e-3, _PAST)),
], ids=["rc", "rf", "rd", "rj", "rg", "r_minus1", "agm", "legendre_k", "legendre_e",
        "EvalRequest-args", "EvalRequest-rel_tol", "enclose", "case_ratio",
        "theta_window", "theta_recover", "theta_window-true_value",
        "theta_recover-true_value", "bracket", "theta_of", "oracle_batch", "Campaign"])
def test_int_past_float64_is_a_domain_error(call):
    """An int that float() cannot convert is refused as a DomainError, not a
    bare OverflowError, and its 401 digits stay out of the text."""
    with pytest.raises(DomainError, match="got a value too large for float64$") as got:
        call()
    assert "0" * 20 not in str(got.value)


@pytest.mark.parametrize("call, names", [
    (lambda: EvalRequest("RF", (1, 2, "x"), 1e-6), "rf"),
    (lambda: EvalRequest("RF", (1, None, 4), 1e-6), "rf"),
    (lambda: EvalRequest("RF", (1, 2, 4), "tol"), "rel_tol"),
    (lambda: core.rf("a", 1, 1), "rf"),
    (lambda: core.rc(None, 1), "rc"),
    (lambda: core.rj(1, 2, 4, "p"), "rj"),
    (lambda: asym.enclose("F1a", "a", 1, 1), "F1a"),
    (lambda: asym.theta_window("F1a", (0.01, 0.01, 1), "v"), "true value"),
    (lambda: bounds.bracket("A1", "a", 1, 1), "A1"),
    (lambda: quadrature.oracle_batch("RF", [("a", 1, 1)]), "rf"),
    (lambda: Campaign("C1", ("x",), 5, 1), "ratios"),
], ids=["EvalRequest-args", "EvalRequest-None", "EvalRequest-rel_tol", "rf", "rc-None",
        "rj", "enclose", "theta_window-true_value", "bracket", "oracle_batch", "Campaign"])
def test_non_number_is_a_domain_error(call, names):
    """A text that is no number, or None, is refused as a DomainError that
    names the evaluator, entry or argument, not a bare ValueError or
    TypeError."""
    with pytest.raises(DomainError, match=f"^{names}: got a non-number \\("):
        call()


def test_numeric_text_is_still_a_number():
    assert EvalRequest("RF", ("1", "2", "4"), "1e-6") == EvalRequest("RF", (1, 2, 4), 1e-6)
    assert core.rf("1", "2", "4") == core.rf(1.0, 2.0, 4.0)
    assert bounds.bracket("A3", "4", 1) == bounds.bracket("A3", 4.0, 1.0)


@pytest.mark.parametrize("call, name, least", [
    (lambda: Campaign("C1", seed=-1), "seed", 0),
    (lambda: Campaign("C1", seed=2.5), "seed", 0),
    (lambda: Campaign("C1", samples=2.5), "samples", 1),
    (lambda: run_order_fit("C1", seed=-2), "seed", 0),
    (lambda: run_bounds_fuzz("A1", 10, -1), "seed", 0),
    (lambda: run_bounds_fuzz("A1", 2.5, 1), "n", 1),
    (lambda: run_identities(-3, 5), "seed", 0),
    (lambda: run_identities(1, 2.5), "n", 1),
], ids=["Campaign-seed", "Campaign-float-seed", "Campaign-samples", "run_order_fit-seed",
        "run_bounds_fuzz-seed", "run_bounds_fuzz-n", "run_identities-seed",
        "run_identities-n"])
def test_bad_campaign_parameter_is_a_domain_error(call, name, least):
    """A seed must be an int >= 0 and a sample count an int >= 1; anything
    else is refused as a DomainError that names the value, when the campaign
    is built or its first stream drawn, not a bare ValueError from numpy's
    SeedSequence or a TypeError later."""
    with pytest.raises(DomainError, match=f"^{name} must be >= {least} and an int, got "):
        call()


@pytest.mark.parametrize("argv, env", [
    (["verify", "--cases", "C1", "--samples", "2", "--seed", "-1"], None),
    (["verify", "--cases", "C1", "--samples", "2"], "-1"),
    (["identities", "--n", "5", "--seed", "-3"], None),
], ids=["verify-seed", "verify-SEED", "identities-seed"])
def test_bad_seed_exits_2(capsys, monkeypatch, tmp_path, argv, env):
    if env is not None:
        monkeypatch.setenv("SEED", env)
    if argv[0] == "verify":
        argv = [*argv, "--out", str(tmp_path / "r")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: seed must be >= 0 and an int, got -" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind, args, tol", [
    ("RF", (-1.0, 2.0, 3.0), 1e-13),
    ("K", (-0.5,), 5e-13),
    ("K", (1.5,), 5e-13),
    ("E", (1.5,), 1e-13),
    ("RD", (1.0, 1.0, -1.0), 1e-14),
    ("RJ", (1.0, 2.0, 3.0, 0.0), 1e-14),
    ("RG", (-1.0, 2.0, 3.0), 1e-14),
])
def test_domain_is_refused_below_the_reference_guarantee(kind, args, tol):
    """Below rel_tol 1e-12 the walk has no reference step; a request outside
    the domain is still a DomainError, not a ToleranceError."""
    with pytest.raises(DomainError):
        evaluate(EvalRequest(kind, args, tol))


@pytest.mark.parametrize("argv", [
    ["eval", "rf", "-1", "2", "3", "--rel-tol", "1e-13"],
    ["eval", "k", "-0.5", "--rel-tol", "5e-13"],
])
def test_domain_below_the_reference_guarantee_exits_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


# tuples outside each kind's domain: negative, two zeros, all zeros, p = 0,
# a zero x at p < 0, k outside its range; each kind also gets inf, an int
# past float64 and a non-number in its last slot.  RF(-1, -1, 2) and
# RG(-1, 0, 2) match closed-form patterns (two equal arguments, one zero),
# so only the request's own domain check keeps them from an answer.
_OUT_OF_DOMAIN = {
    "RC": [(-1.0, 2.0), (0.0, 0.0), (1.0, 0.0)],
    "RF": [(-1.0, 2.0, 3.0), (-1.0, -1.0, 2.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0)],
    "RD": [(-1.0, 2.0, 3.0), (1.0, 1.0, -1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0)],
    "RJ": [(-1.0, 2.0, 3.0, 4.0), (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.0),
           (1.0, 2.0, 3.0, 0.0), (0.0, 2.0, 3.0, -1.0)],
    "RG": [(-1.0, 2.0, 3.0), (-1.0, 0.0, 2.0), (0.0, 0.0, 0.0)],
    "K": [(-0.5,), (1.0,), (1.5,)],
    "E": [(-0.5,), (1.5,)],
}


@pytest.mark.parametrize("kind", list(KIND_TABLE))
def test_one_text_per_refusal(kind):
    """A request is refused when it is built, at every rel_tol, with the
    same text as its kind's reference evaluator."""
    arity, name, _ = KIND_TABLE[kind]
    good = (0.5,) * arity
    evaluator = getattr(core, name)
    for args in _OUT_OF_DOMAIN[kind] + [good[:-1] + (v,) for v in (math.inf, _PAST, "x")]:
        with pytest.raises(DomainError) as ref:
            evaluator(*args)
        for tol in (1e-14, 5e-13, 1e-6):
            with pytest.raises(DomainError) as got:
                EvalRequest(kind, args, tol)
            assert str(got.value) == str(ref.value), (args, tol)


# the domain of each reference evaluator, written out here independently
# of the rules in _util
_DOMAIN = {
    "RC": lambda x, y: x >= 0.0 and y != 0.0,
    "RF": lambda *v: min(v) >= 0.0 and v.count(0.0) <= 1,
    "RD": lambda x, y, z: x >= 0.0 and y >= 0.0 and (x, y) != (0.0, 0.0) and z > 0.0,
    "RJ": lambda x, y, z, p: (min(x, y, z) >= 0.0 and (x, y, z).count(0.0) <= 1 and p != 0.0
                              and (p > 0.0 or min(x, y, z) > 0.0)),
    "RG": lambda *v: min(v) >= 0.0 and max(v) > 0.0,
    "K": lambda k: 0.0 <= k < 1.0,
    "E": lambda k: 0.0 <= k <= 1.0,
}


def test_requests_accept_the_evaluators_domain():
    """On in-domain and boundary tuples (signed zeros, subnormals, DBL_MAX,
    k next to 0 and 1) a request is refused exactly where its evaluator's
    domain excludes it."""
    rng = np.random.default_rng(11)
    edges = [0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52,
             1.5, 1e300, sys.float_info.max, -5e-324, -0.5, -1.0]
    for kind, (arity, _, _) in KIND_TABLE.items():
        seen = set()
        for _ in range(3000):
            args = tuple(float(edges[i]) if i < len(edges) else
                         float(np.exp(rng.uniform(-690.0, 690.0)))
                         for i in rng.integers(0, 2 * len(edges), arity))
            try:
                EvalRequest(kind, args, 1e-6)
                accepted = True
            except DomainError:
                accepted = False
            assert accepted == _DOMAIN[kind](*args), (kind, args)
            seen.add(accepted)
        assert seen == {True, False}, kind


@pytest.mark.parametrize("kind, arity", [("Rm1", 3), ("RJpv", 4), ("Mlog", 3)])
@pytest.mark.parametrize("n", [0, 2, 5])
def test_oracle_row_of_the_wrong_length_is_a_domain_error(kind, arity, n):
    """A principal-value or log-derivative oracle row of the wrong length is
    refused as an RC..RG row is, in the same words."""
    with pytest.raises(DomainError, match=rf"^{kind} takes {arity} arguments, got {n}$"):
        quadrature.oracle_batch(kind, [(1.0,) * n])


@pytest.mark.parametrize("args", [
    # the result was NaN, printed with exit 0
    ("2.7027341872482865e-280", "1e-310", "3.218908163891085e-80",
     "-3.3040249905512133e+291"),
    # a bare ZeroDivisionError, a traceback with exit 1
    ("4.399670334042827e-290", "8.075232626128544e-125",
     "1.3600996737682435e-143", "-2.429110692649223e-275"),
])
def test_principal_value_past_float64_exits_2(capsys, args):
    assert main(["eval", "rj", *args]) == 2
    assert "rj: float64 range exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("fn, tags", [
    (bounds.bracket, bounds.INEQ_TAGS),
    (bounds.theta_of, bounds.THETA_TAGS),
], ids=["bracket", "theta_of"])
def test_inequalities_fail_only_with_typed_errors(fn, tags):
    """Every inequality on 400 wide tuples, with DBL_MAX mixed in: no bare
    ZeroDivisionError or OverflowError, and no NaN or inf endpoint, middle
    or theta; a float64 failure is a ConvergenceError."""
    range_errors = 0
    for tag in tags:
        rows = _wide_rows(5, 400, bounds.arity(tag))
        for args in rows[::10]:
            args[-1] = sys.float_info.max
        for args in rows:
            try:
                got = fn(tag, *args)
            except TYPED as exc:
                range_errors += isinstance(exc, ConvergenceError)
                continue
            values = (got.lo, got.mid, got.hi) if fn is bounds.bracket else (got,)
            assert all(map(math.isfinite, values)), (tag, args, got)
    assert range_errors > 0


@pytest.mark.parametrize("argv, message", [
    # a bare ZeroDivisionError, a traceback with exit 1
    (["bounds-check", "A1", "3.0660345091511146e-216", "5.984961922889028e-288"],
     "A1 at (3.0660345091511146e-216, 5.984961922889028e-288) is past float64"),
    # lo=inf mid=inf hi=inf, printed with exit 0
    (["bounds-check", "A3", "3.360331596940762e-209", "4.0574704107261416e+104"],
     "A3 at (3.360331596940762e-209, 4.0574704107261416e+104) is past float64"),
    # a NaN endpoint, a ValueError traceback from the JSON writer
    (["bounds-check", "A10", "3.229310479303733e+262", "2.511534409859582e+253",
      "1.5236347041290444e+220", "3.671238884803675e-82", "--json"], "A10 at ("),
    # inf certified as a reference answer; mpmath gives 4.30e313
    (["eval", "rd", "9.513233213501431e-257", "3.3959025741232045e-104",
      "1.5084659262934478e-267"], "rd: float64 range exceeded"),
    (["eval", "rd", "9.513233213501431e-257", "3.3959025741232045e-104",
      "1.5084659262934478e-267", "--json"], "rd: float64 range exceeded"),
], ids=["A1", "A3", "A10-json", "eval-rd", "eval-rd-json"])
def test_past_float64_exits_2(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("fn, width, negate_last, in_domain", [
    (core.rj, 4, False, lambda a: a[3] > 0.0 and a[:3].count(0.0) <= 1),
    (core.rj, 4, True, lambda a: min(a[:3]) > 0.0 and a[3] < 0.0),
    (core.r_minus1, 3, False, lambda a: min(a) > 0.0),
    (core.rc, 2, True, lambda a: a[1] < 0.0),
], ids=["rj", "rj-pv", "r_minus1", "rc-pv"])
def test_inner_domain_error_is_a_range_error(fn, width, negate_last, in_domain):
    """Once a function has accepted its arguments, a DomainError from an
    inner rc, rf, rj or rd call means float64 ran out: it is a
    ConvergenceError, not a DomainError about arguments never passed."""
    for args in _wide_rows(3, 3000, width):
        if negate_last:
            args[-1] = -args[-1]
        if not in_domain(args):
            continue
        try:
            fn(*args)
        except DomainError as exc:
            pytest.fail(f"{fn.__name__}{tuple(args)}: {exc}")
        except ConvergenceError:
            pass


@pytest.mark.parametrize("fn, args, inner", [
    (core.rj, (2.4518860694582356e-249, 1.2198430542030024e-158, 5.816732927561769e+180,
               1.9825385399294428e+49),
     "1 + em = -2.220446049250313e-16 is not a positive finite float"),
    (core.rc, (1.7e308, -1.7e308), "rc: got inf, not a finite number"),
])
def test_inner_domain_error_names_the_range(fn, args, inner):
    with pytest.raises(ConvergenceError, match=f"^{fn.__name__}: float64 range exceeded") as got:
        fn(*args)
    assert inner in str(got.value)


def test_case_body_domain_error_is_a_convergence_error(capsys, monkeypatch):
    """Every gate accepts positive finite tuples as in its domain (it may
    refuse the regime), so past it a DomainError from the terms' rj, rc or
    rd means float64 ran out."""
    rng = np.random.default_rng(5)
    for tag in asym.CASE_TAGS:
        n = KIND_TABLE[asym.case_kind(tag)].arity
        for args in np.exp(rng.uniform(math.log(1e-300), math.log(1e300), (1000, n))).tolist():
            try:
                asym.enclose(tag, *args)
            except DomainError as exc:
                pytest.fail(f"{tag}{tuple(args)}: {exc}")
            except (RegimeError, ConvergenceError):
                pass
    # inside the argument window no tuple of a seed-5 sweep reaches the
    # conversion, so J4a's inner rc is made to refuse
    def refuse(x, y):
        raise DomainError("y must be finite, got inf")

    monkeypatch.setattr(asym, "rc", refuse)
    assert main(["asym", "J4a", "1", "1", "1e-05", "1e-06"]) == 2
    assert capsys.readouterr().err == \
        "error: J4a at (1.0, 1.0, 1e-05, 1e-06) is past float64: y must be finite, got inf\n"


def _spread_rows(seed, n, width):
    """Requests in asym territory across the float64 range: a large and a
    small argument group, the small one by a ratio of 1e-9..1e-3 below a
    scale log-uniform on 1e-300..1e300, and about 20 % zeros."""
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), (n, 1)))
    ratio = np.exp(rng.uniform(math.log(1e-9), math.log(1e-3), (n, 1)))
    rows = scale * np.exp(rng.uniform(math.log(0.1), math.log(10.0), (n, width)))
    small = rng.random((n, width)) < 0.5
    rows = np.where(small, rows * ratio, rows)
    rows[(rng.random((n, width)) < 0.2) & small] = 0.0
    return rows.tolist()


def _outside_window(args):
    return any(v and not 1e-100 <= v <= 1e100 for v in args)


@pytest.mark.parametrize("kind", ["RF", "RD", "RJ", "RG"])
def test_evaluate_answers_no_asym_outside_the_window(kind):
    """A case formula whose products leave float64 can certify a wrong
    value (D4 at (1e200, 2e200, 3e200) was 81 % off), so the dispatcher
    answers no asym step with a nonzero argument outside [1e-100, 1e100].
    (An RC request always ends at its closed form.)"""
    outside = asym_inside = 0
    for args in _spread_rows(7, 600, KIND_TABLE[kind].arity):
        try:
            rep = evaluate(EvalRequest(kind, args, 1e-6))
        except TYPED:
            continue
        if _outside_window(args):
            outside += 1
            assert rep.method != "asym", (kind, args, rep)
        else:
            asym_inside += rep.method == "asym"
    assert outside > 10 and asym_inside > 10


@pytest.mark.parametrize("kind, args, truth", [
    # mpmath at 100 digits; asym(D4) and asym(F2a) used to answer
    # 5.2585e-301 and 5.8060e-148 with a 2e-13 guarantee
    ("RD", (1e200, 2e200, 3e200), 2.9046028102899065742e-301),
    ("RF", (2.0033230614411426e+299, 6.122068797181284e+74, 1.9003900343870596e+75),
     5.7833189707195681358e-148),
])
def test_wide_spread_answers_meet_their_guarantee(kind, args, truth):
    rep = evaluate(EvalRequest(kind, args, 1e-6))
    assert rep.method == "reference"
    assert rep.value == pytest.approx(truth, rel=rep.guaranteed_rel_err)


def test_asym_outside_the_window_exits_2(capsys):
    # the products of D4's formula overflow here, and its ratio read 0.0
    assert main(["asym", "D4", "1e200", "2e200", "3e200"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "D4 at (1e+200, 2e+200, 3e+200) is past float64" in err


def test_principal_value_rc_below_the_normal_range(capsys):
    """rc's quotient x/(x + |y|) at y < 0 used to flush to 0, so 1e-300 came
    out 0.0; a value that is itself below the normal range exits 2."""
    assert main(["eval", "rc", "1e-200", "-1e200"]) == 0
    value, method, guar = capsys.readouterr().out.split()
    assert (method, guar) == ("closed_form", "1e-13")
    assert float(value) == pytest.approx(1e-300, rel=1e-13)
    assert main(["eval", "rc", "1e-300", "-1e300"]) == 2
    assert "rc: float64 range exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("x, y", [(1e308, 5e-324), (1.7e308, 1e-310)])
def test_rc_log_branch_past_float64_ratio(capsys, x, y):
    """rc's log branch took the log of (sqrt(x) + sqrt(x - y))/sqrt(y), which
    overflows once x/y passes float64, so these returned inf."""
    with mp.workdps(40):
        truth = float(mp.elliprc(x, y))
    assert core.rc(x, y) == pytest.approx(truth, rel=1e-13)
    assert main(["eval", "rc", repr(x), repr(y)]) == 0
    value, method, _ = capsys.readouterr().out.split()
    assert method == "closed_form" and float(value) == pytest.approx(truth, rel=1e-13)


# the complete route: one AGM run for rf and rg with a zero argument, K, E
# and agm, judged by mpmath at 50 digits (120 digits agree to 1e-50 on these
# spreads)
_COMPLETE_SPECIAL = (5e-324, 1e-323, 1e-320, 1e-310, sys.float_info.min, 1e308,
                     sys.float_info.max)


def _complete_pairs(seed, n):
    """Pairs log-uniform on 1e-300..1e300, 30 % of values from the ends of
    float64."""
    rng = np.random.default_rng(seed)
    rows = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), (n, 2)))
    special = rng.random((n, 2)) < 0.3
    rows[special] = rng.choice(_COMPLETE_SPECIAL, int(special.sum()))
    return rows.tolist()


def _moduli(seed, n):
    """k uniform on [0, 1) for half the draws and 1 - 10**U(-16, 0) for the
    rest, where k' = sqrt((1-k)(1+k)) falls to 1.5e-8."""
    rng = np.random.default_rng(seed)
    near_one = 1.0 - 10.0 ** rng.uniform(-16.0, 0.0, n)
    return np.where(rng.random(n) < 0.5, rng.random(n), near_one).tolist()


@pytest.mark.parametrize("fn, truth, rows", [
    (lambda y, z: core.rf(0.0, y, z), lambda y, z: mp.elliprf(0, y, z), _complete_pairs(11, 600)),
    (lambda y, z: core.rg(y, 0.0, z), lambda y, z: mp.elliprg(y, 0, z), _complete_pairs(12, 600)),
    (core.agm, mp.agm, _complete_pairs(13, 2000)),
    (core.legendre_k, lambda k: mp.ellipk(k * k), [[k] for k in _moduli(14, 2000)]),
    (core.legendre_e, lambda k: mp.ellipe(k * k), [[k] for k in _moduli(15, 2000)]),
], ids=["rf0", "rg0", "agm", "legendre_k", "legendre_e"])
def test_complete_route_on_the_whole_range(fn, truth, rows):
    """Every value whose true value is normal comes back within 1e-12, with
    no error: the run keeps its iterates normal.  Duplication refused 101 of
    the 600 rf(0, y, z) draws and 339 of the rg draws, and missed 1e-12 on
    21 and 27 others (worst 6.3e-3 and 178 times off); the old agm loop
    missed on 1,304 of its 2,000 pairs, with inf among them.  A mean below
    the normal range (agm of two tiny arguments) is a ConvergenceError."""
    worst = 0.0
    for args in rows:
        with mp.workdps(50):
            t = truth(*map(mp.mpf, args))
        if t < sys.float_info.min:
            with pytest.raises(ConvergenceError, match="below the normal range"):
                fn(*args)
            continue
        err = float(abs(fn(*args) - t) / t)
        assert err <= 1e-12, (args, err)
        worst = max(worst, err)
    assert worst > 0.0


@pytest.mark.parametrize("fn, args, truth, tol", [
    # a*g overflowed or underflowed in the old loop: inf, inf and 2.71e-320
    (core.agm, (1e200, 1e150), "1.3481430934587092487060474118422e198", 1e-14),
    (core.agm, (1.7e308, 1.7e308), "1.7e308", 1e-14),
    (core.agm, (1e-300, 1e-310), "6.4344870476013316422880605925585e-302", 1e-14),
    # sqrt(u)*sqrt(v) is subnormal unless both are scaled up first
    (core.agm, (3e-305, 5e-324), "1.0557248707033447559461568908747e-306", 1e-14),
    # duplication refused these: the argument spread overflowed, and the
    # run needed more than the step cap
    (core.rg, (0.0, 5e-324, 1e307), "1.5811388300841896549560298581243e153", 1e-12),
    (core.rf, (0.0, 5e-324, 5e-324), "7.0668772630353430919108272455989e161", 1e-12),
], ids=["agm-overflow", "agm-dbl-max", "agm-underflow", "agm-prescale", "rg-spread",
        "rf-step-cap"])
def test_complete_route_at_the_ends_of_float64(fn, args, truth, tol):
    """mpmath at 60 digits; each function's own guarantee."""
    assert fn(*args) == pytest.approx(float(truth), rel=tol, abs=0.0)


def test_complete_rg_past_the_old_spread_exits_0(capsys):
    """`symell eval rg 0 5e-324 1e307` exited 2 (the duplication spread
    overflowed); the AGM run answers it."""
    assert main(["eval", "rg", "0", "5e-324", "1e307"]) == 0
    value, method, guar = capsys.readouterr().out.split()
    assert (method, guar) == ("reference", "1e-12")
    assert float(value) == pytest.approx(1.5811388300841896549560298581243e153, rel=1e-12)


def _d2b_rows(seed, n):
    """D2b tuples inside the argument window: x/y skew log-uniform up to 1e8
    for half the rows and up to 1e190 for the rest, sqrt(xy) log-uniform on
    1e-4..1e4, and the ratio z/sqrt(xy) log-uniform on 1e-12..1e-2."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        skew = 10.0 ** rng.uniform(0.0, 8.0 if i % 2 else 190.0)
        g = 10.0 ** rng.uniform(-4.0, 4.0)
        x, y = g * math.sqrt(skew), g / math.sqrt(skew)
        if rng.random() < 0.5:
            x, y = y, x
        yield x, y, 10.0 ** rng.uniform(-12.0, -2.0) * math.sqrt(x * y)


def test_d2b_contains_rd_at_any_skew():
    """D2b's value term rd(0, x, y) + rd(0, y, x) is one AGM run,
    6 rg(0, x, y)/(xy).  Every tuple gets an enclosure, with no error of any
    type, and each holds RD by mpmath at 60 digits."""
    for x, y, z in _d2b_rows(23, 400):
        enc = asym.enclose("D2b", x, y, z)
        with mp.workdps(60):
            truth = mp.elliprd(x, y, z)
        assert enc.lo <= truth <= enc.hi, ((x, y, z), enc)
