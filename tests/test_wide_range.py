"""Contracts on the whole float64 range, not only 1e-3..1e3: a public
function returns a finite float or raises one of the typed errors, and the
CLI maps each such failure to its exit code."""

import math
import sys

import numpy as np
import pytest

from symell import (ConvergenceError, DomainError, EvalRequest, RegimeError, ToleranceError,
                    asym, bounds, core, evaluate)
from symell.cli import main

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
    (core.rj_pv, 4, True),
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
    assert "rj_pv: float64 range exceeded" in capsys.readouterr().err


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
    (core.rj_pv, 4, True, lambda a: min(a[:3]) > 0.0 and a[3] < 0.0),
    (core.r_minus1, 3, False, lambda a: min(a) > 0.0),
    (core.rc_pv, 2, False, lambda a: a[1] > 0.0),
], ids=["rj", "rj_pv", "r_minus1", "rc_pv"])
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
               1.9825385399294428e+49), "rc requires x >= 0 and y > 0"),
    (core.rc_pv, (1.7e308, 1.7e308), "x must be finite, got inf"),
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
        n = asym.KIND_ARITY[asym.case_kind(tag)]
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
    for args in _spread_rows(7, 600, asym.KIND_ARITY[kind]):
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
    """rc_pv's quotient x/(x + |y|) used to flush to 0, so 1e-300 came out 0.0;
    a value that is itself below the normal range exits 2."""
    assert main(["eval", "rc", "1e-200", "-1e200"]) == 0
    value, method, guar = capsys.readouterr().out.split()
    assert (method, guar) == ("closed_form", "1e-13")
    assert float(value) == pytest.approx(1e-300, rel=1e-13)
    assert main(["eval", "rc", "1e-300", "-1e300"]) == 2
    assert "rc_pv: float64 range exceeded" in capsys.readouterr().err
