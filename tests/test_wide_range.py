"""Contracts on the whole float64 range, not only 1e-3..1e3: a public
function returns a finite float or raises one of the typed errors, and the
CLI maps each such failure to its exit code."""

import math
import sys

import numpy as np
import pytest

from symell import ConvergenceError, DomainError, RegimeError, ToleranceError, core
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
