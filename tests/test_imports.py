"""Import budget of the stdlib-only paths, and the package's public names.

``import symell``, ``evaluate`` and ``symell eval``, ``asym`` and ``table``
run on the standard library alone; numpy loads with the quadrature oracle
(``symell.quadrature``) or the verification harness, and scipy never loads.
Nor do these paths load ``dataclasses`` or the ``inspect`` it pulls in: the
records on them are named tuples.  Nor do they load the inequality catalog,
``symell.bounds``, which only ``bounds-check`` and ``verify`` use.  The
budget is checked from inside a fresh process, which prints the heavy
modules it ended up holding.
"""

import pytest

import symell
from symell import asym, bounds, core, dispatch, harness, quadrature

# numpy and scipy, dataclasses with the inspect it pulls in (about 10 ms
# of a spawn), and symell.bounds (compiled from source on each spawn where
# bytecode is not written) are the modules a probe reports
_HEAVY = ('print(sorted(m for m in sys.modules '
          'if m.split(".")[0] in ("numpy", "scipy", "dataclasses", "inspect") '
          'or m == "symell.bounds"))')

_EVALUATE = f"""
import sys
import symell
symell.evaluate(symell.EvalRequest("RF", (1.0, 2.0, 4.0), 1e-9))
{_HEAVY}
"""

_CLI = """
import runpy, sys
sys.argv = ["symell", *{argv!r}]
try:
    runpy.run_module("symell.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
""" + _HEAVY

_CLI_EVAL = _CLI.format(argv="eval rj 1e-8 2e-8 1 3 --json".split())

# plain `symell eval` output quotes no string, so it leaves json unimported
# (about 3 ms of a spawn); --json output imports it to quote its strings
_EVAL_RF_JSON = ('{"kind":"RF","args":[1,2,4],"rel_tol":1.0000000000000001e-09,'
                 '"value":0.68508581663343593,"method":"reference",'
                 '"guaranteed_rel_err":9.9999999999999998e-13,"enclosure":null}')

_ORACLE = f"""
import sys
from symell.quadrature import oracle_batch
oracle_batch("RF", [(1.0, 2.0, 4.0)])
oracle_batch("RJpv", [(1.0, 2.0, 4.0, 1.0)])
{_HEAVY}
"""


class TestImportBudget:
    def test_evaluate_loads_no_numpy_or_scipy(self, spawn):
        res = spawn("-c", _EVALUATE)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_cli_eval_loads_no_numpy_or_scipy(self, spawn):
        res = spawn("-c", _CLI_EVAL)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().splitlines()
        assert '"method"' in lines[0]  # the eval JSON came first
        assert lines[-1] == "[]"

    @pytest.mark.parametrize("argv, first, loads_json", [
        ("eval rf 1 2 4", "0.6850858166334359 reference 1e-12", False),
        ("eval rf 1 2 4 --json", _EVAL_RF_JSON, True)])
    def test_cli_eval_imports_json_for_json_output_only(self, spawn, argv, first, loads_json):
        res = spawn("-c", _CLI.format(argv=argv.split()) + '\nprint("json" in sys.modules)')
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [first, "[]", str(loads_json)]

    @pytest.mark.parametrize("argv", ["asym F1a 0.01 0.01 1",
                                      "table --function K --kprime-grid 0.1"])
    def test_cli_asym_and_table_load_no_numpy_or_scipy(self, spawn, argv):
        res = spawn("-c", _CLI.format(argv=argv.split()))
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().splitlines()
        assert len(lines) >= 2  # the command's output came first
        assert lines[-1] == "[]"

    def test_oracle_loads_numpy_not_scipy(self, spawn):
        # the probe sees heavy modules when they are there
        res = spawn("-c", _ORACLE)
        assert res.returncode == 0, res.stderr
        assert "'numpy'" in res.stdout
        assert "scipy" not in res.stdout

    def test_cli_bounds_check_loads_bounds(self, spawn):
        # the probe sees symell.bounds when it is there
        res = spawn("-c", _CLI.format(argv="bounds-check A3 1 1".split()))
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip().splitlines()[-1] == "['symell.bounds']"

    def test_cli_verify_loads_no_scipy(self, spawn, tmp_path):
        argv = ["verify", "--cases", "C1,A3,identities", "--samples", "2",
                "--out", str(tmp_path / "rep")]
        res = spawn("-c", _CLI.format(argv=argv))
        assert res.returncode == 0, res.stderr
        heavy = res.stdout.strip().splitlines()[-1]
        assert "'numpy'" in heavy
        assert "scipy" not in heavy


class TestLazyOracleNames:
    """The package's names.  The oracle is not among them: it needs numpy,
    and is reached as symell.quadrature.oracle_batch."""

    def test_star_import_binds_all(self):
        """Every name in each module's __all__ exists, so no deletion leaves
        a stale entry behind."""
        for module in (symell, core, asym, dispatch, bounds, harness, quadrature):
            ns: dict = {}
            exec(f"from {module.__name__} import *", ns)
            missing = [n for n in module.__all__ if n not in ns]
            assert missing == [], module.__name__

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            symell.no_such_name
        assert getattr(symell, "no_such_name", None) is None
