"""Import budget of the stdlib-only paths, and the package's public names.

``import symell``, ``evaluate`` and ``symell eval``, ``asym`` and ``table``
run on the standard library alone; numpy loads with the quadrature oracle
(``symell.quadrature``) or the verification harness, and scipy never loads.
Nor do these paths load ``dataclasses`` or the ``inspect`` it pulls in: the
records on them are named tuples.  Nor do they load the inequality catalog,
``symell.bounds``, which only ``bounds-check`` and ``verify`` use.  The case
catalog, ``symell.asym``, loads on first use: ``import symell`` leaves it
out, and so does a request answered before the dispatcher's ratio pass (a
closed form, or K's and E's reference); a request that reaches the ratio
pass, the ``asym``, ``table`` and ``verify`` commands, and the package's
catalog names load it.  The budget is checked from inside a fresh process,
which prints the heavy modules it ended up holding.
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

# whether the case catalog is loaded yet
_ASYM = 'print("symell.asym" in sys.modules)'

# requests answered before the ratio pass: RC's and RF's closed forms, and
# K's and E's reference, which the walk tries before their cases
_EVALUATE_NO_CASES = f"""
import sys
import symell
{_ASYM}
for kind, args in [("RC", (1.0, 2.0)), ("RF", (2.0, 2.0, 2.0)), ("K", (0.5,)), ("E", (0.5,))]:
    print(symell.evaluate(symell.EvalRequest(kind, args, 1e-9)).method)
{_ASYM}
"""

# the names the package serves from the catalog load it on first use
_CATALOG_NAMES = f"""
import sys
import symell
{_ASYM}
print(symell.CASE_TAGS[0], symell.enclose("F1a", 0.01, 0.01, 1.0).case)
{_ASYM}
ns = {{}}
exec("from symell import *", ns)
print(sorted(set(symell.__all__) - set(ns)), ns["Enclosure"] is symell.asym.Enclosure)
try:
    symell.no_such_name
except AttributeError as exc:
    print(exc)
"""

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

    def test_import_and_early_answers_leave_the_catalog_out(self, spawn):
        res = spawn("-c", _EVALUATE_NO_CASES)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [
            "False", "closed_form", "closed_form", "reference", "reference", "False"]

    @pytest.mark.parametrize("argv, first, loads_asym", [
        ("eval k 0.5", "1.685750354812596 reference 1e-12", False),
        ("eval rc 1 2", "0.7853981633974483 closed_form 1e-13", False),
        # CI's pinned asym pick: the ratio pass loads the catalog
        ("eval rf 1e-9 2e-9 1 --rel-tol 1e-6",
         "10.866553700327023 asym(F1d) 2.0130776096148813e-13", True)])
    def test_cli_eval_loads_the_catalog_at_its_ratio_pass(self, spawn, argv, first,
                                                          loads_asym):
        res = spawn("-c", _CLI.format(argv=argv.split()) + "\n" + _ASYM)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [first, "[]", str(loads_asym)]

    def test_catalog_names_load_the_catalog(self, spawn):
        res = spawn("-c", _CATALOG_NAMES)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [
            "False", "C1 F1a", "True", "[] True",
            "module 'symell' has no attribute 'no_such_name'"]

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
