import json
import math

import mpmath
import pytest

from symell.cli import main
from symell import core
from symell._fmt import dumps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_plain_output(self, capsys):
        code, out, err = run(capsys, "eval", "rf", "1", "1", "1", "--rel-tol", "1e-12")
        assert code == 0
        assert out.split() == ["1.0", "closed_form", "1e-14"]

    def test_legendre_kinds(self, capsys):
        code, out, _ = run(capsys, "eval", "k", "0.9")
        assert code == 0
        import symell
        assert float(out.split()[0]) == pytest.approx(symell.legendre_k(0.9), rel=1e-12)

    def test_rc_value(self, capsys):
        code, out, _ = run(capsys, "eval", "rc", "0", "1")
        assert code == 0
        assert abs(float(out.split()[0]) - math.pi / 2) < 1e-13

    def test_negative_y_routes_to_principal_value(self, capsys):
        code, out, _ = run(capsys, "eval", "rc", "1", "-2")
        assert code == 0
        assert float(out.split()[0]) == pytest.approx(core.rc(1.0, -2.0), rel=1e-15)

    def test_negative_p_routes_to_principal_value(self, capsys):
        code, out, _ = run(capsys, "eval", "rj", "1", "2", "3", "-0.5")
        assert code == 0
        assert float(out.split()[0]) == pytest.approx(core.rj(1, 2, 3, -0.5), rel=1e-15)
        assert out.split()[1] == "reference"

    @pytest.mark.parametrize("values, stdout", [
        (("rj", "1", "2", "4", "-1"), "-0.056810681731435254 reference 1e-12\n"),
        (("rc", "1", "-2"), "0.3801729981504731 closed_form 1e-13\n"),
        (("rc", "0", "-1"), "0.0 closed_form 1e-13\n"),  # exact, below the normal range
    ])
    def test_principal_value_stdout_is_pinned(self, capsys, values, stdout):
        assert run(capsys, "eval", *values) == (0, stdout, "")

    @pytest.mark.parametrize("values,tol,exit_code", [
        (("rc", "1", "-2"), "1e-14", 3),  # rc's principal value is certified to 1e-13
        (("rj", "1", "2", "4", "-1"), "1e-14", 3),  # rj's to 1e-12
        (("rj", "1", "2", "4", "-1"), "0.9", 2),  # outside [1e-14, 0.1], as for rf
    ])
    def test_principal_value_honours_rel_tol(self, capsys, values, tol, exit_code):
        code, out, err = run(capsys, "eval", *values, "--rel-tol", tol)
        assert code == exit_code
        assert out == "" and err.startswith("error: ")

    def test_scientific_negative_token(self, capsys):
        code, out, _ = run(capsys, "eval", "rj", "1", "2", "3", "-5e-1")
        assert code == 0

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "eval", "rd", "1", "2", "-1")
        assert code == 2
        assert "error" in err

    def test_tolerance_error_exit(self, capsys):
        code, _, err = run(capsys, "eval", "rc", "3", "1", "--rel-tol", "1e-14")
        assert code == 3

    def test_wrong_arity_exit(self, capsys):
        code, _, _ = run(capsys, "eval", "rc", "1", "2", "3")
        assert code == 64

    def test_wrong_arity_before_principal_value(self, capsys):
        code, _, err = run(capsys, "eval", "rj", "1", "2", "-3")
        assert code == 64
        assert "rj takes 4 arguments, got 3" in err

    @pytest.mark.parametrize("values", [
        ("rd", "5e-324", "1e-320", "1e-320"),  # a divisor underflows to zero
        ("rf", "1e308", "1.7e308", "1.5e308"),  # the argument mean overflows
        ("rd", "5e-324", "5e-324", "5e-324"),  # a closed form overflows
        ("rj", "5e-324", "5e-324", "5e-324", "5e-324"),
        ("rd", "1e308", "1e308", "1e308"),  # a closed form underflows to 0
        ("rd", "1e-320", "1e-300", "1e300"),  # the reference value underflows
        ("rj", "1e300", "2e-300", "0", "1e300"),
        ("rg", "5e-324", "2e300", "2e-300"),  # the three-term sum is not finite
    ])
    def test_float64_extremes_exit_domain(self, spawn, values):
        res = spawn("-m", "symell.cli", "eval", *values, timeout=30)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_unknown_flag_exit(self, capsys):
        code, _, _ = run(capsys, "eval", "rc", "1", "2", "--bogus")
        assert code == 64

    def test_json_round_trips_byte_identical(self, capsys):
        code, out, _ = run(capsys, "eval", "rf", "1e-9", "2e-9", "1",
                           "--rel-tol", "1e-6", "--json")
        assert code == 0
        text = out.strip()
        assert dumps(json.loads(text)) == text
        doc = json.loads(text)
        assert doc["method"].startswith("asym(")
        assert doc["enclosure"]["lo"] <= doc["value"] <= doc["enclosure"]["hi"]


class TestAsym:
    def test_enclosure_line(self, capsys):
        code, out, _ = run(capsys, "asym", "F1a", "0.01", "0.01", "1")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["lo"]) <= 3.0083051 <= float(fields["hi"])

    def test_degenerate_case(self, capsys):
        # at x = 0 the bracket collapses to [1, 1] and the value does not
        # depend on the symbol: its recovery is ill-conditioned
        code, out, _ = run(capsys, "asym", "C1", "0", "1")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert fields["theta"] == "none"
        assert float(fields["lo"]) <= math.pi / 2 <= float(fields["hi"])

    def test_regime_exit(self, capsys):
        code, _, err = run(capsys, "asym", "G1a", "1", "1", "4")
        assert code == 4
        assert "5a < z" in err

    def test_non_finite_enclosure_exit(self, capsys):
        # inside the argument window [1e-100, 1e100]
        code, _, err = run(capsys, "asym", "D4", "3.863344580890431e+90",
                           "1.9932937832362443e-94", "1.4568436167360788e-90")
        assert code == 2
        assert "past float64" in err and "not finite" in err

    @pytest.mark.parametrize("argv", [
        ("C1", "0", "1e-224"),
        ("J2a", "2.055664909053445e-174", "1.4719008802932014e-187",
         "5.194887725359986e+120", "1.4227417530867443e-195"),
    ])
    def test_bare_float64_failure_exit(self, capsys, argv):
        code, out, err = run(capsys, "asym", *argv)
        assert (code, out) == (2, "")
        assert "past float64" in err

    def test_gate_violation_exit(self, capsys):
        code, _, _ = run(capsys, "asym", "C2a", "1", "3")
        assert code == 4

    def test_json(self, capsys):
        code, out, _ = run(capsys, "asym", "J2a", "1", "2", "3", "1e-5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["contains_reference"] is True
        assert dumps(json.loads(out.strip())) == out.strip()

    def test_unknown_case_usage(self, capsys):
        # argparse's own usage and "invalid choice" text, byte for byte, though
        # the case is checked by the argument's type and not by its choices
        code, out, err = run(capsys, "asym", "Z9", "1", "2")
        assert code == 64
        assert out == ""
        assert err == (
            "usage: symell asym [-h] [--json] CASE values [values ...]\n"
            "error: argument CASE: invalid choice: 'Z9' (choose from 'C1', 'C2a', "
            "'C2b', 'C2c', 'F1a', 'F1b', 'F1c', 'F1d', 'F1e', 'F1f', 'F2a', 'D1', "
            "'D2a', 'D2b', 'D2c', 'D3', 'D4', 'J1a', 'J1b', 'J2a', 'J2b', 'J3', "
            "'J4a', 'J4b', 'J4c', 'J5', 'J6a', 'J6complete', 'G1a', 'G1b', 'G1c', "
            "'G2')\n")

    @pytest.mark.parametrize("argv", [("F1f", "1e-6"), ("C2b", "1", "1e-12"),
                                      ("C2b", "1", "1e-8"), ("F1f", "3e-8"),
                                      ("F1e", "3e-8")])
    def test_symbol_past_float64_prints_none(self, capsys, argv):
        # exp((v - a) / b) overflows: no symbol, but the enclosure stands; at
        # C2b (1, 1e-8) the symbol is finite (about 1.9e74), but its
        # uncertainty dwarfs the bracket [1, 4]; at k' = 3e-8 b is below the
        # value's own error, and F1f printed theta=0.0
        code, out, _ = run(capsys, "asym", *argv)
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert fields["theta"] == "none"
        assert float(fields["lo"]) <= float(fields["hi"])
        code, out, _ = run(capsys, "asym", *argv, "--json")
        assert code == 0
        assert json.loads(out)["theta"] is None


class TestBoundsCheck:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "bounds-check", "A3", "1", "1")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["lo"]) <= float(fields["mid"]) <= float(fields["hi"])
        assert float(fields["theta"]) == pytest.approx(1.2928932, rel=1e-6)

    def test_domain_exit(self, capsys):
        code, _, _ = run(capsys, "bounds-check", "A3", "0", "1")
        assert code == 2

    def test_unknown_id_exit(self, capsys):
        code, out, err = run(capsys, "bounds-check", "A99", "1", "1")
        assert code == 64
        assert out == "" and "A99" in err


class TestTable:
    def test_k_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--function", "K",
                           "--kprime-grid", "0.1,0.2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:2] == ["kprime", "reference"]
        row = lines[1].split(",")
        ref, lo, hi = float(row[1]), float(row[2]), float(row[3])
        assert lo <= ref <= hi
        assert ref == pytest.approx(3.6956, abs=2e-4)

    def test_e_row_contains_reference(self, capsys):
        code, out, _ = run(capsys, "table", "--function", "E",
                           "--kprime-grid", "0.5", "--format", "tsv")
        assert code == 0
        row = out.strip().splitlines()[1].split("\t")
        assert float(row[2]) <= float(row[1]) <= float(row[3])

    # a table without rows checks nothing: an empty grid is refused, and
    # leaving the grid out is a usage error
    @pytest.mark.parametrize("grid", ["", ","], ids=["empty", "comma"])
    def test_empty_grid_is_refused(self, capsys, grid):
        code, out, err = run(capsys, "table", "--function", "K", "--kprime-grid", grid)
        assert (code, out) == (2, "")
        assert err == "error: --kprime-grid selects no k' value\n"

    def test_grid_is_required(self, capsys):
        code, out, err = run(capsys, "table", "--function", "K")
        assert (code, out) == (64, "")
        assert "the following arguments are required: --kprime-grid" in err

    def test_out_of_range_exit(self, capsys):
        code, _, _ = run(capsys, "table", "--function", "K", "--kprime-grid", "1.5")
        assert code == 2

    @pytest.mark.parametrize("grid", ["a,b", "0.1:0.5:x"])
    def test_malformed_grid_is_usage(self, capsys, grid):
        code, _, err = run(capsys, "table", "--function", "K", "--kprime-grid", grid)
        assert code == 64
        assert "argument --kprime-grid: invalid" in err

    def test_grid_endpoint_out_of_range_exit(self, capsys):
        code, _, err = run(capsys, "table", "--function", "K", "--kprime-grid", "0:0.5:3")
        assert code == 2
        assert "k' grid values must lie in (0, 1), got 0.0" in err

    # a one-point grid (n = 1) is checked as any other
    @pytest.mark.parametrize("grid", ["0.5:2:1", "0.5:2:3"])
    def test_grid_upper_endpoint_is_checked(self, capsys, grid):
        code, out, err = run(capsys, "table", "--function", "K", "--kprime-grid", grid)
        assert (code, out) == (2, "")
        assert "k' grid values must lie in (0, 1), got 2.0" in err

    @pytest.mark.parametrize("function", ["K", "E"])
    @pytest.mark.parametrize("kp", [1e-4, 1e-3, 1e-2])
    def test_reference_is_accurate_at_small_kprime(self, capsys, function, kp):
        # the reference comes from k' itself; a round trip through the
        # modulus k loses about log10(1/k'^2) digits
        code, out, _ = run(capsys, "table", "--function", function,
                           "--kprime-grid", repr(kp), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        cells = dict(zip(doc["columns"], doc["rows"][0]))
        ref = cells["reference"]
        with mpmath.workdps(40):
            m = 1 - mpmath.mpf(kp) ** 2
            true = float(mpmath.ellipk(m) if function == "K" else mpmath.ellipe(m))
        assert abs(ref - true) <= 1e-12 * true
        for tag in ("F1e", "F1f") if function == "K" else ("G1c",):
            slack = 2e-13 * abs(ref)
            assert cells[f"{tag}_lo"] - slack <= ref <= cells[f"{tag}_hi"] + slack, tag
        if function == "K":
            assert 1.0 <= cells["F1e_theta"] <= 4.0

    def test_symbol_past_float64_is_an_empty_cell(self, capsys):
        # F1f's symbol overflows at k' = 1e-6; F1e's does not, but its
        # recovery is ill-conditioned there
        code, out, _ = run(capsys, "table", "--function", "K", "--kprime-grid", "1e-6")
        assert code == 0
        header, row = (line.split(",") for line in out.strip().splitlines())
        cells = dict(zip(header, row))
        assert cells["F1f_theta"] == ""
        assert cells["F1e_theta"] == ""
        code, out, _ = run(capsys, "table", "--function", "K", "--kprime-grid", "1e-6",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert dict(zip(doc["columns"], doc["rows"][0]))["F1f_theta"] is None

    def test_symbol_below_the_value_error_is_an_empty_cell(self, capsys):
        # at k' = 3e-8 both values carry nothing of their symbols; F1f's cell
        # read 0.0, outside its bracket [1, 4]
        code, out, _ = run(capsys, "table", "--function", "K", "--kprime-grid", "3e-8")
        assert code == 0
        header, row = (line.split(",") for line in out.strip().splitlines())
        cells = dict(zip(header, row))
        assert cells["F1f_theta"] == cells["F1e_theta"] == ""

    def test_ill_conditioned_symbol_is_an_empty_cell(self, capsys):
        # at k' = 1e-4 F1f's symbol is finite but ill-conditioned; F1e's is not
        for fmt, empty in (("csv", ""), ("tsv", ""), ("json", None)):
            code, out, _ = run(capsys, "table", "--function", "K", "--kprime-grid", "1e-4",
                               "--format", fmt)
            assert code == 0
            if fmt == "json":
                doc = json.loads(out)
                cells = dict(zip(doc["columns"], doc["rows"][0]))
            else:
                header, row = (line.split("," if fmt == "csv" else "\t")
                               for line in out.rstrip("\n").splitlines())
                cells = dict(zip(header, row))
            assert cells["F1f_theta"] == empty
            assert 1.0 <= float(cells["F1e_theta"]) <= 4.0

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "--function", "K",
                           "--kprime-grid", "0.01:0.1:3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        assert dumps(json.loads(out.strip())) == out.strip()


class TestVerify:
    def test_minimal_smoke(self, capsys, tmp_path):
        out_prefix = str(tmp_path / "rep")
        code, out, _ = run(capsys, "verify", "--cases", "F1a", "--ratios", "1e-2:1e-4",
                           "--samples", "1", "--seed", "42", "--out", out_prefix)
        assert code == 0
        assert (tmp_path / "rep.json").exists()
        assert (tmp_path / "rep.csv").exists()

    def test_appendix_range(self, capsys, tmp_path):
        out_prefix = str(tmp_path / "rep")
        code, out, _ = run(capsys, "verify", "--cases", "A1:A4", "--samples", "1000",
                           "--seed", "1", "--out", out_prefix)
        assert code == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert [r["case"] for r in doc["reports"]] == ["A1", "A2", "A3", "A4"]

    def test_seed_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SEED", "123")
        out_prefix = str(tmp_path / "rep")
        code, _, _ = run(capsys, "verify", "--cases", "C1", "--ratios", "1e-2,1e-3",
                         "--samples", "3", "--out", out_prefix)
        assert code == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["reports"][0]["seed"] == 123

    def test_malformed_ratios_is_usage(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--ratios", "abc", "--out", str(tmp_path / "rep"))
        assert code == 64
        assert "argument --ratios: invalid float: 'abc'" in err

    def test_malformed_seed_env_is_usage(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SEED", "abc")
        code, _, err = run(capsys, "verify", "--cases", "C1", "--out", str(tmp_path / "rep"))
        assert code == 64
        assert "argument --seed: invalid int value: 'abc'" in err
        assert not (tmp_path / "rep.json").exists()

    def test_bad_selector_exit(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", "--cases", "XX", "--out",
                         str(tmp_path / "rep"))
        assert code == 2

    # a run that checks nothing must not report a pass, nor write a report
    @pytest.mark.parametrize("argv, message", [
        (("--cases", "C1", "--ratios", ","), "a campaign needs at least one ratio"),
        (("--cases", ","), "--cases ',' selects nothing"),
        # one width is kept per ratio, so a repeat would report one stream twice
        (("--cases", "C1", "--ratios", "1e-2,1e-2"), "ratios must not repeat, got (0.01, 0.01)"),
    ])
    def test_empty_run_exits_domain(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, "verify", *argv, "--out", str(tmp_path / "rep"))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"
        assert not (tmp_path / "rep.json").exists()

    def test_missing_out_directory_exits_before_any_campaign(self, capsys, tmp_path,
                                                             monkeypatch):
        from symell import harness

        def no_campaign(*a):
            raise AssertionError("a campaign ran")

        monkeypatch.setattr(harness, "run_containment", no_campaign)
        missing = tmp_path / "missing"
        code, out, err = run(capsys, "verify", "--cases", "C1", "--samples", "5",
                             "--out", str(missing / "rep"))
        assert code == 2
        assert out == ""
        assert err == f"error: --out directory {str(missing)!r} does not exist\n"


class TestIdentitiesCommand:
    def test_runs_clean(self, capsys):
        code, out, _ = run(capsys, "identities", "--n", "20", "--seed", "7")
        assert code == 0
        assert "violations=0" in out
