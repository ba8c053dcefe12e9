import json
import math
import random

import pytest

from logladder.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSqrt:
    def test_trace_ends_at_result(self, capsys):
        code, out, _ = run(capsys, "sqrt", "1747", "--guess", "40", "--trace",
                           "--rel-tol", "1e-10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k x_k y_k"
        assert lines[1] == "1 40 43.675"
        assert lines[2].startswith("2 41.8375 ")
        assert lines[-1] == "41.79712909"

    def test_plain_result_only(self, capsys):
        code, out, _ = run(capsys, "sqrt", "2")
        assert code == 0
        assert out == "1.414213562\n"

    def test_json_trace(self, capsys):
        code, out, _ = run(capsys, "sqrt", "1747", "--guess", "40", "--json")
        payload = json.loads(out)
        assert payload["initial_guess"] == 40.0
        assert payload["converged"] is True
        assert payload["iterations"][0] == [40.0, 43.675]

    def test_domain_error_exit_3(self, capsys):
        code, out, err = run(capsys, "sqrt", "-1")
        assert code == 3
        assert out == ""
        assert err.startswith("error:")


class TestLog:
    def test_log_one_is_zero(self, capsys):
        assert run(capsys, "log", "1") == (0, "0\n", "")

    def test_log_two(self, capsys):
        code, out, _ = run(capsys, "log", "2")
        assert code == 0
        assert out == "0.3010299957\n"

    def test_json_fields(self, capsys):
        _, out, _ = run(capsys, "log", "1000", "--json")
        payload = json.loads(out)
        assert payload["characteristic"] == 3
        assert payload["mantissa_numerator"] == 0
        assert payload["value"] == 3.0

    def test_env_var_controls_depth(self, capsys, monkeypatch):
        monkeypatch.setenv("MELTDOWN_LOG_DEPTH", "20")
        _, out, _ = run(capsys, "log", "2", "--digits", "12")
        assert out == "0.301029205322\n"

    def test_env_var_depth_checked_like_the_flag(self, capsys, monkeypatch):
        flag = run(capsys, "log", "2", "--depth", "99")
        monkeypatch.setenv("MELTDOWN_LOG_DEPTH", "99")
        assert run(capsys, "log", "2") == flag == (
            3, "", "error: depth must be in [0, 48], got 99\n")

    def test_bad_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MELTDOWN_LOG_DEPTH", "many")
        code, _, err = run(capsys, "log", "2")
        assert code == 2
        assert "MELTDOWN_LOG_DEPTH" in err

    def test_nonpositive_is_domain_error(self, capsys):
        code, _, err = run(capsys, "log", "0")
        assert code == 3
        assert "error:" in err


class TestAntilog:
    def test_half(self, capsys):
        assert run(capsys, "antilog", "0.5")[1] == "3.16227766\n"

    def test_table_level_lookup(self, capsys):
        code, out, _ = run(capsys, "antilog", "7.8894", "--table-level", "13")
        assert code == 0
        assert out == "77518310.16\n"

    def test_table_level_on_the_grid_matches_the_rungs(self, capsys):
        # a table row is the product of the rungs the exponent names, so on
        # the table's grid both paths scale the same value the same way
        rng = random.Random(7)
        for _ in range(400):
            base = rng.choice((10.0, 2.0, 1.5, 1e6))
            level = rng.randint(0, 16)
            span = int(300 / math.log10(base))
            x = (rng.randint(-span, span)
                 + rng.randrange(1 << level) / (1 << level))
            argv = ("antilog", "--base", repr(base), "--json")
            plain = json.loads(run(capsys, *argv, "--", repr(x))[1])["value"]
            table = json.loads(run(capsys, *argv, "--table-level", str(level),
                                   "--", repr(x))[1])["value"]
            assert table.hex() == plain.hex(), (base, level, x)

    @pytest.mark.parametrize("x, message", [
        ("308.5", "scaling by 10.0^308 overflows the float range"),
        ("-330", "scaling by 10.0^-330 underflows the float range"),
        ("nan", "antilog exponent must be finite, got nan"),
        ("inf", "antilog exponent must be finite, got inf"),
        ("1e300", "scaling by 10.0^c with |c| >= 2^62 overflows the float "
                  "range"),
        ("-1e300", "scaling by 10.0^c with |c| >= 2^62 underflows the float "
                   "range"),
    ])
    def test_table_level_errors_are_the_engines(self, capsys, x, message):
        want = (3, "", f"error: {message}\n")
        assert run(capsys, "antilog", "--table-level", "8", "--", x) == want
        assert run(capsys, "antilog", "--", x) == want


class TestConvertBase:
    def test_eight_to_base_two(self, capsys):
        assert run(capsys, "convert-base", "8", "--to", "2")[1] == "3\n"

    def test_five_to_base_three(self, capsys):
        _, out, _ = run(capsys, "convert-base", "5", "--to", "3",
                        "--digits", "6")
        assert out == "1.46497\n"


class TestRadix:
    def test_to_base3(self, capsys):
        assert run(capsys, "radix", "to", "15", "--base", "3")[1] == "120\n"

    def test_from_base3(self, capsys):
        assert run(capsys, "radix", "from", "22", "--base", "3")[1] == "8\n"

    def test_fractional(self, capsys):
        _, out, _ = run(capsys, "radix", "to", "54.79", "--base", "10",
                        "--frac-digits", "2")
        assert out == "54.79\n"

    def test_negative_sign_passthrough(self, capsys):
        assert run(capsys, "radix", "to", "-15", "--base", "3")[1] == "-120\n"

    def test_takes_no_digits_option(self, capsys):
        code, out, _ = run(capsys, "radix", "to", "5", "--base", "2",
                           "--digits", "3")
        assert (code, out) == (2, "")

    def test_bad_digit_is_domain_error(self, capsys):
        code, _, _ = run(capsys, "radix", "from", "29", "--base", "3")
        assert code == 3


class TestTable:
    def test_csv_default(self, capsys):
        _, out, _ = run(capsys, "table", "--level", "2")
        assert out == ("mantissa_exponent,value\n"
                       "0,1\n"
                       "0.25,1.77827941004\n"
                       "0.5,3.16227766017\n"
                       "0.75,5.6234132519\n")

    def test_gnuplot_data(self, capsys):
        _, out, _ = run(capsys, "table", "--level", "1", "--gnuplot-data")
        assert out == "1 0\n3.16227766017 0.5\n"

    def test_rungs_listing(self, capsys):
        _, out, _ = run(capsys, "table", "--rungs", "--depth", "2")
        assert out == ("j rung epsilon\n"
                       "0 10 9\n"
                       "1 3.16227766 2.16227766\n"
                       "2 1.77827941 0.77827941\n")

    def test_json_parses(self, capsys):
        _, out, _ = run(capsys, "table", "--level", "3", "--json")
        payload = json.loads(out)
        assert len(payload["entries"]) == 8


class TestMul:
    def test_via_table_detail_block(self, capsys):
        code, out, _ = run(capsys, "mul", "3157", "24551", "--via-table",
                           "--level", "13")
        assert code == 0
        lines = dict(line.split(maxsplit=1) for line in out.splitlines())
        assert lines["x1"].startswith("3.4992")
        assert lines["x2"].startswith("4.3900")
        assert lines["characteristic"] == "7"
        assert float(lines["estimate"]) == pytest.approx(77507507, rel=5e-4)

    def test_check_prints_both_sides(self, capsys):
        _, out, _ = run(capsys, "mul", "1000", "100", "--check")
        lines = dict(line.split(maxsplit=1) for line in out.splitlines())
        assert lines["product_log"] == "5"
        assert lines["sum_of_logs"] == "5"


class TestDiscoverE:
    def test_default_estimate(self, capsys):
        _, out, _ = run(capsys, "discover-e")
        assert out == "2.718278844\n"

    def test_sequence(self, capsys):
        _, out, _ = run(capsys, "discover-e", "--sequence", "--level", "6")
        assert out == ("n t_n\n"
                       "4 0.4037937627\n"
                       "5 0.4188568506\n"
                       "6 0.4265288271\n")

    def test_tangent_readings(self, capsys):
        _, out, _ = run(capsys, "discover-e", "--tangent-at", "10",
                        "--level", "20", "--digits", "4")
        assert out == "0.04343\n"


class TestAreaLn:
    def test_ln_ten(self, capsys):
        _, out, _ = run(capsys, "area-ln", "10", "--digits", "8")
        assert out == "2.3025855\n"

    def test_below_one_is_domain_error(self, capsys):
        assert run(capsys, "area-ln", "0.5")[0] == 3


class TestHarnessBehavior:
    def test_usage_error_exit_2(self, capsys):
        assert main(["sqrt"]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert main(["cube"]) == 2

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_arguments_reported_by_the_parser_given_them(self, capsys):
        code, _, err = run(capsys, "log", "2", "--bar")
        assert code == 2
        assert err.startswith("usage: logladder log ")
        assert err.endswith(
            "logladder log: error: unrecognized arguments: --bar\n")
        code, _, err = run(capsys, "--bar", "log", "2")
        assert code == 2
        assert err.startswith("usage: logladder [-h]")
        assert err.endswith("logladder: error: unrecognized arguments: --bar\n")

    def test_byte_identical_reruns(self, capsys):
        first = run(capsys, "mul", "3157", "24551", "--via-table")
        second = run(capsys, "mul", "3157", "24551", "--via-table")
        assert first == second
        third = run(capsys, "table", "--level", "8")
        fourth = run(capsys, "table", "--level", "8")
        assert third == fourth
