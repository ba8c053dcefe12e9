import json

import pytest

import verify_harness
from verify_harness import (
    DEFAULT_OPERATIONS,
    SRC_ROOT,
    UnknownOperationError,
    audit_no_intrinsics,
    oracle_compare,
)


class TestAudit:
    def test_shipped_tree_is_clean(self):
        assert audit_no_intrinsics(SRC_ROOT) == []

    def test_seeded_sqrt_call_is_one_violation(self, tmp_path):
        bad = tmp_path / "engine.py"
        bad.write_text(
            "def approximate(y):\n"
            "    return math.sqrt(y)\n")
        violations = audit_no_intrinsics(tmp_path)
        assert len(violations) == 1
        assert violations[0].path == str(bad)
        assert violations[0].line == 2

    def test_every_offending_line_is_reported(self, tmp_path):
        bad = tmp_path / "engine.py"
        bad.write_text(
            "import math\n"
            "def log10(y):\n"
            "    return math.log10(y)\n")
        violations = audit_no_intrinsics(tmp_path)
        assert [(v.line, v.reason) for v in violations] == [
            (1, "imports host math"),
            (3, "host math attribute"),
        ]

    def test_power_operator_is_caught(self, tmp_path):
        (tmp_path / "sneaky.py").write_text("def f(x):\n    return x ** 0.5\n")
        violations = audit_no_intrinsics(tmp_path)
        assert [v.reason for v in violations] == ["power operator"]

    def test_kwargs_are_not_flagged(self, tmp_path):
        (tmp_path / "fine.py").write_text(
            "def f(**kwargs):\n    return g(**kwargs)\n")
        assert audit_no_intrinsics(tmp_path) == []

    def test_our_own_pow_names_are_not_flagged(self, tmp_path):
        (tmp_path / "fine.py").write_text(
            "def int_pow(b, m):\n    return int_pow(b, m - 1) * b\n")
        assert audit_no_intrinsics(tmp_path) == []

    def test_c_sources_are_scanned(self, tmp_path):
        (tmp_path / "fast.c").write_text(
            "#include <math.h>\n"
            "static double root(double x) { return sqrt(x); }\n"
            "static double *rows(PyObject **items);\n")
        violations = audit_no_intrinsics(tmp_path)
        assert [(v.line, v.reason) for v in violations] == [
            (1, "C math header"),
            (2, "libm call"),
        ]

    def test_c_builtin_math_is_caught(self, tmp_path):
        (tmp_path / "fast.c").write_text(
            "static double a(double x) { return __builtin_sqrt(x); }\n"
            "static double b(double x) { return __builtin_powf(x, 0.5f); }\n"
            "static double c(double x) { return __builtin_log10l (x); }\n"
            "static int tz(unsigned long long k) { return __builtin_ctzll(k); }\n")
        violations = audit_no_intrinsics(tmp_path)
        assert [(v.line, v.reason) for v in violations] == [
            (1, "libm call"),
            (2, "libm call"),
            (3, "libm call"),
        ]

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(OSError):
            audit_no_intrinsics(tmp_path / "nope")


class TestOracleCompare:
    @pytest.mark.parametrize("operation", DEFAULT_OPERATIONS)
    def test_all_operations_pass(self, operation):
        report = oracle_compare(operation, 200, 42)
        assert report.passed, report

    def test_deterministic_reports(self):
        a = oracle_compare("log_dyadic", 100, 7)
        b = oracle_compare("log_dyadic", 100, 7)
        assert a == b

    def test_json_line_shape(self):
        report = oracle_compare("heron_sqrt", 10, 0)
        payload = json.loads(report.to_json())
        assert set(payload) == {"operation", "samples", "max_rel_error",
                                "tolerance", "passed"}

    @pytest.mark.parametrize("operation", ["log_dyadic", "antilog_roundtrip"])
    def test_every_log_sample_is_scored(self, operation, monkeypatch):
        # base 2 and 3 samples reach characteristics near +-1000, which the
        # library once refused; now each one is scored and none raises
        calls = []
        real = verify_harness.log_dyadic

        def counted(y, ladder):
            calls.append(y)
            return real(y, ladder)

        monkeypatch.setattr(verify_harness, "log_dyadic", counted)
        report = oracle_compare(operation, 400, 42)
        assert report.passed, report
        assert len(calls) == report.samples == 400
        assert min(calls) < 2.0 ** -400 and max(calls) > 2.0 ** 401

    def test_unknown_operation(self):
        with pytest.raises(UnknownOperationError):
            oracle_compare("cube_root", 10, 0)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            oracle_compare("heron_sqrt", 0, 0)
