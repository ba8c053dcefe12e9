import json
import math
import pickle
import random
import struct
from decimal import Decimal, localcontext

import pytest

from logladder import (
    LogTable,
    _kernels_py,
    build_ladder,
    build_table,
    log_dyadic,
    lookup_antilog,
    multiply_via_logs,
)
from logladder.errors import (
    BadBaseError,
    CharacteristicOverflowError,
    LevelOutOfRangeError,
    OutOfRangeError,
)


@pytest.fixture(scope="module")
def table13(ladder10_40):
    return build_table(ladder10_40, 13)


def _direct_products(rungs, level):
    """Reference rows: each the direct product of the rungs named by the
    bits of k, most significant bit first."""
    out = []
    for k in range(1 << level):
        v = 1.0
        for j in range(1, level + 1):
            if (k >> (level - j)) & 1:
                v *= rungs[j]
        out.append(v)
    return out


def _hex(values):
    return [v.hex() for v in values]


def _unpacked(packed):
    """The floats of a kernel's packed native binary64 rows."""
    return [v for (v,) in struct.iter_unpack("=d", packed)]


class TestBuildTable:
    @pytest.mark.parametrize("base", [1.000001, 1.5, 2.0, 10.0, 1e6, 1e300])
    def test_rows_match_direct_products_bit_for_bit(self, base):
        ladder = build_ladder(base, 16)
        for level in range(17):
            want = _hex(_direct_products(ladder.rungs, level))
            assert _hex(build_table(ladder, level).values) == want, level
            packed = _kernels_py.table_values(ladder.rungs, level)
            assert _hex(_unpacked(packed)) == want, level

    def test_level3_matches_oracle(self):
        table = build_table(build_ladder(10.0, 8), 3)
        for k, value in enumerate(table.values):
            assert value == pytest.approx(10.0 ** (k / 8.0), rel=1e-12)
        rounded = [f"{v:.5g}" for v in table.values]
        assert rounded == ["1", "1.3335", "1.7783", "2.3714",
                           "3.1623", "4.217", "5.6234", "7.4989"]

    def test_level1_is_one_and_root_ten(self, ladder10_40):
        table = build_table(ladder10_40, 1)
        assert table.entry(0) == (0.0, 1.0)
        assert table.entry(1) == (0.5, ladder10_40.rungs[1])

    def test_midpoint_is_root_ten(self, ladder10_40):
        table = build_table(ladder10_40, 3)
        assert table.values[4] == pytest.approx(3.16227766, abs=5e-9)

    def test_shape_and_monotonicity(self, table13):
        assert len(table13) == 1 << 13
        assert table13.values[0] == 1.0
        assert table13.built_from == 40
        for a, b in zip(table13.values, table13.values[1:]):
            assert 1.0 <= a < b < table13.base

    def test_step_consistency(self, table13, ladder10_40):
        rung = ladder10_40.rungs[13]
        for k in range(0, (1 << 13) - 1, 11):
            assert abs(table13.values[k] * rung / table13.values[k + 1] - 1.0) \
                <= 4e-12

    def test_agreement_with_log_engine(self, table13, ladder10_40):
        bound = 2.0 ** -40 + 2.0 ** -13
        for k in range(0, 1 << 13, 97):
            back = log_dyadic(table13.values[k], ladder10_40).value()
            assert abs(back - k / 8192.0) <= bound

    def test_level_cap(self, ladder10_40):
        with pytest.raises(LevelOutOfRangeError):
            build_table(ladder10_40, 17)
        with pytest.raises(LevelOutOfRangeError):
            build_table(build_ladder(10.0, 8), 9)


class TestPackedValues:
    """``LogTable.values`` reads like the tuple of its rows."""

    def test_rows_read_like_a_tuple(self, table13):
        rows = tuple(table13.values)
        assert len(rows) == len(table13.values) == 1 << 13
        assert all(type(v) is float for v in rows)
        for k in (0, 1, 2, 4095, 8191, -1, -2, -8192):
            assert table13.values[k] == rows[k]
        for s in (slice(None), slice(3, 9), slice(-5, None), slice(None, -8190),
                  slice(None, None, -1), slice(1, 100, 7), slice(9, 3)):
            assert table13.values[s] == rows[s]
        for k in (1 << 13, -(1 << 13) - 1):
            with pytest.raises(IndexError):
                table13.values[k]
        assert list(reversed(table13.values)) == list(reversed(rows))
        assert rows[5] in table13.values
        assert repr(table13.values) == repr(rows)

    def test_rows_are_read_only(self, table13):
        before = table13.values[0]
        with pytest.raises(TypeError):
            table13.values[0] = 2.0
        with pytest.raises(TypeError):
            table13.values[1:3] = (2.0, 3.0)
        with pytest.raises(TypeError):
            del table13.values[0]
        with pytest.raises(AttributeError):
            table13.values._packed = b""
        assert table13.values[0] == before == 1.0

    def test_public_constructor_packs_any_float_sequence(self, ladder10_40):
        table = build_table(ladder10_40, 4)
        rows = list(table.values)
        for given in (rows, tuple(rows), iter(rows), table.values):
            again = LogTable(table.base, table.level, given, table.built_from)
            assert again == table
            assert hash(again) == hash(table)
            assert repr(again) == repr(table)
        assert LogTable(2.0, 0, [1], 0).values[0] == 1.0
        other = LogTable(table.base, table.level, rows[:-1] + [9.0],
                         table.built_from)
        assert other != table

    def test_public_constructor_refuses_a_wrong_shape(self):
        # a level outside [0, 16], or a row count other than 2^level, would
        # otherwise fail (or read a wrong row) only at lookup time
        for level in (-1, 17):
            with pytest.raises(LevelOutOfRangeError, match="table level"):
                LogTable(10.0, level, [1.0], 0)
        for level, rows in ((3, [1.0]), (1, [1.0, 2.0, 3.0, 4.0]),
                            (0, [])):
            with pytest.raises(OutOfRangeError,
                               match=f"has {1 << level} rows, got {len(rows)}"):
                LogTable(10.0, level, rows, 0)

    def test_pickles_as_its_bytes(self, table13):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(table13.values, protocol))
            assert back == table13.values
            assert tuple(back) == tuple(table13.values)


class TestLookupAntilog:
    def test_worked_mantissa(self, table13):
        value, grid_error = lookup_antilog(table13, 0.8894)
        assert grid_error == 2.0 ** -14
        assert abs(value / 7.7519 - 1.0) <= 1e-4
        assert abs(value - 10.0 ** 0.8894) <= math.log(10.0) * grid_error * value

    def test_zero_mantissa(self, table13):
        assert lookup_antilog(table13, 0.0) == (1.0, 2.0 ** -14)

    def test_log_two_mantissa(self, table13):
        value, _ = lookup_antilog(table13, 0.30103)
        assert abs(value - 2.0) <= 3e-4

    def test_ties_round_to_even_index(self, table13):
        mid = 3.0 / (1 << 14)  # exactly between k = 1 and k = 2
        value, _ = lookup_antilog(table13, mid)
        assert value == table13.values[2]

    def test_top_of_octave_wraps_to_base(self, table13):
        value, _ = lookup_antilog(table13, 1.0 - 2.0 ** -16)
        assert value == table13.base

    def test_rejects_out_of_range(self, table13):
        with pytest.raises(OutOfRangeError):
            lookup_antilog(table13, 1.0)
        with pytest.raises(OutOfRangeError):
            lookup_antilog(table13, -0.1)


class TestMultiplyViaLogs:
    def test_worked_product(self, table13, ladder10_40):
        estimate, detail = multiply_via_logs(3157.0, 24551.0, table13,
                                             ladder10_40)
        exact = 3157 * 24551
        assert exact == 77507507
        assert abs(estimate / exact - 1.0) <= 5e-4
        assert abs(detail.x1.value() - 3.4993) <= 1e-4
        assert abs(detail.x2.value() - 4.3900) <= 1e-4
        assert detail.characteristic == 7
        assert detail.characteristic + detail.mantissa == detail.log_sum

    def test_multiplying_by_one(self, table13, ladder10_40):
        estimate, detail = multiply_via_logs(123.456, 1.0, table13,
                                             ladder10_40)
        assert abs(estimate / 123.456 - 1.0) <= \
            math.log(10.0) * (detail.log_error_bound)

    def test_powers_of_ten_exact(self, table13, ladder10_40):
        estimate, _ = multiply_via_logs(100.0, 1000.0, table13, ladder10_40)
        assert abs(estimate / 100000.0 - 1.0) <= 1e-9

    def test_error_bound_over_500_pairs(self, table13, ladder10_40):
        rng = random.Random(7)
        bound = math.log(10.0) * (2.0 * 2.0 ** -40 + 2.0 ** -14) * 1.5
        for _ in range(500):
            y1 = rng.uniform(1.0, 1e6)
            y2 = rng.uniform(1.0, 1e6)
            estimate, detail = multiply_via_logs(y1, y2, table13, ladder10_40)
            assert abs(estimate / (y1 * y2) - 1.0) <= bound
            assert detail.characteristic + detail.mantissa == detail.log_sum


    def test_products_past_the_float_range_are_typed(self, table13,
                                                     ladder10_40):
        with pytest.raises(CharacteristicOverflowError, match="underflows"):
            multiply_via_logs(1e-200, 1e-150, table13, ladder10_40)
        with pytest.raises(CharacteristicOverflowError, match="overflows"):
            multiply_via_logs(1e200, 1e150, table13, ladder10_40)

    def test_refuses_a_table_of_another_base(self, ladder10_40):
        # base-10 logs looked up in a base-2 table would read 1.71 for 2 * 3
        table2 = build_table(build_ladder(2.0, 10), 8)
        with pytest.raises(BadBaseError,
                           match=r"^table is base 2\.0 but ladder is base 10\.0$"):
            multiply_via_logs(2.0, 3.0, table2, ladder10_40)


class TestExports:
    def test_csv_golden_level2(self, ladder10_40):
        table = build_table(ladder10_40, 2)
        assert table.to_csv() == (
            "mantissa_exponent,value\n"
            "0,1\n"
            "0.25,1.77827941004\n"
            "0.5,3.16227766017\n"
            "0.75,5.6234132519\n"
        )

    def test_csv_exact_decimal_mantissas(self, ladder10_40):
        table = build_table(ladder10_40, 4)
        rows = table.to_csv().splitlines()
        assert rows[0] == "mantissa_exponent,value"
        assert rows[1].startswith("0,")
        assert rows[2].startswith("0.0625,")
        assert rows[9].startswith("0.5,")

    def test_csv_matches_exact_reference_all_levels(self, ladder10_40):
        with localcontext() as ctx:
            ctx.prec = 40  # k / 2^16 needs at most 21 significant digits
            for level in range(17):
                table = build_table(ladder10_40, level)
                want = ["mantissa_exponent,value"]
                for k, v in enumerate(table.values):
                    d = Decimal(k) / (1 << level)
                    want.append(f"{d.normalize():f},{v:.12g}")
                assert table.to_csv() == "\n".join(want) + "\n", level

    def test_json_mirrors_fields(self, ladder10_40):
        table = build_table(ladder10_40, 2)
        payload = json.loads(table.to_json())
        assert payload["base"] == 10.0
        assert payload["level"] == 2
        assert payload["built_from"] == 40
        assert payload["entries"][2] == {
            "mantissa_exponent": 0.5,
            "value": table.values[2],
        }

    @pytest.mark.parametrize("base", [10.0, 2.0, 1.5, 1e6])
    def test_json_bytes_match_the_json_module(self, base):
        # the hand-written rows against json.dumps(indent=2) of the fields
        ladder = build_ladder(base, 40)
        for level in range(17):
            table = build_table(ladder, level)
            want = json.dumps({
                "base": table.base,
                "level": table.level,
                "built_from": table.built_from,
                "entries": [
                    {"mantissa_exponent": table.mantissa_of(k), "value": v}
                    for k, v in enumerate(table.values)
                ],
            }, indent=2) + "\n"
            assert table.to_json() == want, level

    def test_gnuplot_pairs(self, ladder10_40):
        table = build_table(ladder10_40, 2)
        lines = table.to_gnuplot().splitlines()
        assert lines[0] == "1 0"
        assert len(lines) == 4
        assert lines[2].split() == ["3.16227766017", "0.5"]
