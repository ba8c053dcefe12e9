"""Antilog tables on a dyadic mantissa grid, and table-driven multiplication.

A level-n table holds base^(k/2^n) for every k in [0, 2^n): exactly the
classical table of mantissas, built as products of ladder rungs.  Only the
[0, 1) mantissa range is tabulated; whole powers of the base are supplied
by the characteristic at lookup time, which is why the table stays small
no matter how large the numbers being multiplied are.

The precision path of the library is the log engine; tables exist for the
lookup workflow and for export, so their level is capped at 16 (65,536
entries).
"""

from collections.abc import Sequence

from ._backend import kernels
from ._record import Record, field_setters
from .arith import _real
from .engine import LogValue, _split_exponent, _times_power, log_dyadic
from .errors import BadBaseError, LevelOutOfRangeError, OutOfRangeError
from .ladder import RootLadder

MAX_TABLE_LEVEL = 16


class _PackedRow:
    """Read-only float sequence over rows packed as native binary64 bytes.

    The kernels return a table's rows as one bytes object, so a table of
    65,536 rows holds one buffer instead of 65,536 float objects.  Rows read
    back as the same floats a tuple of them would give: by index (negative
    too), by slice (a tuple) and by iteration.  Equality and the hash go by
    the bytes, the repr is the tuple's, and a row pickles as its bytes.
    """

    __slots__ = ("_packed", "_view")

    def __init__(self, packed: bytes):
        _set_packed(self, packed)
        _set_view(self, memoryview(packed).cast("d"))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}")

    def __len__(self) -> int:
        return len(self._view)

    def __getitem__(self, index):
        if index.__class__ is slice:
            return tuple(self._view[index].tolist())
        return self._view[index]

    def __iter__(self):
        return iter(self._view)

    def __eq__(self, other):
        if other.__class__ is _PackedRow:
            return self._packed == other._packed
        return NotImplemented

    def __hash__(self):
        return hash(self._packed)

    def __repr__(self) -> str:
        return repr(tuple(self._view.tolist()))

    def __reduce__(self):
        return _PackedRow, (self._packed,)


_set_packed, _set_view = field_setters(_PackedRow)


def _packed_row(values) -> _PackedRow:
    """A float sequence as a packed row; a packed row as itself."""
    if values.__class__ is _PackedRow:
        return values
    values = tuple(values)
    buf = bytearray(8 * len(values))
    view = memoryview(buf).cast("d")
    for k, v in enumerate(values):
        view[k] = v
    return _PackedRow(bytes(buf))


class LogTable(Record):
    """Immutable antilog table: values[k] = base^(k / 2^level).

    ``built_from`` records the depth of the ladder the products came from.
    Values increase strictly with k and all lie in [1, base).  ``values``
    is a read-only float sequence over the packed rows; any float sequence
    given here is packed the same way.  Raises LevelOutOfRangeError for a
    level outside [0, 16] and OutOfRangeError unless there are 2^level rows.
    """

    __slots__ = ("base", "level", "values", "built_from")

    def __init__(self, base: float, level: int, values: Sequence[float],
                 built_from: int):
        if not 0 <= level <= MAX_TABLE_LEVEL:
            raise LevelOutOfRangeError(
                f"table level must be in [0, {MAX_TABLE_LEVEL}], got {level!r}")
        values = _packed_row(values)
        if len(values) != 1 << level:
            raise OutOfRangeError(f"a level-{level} table has "
                                  f"{1 << level} rows, got {len(values)}")
        _set_base(self, base)
        _set_level(self, level)
        _set_values(self, values)
        _set_built_from(self, built_from)

    def __len__(self) -> int:
        return len(self.values)

    def mantissa_of(self, k: int) -> float:
        """Grid point k / 2^level as an exact float."""
        return k / float(1 << self.level)

    def entry(self, k: int) -> tuple[float, float]:
        """(mantissa exponent, antilog value) for row k."""
        return self.mantissa_of(k), self.values[k]

    def to_csv(self) -> str:
        """CSV rows: exact-decimal mantissa exponent, value to 12 digits.

        k / 2^n is exactly k * 5^n / 10^n, so the exponent is the digits of
        k * 5^n with the point n places from the right, trailing zeros cut.
        """
        n = self.level
        p = 1
        for _ in range(n):
            p *= 5
        lines = ["mantissa_exponent,value"]
        for k, v in enumerate(self.values._view):
            digits = str(k * p).rjust(n + 1, "0")
            point = len(digits) - n
            exponent = (digits[:point] + "." + digits[point:]).rstrip("0")
            lines.append(f"{exponent.rstrip('.')},{v:.12g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """JSON mirror of the table fields, as ``json.dumps(indent=2)``.

        Written by hand, which is about three times faster: the fields and
        each row's two floats go in by ``repr``, as the json module writes
        every finite float.
        """
        scale = float(1 << self.level)
        rows = ",\n".join([
            f'    {{\n      "mantissa_exponent": {k / scale!r},\n'
            f'      "value": {v!r}\n    }}'
            for k, v in enumerate(self.values._view)])
        return (f'{{\n  "base": {self.base!r},\n  "level": {self.level!r},\n'
                f'  "built_from": {self.built_from!r},\n'
                f'  "entries": [\n{rows}\n  ]\n}}\n')

    def to_gnuplot(self) -> str:
        """(value, mantissa) pairs: the log curve as plottable data."""
        lines = []
        for k, v in enumerate(self.values._view):
            lines.append(f"{v:.12g} {self.mantissa_of(k):.12g}")
        return "\n".join(lines) + "\n"


_set_base, _set_level, _set_values, _set_built_from = field_setters(LogTable)


def build_table(ladder: RootLadder, level: int) -> LogTable:
    """Materialize the level-n antilog table from a ladder.

    Each row costs one multiplication of an earlier row: row k is row
    k & (k - 1) times one rung.  That product has the same factors, in the
    same order, as the direct product of the rungs named by the bits of k,
    so its bits are the same and every row carries only a few rounding
    units of error (nothing drifts along the table).
    """
    if not 0 <= level <= MAX_TABLE_LEVEL or level > ladder.depth:
        raise LevelOutOfRangeError(
            f"table level must be in [0, min({MAX_TABLE_LEVEL}, ladder depth "
            f"{ladder.depth})], got {level!r}")
    return LogTable(ladder.base, level,
                    _PackedRow(kernels.table_values(ladder.rungs, level)),
                    ladder.depth)


def lookup_antilog(table: LogTable, mantissa: float) -> tuple[float, float]:
    """Nearest-grid-point antilog of a mantissa in [0, 1).

    No interpolation: the returned ``grid_error`` is the half grid width
    2^-(level+1), in log units, and is the honest price of pure lookup.
    Ties round toward the even grid index.
    """
    mantissa = _real(mantissa)
    if not 0.0 <= mantissa < 1.0:
        raise OutOfRangeError(f"mantissa must lie in [0, 1), got {mantissa!r}")
    grid_error = 1.0 / (1 << (table.level + 1))
    k = round(mantissa * (1 << table.level))
    if k == 1 << table.level:  # nearest point is the top of the octave
        return table.base, grid_error
    return table.values._view[k], grid_error


def _antilog_by_table(table: LogTable,
                      x: float) -> tuple[float, int, float, float, float]:
    """base^x by lookup: (estimate, characteristic, mantissa, row, grid error).

    Split x into a whole characteristic c and a [0, 1) mantissa, look the
    mantissa up in the table, and scale the row by base^c.
    """
    c, mantissa = _split_exponent(x, table.base)
    row, grid_error = lookup_antilog(table, mantissa)
    return _times_power(row, table.base, c), c, mantissa, row, grid_error


class MultiplyDetail(Record):
    """Worked record of one multiplication through the table.

    ``log_sum`` is x1 + x2, split exactly into characteristic + mantissa;
    ``log_error_bound`` collects both log error bounds plus the lookup
    grid error, all in log units of the table base.
    """

    __slots__ = ("x1", "x2", "log_sum", "characteristic", "mantissa",
                 "table_value", "grid_error", "log_error_bound")

    def __init__(self, x1: LogValue, x2: LogValue, log_sum: float,
                 characteristic: int, mantissa: float, table_value: float,
                 grid_error: float, log_error_bound: float):
        _set_x1(self, x1)
        _set_x2(self, x2)
        _set_log_sum(self, log_sum)
        _set_characteristic(self, characteristic)
        _set_mantissa(self, mantissa)
        _set_table_value(self, table_value)
        _set_grid_error(self, grid_error)
        _set_log_error_bound(self, log_error_bound)


(_set_x1, _set_x2, _set_log_sum, _set_characteristic, _set_mantissa,
 _set_table_value, _set_grid_error, _set_log_error_bound) = \
    field_setters(MultiplyDetail)


def multiply_via_logs(y1: float, y2: float, table: LogTable,
                      ladder: RootLadder) -> tuple[float, MultiplyDetail]:
    """Multiply two positive numbers by adding their logs.

    Take both logs on the ladder, add, split the sum into a whole
    characteristic and a [0, 1) mantissa, look the mantissa up in the
    table, and scale by the whole power of the base.  Returns the estimate
    and the full worked record.  Table and ladder must share a base.
    """
    if table.base != ladder.base:
        raise BadBaseError(
            f"table is base {table.base!r} but ladder is base {ladder.base!r}")
    x1 = log_dyadic(y1, ladder)
    x2 = log_dyadic(y2, ladder)
    log_sum = x1.value() + x2.value()
    estimate, c, mantissa, value, grid_error = _antilog_by_table(table,
                                                                 log_sum)
    detail = MultiplyDetail(x1, x2, log_sum, c, mantissa, value, grid_error,
                            x1.error_bound + x2.error_bound + grid_error)
    return estimate, detail
