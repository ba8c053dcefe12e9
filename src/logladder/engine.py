"""The log engine: log_b(y) and b^x on a dyadic exponent grid.

A logarithm here is a characteristic (whole power of the base) plus a
mantissa exponent k/2^depth found greedily: walk the ladder rungs from
coarse to fine and divide each one out of the residual whenever it fits.
After rung j the residual lies in [1, rungs[j]), so the finished mantissa
lies less than 2^-depth below the true log, up to the rounding of the
rungs and of the walk's own divisions (which can put it a small fraction
of a grid step above).

The antilog runs the same ladder in reverse: multiply together the rungs
named by the exponent's bits.
"""

from ._backend import kernels
from ._record import Record, field_setters
from .arith import _INF, _real
from .errors import (
    BadBaseError,
    CharacteristicOverflowError,
    DepthMismatchError,
    LevelOutOfRangeError,
    NonPositiveInputError,
)
from .ladder import MAX_DEPTH, RootLadder, _check_base

# No whole power base^c with |c| >= 2^62 can scale a value in [1, base) to a
# finite nonzero float: even the base nearest 1, 1 + 2^-52, has
# base^(2^62) near e^1024.  Below it c also fits the kernels' C integers.
_CHARACTERISTIC_LIMIT = 1 << 62


def _lowest_terms(k: int, n: int) -> tuple[int, int]:
    """k / 2^n (n >= 0) with trailing factor-2 pairs cancelled: k odd, or (0, 0).

    k & -k isolates the lowest set bit of k (negative k included), so its
    position is the count of factors of 2 that k holds.
    """
    if k == 0:
        return 0, 0
    shift = min((k & -k).bit_length() - 1, n)
    return k >> shift, n - shift


class DyadicExponent(Record):
    """Exactly numerator / 2^level, stored in lowest terms.

    Construction reduces trailing factor-2 pairs, so the numerator is odd
    or zero (a zero value normalizes to level 0).  Exact comparisons and
    exact float conversion both follow from that canonical form.
    """

    __slots__ = ("numerator", "level")

    def __init__(self, numerator: int, level: int):
        if not 0 <= level <= MAX_DEPTH:
            raise LevelOutOfRangeError(
                f"dyadic level must be in [0, {MAX_DEPTH}], got {level!r}")
        numerator, level = _lowest_terms(numerator, level)
        _set_numerator(self, numerator)
        _set_level(self, level)

    def value(self) -> float:
        """Exact float value (division by a power of two is exact)."""
        return self.numerator / float(1 << self.level)


class LogValue(Record):
    """A computed logarithm: characteristic + dyadic mantissa exponent.

    ``value()`` is characteristic + mantissa; the true log of the input
    that produced this lies within ``error_bound`` above it.
    """

    __slots__ = ("base", "characteristic", "mantissa_exponent", "error_bound")

    def __init__(self, base: float, characteristic: int,
                 mantissa_exponent: DyadicExponent, error_bound: float):
        level = mantissa_exponent.level
        if not 0 <= mantissa_exponent.numerator < 1 << level:
            raise LevelOutOfRangeError(
                "mantissa exponent must lie in [0, 1), "
                f"got {mantissa_exponent.value()!r}")
        if not 0.0 < error_bound <= 1.0 / (1 << level):
            raise LevelOutOfRangeError(
                f"error bound {error_bound!r} inconsistent with level {level}")
        _set_base(self, base)
        _set_characteristic(self, characteristic)
        _set_mantissa(self, mantissa_exponent)
        _set_bound(self, error_bound)

    def value(self) -> float:
        return self.characteristic + self.mantissa_exponent.value()


_new = object.__new__
_set_numerator, _set_level = field_setters(DyadicExponent)
_set_base, _set_characteristic, _set_mantissa, _set_bound = \
    field_setters(LogValue)
# _GRID[d] is the grid step 2^-d, the error bound of a depth-d log.
_GRID = tuple([1.0 / (1 << d) for d in range(MAX_DEPTH + 1)])


def _from_split(base: float, c: int, k: int, depth: int) -> LogValue:
    """The LogValue of a log_split result, built without the public checks.

    The kernel returns 0 <= k < 2^depth on a ladder whose depth is in
    [0, MAX_DEPTH], which is everything the public constructors check; the
    fields are the ones they would set (tests hold the two paths equal).
    As k < 2^depth, k holds fewer than depth factors of 2, so its lowest
    terms need no cap on the shift (unlike ``_lowest_terms``).
    """
    m = _new(DyadicExponent)
    if k:
        shift = (k & -k).bit_length() - 1
        _set_numerator(m, k >> shift)
        _set_level(m, depth - shift)
    else:
        _set_numerator(m, 0)
        _set_level(m, 0)
    v = _new(LogValue)
    _set_base(v, base)
    _set_characteristic(v, c)
    _set_mantissa(v, m)
    _set_bound(v, _GRID[depth])
    return v


def _split_exponent(x: float, base: float) -> tuple[int, float]:
    """x as a whole characteristic c plus the rest x - c in [0, 1).

    The one check of every exponent before it reaches a kernel: raises
    CharacteristicOverflowError for a non-finite x and for |c| >= 2^62.
    An int x is its own characteristic.
    """
    try:
        c = int(x)
    except (OverflowError, ValueError):  # inf and nan have no whole part
        raise CharacteristicOverflowError(
            f"antilog exponent must be finite, got {x!r}") from None
    if c > x:
        c -= 1
    if not -_CHARACTERISTIC_LIMIT < c < _CHARACTERISTIC_LIMIT:
        what = "overflows" if c > 0 else "underflows"
        raise CharacteristicOverflowError(
            f"scaling by {base!r}^c with |c| >= 2^62 {what} the float range")
    return c, x - c


def _times_power(v: float, base: float, c: int) -> float:
    """v in [1, base) scaled by the whole power base^c, for |c| < 2^63.

    Raises CharacteristicOverflowError when the result overflows to inf or
    underflows to 0.
    """
    if c >= 0:
        r = kernels.int_pow(base, c) * v
    else:
        divisor = kernels.int_pow(base, -c)
        if divisor < _INF:
            r = v / divisor
        else:
            # base^-c overflows, yet v / base^-c can still be a tiny or
            # subnormal float: divide by the power in two halves.
            half = -c // 2
            r = (v / kernels.int_pow(base, -c - half)
                 / kernels.int_pow(base, half))
    if not 0.0 < r < _INF:
        what = "overflows" if c > 0 else "underflows"
        raise CharacteristicOverflowError(
            f"scaling by {base!r}^{c} {what} the float range")
    return r


def log_dyadic(y: float, ladder: RootLadder) -> LogValue:
    """log of y in the ladder's base, resolved to 2^-depth.

    Any positive finite y is accepted, in any base > 1; values outside
    [1, base) are first scaled by whole powers of the base (that scaling is
    the characteristic, so the mantissa always lands in [0, 1)).  The
    kernel finds the characteristic in O(log |c|) steps on double-double
    powers of the base.  Zero and negative inputs are rejected: their
    logarithms do not exist in the real numbers this library lives in.
    """
    y = _real(y)
    if not 0.0 < y < _INF:
        raise NonPositiveInputError(
            f"logarithm needs a positive finite number, got {y!r}")
    c, k, _residual = kernels.log_split(y, ladder.base, ladder.rungs)
    return _from_split(ladder.base, c, k, ladder.depth)


def antilog_dyadic(x: "LogValue | float", ladder: RootLadder) -> float:
    """base^x from the ladder: whole power times a product of rungs.

    LogValue inputs are honored exactly at their own level (which must not
    be finer than the ladder).  Plain reals are rounded to the nearest
    point of the 2^-depth grid, ties toward the even numerator.  Raises
    CharacteristicOverflowError when the result overflows or underflows.
    """
    if isinstance(x, LogValue):
        if x.base != ladder.base:
            raise BadBaseError(
                f"exponent is base {x.base!r} but ladder is base {ladder.base!r}")
        m = x.mantissa_exponent
        if m.level > ladder.depth:
            raise DepthMismatchError(
                f"exponent level {m.level} exceeds ladder depth {ladder.depth}")
        c, _ = _split_exponent(x.characteristic, ladder.base)
        k, level = m.numerator, m.level
    else:
        c, rest = _split_exponent(_real(x), ladder.base)
        k = round(rest * (1 << ladder.depth))
        level = ladder.depth
        if k == 1 << ladder.depth:
            c += 1
            k = 0
    v = kernels.mantissa_product(k, level, ladder.rungs)
    return _times_power(v, ladder.base, c)


def _base_log(p: float, ladder: RootLadder, role: str) -> float:
    """log_dyadic(p, ladder).value(), the divisor that rebases a log to p.

    Read as c + k * 2^-depth without building the record (k and the power
    of two are exact, so the sum rounds the same way).  Raises BadBaseError,
    naming p by ``role``, unless p is finite and > 1 and its log reads > 0.
    """
    p = _check_base(p, role)
    c, k, _residual = kernels.log_split(p, ladder.base, ladder.rungs)
    if not (c or k):
        raise BadBaseError(
            f"{role} base {p!r} has a log below the ladder's grid step "
            f"2^-{ladder.depth}, which reads 0")
    return c + k * _GRID[ladder.depth]


def convert_base(x: LogValue, new_base: float, ladder_q: RootLadder) -> float:
    """Rebase a logarithm: log_p(y) = log_q(y) / log_q(p).

    ``x`` must have been computed on ``ladder_q``'s base q; the divisor
    log_q(p) is read on the same ladder, so no base-p ladder is needed.  A
    target whose log is below the grid step 2^-depth reads 0 there and
    raises BadBaseError.
    """
    if x.base != ladder_q.base:
        raise BadBaseError(
            f"value is base {x.base!r} but ladder is base {ladder_q.base!r}")
    return x.value() / _base_log(new_base, ladder_q, "target")


def log_product_check(y1: float, y2: float,
                      ladder: RootLadder) -> tuple[float, float]:
    """Both sides of the product law: (log(y1*y2), log(y1) + log(y2)).

    The two returns agree to a few grid steps; the gap is the quantization
    of three independent greedy extractions, not a property of the law.
    """
    y1, y2 = _real(y1), _real(y2)
    if not -_INF < y1 * y2 < _INF:
        raise CharacteristicOverflowError(
            f"product {y1!r} * {y2!r} is not finite")
    lhs = log_dyadic(y1 * y2, ladder).value()
    rhs = log_dyadic(y1, ladder).value() + log_dyadic(y2, ladder).value()
    return lhs, rhs
