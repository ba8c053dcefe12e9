"""Positional numerals in any integer base from 2 to 36.

Digits are stored most significant first, the way numerals are written.
Rendering uses 0-9 then A-Z, so base 16 looks like ordinary hex.
"""

from ._record import Record, field_setters
from .arith import _real
from .errors import BadRadixError, DigitOutOfRangeError, OutOfRangeError

MIN_BASE = 2
MAX_BASE = 36  # printable digits 0-9 A-Z

DIGIT_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _check_base(base: int) -> None:
    if not isinstance(base, int) or not MIN_BASE <= base <= MAX_BASE:
        raise BadRadixError(
            f"base must be an integer in [{MIN_BASE}, {MAX_BASE}], got {base!r}")


class RadixNumeral(Record):
    """Digit sequence in a fixed base, most significant digit first.

    Zero is the single digit [0]; any other numeral has no leading zero.

    >>> str(RadixNumeral(3, (1, 2, 0)))
    '120'
    """

    __slots__ = ("base", "digits")

    def __init__(self, base: int, digits: tuple[int, ...]):
        _check_base(base)
        if len(digits) == 0:
            raise DigitOutOfRangeError("numeral needs at least one digit")
        for d in digits:
            if not isinstance(d, int) or not 0 <= d < base:
                raise DigitOutOfRangeError(
                    f"digit {d!r} out of range for base {base}")
        if len(digits) > 1 and digits[0] == 0:
            raise DigitOutOfRangeError("leading zero digit")
        _set_base(self, base)
        _set_digits(self, digits)

    def __str__(self) -> str:
        return "".join(DIGIT_ALPHABET[d] for d in self.digits)

    @classmethod
    def parse(cls, text: str, base: int) -> "RadixNumeral":
        """Parse a digit string (0-9 then A-Z, case-insensitive)."""
        _check_base(base)
        if not text:
            raise DigitOutOfRangeError("empty numeral string")
        digits = []
        for ch in text.upper():
            i = DIGIT_ALPHABET.find(ch)
            if i < 0 or i >= base:
                raise DigitOutOfRangeError(
                    f"character {ch!r} is not a base-{base} digit")
            digits.append(i)
        while len(digits) > 1 and digits[0] == 0:
            digits.pop(0)
        return cls(base, tuple(digits))

    def coefficient(self, i: int) -> int:
        """Digit multiplying base^i (i = 0 is the last written digit)."""
        if not 0 <= i < len(self.digits):
            return 0
        return self.digits[len(self.digits) - 1 - i]


_set_base, _set_digits = field_setters(RadixNumeral)


def to_radix(m: int, base: int) -> RadixNumeral:
    """Non-negative integer to numeral by repeated division.

    >>> str(to_radix(8, 3))
    '22'
    >>> str(to_radix(15, 3))
    '120'
    """
    _check_base(base)
    if not isinstance(m, int) or m < 0:
        raise OutOfRangeError(f"need a non-negative integer, got {m!r}")
    if m == 0:
        return RadixNumeral(base, (0,))
    digits = []
    while m:
        m, d = divmod(m, base)
        digits.append(d)
    return RadixNumeral(base, tuple(reversed(digits)))


def from_radix(numeral: RadixNumeral) -> int:
    """Numeral back to the integer it names (Horner evaluation)."""
    n = 0
    for d in numeral.digits:
        n = n * numeral.base + d
    return n


def fractional_digits(x: float, base: int, count: int) -> tuple[int, ...]:
    """First ``count`` digits of x in (negative powers of) ``base``.

    Repeated multiply-by-base with integer-part extraction; the tail is
    truncated, never rounded, matching what the extraction loop actually
    produces.

    >>> fractional_digits(0.79, 10, 2)
    (7, 9)
    """
    _check_base(base)
    x = _real(x)
    if not 0.0 <= x < 1.0:
        raise OutOfRangeError(f"fractional part must lie in [0, 1), got {x!r}")
    if not 1 <= count <= 32:
        raise OutOfRangeError(f"digit count must be in [1, 32], got {count!r}")
    digits = []
    for _ in range(count):
        x *= base
        d = int(x)
        if d == base:  # x reached the base exactly after float roundoff
            d = base - 1
        digits.append(d)
        x -= d
    return tuple(digits)
