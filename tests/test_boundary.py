"""How the public functions read a real argument: float() once, one check.

Any number float() accepts is read as its float, so an argument that is
inf or nan as a float (or beyond its range) gets the typed error a float
would, and a Decimal or Fraction computes what its float computes, on
either kernel twin.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from logladder import (
    antilog_dyadic,
    build_ladder,
    build_table,
    convert_base,
    default_guess,
    fractional_digits,
    heron_sqrt,
    int_pow,
    log_dyadic,
    log_product_check,
    lookup_antilog,
    riemann_ln,
    slope_log10,
    slope_log_p,
)
from logladder.errors import LogLadderError


@pytest.fixture(scope="module")
def ladder(ladder10_40):
    return ladder10_40


@pytest.fixture(scope="module")
def table4(ladder10_40):
    return build_table(ladder10_40, 4)


ENTRIES = {
    "heron_sqrt x": lambda v, lad, tab: heron_sqrt(v),
    "heron_sqrt rel_tol": lambda v, lad, tab: heron_sqrt(2.0, rel_tol=v),
    "heron_sqrt guess": lambda v, lad, tab: heron_sqrt(2.0, initial_guess=v),
    "default_guess": lambda v, lad, tab: default_guess(v),
    "int_pow": lambda v, lad, tab: int_pow(v, 3),
    "build_ladder": lambda v, lad, tab: build_ladder(v, 10),
    "convert_base": lambda v, lad, tab: convert_base(
        log_dyadic(2.0, lad), v, lad),
    "slope_log_p": lambda v, lad, tab: slope_log_p(v, 2.0, 20, lad),
    "lookup_antilog": lambda v, lad, tab: lookup_antilog(tab, v),
    "fractional_digits": lambda v, lad, tab: fractional_digits(v, 10, 4),
    "log_dyadic": lambda v, lad, tab: log_dyadic(v, lad),
    "antilog_dyadic": lambda v, lad, tab: antilog_dyadic(v, lad),
    "log_product_check": lambda v, lad, tab: log_product_check(v, 2.0, lad),
    "slope_log10": lambda v, lad, tab: slope_log10(v, 20, lad),
    "riemann_ln": lambda v, lad, tab: riemann_ln(v, 64),
}
NOT_FINITE = {
    "Decimal('Infinity')": Decimal("Infinity"),
    "Decimal('-Infinity')": Decimal("-Infinity"),
    "Decimal('NaN')": Decimal("NaN"),
    "Decimal('1e400')": Decimal("1e400"),
    "Fraction(10**400)": Fraction(10 ** 400),
}


@pytest.mark.parametrize("value", NOT_FINITE.values(), ids=NOT_FINITE)
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES)
def test_a_non_finite_argument_gets_a_typed_error(entry, value, ladder,
                                                  table4):
    with pytest.raises(LogLadderError):
        entry(value, ladder, table4)


def test_a_negative_number_beyond_the_float_range_reads_as_minus_inf():
    with pytest.raises(LogLadderError, match="got -inf$"):
        int_pow(-10 ** 400, 3)


def _outcome(call):
    try:
        return call()
    except LogLadderError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("x", [Decimal("0.001"), Decimal("2"),
                               Decimal("1e-320"), Decimal("1.7e308"),
                               Fraction(1, 3), Fraction(10 ** 300, 7)])
def test_decimal_and_fraction_compute_what_their_float_does(on_backend, x):
    assert default_guess(x).hex() == default_guess(float(x)).hex()
    assert heron_sqrt(x) == heron_sqrt(float(x))
    for tol in (Decimal("1e-10"), Fraction(1, 10 ** 10)):
        assert heron_sqrt(x, rel_tol=tol) == heron_sqrt(x, rel_tol=1e-10)
    for guess in (Decimal("40"), Fraction(3, 2)):
        got = _outcome(lambda: heron_sqrt(x, initial_guess=guess,
                                          max_iterations=2000))
        assert got == _outcome(lambda: heron_sqrt(
            float(x), initial_guess=float(guess), max_iterations=2000))
