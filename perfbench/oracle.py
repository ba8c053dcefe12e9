"""Host-math oracles for every result the benchmark checks.

The library may not use the host math library; the benchmark may, and this
is where it does.  Each check raises WrongResult when a value falls outside
the bound the test suite uses for that operation:

* logs: 3 * 2^-depth absolute;
* antilogs: 3 * ln(b) * 2^-depth relative;
* square roots: 1e-11 relative;
* table products: the product's own ``log_error_bound``, turned into a
  relative bound as expm1(ln(b) * bound);
* trapezoid areas: (x - 1) h^2 / 6 plus the rounding of the running sum;
* slope readings t_n: the first-order truncation model (with the test
  suite's 20% margin, rounded up to 25%) plus the cancellation in
  rung - 1, whose rung carries a few units of rounding.

Printed CLI values carry at most half a unit in their last significant
digit, so the CLI checks add that to the same bounds.
"""

import math

ULP = 2.0 ** -52
LOG10_E = math.log10(math.e)
# Rungs come out of repeated square roots, each within about an ulp; the
# error of rung n relative to the rung is below four ulps.
RUNG_REL_ERROR = 4.0 * ULP
SQRT_REL = 1e-11
TABLE_REL = 1e-12
CLI_DIGITS_REL = 5e-10   # 10 significant digits
CSV_DIGITS_REL = 5e-12   # 12 significant digits in table CSV rows


class WrongResult(AssertionError):
    """A result outside its documented bound, or a malformed result."""


def _fail(what, got, want, bound):
    raise WrongResult(f"{what}: got {got!r}, oracle {want!r}, bound {bound!r}")


def log_in_base(y, base):
    if base == 10.0:
        return math.log10(y)
    if base == 2.0:
        return math.log2(y)
    return math.log(y) / math.log(base)


def log_bound(depth):
    return 3.0 * 2.0 ** -depth


def antilog_rel_bound(base, depth):
    return 3.0 * math.log(base) * 2.0 ** -depth


def convert_bound(y, p, q, depth):
    """Bound on log_p(y) computed as log_q(y) / log_q(p) on a q ladder."""
    eps = 2.0 ** -depth
    ly, lp = log_in_base(y, q), log_in_base(p, q)
    return 4.0 * (eps + abs(ly) * eps / lp) / lp


def product_rel_bound(base, log_error_bound):
    return math.expm1(math.log(base) * log_error_bound) + 16.0 * ULP


def trapezoid_bound(x, steps):
    h = (x - 1.0) / steps
    return (x - 1.0) * h * h / 6.0 + 2.0 * steps * (math.log(x) + 1.0) * ULP


def slope_t_bound(n):
    """Bound on |t_n - log10(e)| for the level-n slope reading at x = 1."""
    eps_true = math.expm1(math.log(10.0) * 2.0 ** -n)
    truncation = 1.25 * LOG10_E * math.log(10.0) * 2.0 ** -(n + 1)
    return truncation + LOG10_E * RUNG_REL_ERROR / eps_true


def discover_e_rel_bound(n, depth):
    return (math.expm1(math.log(10.0) * slope_t_bound(n))
            + antilog_rel_bound(10.0, depth))


def check_abs(what, got, want, bound):
    if not abs(got - want) <= bound:
        _fail(what, got, want, bound)


def check_rel(what, got, want, bound):
    if not abs(got - want) <= bound * abs(want):
        _fail(what, got, want, bound)


# ------------------------------------------------------------ API results

def check_log(lv, y, base, depth):
    check_abs(f"log_dyadic({y!r}) base {base!r}", lv.value(),
              log_in_base(y, base), log_bound(depth))


def check_antilog(v, x, base, depth):
    check_rel(f"antilog_dyadic({x!r}) base {base!r}", v, base ** x,
              antilog_rel_bound(base, depth))


def check_sqrt(trace, x):
    check_rel(f"heron_sqrt({x!r})", trace.result, math.sqrt(x), SQRT_REL)


def check_convert(v, y, p, q, depth):
    check_abs(f"convert_base({y!r}) {q!r} -> {p!r}", v,
              math.log(y) / math.log(p), convert_bound(y, p, q, depth))


def check_product(estimate, detail, y1, y2, base):
    check_rel(f"multiply_via_logs({y1!r}, {y2!r})", estimate, y1 * y2,
              product_rel_bound(base, detail.log_error_bound))


def check_ladder(ladder, base, depth):
    if ladder.depth != depth or len(ladder.rungs) != depth + 1:
        raise WrongResult(f"ladder({base!r}, {depth}) has "
                          f"{len(ladder.rungs)} rungs")
    for j, rung in enumerate(ladder.rungs):
        check_rel(f"ladder({base!r}) rung {j}", rung, base ** (0.5 ** j),
                  TABLE_REL)


def check_table(table, base, level):
    """Every row of the table; the loop stays tight because tables reach
    65,536 rows."""
    if len(table.values) != 1 << level:
        raise WrongResult(f"table level {level} has {len(table.values)} rows")
    step = 1.0 / (1 << level)
    for k, v in enumerate(table.values):
        want = base ** (k * step)
        if not abs(v - want) <= TABLE_REL * want:
            _fail(f"table({base!r}, {level}) row {k}", v, want, TABLE_REL)


def check_riemann(v, x, steps):
    check_abs(f"riemann_ln({x!r}, {steps})", v, math.log(x),
              trapezoid_bound(x, steps))


def check_discover_e(v, n, depth):
    check_rel(f"discover_e({n})", v, math.e, discover_e_rel_bound(n, depth))


def check_limit_sequence(seq, n_max):
    if [n for n, _ in seq] != list(range(4, n_max + 1)):
        raise WrongResult(f"limit_sequence({n_max}) levels {seq!r}")
    for n, t in seq:
        check_abs(f"limit_sequence t_{n}", t, LOG10_E, slope_t_bound(n))
