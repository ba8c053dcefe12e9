"""Finding e from the slope of the base-10 log curve.

The slope of log10 at x is the limit of log10(1 + eps/x) / eps.  Choosing
1 + eps/x to be a ladder rung makes the numerator exactly 2^-n with no
logarithm evaluation at all, so the only error left is the grid spacing.
The slope at x = 1 tends to a constant t_n -> 0.4342944... whose antilog
is the special base e, where the slope law collapses to exactly 1/x.

ln(x) is also the area under 1/t from 1 to x; ``riemann_ln`` checks that
numerically with nothing but arithmetic.
"""

from ._backend import kernels
from ._record import Record, field_setters
from .arith import _INF, _real
from .engine import _base_log, antilog_dyadic
from .errors import (
    BadBaseError,
    LevelOutOfRangeError,
    NonPositiveInputError,
    OutOfRangeError,
)
from .ladder import RootLadder, rung_epsilon

# Below n = 4 the rung is nowhere near 1 and the "slope" reads nothing.
MIN_SLOPE_LEVEL = 4
MIN_E_LEVEL = 10
# The cap on trapezoid panels bounds the run time.  For x = 2, 10 and 100
# the error bound (truncation plus the rounding of the sum) is smallest at
# 2^16, 2^19 and 2^22 panels and grows past that.
_MAX_AREA_STEPS = 1 << 24


class SlopeEstimate(Record):
    """One finite-difference reading of the log10 curve's slope at x.

    epsilon is x * (rungs[n] - 1), so 1 + epsilon/x is exactly the rung
    and the rise over the step is exactly 2^-n; slope is their ratio.
    """

    __slots__ = ("base", "x", "ladder_level", "epsilon", "slope")

    def __init__(self, base: float, x: float, ladder_level: int,
                 epsilon: float, slope: float):
        _set_base(self, base)
        _set_x(self, x)
        _set_ladder_level(self, ladder_level)
        _set_epsilon(self, epsilon)
        _set_slope(self, slope)


_set_base, _set_x, _set_ladder_level, _set_epsilon, _set_slope = \
    field_setters(SlopeEstimate)


def _check_level(n: int, ladder: RootLadder, minimum: int) -> None:
    if ladder.base != 10.0:
        raise BadBaseError(
            f"slope readings need a base-10 ladder, got base {ladder.base!r}")
    if not n >= minimum:
        raise LevelOutOfRangeError(
            f"level must be at least {minimum}, got {n!r}")
    if n > ladder.depth:
        raise LevelOutOfRangeError(
            f"level {n!r} exceeds the ladder depth {ladder.depth}")


def slope_log10(x: float, n: int, ladder10: RootLadder) -> SlopeEstimate:
    """Slope of log10 at x, read off rung n of the base-10 ladder.

    Raises OutOfRangeError when x is so small that the step
    x * (rungs[n] - 1) underflows to 0 or the slope over it overflows.
    """
    x = _real(x)
    if not 0.0 < x < _INF:
        raise NonPositiveInputError(f"slope point must be > 0, got {x!r}")
    _check_level(n, ladder10, MIN_SLOPE_LEVEL)
    eps = x * rung_epsilon(ladder10, n)
    if eps == 0.0 or not (slope := (1.0 / (1 << n)) / eps) < _INF:
        raise OutOfRangeError(
            f"slope point {x!r} is too small for rung {n}: the step "
            f"x * (rung - 1) is {eps!r} and the slope over it is not finite")
    return SlopeEstimate(10.0, x, n, eps, slope)


def limit_sequence(n_max: int,
                   ladder10: RootLadder) -> list[tuple[int, float]]:
    """t_n = 1 / (2^n * (rungs[n] - 1)) for n = 4..n_max.

    The sequence climbs monotonically toward log10(e); each term is the
    slope reading at x = 1 for that rung.
    """
    _check_level(n_max, ladder10, MIN_SLOPE_LEVEL)
    out = []
    for n in range(MIN_SLOPE_LEVEL, n_max + 1):
        out.append((n, 1.0 / ((1 << n) * rung_epsilon(ladder10, n))))
    return out


def discover_e(n: int, ladder10: RootLadder) -> float:
    """The antilog of the measured slope at x = 1: an estimate of e.

    Larger n reads the slope closer to the curve and the estimate
    sharpens; n = 20 already gives 2.718.
    """
    _check_level(n, ladder10, MIN_E_LEVEL)
    t = 1.0 / ((1 << n) * rung_epsilon(ladder10, n))
    return antilog_dyadic(t, ladder10)


def slope_log_p(p: float, x: float, n: int, ladder10: RootLadder) -> float:
    """Slope of log_p at x: the base-10 reading divided by log10(p).

    When p is (an estimate of) e the result is 1/x, which is what makes
    e worth a name.  Raises BadBaseError unless p is finite and > 1 and
    its log10 reads above 0 on the ladder's grid, and OutOfRangeError when
    x is too small for rung n: either slope_log10 refuses it, or its
    slope divided by log10(p) is not finite.
    """
    divisor = _base_log(p, ladder10, "slope")
    reading = slope_log10(x, n, ladder10)
    if not (slope := reading.slope / divisor) < _INF:
        raise OutOfRangeError(
            f"slope point {reading.x!r} is too small for rung {n}: the slope "
            f"there is {reading.slope!r} and divided by log10(p) = "
            f"{divisor!r} it is not finite")
    return slope


def riemann_ln(x: float, steps: int) -> float:
    """Area under 1/t from 1 to x by the trapezoid rule.

    Converges to ln(x) as steps^-2; only +, -, *, / are used.  Defined
    here for finite x >= 1 only.  Raises OutOfRangeError outside that, and
    for steps outside [16, 2^24], which keeps the run time bounded; for x
    up to 100 the error bound is smallest below 2^23 steps.
    """
    x = _real(x)
    if not 1.0 <= x < _INF:
        raise OutOfRangeError(f"area is defined for x >= 1, got {x!r}")
    if steps < 16:
        raise OutOfRangeError(f"need at least 16 steps, got {steps!r}")
    if steps > _MAX_AREA_STEPS:
        raise OutOfRangeError(
            f"need at most {_MAX_AREA_STEPS} steps, got {steps!r}")
    return kernels.trapezoid_recip(x, steps)
