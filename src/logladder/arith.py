"""Square roots by divide-and-average, integer powers by squaring.

These two primitives are the entire arithmetic foundation: every other
module reaches irrational territory only through them.  The square-root
routine keeps its full iteration history so callers can display or audit
the convergence.
"""

from ._backend import kernels
from ._record import Record, field_setters
from .errors import NoConvergenceError, NonPositiveInputError, OutOfRangeError

DEFAULT_REL_TOL = 1e-13
DEFAULT_MAX_ITERATIONS = 64
_INF = float("inf")


def _real(v) -> float:
    """The one reading of a real argument at the public boundary: float(v).

    float() refuses an int or Fraction beyond the float range with
    OverflowError; that reads as the infinity of its sign, so the caller's
    one range check (against _INF) refuses it as it refuses inf.
    """
    try:
        return float(v)
    except OverflowError:
        return _INF if v > 0 else -_INF


class SqrtTrace(Record):
    """Full history of one square-root computation.

    ``iterations`` holds the visited (x_k, y_k) pairs with y_k = input/x_k;
    each next x is the mean of the previous pair, and ``result`` is the
    mean of the last recorded pair.
    """

    __slots__ = ("input", "initial_guess", "iterations", "result",
                 "converged", "steps_used")

    def __init__(self, input: float, initial_guess: float,
                 iterations: tuple[tuple[float, float], ...], result: float,
                 converged: bool, steps_used: int):
        _set_input(self, input)
        _set_initial_guess(self, initial_guess)
        _set_iterations(self, iterations)
        _set_result(self, result)
        _set_converged(self, converged)
        _set_steps_used(self, steps_used)


(_set_input, _set_initial_guess, _set_iterations, _set_result,
 _set_converged, _set_steps_used) = field_setters(SqrtTrace)


def default_guess(x: float) -> float:
    """Digit-count starting guess for the square-root iteration.

    For d-digit x >= 1 it is 10^floor(d/2).  Below 1, the guess starts at 1
    and is divided by 10 each time a copy of x, still below 0.01, is
    multiplied by 100; so x in [0.01, 1) gets 1, and subnormals get a guess
    within an order of magnitude of their root.  Raises NonPositiveInputError
    for a non-finite x.
    """
    x = _real(x)
    if not -_INF < x < _INF:
        raise NonPositiveInputError(f"guess needs a finite x, got {x!r}")
    return kernels.default_guess(x)


def heron_sqrt(x: float,
               rel_tol: float = DEFAULT_REL_TOL,
               max_iterations: int = DEFAULT_MAX_ITERATIONS,
               initial_guess: float | None = None) -> SqrtTrace:
    """Square root of x by repeated divide-and-average.

    Starting from a guess g the iteration replaces g with the mean of g
    and x/g; it overshoots the root at most once and then descends onto it,
    roughly doubling the correct digits every step.  Convergence is declared
    when consecutive iterates agree to ``rel_tol`` relative, or coincide
    bit-for-bit (a one-ulp limit cycle is possible in float arithmetic).

    Raises NonPositiveInputError for x <= 0 or non-finite x,
    OutOfRangeError for an ``initial_guess`` so small that x / guess
    overflows (the first step would return inf as the root), and
    NoConvergenceError if ``max_iterations`` runs out.  With the default
    guess that signals a pathological tolerance.  It also comes from an
    ``initial_guess`` many orders of magnitude off the root: far from the
    root each step only halves the gap, so ``heron_sqrt(1.0,
    initial_guess=6.023197496798377e17)`` spends 59 of its 64 default steps
    halving before the digits start to double.
    """
    x = _real(x)
    if not 0.0 < x < _INF:
        raise NonPositiveInputError(f"square root needs x > 0, got {x!r}")
    rel_tol = _real(rel_tol)
    if not 0.0 < rel_tol < 1.0:
        raise NonPositiveInputError(f"rel_tol must be in (0, 1), got {rel_tol!r}")
    if max_iterations < 1:
        raise NonPositiveInputError("max_iterations must be at least 1")
    if initial_guess is None:
        initial_guess = kernels.default_guess(x)
    else:
        initial_guess = _real(initial_guess)
        if not 0.0 < initial_guess < _INF:
            raise NonPositiveInputError(
                f"initial guess must be > 0, got {initial_guess!r}")
        if not x / initial_guess < _INF:
            raise OutOfRangeError(
                f"initial guess {initial_guess!r} is too small for x = {x!r}: "
                "x / guess overflows")

    pairs, result, converged = kernels.heron_pairs(
        x, initial_guess, rel_tol, max_iterations)
    if not converged:
        raise NoConvergenceError(
            f"square root of {x!r} did not meet rel_tol={rel_tol!r} "
            f"within {max_iterations} steps")
    return SqrtTrace(x, initial_guess, tuple(pairs), result, True, len(pairs))


def int_pow(b: float, m: int) -> float:
    """b multiplied by itself m times; int_pow(b, 0) == 1.

    Square-and-multiply keeps this at about 2*log2(m) multiplications.
    Raises OverflowError when the result leaves the finite float range.
    """
    if m < 0:
        raise NonPositiveInputError(f"exponent must be >= 0, got {m!r}")
    b = _real(b)
    if not -_INF < b < _INF:
        raise NonPositiveInputError(f"base must be finite, got {b!r}")
    r = kernels.int_pow(b, m)
    if not -_INF < r < _INF:
        raise OverflowError(f"int_pow({b!r}, {m}) exceeds the float range")
    return r
