"""Root ladders: base^(1/2^j) for j = 0..depth, by square roots alone.

A ladder is built once, eagerly, and never mutated; it is the shared
skeleton under the log engine, the slope estimates and the antilog tables.
"""

from ._backend import kernels
from ._record import Record, field_setters
from .arith import DEFAULT_MAX_ITERATIONS, DEFAULT_REL_TOL, _INF, _real
from .errors import BadBaseError, DepthOutOfRangeError, IndexOutOfRangeError

# (ln 10) / 2^48 is ~8e-15, at the edge of what binary64 can distinguish
# from 1; deeper rungs would all collapse onto 1.0.
MAX_DEPTH = 48
DEFAULT_DEPTH = 40


class RootLadder(Record):
    """Immutable cache of repeated square roots of one base.

    rungs[0] is the base itself and rungs[j+1] is the square root of
    rungs[j], so rungs[j] = base^(1/2^j); the sequence decreases strictly
    toward 1.  Raises DepthOutOfRangeError for a depth outside [0, 48] and
    unless there are depth + 1 rungs: the log walk reads one mantissa bit
    per rung below the base, and the antilog one rung per bit.
    """

    __slots__ = ("base", "depth", "rungs")

    def __init__(self, base: float, depth: int, rungs: tuple[float, ...]):
        _check_depth(depth)
        if len(rungs) != depth + 1:
            raise DepthOutOfRangeError(f"a depth-{depth} ladder has "
                                       f"{depth + 1} rungs, got {len(rungs)}")
        _set_base(self, base)
        _set_depth(self, depth)
        _set_rungs(self, rungs)


_set_base, _set_depth, _set_rungs = field_setters(RootLadder)


def _check_depth(depth: int) -> None:
    if not 0 <= depth <= MAX_DEPTH:
        raise DepthOutOfRangeError(
            f"depth must be in [0, {MAX_DEPTH}], got {depth!r}")


def _check_base(base: float, role: str) -> float:
    """The one domain check of a base: its float, or BadBaseError unless
    that float is finite and > 1."""
    base = _real(base)
    if not 1.0 < base < _INF:
        raise BadBaseError(f"{role} base must be finite and > 1, got {base!r}")
    return base


def build_ladder(base: float, depth: int) -> RootLadder:
    """Construct the ladder by ``depth`` successive square roots.

    Bases must exceed 1 (reciprocal bases are rejected, not remapped) and
    depth must lie in [0, 48].  Construction is deterministic: identical
    arguments give bit-identical rungs.
    """
    base = _check_base(base, "ladder")
    _check_depth(depth)
    rungs, ok = kernels.ladder_rungs(base, depth, DEFAULT_REL_TOL,
                                     DEFAULT_MAX_ITERATIONS)
    if not ok:
        # DEFAULT_REL_TOL is met well inside the step budget; a miss is raised
        raise DepthOutOfRangeError(
            f"rung {len(rungs)} of base {base!r} failed to converge")
    return RootLadder(base, depth, tuple(rungs))


def rung_epsilon(ladder: RootLadder, j: int) -> float:
    """rungs[j] - 1, the small step this rung makes above 1.

    Exact as stored: the subtraction is performed on the cached rung value.
    """
    if not 0 <= j <= ladder.depth:
        raise IndexOutOfRangeError(
            f"rung index {j!r} outside [0, {ladder.depth}]")
    return ladder.rungs[j] - 1.0
