"""Root ladders: base^(1/2^j) for j = 0..depth, by square roots alone.

A ladder is built once, eagerly, and never mutated; it is the shared
skeleton under the log engine, the slope estimates and the antilog tables.
"""

from ._backend import kernels
from ._record import Record, field_setters
from .arith import DEFAULT_MAX_ITERATIONS, DEFAULT_REL_TOL, is_finite
from .errors import BadBaseError, DepthOutOfRangeError, IndexOutOfRangeError

# (ln 10) / 2^48 is ~8e-15, at the edge of what binary64 can distinguish
# from 1; deeper rungs would all collapse onto 1.0.
MAX_DEPTH = 48
DEFAULT_DEPTH = 40


class RootLadder(Record):
    """Immutable cache of repeated square roots of one base.

    rungs[0] is the base itself and rungs[j+1] is the square root of
    rungs[j], so rungs[j] = base^(1/2^j); the sequence decreases strictly
    toward 1.
    """

    __slots__ = ("base", "depth", "rungs")

    def __init__(self, base: float, depth: int, rungs: tuple[float, ...]):
        _set_base(self, base)
        _set_depth(self, depth)
        _set_rungs(self, rungs)


_set_base, _set_depth, _set_rungs = field_setters(RootLadder)


def _check_base(base: float, role: str) -> None:
    """The one domain check of a base: BadBaseError unless finite and > 1."""
    if not (base > 1.0) or not is_finite(base):
        raise BadBaseError(f"{role} base must be finite and > 1, got {base!r}")


def build_ladder(base: float, depth: int) -> RootLadder:
    """Construct the ladder by ``depth`` successive square roots.

    Bases must exceed 1 (reciprocal bases are rejected, not remapped) and
    depth must lie in [0, 48].  Construction is deterministic: identical
    arguments give bit-identical rungs.
    """
    _check_base(base, "ladder")
    if not 0 <= depth <= MAX_DEPTH:
        raise DepthOutOfRangeError(
            f"depth must be in [0, {MAX_DEPTH}], got {depth!r}")
    rungs, ok = kernels.ladder_rungs(float(base), depth, DEFAULT_REL_TOL,
                                     DEFAULT_MAX_ITERATIONS)
    if not ok:
        # DEFAULT_REL_TOL is met well inside the step budget; a miss is raised
        raise DepthOutOfRangeError(
            f"rung {len(rungs)} of base {base!r} failed to converge")
    return RootLadder(float(base), depth, tuple(rungs))


def rung_epsilon(ladder: RootLadder, j: int) -> float:
    """rungs[j] - 1, the small step this rung makes above 1.

    Exact as stored: the subtraction is performed on the cached rung value.
    """
    if not 0 <= j <= ladder.depth:
        raise IndexOutOfRangeError(
            f"rung index {j!r} outside [0, {ladder.depth}]")
    return ladder.rungs[j] - 1.0
