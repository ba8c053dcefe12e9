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

    __slots__ = ("base", "depth", "rungs", "rel_tol_used")

    def __init__(self, base: float, depth: int, rungs: tuple[float, ...],
                 rel_tol_used: float):
        _set_base(self, base)
        _set_depth(self, depth)
        _set_rungs(self, rungs)
        _set_rel_tol_used(self, rel_tol_used)


_set_base, _set_depth, _set_rungs, _set_rel_tol_used = field_setters(RootLadder)


def build_ladder(base: float, depth: int,
                 rel_tol: float = DEFAULT_REL_TOL) -> RootLadder:
    """Construct the ladder by ``depth`` successive square roots.

    Bases must exceed 1 (reciprocal bases are rejected, not remapped) and
    depth must lie in [0, 48].  Construction is deterministic: identical
    arguments give bit-identical rungs.
    """
    if not (base > 1.0) or not is_finite(base):
        raise BadBaseError(f"ladder base must be finite and > 1, got {base!r}")
    if not 0 <= depth <= MAX_DEPTH:
        raise DepthOutOfRangeError(
            f"depth must be in [0, {MAX_DEPTH}], got {depth!r}")
    rungs, ok = kernels.ladder_rungs(float(base), depth, rel_tol,
                                     DEFAULT_MAX_ITERATIONS)
    if not ok:
        # unreachable for sane tolerances; surfaced for honesty
        raise DepthOutOfRangeError(
            f"rung {len(rungs)} of base {base!r} failed to converge")
    return RootLadder(float(base), depth, tuple(rungs), rel_tol)


def rung_epsilon(ladder: RootLadder, j: int) -> float:
    """rungs[j] - 1, the small step this rung makes above 1.

    Exact as stored: the subtraction is performed on the cached rung value.
    """
    if not 0 <= j <= ladder.depth:
        raise IndexOutOfRangeError(
            f"rung index {j!r} outside [0, {ladder.depth}]")
    return ladder.rungs[j] - 1.0
