import math

import pytest

from logladder import RootLadder, build_ladder, log_dyadic, rung_epsilon
from logladder.arith import DEFAULT_REL_TOL
from logladder.errors import (
    BadBaseError,
    DepthOutOfRangeError,
    IndexOutOfRangeError,
)


def test_known_rungs_of_ten(ladder10_20):
    rungs = ladder10_20.rungs
    assert rungs[0] == 10.0
    assert rungs[1] == pytest.approx(3.162277660, abs=1e-9)
    assert rungs[4] == pytest.approx(1.154781985, abs=1e-9)
    assert rungs[20] == pytest.approx(1.000002196, abs=1e-9)


def test_eighth_root_matches_oracle():
    # 1.333521432...: squaring it must land on the fourth root; the
    # digit-swapped 1.333512432 sometimes seen in print fails that check
    rungs = build_ladder(10.0, 4).rungs
    assert rungs[3] == pytest.approx(10.0 ** 0.125, rel=1e-12)
    assert rungs[3] == pytest.approx(1.333521432, abs=1e-9)
    assert rungs[3] * rungs[3] == pytest.approx(rungs[2], rel=1e-12)
    assert abs(1.333512432 * 1.333512432 - rungs[2]) > 1e-5


def test_rungs_strictly_decreasing_above_one(ladder10_40):
    rungs = ladder10_40.rungs
    for a, b in zip(rungs, rungs[1:]):
        assert 1.0 < b < a


def test_square_step_consistency(ladder10_40):
    tol = 8.0 * DEFAULT_REL_TOL
    rungs = ladder10_40.rungs
    for j in range(ladder10_40.depth):
        assert abs(rungs[j + 1] * rungs[j + 1] - rungs[j]) / rungs[j] <= tol


def test_squaring_ascent_recovers_base(ladder10_40):
    # error doubles per squaring, so the honest bound scales with 2^j
    for j in range(1, ladder10_40.depth + 1):
        v = ladder10_40.rungs[j]
        for _ in range(j):
            v = v * v
        bound = (1 << j) * 1e-15 + 1e-13
        assert abs(v - 10.0) / 10.0 <= bound


def test_epsilon_halves_per_step(ladder10_40):
    for j in range(4, ladder10_40.depth):
        ratio = rung_epsilon(ladder10_40, j + 1) / rung_epsilon(ladder10_40, j)
        assert 0.35 <= ratio <= 0.65


def test_epsilon_envelope_oracle(ladder10_40):
    # exp(h) - 1 lies between h and h * (1 + h), so the rung epsilons are
    # pinched by ln(10) / 2^n from below; the narrow (1 + 2^-10) headroom
    # only becomes true once h/2 < 2^-10, i.e. from n = 12 on
    lim = math.log(10.0)
    for n in range(4, ladder10_40.depth + 1):
        h = lim / (1 << n)
        eps = rung_epsilon(ladder10_40, n)
        assert h * (1.0 - 1e-3) <= eps <= h * (1.0 + h) * (1.0 + 1e-3)
    for n in range(12, ladder10_40.depth + 1):
        assert rung_epsilon(ladder10_40, n) <= \
            lim / (1 << n) * (1.0 + 2.0 ** -10)


def test_rung_epsilon_examples(ladder10_20):
    assert rung_epsilon(ladder10_20, 20) == pytest.approx(0.000002196, abs=1e-9)
    assert rung_epsilon(build_ladder(10.0, 0), 0) == 9.0
    assert rung_epsilon(build_ladder(10.0, 1), 1) == pytest.approx(
        math.sqrt(10.0) - 1.0, rel=1e-12)


def test_deterministic_rebuild(ladder10_40):
    again = build_ladder(10.0, 40)
    assert again.rungs == ladder10_40.rungs
    assert again == ladder10_40


def test_other_bases():
    rungs = build_ladder(2.0, 10).rungs
    for j in range(11):
        assert rungs[j] == pytest.approx(2.0 ** (0.5 ** j), rel=1e-12)


def test_rejects_bad_arguments():
    with pytest.raises(BadBaseError):
        build_ladder(1.0, 4)
    with pytest.raises(BadBaseError):
        build_ladder(0.5, 4)
    with pytest.raises(DepthOutOfRangeError):
        build_ladder(10.0, 49)
    with pytest.raises(DepthOutOfRangeError):
        build_ladder(10.0, -1)
    with pytest.raises(IndexOutOfRangeError):
        rung_epsilon(build_ladder(10.0, 4), 5)


def test_public_constructor_refuses_a_wrong_shape():
    rungs = build_ladder(10.0, 2).rungs
    # one rung too many: the walk would read a mantissa of 1/1
    with pytest.raises(DepthOutOfRangeError,
                       match=r"^a depth-1 ladder has 2 rungs, got 3$"):
        RootLadder(10.0, 1, rungs)
    with pytest.raises(DepthOutOfRangeError, match="has 4 rungs, got 1"):
        RootLadder(10.0, 3, (10.0,))
    for depth in (-1, 49):
        with pytest.raises(DepthOutOfRangeError, match="must be in"):
            RootLadder(10.0, depth, (10.0,))
    ladder = RootLadder(10.0, 2, rungs)
    assert ladder == build_ladder(10.0, 2)
    assert log_dyadic(5.0, ladder) == log_dyadic(5.0, build_ladder(10.0, 2))
