import math
import random

import pytest

from logladder import (
    antilog_dyadic,
    build_ladder,
    convert_base,
    discover_e,
    limit_sequence,
    log_dyadic,
    riemann_ln,
    rung_epsilon,
    slope_log10,
    slope_log_p,
)
from logladder.errors import (
    BadBaseError,
    LevelOutOfRangeError,
    NonPositiveInputError,
    OutOfRangeError,
)

LOG10_E = 1.0 / math.log(10.0)


class TestSlope:
    def test_reading_at_one_level_20(self, ladder10_20):
        est = slope_log10(1.0, 20, ladder10_20)
        assert est.epsilon == rung_epsilon(ladder10_20, 20)
        assert est.slope == (1.0 / (1 << 20)) / est.epsilon
        assert est.slope == pytest.approx(0.434, abs=5e-4)

    def test_explicit_one_over_x_factoring(self, ladder10_20):
        s1 = slope_log10(1.0, 16, ladder10_20).slope
        s10 = slope_log10(10.0, 16, ladder10_20).slope
        assert s10 == pytest.approx(s1 / 10.0, rel=1e-12)

    def test_level_30_close_to_oracle(self):
        ladder = build_ladder(10.0, 30)
        est = slope_log10(1.0, 30, ladder)
        assert abs(est.slope - LOG10_E) <= 1e-8

    def test_slope_times_x_is_constant(self, ladder10_40):
        readings = [slope_log10(x, 24, ladder10_40).slope * x
                    for x in (0.5, 1.0, 2.0, 10.0)]
        lo, hi = min(readings), max(readings)
        assert (hi - lo) / hi <= 1e-12

    def test_rejects_out_of_range(self, ladder10_20):
        with pytest.raises(LevelOutOfRangeError):
            slope_log10(1.0, 3, ladder10_20)
        with pytest.raises(LevelOutOfRangeError):
            slope_log10(1.0, 21, ladder10_20)
        with pytest.raises(NonPositiveInputError):
            slope_log10(0.0, 16, ladder10_20)
        with pytest.raises(BadBaseError):
            slope_log10(1.0, 8, build_ladder(3.0, 20))

    def test_refuses_a_step_too_small_to_divide_by(self):
        ladder = build_ladder(10.0, 48)
        # the step underflows to 0, or the slope over it overflows
        for x, n in ((5e-324, 4), (5e-324, 48), (1e-310, 4), (2e-309, 48)):
            with pytest.raises(OutOfRangeError, match="too small"):
                slope_log10(x, n, ladder)
        assert slope_log10(1e-290, 48, ladder).slope * 1e-290 == \
            pytest.approx(slope_log10(1.0, 48, ladder).slope, rel=1e-12)


class TestLimitSequence:
    def test_monotone_increasing_and_bounded(self, ladder10_40):
        seq = limit_sequence(24, ladder10_40)
        assert [n for n, _ in seq] == list(range(4, 25))
        values = [t for _, t in seq]
        for a, b in zip(values, values[1:]):
            assert a < b
        for t in values:
            assert t < LOG10_E

    def test_t20_against_oracle(self, ladder10_40):
        t20 = dict(limit_sequence(20, ladder10_40))[20]
        assert abs(t20 - LOG10_E) < 1e-6
        assert f"{t20:.6g}" == "0.434294"

    def test_first_order_error_model(self, ladder10_40):
        # |t_n - log10(e)| ~ log10(e) * ln(10) / 2^(n+1)
        seq = dict(limit_sequence(20, ladder10_40))
        for n in (10, 16, 20):
            actual = abs(seq[n] - LOG10_E)
            predicted = LOG10_E * math.log(10.0) / (1 << (n + 1))
            assert abs(actual / predicted - 1.0) <= 0.2


class TestDiscoverE:
    def test_level_20_gives_2718(self, ladder10_40):
        e20 = discover_e(20, ladder10_40)
        assert f"{e20:.4g}" == "2.718"
        assert abs(e20 / math.e - 1.0) < 1e-5

    def test_error_strictly_decreases(self, ladder10_40):
        e12 = discover_e(12, ladder10_40)
        e24 = discover_e(24, ladder10_40)
        assert abs(e24 - math.e) < abs(e12 - math.e)

    def test_level_30_on_deep_ladder(self):
        ladder = build_ladder(10.0, 44)
        e30 = discover_e(30, ladder)
        assert f"{e30:.7g}"[:8] == "2.718282" or f"{e30:.7g}"[:8] == "2.718281"
        assert abs(e30 / math.e - 1.0) < 1e-6

    def test_rejects_shallow_levels(self, ladder10_40):
        with pytest.raises(LevelOutOfRangeError):
            discover_e(9, ladder10_40)

    def test_level_errors_name_the_broken_bound(self, ladder10_40):
        with pytest.raises(LevelOutOfRangeError) as low:
            discover_e(4, ladder10_40)
        assert str(low.value) == "level must be at least 10, got 4"
        with pytest.raises(LevelOutOfRangeError) as high:
            discover_e(41, ladder10_40)
        assert str(high.value) == "level 41 exceeds the ladder depth 40"


class TestSlopeLogP:
    def test_base_ten_is_identity(self, ladder10_40):
        assert slope_log_p(10.0, 2.0, 24, ladder10_40) == pytest.approx(
            slope_log10(2.0, 24, ladder10_40).slope, rel=1e-12)

    def test_base_e_estimate_gives_reciprocal(self, ladder10_40):
        e_est = discover_e(24, ladder10_40)
        assert slope_log_p(e_est, 1.0, 24, ladder10_40) == pytest.approx(
            1.0, abs=1e-4)

    def test_base_two_against_oracle(self, ladder10_40):
        got = slope_log_p(2.0, 1.0, 24, ladder10_40)
        assert got == pytest.approx(1.0 / math.log(2.0), abs=1e-4)
        assert f"{got:.6g}" == "1.44269"

    def test_rejects_bad_base(self, ladder10_40):
        with pytest.raises(BadBaseError):
            slope_log_p(1.0, 1.0, 24, ladder10_40)
        # above 1, but its log10 is below the grid step and reads 0
        with pytest.raises(BadBaseError, match=(
                r"^slope base 1\.0000000000001 has a log below the ladder's "
                r"grid step 2\^-40, which reads 0$")):
            slope_log_p(1.0000000000001, 2.0, 20, ladder10_40)

    def test_refuses_a_slope_that_overflows_over_the_log_of_the_base(
            self, ladder10_40):
        # log10 of the base is 4.3e-11 and the base-10 slope 4.3e299
        with pytest.raises(OutOfRangeError, match=(
                r"^slope point 1e-300 is too small for rung 40: .* "
                r"divided by log10\(p\) = .* it is not finite$")):
            slope_log_p(1.0000000001, 1e-300, 40, ladder10_40)

    def test_bits_of_dividing_by_the_log_of_the_base(self, on_backend):
        ladder = build_ladder(10.0, 40)
        rng = random.Random(13)
        bases = [10.0 ** rng.uniform(0.0, 300.0) for _ in range(300)]
        # just above 1: the log of the base is a few grid steps, or none
        bases += [1.0 + 2.0 ** -e for e in range(1, 53)] + [1e300]
        for x, n in ((1.0, 24), (2.0, 20), (1e-300, 40), (7.25, 4)):
            slope = slope_log10(x, n, ladder).slope
            for p in bases:
                divisor = log_dyadic(p, ladder).value()
                if divisor == 0.0:
                    with pytest.raises(BadBaseError, match="reads 0"):
                        slope_log_p(p, x, n, ladder)
                elif slope / divisor == math.inf:
                    with pytest.raises(OutOfRangeError, match="not finite"):
                        slope_log_p(p, x, n, ladder)
                else:
                    assert slope_log_p(p, x, n, ladder).hex() == \
                        (slope / divisor).hex(), (p, x, n)


class TestRiemannLn:
    def test_empty_interval(self):
        assert riemann_ln(1.0, 4096) == 0.0

    def test_ln_of_e_estimate(self, ladder10_40):
        e_est = discover_e(20, ladder10_40)
        assert riemann_ln(e_est, 4096) == pytest.approx(1.0, abs=1e-5)

    def test_ln_ten_against_oracle_and_base_change(self, ladder10_40):
        area = riemann_ln(10.0, 4096)
        assert area == pytest.approx(math.log(10.0), abs=1e-5)
        e_est = discover_e(20, ladder10_40)
        rebased = convert_base(log_dyadic(10.0, ladder10_40), e_est,
                               ladder10_40)
        assert abs(area - rebased) <= 1e-4

    def test_quadratic_convergence_in_steps(self):
        errs = [abs(riemann_ln(10.0, n) - math.log(10.0))
                for n in (256, 512, 1024)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_area_matches_rebased_logs_for_sample_points(self, ladder10_40):
        e_est = discover_e(20, ladder10_40)
        for x in (2.0, e_est, 5.0, 10.0):
            area = riemann_ln(x, 4096)
            rebased = convert_base(log_dyadic(x, ladder10_40), e_est,
                                   ladder10_40)
            assert abs(area - rebased) <= 1e-4

    def test_rejects_below_one(self):
        with pytest.raises(OutOfRangeError):
            riemann_ln(0.5, 4096)
        with pytest.raises(OutOfRangeError):
            riemann_ln(2.0, 8)

    def test_refuses_more_than_2_to_24_steps(self):
        for steps in ((1 << 24) + 1, 1 << 62):
            with pytest.raises(OutOfRangeError,
                               match=f"^need at most 16777216 steps, "
                                     f"got {steps}$"):
                riemann_ln(2.0, steps)


def test_antilog_of_t20_equals_discover_e(ladder10_40):
    t20 = dict(limit_sequence(20, ladder10_40))[20]
    assert discover_e(20, ladder10_40) == antilog_dyadic(t20, ladder10_40)
