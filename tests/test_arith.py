import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logladder import default_guess, heron_sqrt, int_pow
from logladder.errors import (
    LogLadderError,
    NoConvergenceError,
    NonPositiveInputError,
    OutOfRangeError,
)

positive = st.floats(min_value=5e-324, allow_infinity=False)


class TestHeronSqrt:
    def test_1747_trace_digits(self):
        trace = heron_sqrt(1747.0, rel_tol=1e-10, max_iterations=64,
                           initial_guess=40.0)
        xs = [p[0] for p in trace.iterations]
        ys = [p[1] for p in trace.iterations]
        assert xs[0] == 40.0
        assert ys[0] == 43.675
        # the arithmetic forces 41.8375 = (40 + 43.675) / 2
        assert xs[1] == 41.8375
        assert ys[1] == pytest.approx(41.75679713, abs=5e-9)
        assert xs[2] == pytest.approx(41.79714857, abs=5e-9)
        assert xs[3] == pytest.approx(41.79712909, abs=5e-9)
        # result agrees with the last iterate to 10 significant figures
        assert abs(trace.result - xs[3]) / trace.result < 5e-10
        assert trace.converged
        assert trace.steps_used <= 64

    def test_result_matches_oracle_to_12_digits(self):
        got = heron_sqrt(10.0, rel_tol=1e-12).result
        assert got == pytest.approx(3.1622776601683795, rel=1e-12)

    def test_fixed_point_of_one(self):
        trace = heron_sqrt(1.0, rel_tol=1e-10)
        assert trace.result == 1.0
        assert trace.steps_used <= 2

    def test_trace_pairs_reconstructable(self):
        trace = heron_sqrt(1747.0, initial_guess=40.0)
        for xk, yk in trace.iterations:
            assert yk == trace.input / xk
        for (xk, yk), (xn, _) in zip(trace.iterations, trace.iterations[1:]):
            assert xn == (xk + yk) / 2.0

    def test_converged_residual_bound(self):
        for x in (2.0, 1747.0, 1e-5, 3.7e11):
            trace = heron_sqrt(x, rel_tol=1e-13)
            assert abs(trace.result * trace.result - x) / x <= 8e-13

    @given(st.floats(min_value=1e-6, max_value=1e12))
    def test_monotone_descent_after_first_step(self, x):
        trace = heron_sqrt(x)
        xs = [p[0] for p in trace.iterations] + [trace.result]
        for a, b in zip(xs[1:], xs[2:]):
            assert b <= a

    def test_quadratic_convergence_on_1747(self):
        trace = heron_sqrt(1747.0, rel_tol=1e-13, initial_guess=40.0)
        root = math.sqrt(1747.0)
        digits = []
        for xk, _ in list(trace.iterations) + [(trace.result, 0.0)]:
            err = abs(xk - root) / root
            digits.append(16.0 if err == 0 else min(16.0, -math.log10(err)))
        started = [d for xk, d in zip(
            [p[0] for p in trace.iterations] + [trace.result], digits)
            if abs(xk - root) / root < 0.1]
        for a, b in zip(started, started[1:]):
            if a < 7.5:  # doubling saturates at float precision
                assert b >= 2.0 * a - 0.5

    def test_default_guess_heuristic(self):
        assert default_guess(1747.0) == 100.0    # 4 digits -> 10^2
        assert default_guess(9.0) == 1.0         # 1 digit  -> 10^0
        assert default_guess(12345.0) == 100.0   # 5 digits -> 10^2
        assert default_guess(99999.0) == 100.0
        assert default_guess(0.25) == 1.0
        assert default_guess(1.0) == 1.0         # starts on its own root
        assert default_guess(0.01) == 1.0
        assert default_guess(0.0099) == 0.1      # one factor 100 -> 10^-1
        assert default_guess(1e-36) == 1e-18
        assert default_guess(0.0) == 1.0         # no root: the loop stops
        assert default_guess(-4.0) == 1.0

    @pytest.mark.parametrize("x", [5e-324, 2.2e-308, 1e-300, 1e-36, 0.0099])
    def test_converges_far_below_one(self, x):
        trace = heron_sqrt(x, 1e-12, 64)
        assert trace.converged
        assert abs(trace.result - math.sqrt(x)) / math.sqrt(x) <= 1e-11

    def test_rejects_bad_input(self):
        with pytest.raises(NonPositiveInputError):
            heron_sqrt(0.0)
        with pytest.raises(NonPositiveInputError):
            heron_sqrt(-4.0)
        with pytest.raises(NonPositiveInputError):
            heron_sqrt(float("inf"))
        with pytest.raises(NonPositiveInputError):
            heron_sqrt(float("nan"))
        with pytest.raises(NonPositiveInputError):
            heron_sqrt(2.0, rel_tol=1.5)
        with pytest.raises(NonPositiveInputError):
            heron_sqrt(2.0, initial_guess=-1.0)

    def test_no_convergence_signals(self):
        with pytest.raises(NoConvergenceError):
            heron_sqrt(1747.0, rel_tol=1e-13, max_iterations=2)

    def test_far_off_guess_runs_out_of_steps(self):
        # each step far above the root only halves the guess: 59 halvings
        # from 6e17 down to 1 before the digits start doubling
        with pytest.raises(NoConvergenceError, match="within 64 steps"):
            heron_sqrt(1.0, initial_guess=6.023197496798377e17)
        trace = heron_sqrt(1.0, initial_guess=6.023197496798377e17,
                           max_iterations=80)
        assert trace.result == 1.0 and trace.steps_used == 65

    def test_guess_so_small_that_the_first_quotient_overflows(self):
        with pytest.raises(OutOfRangeError, match=(
                r"^initial guess 1e-320 is too small for x = 4\.0: "
                r"x / guess overflows$")):
            heron_sqrt(4.0, initial_guess=1e-320)
        # the quotient just below the top of the float range still runs
        trace = heron_sqrt(1.0, initial_guess=1.0 / 1.7e308,
                           max_iterations=1100)
        assert trace.result == 1.0

    # Hypothesis keeps one on_backend value across the examples of a test.
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
              deadline=None)
    @given(x=positive, guess=positive)
    def test_any_finite_guess_gives_a_finite_root_or_an_error(
            self, on_backend, x, guess):
        try:
            result = heron_sqrt(x, initial_guess=guess).result
        except LogLadderError:
            return
        assert 0.0 < result < math.inf


class TestIntPow:
    def test_examples(self):
        assert int_pow(10.0, 3) == 1000.0
        assert int_pow(7.0, 0) == 1.0
        assert int_pow(3.0, 3) == 27.0

    def test_negative_base(self):
        assert int_pow(-2.0, 3) == -8.0
        assert int_pow(-2.0, 4) == 16.0

    def test_addition_law(self):
        for b in (2.0, 3.0, 10.0):
            for m in range(0, 16):
                for n in range(0, 31 - m):
                    lhs = int_pow(b, m + n)
                    rhs = int_pow(b, m) * int_pow(b, n)
                    assert abs(lhs - rhs) <= 4.0 * 2.220446049250313e-16 * abs(lhs)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            int_pow(10.0, 400)

    def test_rejects_negative_exponent(self):
        with pytest.raises(NonPositiveInputError):
            int_pow(2.0, -1)
