import math
import os
import random
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import logladder
from logladder import (
    MAX_DEPTH,
    DyadicExponent,
    LogValue,
    _kernels_py,
    antilog_dyadic,
    build_ladder,
    convert_base,
    log_dyadic,
    log_product_check,
)
from logladder._backend import kernels
from logladder.engine import _from_split, _lowest_terms
from logladder.errors import (
    BadBaseError,
    CharacteristicOverflowError,
    DepthMismatchError,
    LevelOutOfRangeError,
    NonPositiveInputError,
)


def _true_log(y, base):
    """log_base(y) to 60 digits, from the exact values of both floats."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(y).ln() / Decimal(base).ln()


def _halving_lowest_terms(k, n):
    """The reference reduction: halve k while it is even and n > 0."""
    if k == 0:
        return 0, 0
    while n > 0 and k % 2 == 0:
        k //= 2
        n -= 1
    return k, n


class TestDyadicExponent:
    def test_canonical_reduction(self):
        assert DyadicExponent(4, 3) == DyadicExponent(1, 1)
        assert DyadicExponent(0, 17) == DyadicExponent(0, 0)
        assert DyadicExponent(6, 4) == DyadicExponent(3, 3)

    @given(st.integers(min_value=-(1 << 40), max_value=1 << 40),
           st.integers(min_value=0, max_value=40))
    def test_canonical_form_and_exact_value(self, k, n):
        d = DyadicExponent(k, n)
        if d.numerator == 0:
            assert d.level == 0
        else:
            assert d.numerator % 2 == 1 or d.level == 0
        assert d.value() == k / (1 << n)

    def test_level_cap(self):
        with pytest.raises(LevelOutOfRangeError):
            DyadicExponent(1, 49)

    @given(st.integers(min_value=-(1 << 60), max_value=1 << 60),
           st.integers(min_value=0, max_value=80),
           st.integers(min_value=0, max_value=100))
    def test_lowest_terms_matches_halving_loop(self, m, shift, n):
        k = m << shift  # many trailing zeros, so the reduction has work
        assert _lowest_terms(k, n) == _halving_lowest_terms(k, n)


class TestLogDyadic:
    def test_exact_powers(self, ladder10_40):
        lv = log_dyadic(1000.0, ladder10_40)
        assert lv.characteristic == 3
        assert lv.mantissa_exponent == DyadicExponent(0, 0)
        assert lv.value() == 3.0
        assert log_dyadic(1.0, ladder10_40).value() == 0.0
        assert log_dyadic(0.01, ladder10_40).value() == -2.0

    def test_log2_within_grid_bound(self, ladder10_20, ladder10_40):
        v20 = log_dyadic(2.0, ladder10_20).value()
        assert abs(v20 - 0.30102999566) <= 2.0 ** -20
        v40 = log_dyadic(2.0, ladder10_40).value()
        assert abs(v40 - math.log10(2.0)) <= 2.0 ** -40

    def test_3157_to_five_digits(self, ladder10_40):
        v = log_dyadic(3157.0, ladder10_40).value()
        assert f"{v:.5g}" == "3.4993"

    def test_mantissa_always_in_unit_interval(self, ladder10_40):
        rng = random.Random(5)
        for _ in range(200):
            y = 10.0 ** rng.uniform(-8.0, 8.0)
            lv = log_dyadic(y, ladder10_40)
            assert 0.0 <= lv.mantissa_exponent.value() < 1.0
            assert lv.error_bound == 2.0 ** -40

    def test_greedy_residual_invariant(self, ladder10_40):
        rungs = ladder10_40.rungs
        rng = random.Random(6)
        for _ in range(200):
            y = 10.0 ** rng.uniform(-8.0, 8.0)
            _, _, residual = kernels.log_split(y, 10.0, rungs)
            assert 1.0 <= residual < rungs[-1]

    def test_two_product_is_exact_to_the_float_range_ends(self):
        # the characteristic search rests on p + e == a * b exactly; near
        # the top of the range the split needs its 2^-64 scaling
        top = 1.7976931348623157e308
        pairs = [(1.3407807929942596e154, 1.3407807929942596e154),
                 (top, 0.75), (1e300, 1e-300), (1.5 * 2.0 ** 995, 1e8),
                 (1e300, 5e-324), (top, 2.0 ** -60)]
        rng = random.Random(12)
        while len(pairs) < 3000:
            a = math.exp(rng.uniform(-690.0, 709.7))
            b = math.exp(rng.uniform(-690.0, 689.0))
            if 2.0 ** -900 < a * b <= top:
                pairs.append((a, b))
        for a, b in pairs:
            p, e = _kernels_py._two_prod(a, b)
            assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b), \
                (a, b)

    def test_undershoot_never_overshoot(self, ladder10_40):
        rng = random.Random(7)
        for _ in range(200):
            y = 10.0 ** rng.uniform(-6.0, 6.0)
            v = log_dyadic(y, ladder10_40).value()
            true = math.log10(y)
            assert -1e-15 <= true - v < 2.0 ** -40 + 1e-15

    def test_rejects_nonpositive(self, ladder10_40):
        for bad in (0.0, -3.0, float("inf"), float("nan")):
            with pytest.raises(NonPositiveInputError):
                log_dyadic(bad, ladder10_40)

    def test_exact_power_edges(self):
        # int_pow(b, n), its reciprocal, and the ulps either side, over the
        # whole float range: c + k/2^d lands within the oracle bound of n
        for base in (1.5, 2.0, 10.0, 1e6):
            ladder = build_ladder(base, 40)
            top = int(709.0 / math.log(base))
            for n in range(-top, top + 1, max(1, top // 150)):
                p = (kernels.int_pow(base, n) if n >= 0
                     else 1.0 / kernels.int_pow(base, -n))
                for y in (math.nextafter(p, 0.0), p,
                          math.nextafter(p, math.inf)):
                    x = log_dyadic(y, ladder)
                    m = x.mantissa_exponent
                    steps = ((x.characteristic - n) << 40) + (
                        m.numerator << (40 - m.level))
                    assert abs(steps) <= 3, (base, n, y)

    @pytest.mark.parametrize("backend", ["compiled", "python"])
    def test_far_out_of_range_log_is_fast_and_correct(self, backend):
        # c is about 6.9e9: one division per unit would never finish
        if backend == "compiled":
            pytest.importorskip("logladder._kernels",
                                reason="compiled kernels not built")
        src = os.path.dirname(os.path.dirname(logladder.__file__))
        env = dict(os.environ, LOGLADDER_BACKEND=backend,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("from logladder import build_ladder, log_dyadic\n"
                "x = log_dyadic(1e300, build_ladder(1.0000001, 40))\n"
                "m = x.mantissa_exponent\n"
                "print(x.characteristic, m.numerator, m.level)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=10, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        c, k, level = (int(v) for v in proc.stdout.split())
        true = _true_log(1e300, 1.0000001)
        assert c == int(true) == 6907755620
        # near 1 the rounding of the rungs dominates: about 2^-40 plus
        # 2^-53 / ln(b) per step of the walk (ROADMAP item 2)
        bound = 2.0 ** -40 + 42 * 2.0 ** -53 / 1e-7
        assert abs(true - c - Decimal(k) / (1 << level)) <= Decimal(bound)

    @pytest.mark.parametrize("y", [5e-324, 1.7976931348623157e308])
    def test_base_nearest_one_at_the_float_edges(self, y):
        # c near +-3.3e18 takes 61 squarings, not 3e18 divisions
        ladder = build_ladder(1.0 + 2.0 ** -52, 40)
        t0 = time.perf_counter()
        x = log_dyadic(y, ladder)
        assert time.perf_counter() - t0 < 1.0
        # every rung below the base rounds to 1.0, so only c is meaningful;
        # the double-double powers keep it within one of the true floor
        assert abs(_true_log(y, ladder.base) - x.characteristic) < 2


class TestAntilogDyadic:
    def test_half_is_root_ten(self, ladder10_40):
        assert antilog_dyadic(0.5, ladder10_40) == ladder10_40.rungs[1]
        assert antilog_dyadic(0.5, ladder10_40) == pytest.approx(
            3.16227766, abs=5e-9)

    def test_zero_is_one(self, ladder10_40):
        assert antilog_dyadic(0.0, ladder10_40) == 1.0

    def test_log10_of_two_to_seven_digits(self, ladder10_40):
        got = antilog_dyadic(0.30102999566, ladder10_40)
        assert f"{got:.7g}" == "2"
        assert got == pytest.approx(2.0, rel=1e-7)

    def test_logvalue_roundtrip(self, ladder10_40):
        rng = random.Random(8)
        bound = 3.0 * math.log(10.0) * 2.0 ** -40
        for _ in range(300):
            y = 10.0 ** rng.uniform(-8.0, 8.0)
            back = antilog_dyadic(log_dyadic(y, ladder10_40), ladder10_40)
            assert abs(back / y - 1.0) <= bound

    def test_grid_roundtrip_in_log_domain(self, ladder10_40):
        rng = random.Random(9)
        for _ in range(300):
            x = rng.uniform(-8.0, 8.0)
            k = round(x * (1 << 40))
            x_grid = k / float(1 << 40)
            back = log_dyadic(antilog_dyadic(x_grid, ladder10_40),
                              ladder10_40).value()
            assert abs(back - x_grid) <= 3.0 * 2.0 ** -40

    def test_negative_characteristic(self, ladder10_40):
        assert antilog_dyadic(-2.0, ladder10_40) == pytest.approx(0.01, rel=1e-12)
        assert antilog_dyadic(-0.5, ladder10_40) == pytest.approx(
            1.0 / math.sqrt(10.0), rel=1e-10)
        # 10^320 overflows, yet 10^-320 is a subnormal float
        assert antilog_dyadic(-320.0, ladder10_40) == pytest.approx(
            1e-320, rel=1e-3)
        assert antilog_dyadic(log_dyadic(5e-324, ladder10_40),
                              ladder10_40) == 5e-324
        with pytest.raises(OverflowError):
            antilog_dyadic(-330.0, ladder10_40)  # below every float

    def test_overflow_and_underflow_are_typed(self, ladder10_40):
        with pytest.raises(CharacteristicOverflowError, match="underflows"):
            antilog_dyadic(-330.0, ladder10_40)
        # 10^308 is finite; times 10^0.5 it is not
        with pytest.raises(CharacteristicOverflowError, match="overflows"):
            antilog_dyadic(308.5, ladder10_40)
        assert antilog_dyadic(308.0, ladder10_40) == pytest.approx(
            1e308, rel=1e-12)

    def test_any_finite_power_of_two(self):
        ladder = build_ladder(2.0, 40)
        bound = 3.0 * math.log(2.0) * 2.0 ** -40
        for n in (500, 1023, -1000, -1074):
            assert abs(antilog_dyadic(float(n), ladder) / 2.0 ** n - 1.0) \
                <= bound
        for y in (1e200, 1e-300, 1.7976931348623157e308,
                  2.2250738585072014e-308):
            back = antilog_dyadic(log_dyadic(y, ladder), ladder)
            assert abs(back / y - 1.0) <= bound

    def test_exponent_past_the_kernel_integers(self, monkeypatch):
        ladder = build_ladder(2.0, 40)

        class NoKernels:
            def __getattr__(self, name):
                raise AssertionError(f"kernel {name} called")

        monkeypatch.setattr("logladder.engine.kernels", NoKernels())
        for x in (1e300, -1e300, float(1 << 62), -float(1 << 62)):
            with pytest.raises(CharacteristicOverflowError):
                antilog_dyadic(x, ladder)
        huge = LogValue(base=2.0, characteristic=1 << 70,
                        mantissa_exponent=DyadicExponent(0, 0),
                        error_bound=1.0)
        with pytest.raises(CharacteristicOverflowError, match="overflows"):
            antilog_dyadic(huge, ladder)

    def test_off_grid_rounds_ties_even(self, ladder10_20):
        # exactly between grid points 1/2^20 and 2/2^20: even numerator wins
        x = 1.5 / (1 << 20)
        got = antilog_dyadic(x, ladder10_20)
        want = antilog_dyadic(DyadicExponent(2, 20).value(), ladder10_20)
        assert got == want

    def test_depth_mismatch_rejected(self, ladder10_20, ladder10_40):
        fine = log_dyadic(2.0, ladder10_40)
        assert fine.mantissa_exponent.level > 20
        with pytest.raises(DepthMismatchError):
            antilog_dyadic(fine, ladder10_20)

    def test_base_mismatch_rejected(self, ladder10_40, ladder3_40):
        lv = log_dyadic(2.0, ladder10_40)
        with pytest.raises(BadBaseError):
            antilog_dyadic(lv, ladder3_40)

    def test_coarser_logvalue_accepted(self, ladder10_20, ladder10_40):
        coarse = log_dyadic(2.0, ladder10_20)
        fine_path = antilog_dyadic(coarse, ladder10_40)
        same_path = antilog_dyadic(coarse, ladder10_20)
        assert fine_path == same_path


class TestConvertBase:
    def test_same_base_is_identity(self, ladder10_40):
        lv = log_dyadic(7.25, ladder10_40)
        assert convert_base(lv, 10.0, ladder10_40) == lv.value()

    def test_eight_to_base_two(self, ladder10_40):
        lv = log_dyadic(8.0, ladder10_40)
        log2 = log_dyadic(2.0, ladder10_40)
        bound = (lv.error_bound
                 + lv.value() * log2.error_bound / log2.value()) / log2.value()
        assert abs(convert_base(lv, 2.0, ladder10_40) - 3.0) <= 2.0 * bound

    def test_five_to_base_three(self, ladder10_40):
        got = convert_base(log_dyadic(5.0, ladder10_40), 3.0, ladder10_40)
        assert got == pytest.approx(math.log(5.0) / math.log(3.0), abs=1e-10)
        assert f"{got:.6g}" == "1.46497"

    def test_there_and_back(self, ladder10_40, ladder3_40):
        rng = random.Random(10)
        for _ in range(100):
            y = 10.0 ** rng.uniform(-3.0, 3.0)
            x10 = log_dyadic(y, ladder10_40)
            x3 = log_dyadic(y, ladder3_40)
            back = convert_base(x3, 10.0, ladder3_40)
            log3_10 = log_dyadic(10.0, ladder3_40)
            bound = (x3.error_bound + abs(x3.value()) * log3_10.error_bound
                     / log3_10.value()) / log3_10.value()
            assert abs(back - x10.value()) <= 4.0 * bound + x10.error_bound

    @staticmethod
    def _outcome(x, p, ladder):
        try:
            return convert_base(x, p, ladder).hex()
        except BadBaseError as exc:
            assert f"grid step 2^-{ladder.depth}" in str(exc)
            return BadBaseError

    @staticmethod
    def _expected(x, p, ladder):
        divisor = log_dyadic(p, ladder).value()
        if divisor == 0.0:  # a target base whose log reads 0
            return BadBaseError
        return (x.value() / divisor).hex()

    @pytest.mark.parametrize("base", [10.0, 2.0, 1.5, 1.000001])
    def test_bits_of_dividing_by_the_log_of_the_target(self, on_backend,
                                                        base):
        ladder = build_ladder(base, 40)
        rng = random.Random(12)
        targets = [10.0 ** rng.uniform(0.0, 300.0) for _ in range(300)]
        # just above 1: the log of the target is a few grid steps, or none
        targets += [1.0 + 2.0 ** -e for e in range(1, 53)]
        targets += [math.nextafter(1.0, 2.0), 1e300]
        for y in (1e-300, 0.001, 0.5, 1.0, 7.25, 12345.678, 1e300):
            x = log_dyadic(y, ladder)
            for p in targets:
                assert self._outcome(x, p, ladder) == \
                    self._expected(x, p, ladder), (y, p)

    def test_rejects_bad_target(self, ladder10_40):
        lv = log_dyadic(2.0, ladder10_40)
        with pytest.raises(BadBaseError):
            convert_base(lv, 1.0, ladder10_40)
        with pytest.raises(BadBaseError):
            convert_base(lv, 0.5, ladder10_40)
        # above 1, but its log is below the grid step and reads 0
        with pytest.raises(BadBaseError, match=r"1\.0000000000001 .* 2\^-40"):
            convert_base(lv, 1.0000000000001, ladder10_40)
        # finite as a Decimal, inf as a float: refused as a base
        with pytest.raises(BadBaseError, match="got inf"):
            convert_base(lv, Decimal("1e400"), ladder10_40)


class TestProductLaw:
    def test_powers_of_ten(self, ladder10_40):
        assert log_product_check(1000.0, 100.0, ladder10_40) == (5.0, 5.0)

    def test_multiplying_by_one(self, ladder10_40):
        lhs, rhs = log_product_check(7.3, 1.0, ladder10_40)
        assert lhs == pytest.approx(rhs, abs=2.0 * 2.0 ** -40)

    def test_two_times_three(self, ladder10_40):
        lhs, rhs = log_product_check(2.0, 3.0, ladder10_40)
        assert abs(lhs - rhs) <= 2.0 * 2.0 ** -40 + 2.0 ** -40
        assert lhs == pytest.approx(math.log10(6.0), abs=2.0 ** -39)

    def test_reciprocal_antisymmetry(self, ladder10_40):
        rng = random.Random(11)
        for _ in range(300):
            y = 10.0 ** rng.uniform(-6.0, 6.0)
            total = (log_dyadic(1.0 / y, ladder10_40).value()
                     + log_dyadic(y, ladder10_40).value())
            assert abs(total) <= 2.0 * 2.0 ** -40


class TestLogValueType:
    def test_value_splits_into_characteristic_and_mantissa(self, ladder10_40):
        lv = log_dyadic(0.5, ladder10_40)
        assert lv.characteristic == -1
        assert 0.0 <= lv.mantissa_exponent.value() < 1.0
        assert lv.value() == lv.characteristic + lv.mantissa_exponent.value()

    @staticmethod
    def _both_constructors(base, c, k, depth):
        fast = _from_split(base, c, k, depth)
        checked = LogValue(base=base, characteristic=c,
                           mantissa_exponent=DyadicExponent(k, depth),
                           error_bound=1.0 / (1 << depth))
        assert fast == checked
        assert repr(fast) == repr(checked)
        assert hash(fast) == hash(checked)

    def test_private_constructor_every_numerator_of_small_depths(self):
        for depth in range(9):
            for k in range(1 << depth):
                self._both_constructors(10.0, -3, k, depth)

    @given(st.integers(min_value=0, max_value=MAX_DEPTH), st.data(),
           st.integers(min_value=-(1 << 62), max_value=1 << 62),
           st.floats(min_value=1.0, exclude_min=True, allow_infinity=False))
    def test_private_constructor_matches_public(self, depth, data, c, base):
        k = data.draw(st.integers(min_value=0, max_value=(1 << depth) - 1))
        self._both_constructors(base, c, k, depth)

    def test_rejects_mantissa_outside_unit_interval(self):
        with pytest.raises(LevelOutOfRangeError):
            LogValue(base=10.0, characteristic=0,
                     mantissa_exponent=DyadicExponent(3, 1),
                     error_bound=0.25)
