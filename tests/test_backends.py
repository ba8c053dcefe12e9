"""The compiled and pure-Python kernels must agree bit for bit."""

import math
import os
import random
import struct
import subprocess
import sys

import pytest

from logladder import _kernels_py
from logladder._backend import backend_name, kernels

compiled = pytest.importorskip(
    "logladder._kernels",
    reason="compiled kernels not built; run python setup.py build_ext --inplace")

# Edges of binary64 and of the C digit count (read off the binary exponent
# and one power of ten).
EDGES = (5e-324, 2.2250738585072014e-308, 0.5, 1.0, 9.999999999999998, 10.0,
         2.0 ** 63, 2.0 ** 64 - 2048.0, 2.0 ** 64, 1e300,
         1.7976931348623157e308)

BASES = (1.5, 10.0, 1e300)


def _bits(value):
    """Exact comparison form: floats by their bits, containers by type."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return type(value), [_bits(v) for v in value]
    return type(value), value


def _agree(name, *args):
    ours = getattr(compiled, name)(*args)
    theirs = getattr(_kernels_py, name)(*args)
    assert _bits(ours) == _bits(theirs), (name, args)


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _bits_of(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _anywhere(rng, n):
    """n positive finite doubles, subnormals up to 1.7e308, plus the edges."""
    top = _bits_of(float("inf"))
    return [_double(rng.randrange(1, top)) for _ in range(n)] + list(EDGES)


def _rungs(base, depth):
    return tuple(_kernels_py.ladder_rungs(base, depth, 1e-13, 64)[0])


def test_active_backend_reports_a_known_name():
    assert backend_name() in ("compiled", "python")
    assert kernels in (compiled, _kernels_py)


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_only_the_selected_twin_is_imported(backend):
    src = os.path.dirname(os.path.dirname(_kernels_py.__file__))
    env = dict(os.environ, LOGLADDER_BACKEND=backend,
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, logladder\n"
            "print(logladder.backend_name(),\n"
            "      'logladder._kernels_py' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=30,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == [backend, str(backend == "python")]


def test_default_guess_identical():
    rng = random.Random(1)
    for x in [10.0 ** rng.uniform(-8.0, 15.0) for _ in range(500)] + \
            _anywhere(rng, 500):
        _agree("default_guess", x)
    # the scaling loop below 0.01 stops, and x <= 0 keeps the guess 1
    for x in (0.01, 0.0099, 1e-36, 0.0, -0.0, -4.0, -5e-324):
        _agree("default_guess", x)


def test_default_guess_identical_from_1_to_dbl_max():
    """The compiled digit count is len(str(int(x))) exactly on [1, DBL_MAX]:
    at every power of ten and of two in range, both float neighbours of
    each, and anywhere below 2^64 and above it up to the largest double."""
    xs = []
    for v in [float(10 ** j) for j in range(309)] + \
            [2.0 ** e for e in range(1024)]:
        xs += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    rng = random.Random(8)
    one, two64 = _bits_of(1.0), _bits_of(2.0 ** 64)
    top = _bits_of(1.7976931348623157e308)
    xs += [_double(rng.randint(one, two64 - 1)) for _ in range(10_000)]
    xs += [_double(rng.randint(two64, top)) for _ in range(10_000)]
    for x in xs:
        _agree("default_guess", x)
    for x in (float("inf"), float("nan")):
        for twin in (compiled, _kernels_py):
            with pytest.raises((OverflowError, ValueError)):
                twin.default_guess(x)


def test_heron_pairs_identical():
    rng = random.Random(2)
    for x in [10.0 ** rng.uniform(-6.0, 12.0) for _ in range(300)] + \
            _anywhere(rng, 300):
        _agree("heron_pairs", x, _kernels_py.default_guess(x), 1e-13, 64)


def test_ladder_rungs_identical():
    for base in (2.0, 3.0, 10.0, 97.5):
        _agree("ladder_rungs", base, 40, 1e-13, 64)
    for base in BASES:
        for depth in (0, 48):
            _agree("ladder_rungs", base, depth, 1e-13, 64)


def test_log_split_identical():
    rng = random.Random(3)
    rungs = _rungs(10.0, 40)
    for _ in range(300):
        _agree("log_split", 10.0 ** rng.uniform(-8.0, 8.0), 10.0, rungs)
    for base in BASES:
        for depth in (0, 40, 48):
            rungs = _rungs(base, depth)
            for y in _anywhere(rng, 100):
                _agree("log_split", y, base, rungs)


# The characteristic search on double-double powers, at the ends of the
# float range and of the base range (1 + 2^-52 needs 61 squarings).
SPLIT_BASES = (1.0 + 2.0 ** -52, 1.0000001, 1.001, 1.5, 2.0, 10.0, 1e300)
SPLIT_EDGES = (5e-324, 2.2250738585072014e-308, 1.7976931348623157e308)


@pytest.mark.parametrize("base", SPLIT_BASES)
def test_log_split_identical_over_the_float_range(base):
    rng = random.Random(7)
    for depth in (0, 40):
        rungs = _rungs(base, depth)
        for y in SPLIT_EDGES + tuple(_anywhere(rng, 150)):
            _agree("log_split", y, base, rungs)


@pytest.mark.parametrize("twin", [compiled, _kernels_py],
                         ids=["compiled", "python"])
def test_log_split_refuses_what_has_no_log(twin):
    rungs = _rungs(10.0, 8)
    for y in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            twin.log_split(y, 10.0, rungs)
    for base in (1.0, 0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            twin.log_split(2.0, base, rungs)


def test_mantissa_product_identical():
    rng = random.Random(4)
    rungs = _rungs(10.0, 40)
    for _ in range(300):
        _agree("mantissa_product", rng.getrandbits(40), 40, rungs)
    for base in BASES:
        rungs = _rungs(base, 48)
        for level in (0, 40, 48):
            for _ in range(100):
                _agree("mantissa_product", rng.getrandbits(level), level, rungs)


def test_int_pow_identical():
    rng = random.Random(5)
    for _ in range(300):
        _agree("int_pow", rng.uniform(-10.0, 10.0), rng.randrange(0, 300))
    for _ in range(300):
        _agree("int_pow", rng.uniform(-1.5, 1.5), rng.randrange(0, 2001))


def test_table_values_identical():
    for rungs in [_rungs(10.0, 40)] + [_rungs(base, 48) for base in BASES]:
        for level in (0, 1, 3, 8, 13, 16):
            _agree("table_values", rungs, level)


@pytest.mark.parametrize("twin", [compiled, _kernels_py],
                         ids=["compiled", "python"])
def test_table_values_is_packed(twin):
    rungs = _rungs(10.0, 40)
    for level in (0, 1, 8, 13):
        packed = twin.table_values(rungs, level)
        assert type(packed) is bytes
        assert len(packed) == 8 << level
    assert struct.unpack("=d", twin.table_values(rungs, 0)) == (1.0,)


@pytest.mark.parametrize("twin", [compiled, _kernels_py],
                         ids=["compiled", "python"])
def test_table_values_errors(twin):
    rungs = _rungs(10.0, 40)
    with pytest.raises(ValueError):
        twin.table_values(rungs, -1)
    for level in (1, 3, 8):
        with pytest.raises(IndexError):
            twin.table_values(rungs[:level], level)


def test_trapezoid_identical():
    rng = random.Random(6)
    for _ in range(50):
        _agree("trapezoid_recip", rng.uniform(1.0, 50.0),
               rng.randrange(16, 5000))
    for x in _anywhere(rng, 50):
        _agree("trapezoid_recip", x, rng.randrange(16, 500))
    _agree("trapezoid_recip", 10.0, 1 << 21)
