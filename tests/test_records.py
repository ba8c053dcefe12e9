"""Behaviour of the eight value classes as immutable records.

The golden reprs were captured from the frozen-dataclass implementation
the records replaced; repr, equality, hashing, immutability, pickling and
copying must stay exactly as they were.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import logladder
from logladder import (
    MAX_DEPTH,
    DyadicExponent,
    build_ladder,
    build_table,
    heron_sqrt,
    log_dyadic,
    multiply_via_logs,
    slope_log10,
    to_radix,
)
from logladder._record import Record
from logladder.errors import (
    CharacteristicOverflowError,
    NoConvergenceError,
    OutOfRangeError,
)


def _multiply_detail():
    ladder = build_ladder(10.0, 5)
    return multiply_via_logs(2.0, 3.0, build_table(ladder, 2), ladder)[1]


# (factory, field names in order, golden repr)
SAMPLES = {
    "SqrtTrace": (
        lambda: heron_sqrt(2.0, initial_guess=1.0),
        ("input", "initial_guess", "iterations", "result", "converged",
         "steps_used"),
        "SqrtTrace(input=2.0, initial_guess=1.0, iterations=((1.0, 2.0), "
        "(1.5, 1.3333333333333333), (1.4166666666666665, 1.411764705882353), "
        "(1.4142156862745097, 1.41421143847487), "
        "(1.4142135623746899, 1.4142135623715002), "
        "(1.414213562373095, 1.4142135623730951)), result=1.414213562373095, "
        "converged=True, steps_used=6)"),
    "DyadicExponent": (
        lambda: DyadicExponent(12, 4),
        ("numerator", "level"),
        "DyadicExponent(numerator=3, level=2)"),
    "LogValue": (
        lambda: log_dyadic(3.0, build_ladder(10.0, 5)),
        ("base", "characteristic", "mantissa_exponent", "error_bound"),
        "LogValue(base=10.0, characteristic=0, "
        "mantissa_exponent=DyadicExponent(numerator=15, level=5), "
        "error_bound=0.03125)"),
    "SlopeEstimate": (
        lambda: slope_log10(2.0, 4, build_ladder(10.0, 5)),
        ("base", "x", "ladder_level", "epsilon", "slope"),
        "SlopeEstimate(base=10.0, x=2.0, ladder_level=4, "
        "epsilon=0.3095639693789165, slope=0.20189688136314707)"),
    "RootLadder": (
        lambda: build_ladder(10.0, 3),
        ("base", "depth", "rungs"),
        "RootLadder(base=10.0, depth=3, rungs=(10.0, 3.162277660168379, "
        "1.7782794100389228, 1.333521432163324))"),
    "RadixNumeral": (
        lambda: to_radix(15, 3),
        ("base", "digits"),
        "RadixNumeral(base=3, digits=(1, 2, 0))"),
    "LogTable": (
        lambda: build_table(build_ladder(10.0, 3), 2),
        ("base", "level", "values", "built_from"),
        "LogTable(base=10.0, level=2, values=(1.0, 1.7782794100389228, "
        "3.162277660168379, 5.62341325190349), built_from=3)"),
    "MultiplyDetail": (
        _multiply_detail,
        ("x1", "x2", "log_sum", "characteristic", "mantissa", "table_value",
         "grid_error", "log_error_bound"),
        "MultiplyDetail(x1=LogValue(base=10.0, characteristic=0, "
        "mantissa_exponent=DyadicExponent(numerator=9, level=5), "
        "error_bound=0.03125), x2=LogValue(base=10.0, characteristic=0, "
        "mantissa_exponent=DyadicExponent(numerator=15, level=5), "
        "error_bound=0.03125), log_sum=0.75, characteristic=0, mantissa=0.75, "
        "table_value=5.62341325190349, grid_error=0.125, "
        "log_error_bound=0.1875)"),
}

by_class = pytest.mark.parametrize("name", sorted(SAMPLES))


def _sample(name):
    factory, fields, _ = SAMPLES[name]
    value = factory()
    assert type(value).__name__ == name
    return value, fields


def _field_values(value, fields):
    return tuple(getattr(value, f) for f in fields)


def test_every_public_value_class_is_covered():
    public = {n for n in logladder.__all__ if n[0].isupper() and
              isinstance(getattr(logladder, n), type)}
    assert public == set(SAMPLES)


@by_class
def test_golden_repr(name):
    value, _ = _sample(name)
    assert repr(value) == SAMPLES[name][2]


@by_class
def test_equal_instances_have_equal_hashes(name):
    a, fields = _sample(name)
    b, _ = _sample(name)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b) == hash(_field_values(a, fields))


@by_class
def test_equal_by_fields_and_class(name):
    value, fields = _sample(name)
    values = _field_values(value, fields)
    cls = type(value)
    assert cls(*values) == value
    assert cls(**dict(zip(fields, values))) == value
    # same field values, another class: never equal
    twin = type("Twin", (cls,), {})(*values)
    assert value != twin
    assert twin != value
    assert value != values


@by_class
def test_assignment_and_deletion_raise(name):
    value, fields = _sample(name)
    for field in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert _field_values(value, fields) == _field_values(_sample(name)[0],
                                                         fields)


@by_class
def test_no_instance_dict(name):
    value, _ = _sample(name)
    assert not hasattr(value, "__dict__")


@by_class
def test_pickle_and_copy_roundtrip(name):
    value, fields = _sample(name)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value)
        assert back == value
        assert repr(back) == repr(value)
    assert copy.deepcopy(value) == value
    assert copy.copy(value) == value


def _modules_after(code):
    src = str(Path(logladder.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         code + "; import sys; print('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_loads_no_heavy_modules():
    bare = _modules_after("pass")
    cli = _modules_after("import logladder.cli")
    assert "logladder.cli" in cli
    assert not {"array", "dataclasses", "inspect", "json", "struct"} & \
        (cli - bare)


# The library builds its records positionally, and log_dyadic without the
# public checks; each must equal the record the checked public constructor
# makes from the same fields, nested records rebuilt the same way.

def _rebuilt(value):
    if isinstance(value, Record):
        return type(value)(*[_rebuilt(getattr(value, name))
                             for name in value.__slots__])
    return value


def _public_twin_matches(record):
    again = _rebuilt(record)
    assert again == record
    assert repr(again) == repr(record)
    assert hash(again) == hash(record)


# Hypothesis keeps one on_backend value across the examples of a test,
# which is what the fixture is for.
on_both = settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
                   deadline=None)
positive = st.floats(min_value=5e-324, allow_infinity=False)
bases = st.sampled_from([10.0, 2.0, 1.5, 1e6, 1.000001]) | st.floats(
    min_value=1.0, max_value=1e300, exclude_min=True)
depths = st.integers(min_value=0, max_value=MAX_DEPTH)


@on_both
@given(x=positive, guess=st.none() | positive)
def test_heron_sqrt_builds_the_public_record(on_backend, x, guess):
    try:
        trace = heron_sqrt(x, initial_guess=guess)
    # a guess far from the root, or so small that x / guess overflows
    except (NoConvergenceError, OutOfRangeError):
        assume(False)
    _public_twin_matches(trace)


@on_both
@given(base=bases, depth=depths)
def test_build_ladder_builds_the_public_record(on_backend, base, depth):
    _public_twin_matches(build_ladder(base, depth))


@on_both
@given(base=bases, depth=depths, data=st.data())
def test_build_table_builds_the_public_record(on_backend, base, depth, data):
    level = data.draw(st.integers(min_value=0, max_value=min(depth, 10)))
    _public_twin_matches(build_table(build_ladder(base, depth), level))


@on_both
@given(y=positive, base=bases, depth=depths)
def test_log_dyadic_builds_the_public_record(on_backend, y, base, depth):
    _public_twin_matches(log_dyadic(y, build_ladder(base, depth)))


@on_both
@given(y1=positive, y2=positive, base=bases,
       level=st.integers(min_value=0, max_value=10))
def test_multiply_via_logs_builds_the_public_record(on_backend, y1, y2, base,
                                                    level):
    ladder = build_ladder(base, 40)
    try:
        _, detail = multiply_via_logs(y1, y2, build_table(ladder, level),
                                      ladder)
    except CharacteristicOverflowError:
        assume(False)
    _public_twin_matches(detail)


# Near the bottom of the float range the step x * (rung - 1) can round to
# 0, or the slope over it overflow; the reading then refuses x with
# OutOfRangeError, and nowhere else.
@on_both
@given(x=positive, data=st.data())
def test_slope_log10_builds_the_public_record(on_backend, x, data):
    n = data.draw(st.integers(min_value=4, max_value=MAX_DEPTH))
    try:
        estimate = slope_log10(x, n, build_ladder(10.0, MAX_DEPTH))
    except OutOfRangeError:
        assert x < 1e-300
        return
    _public_twin_matches(estimate)
