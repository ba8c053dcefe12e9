"""Benchmark the compiled kernels against the pure-Python fallback.

Run from the repository root after installing the package:

    python benchmarks/bench_backends.py [--repeat N]

Every workload feeds both backends identical inputs; besides timing, the
outputs are cross-checked for exact equality, so this doubles as a
bit-identity smoke test on realistic data.

The first row, printed whether or not the kernels are built, is the
CLI's start-up cost: the median wall time of 15 ``python -c pass``
processes next to 15 ``python -c "import logladder.cli"`` processes,
run alternately with the imported package's directory on PYTHONPATH.
"""

import argparse
import os
import random
import statistics
import subprocess
import sys
import time

import logladder
from logladder import _kernels_py

try:
    from logladder import _kernels
except ImportError:
    _kernels = None


def _timed(fn, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


STARTUP_RUNS = 15


def _process_seconds(code, env):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - start


def startup_seconds():
    """Median seconds of a bare interpreter and of one importing the CLI."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(logladder.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    bare, cli = [], []
    for _ in range(STARTUP_RUNS):
        bare.append(_process_seconds("pass", env))
        cli.append(_process_seconds("import logladder.cli", env))
    return statistics.median(bare), statistics.median(cli)


def workloads():
    rng = random.Random(0)
    sqrt_inputs = [10.0 ** rng.uniform(-6.0, 12.0) for _ in range(20000)]
    log_inputs = [10.0 ** rng.uniform(-8.0, 8.0) for _ in range(20000)]
    numerators = [rng.getrandbits(40) for _ in range(20000)]
    rungs = tuple(_kernels_py.ladder_rungs(10.0, 40, 1e-13, 64)[0])

    def sqrt_bulk(k):
        return [k.heron_pairs(x, k.default_guess(x), 1e-13, 64)[1]
                for x in sqrt_inputs]

    def ladder_rebuild(k):
        out = None
        for _ in range(2000):
            out = k.ladder_rungs(10.0, 40, 1e-13, 64)
        return out

    def log_bulk(k):
        return [k.log_split(y, 10.0, rungs) for y in log_inputs]

    def antilog_bulk(k):
        return [k.mantissa_product(n, 40, rungs) for n in numerators]

    def table_level16(k):
        return k.table_values(rungs, 16)

    def area_megastep(k):
        return k.trapezoid_recip(10.0, 1 << 21)

    return [
        ("heron_sqrt x20k", sqrt_bulk),
        ("ladder(10,40) x2k", ladder_rebuild),
        ("log_split x20k", log_bulk),
        ("mantissa_product x20k", antilog_bulk),
        ("table level 16", table_level16),
        ("trapezoid 2^21 steps", area_megastep),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions, best-of (default 3)")
    args = parser.parse_args(argv)

    bare, cli = startup_seconds()
    print(f"{'start-up':<24} {'bare':>10} {'cli':>10} {'import':>8}")
    print(f"{'median of ' + str(STARTUP_RUNS) + ' processes':<24} "
          f"{bare * 1e3:>8.1f}ms {cli * 1e3:>8.1f}ms "
          f"{(cli - bare) * 1e3:>6.1f}ms\n")

    if _kernels is None:
        print("compiled kernels are not built; nothing to compare "
              "(pip install -e . rebuilds them)")
        return 1

    print(f"{'workload':<24} {'python':>10} {'compiled':>10} {'speedup':>8}")
    for name, work in workloads():
        py_time, py_result = _timed(lambda: work(_kernels_py), args.repeat)
        c_time, c_result = _timed(lambda: work(_kernels), args.repeat)
        if py_result != c_result:
            print(f"{name}: BACKEND MISMATCH", file=sys.stderr)
            return 1
        print(f"{name:<24} {py_time * 1e3:>8.1f}ms {c_time * 1e3:>8.1f}ms "
              f"{py_time / c_time:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
