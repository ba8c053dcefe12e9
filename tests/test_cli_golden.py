"""Golden corpus of CLI invocations: exit code, stdout and stderr, byte for byte.

``cli_golden.jsonl`` holds one record per invocation of ``CASES``, in order.
An output changes only by editing its line there, so every byte change of
the CLI shows up as a diff of that file.  Rewrite the file from the current
code with

    PYTHONPATH=src python tests/test_cli_golden.py --regenerate

and review the diff before committing it.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from logladder.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.jsonl")
DEPTH_ENV = "MELTDOWN_LOG_DEPTH"

BASES = ((), ("--base", "2"), ("--base", "1.5"), ("--base", "1.000001"))


def _cases():
    """(argv, env) pairs: every subcommand, plain and --json, and errors."""
    out = []

    def add(*argv, env=None):
        out.append((list(argv), env or {}))

    # help texts, and a usage error for the bare program
    add("--help")
    add()
    add("cube")
    for cmd in ("sqrt", "log", "antilog", "convert-base", "radix", "table",
                "mul", "discover-e", "area-ln"):
        add(cmd, "--help")

    # sqrt
    for x in ("2", "1747", "0.5", "1e-300", "1e300", "5e-324"):
        add("sqrt", x)
        add("sqrt", x, "--json")
    add("sqrt", "1747", "--guess", "40", "--trace", "--rel-tol", "1e-10")
    add("sqrt", "1747", "--guess", "40", "--json")
    add("sqrt", "2", "--trace", "--digits", "17")
    add("sqrt", "2", "--max-iter", "2")
    # a guess so small that x / guess overflows on the first step
    add("sqrt", "4", "--guess", "1e-320")
    add("sqrt", "4", "--guess", "1e-320", "--json")
    for bad in ("-1", "0", "nan", "inf"):
        add("sqrt", "--", bad)
    add("sqrt")
    add("sqrt", "2", "--digits", "0")
    add("sqrt", "two")

    # log
    for y in ("1", "7.25", "1000"):
        add("log", y)
        add("log", y, "--json")
    for base in BASES:
        for y in ("2", "0.5", "1e-300", "5e-324", "1.7976931348623157e308"):
            add("log", y, *base)
            add("log", y, *base, "--json")
        for bad in ("0", "nan", "inf"):
            add("log", "--", bad, *base)
    add("log", "--", "-1")
    add("log", "2", "--depth", "20", "--digits", "12")
    add("log", "2", "--depth", "0", "--json")
    add("log", "2", "--depth", "48", "--digits", "17")
    for depth in ("99", "-1", "49"):
        add("log", "2", "--depth", depth)
    for base in ("1", "0.5", "0", "inf", "nan"):
        add("log", "2", "--base", base)
    add("log", "2", "--depth", "x")

    # antilog, from the rungs and from tables
    # the last two exponents of each base overflow and underflow
    edges = {(): ("308.5", "-330"), BASES[1]: ("1024.5", "-1080"),
             BASES[2]: ("1751", "-1840"), BASES[3]: ("7.1e8", "-7.5e8")}
    for base in BASES:
        for table in ((), ("--table-level", "0"), ("--table-level", "8")):
            for x in ("0.5", "-0.5", "7.8894", "-35.07499132330321", "nan",
                      "inf", "1e300", *edges[base]):
                add("antilog", *base, *table, "--", x)
                add("antilog", *base, *table, "--json", "--", x)
            if not base:
                for x in ("0", "2.5e-7", "308", "-1e300", "-inf"):
                    add("antilog", *table, "--json", "--", x)
    for x in ("7.8894", "-7.8894", "0.99999", "-0.00001"):
        add("antilog", "--table-level", "13", "--", x)
        add("antilog", "--table-level", "13", "--json", "--", x)
    add("antilog", "0.5", "--depth", "3", "--json")
    add("antilog", "0.5", "--digits", "17")
    add("antilog", "0.5", "--table-level", "17")
    add("antilog", "0.5", "--table-level", "9", "--depth", "8")
    add("antilog", "0.5", "--table-level", "-1")
    add("antilog", "0.5", "--base", "1")

    # convert-base
    for source in ("10", "2", "1.5", "1.000001"):
        for target in ("10", "2", "1.5", "1.000001"):
            add("convert-base", "5", "--from", source, "--to", target)
            add("convert-base", "1e-300", "--from", source, "--to", target,
                "--json")
    add("convert-base", "8", "--to", "2")
    add("convert-base", "5", "--to", "3", "--digits", "6")
    add("convert-base", "5", "--to", "1")
    add("convert-base", "5", "--to", "inf")
    add("convert-base", "7.25", "--to", "1.0000000000001")
    add("convert-base", "7.25", "--to", "1.0000000000001", "--json")
    add("convert-base", "0", "--to", "2")
    add("convert-base", "5")

    # radix
    for base in ("2", "3", "10", "16", "36"):
        add("radix", "to", "255", "--base", base)
        add("radix", "to", "54.79", "--base", base, "--frac-digits", "6")
        add("radix", "to", "-15", "--base", base)
    for numeral, base in (("101", "2"), ("22", "3"), ("ff", "16"),
                          ("zz", "36"), ("1.1", "2"), ("-120", "3")):
        add("radix", "from", numeral, "--base", base)
    add("radix", "from", "29", "--base", "3")
    add("radix", "to", "5", "--base", "1")
    add("radix", "to", "5", "--base", "37")
    add("radix", "to", "five", "--base", "2")
    add("radix", "to", "5", "--base", "2", "--digits", "3")
    add("radix", "sideways", "5")

    # table
    for base in BASES:
        for fmt in ((), ("--json",), ("--gnuplot-data",)):
            add("table", "--level", "2", *base, *fmt)
        add("table", "--rungs", "--depth", "4", *base)
    add("table", "--level", "0")
    add("table", "--level", "5", "--csv")
    add("table", "--rungs", "--depth", "3", "--digits", "17")
    add("table", "--level", "17")
    add("table", "--level", "9", "--depth", "8")
    add("table", "--level", "2", "--json", "--csv")

    # mul
    for pair in (("1000", "100"), ("0.5", "0.25")):
        add("mul", *pair)
        add("mul", *pair, "--via-table", "--level", "8")
    for base in BASES:
        add("mul", "3157", "24551", *base)
        add("mul", "3157", "24551", *base, "--json")
        add("mul", "3157", "24551", *base, "--via-table", "--level", "8")
        add("mul", "3157", "24551", *base, "--via-table", "--json")
    add("mul", "1000", "100", "--check")
    add("mul", "3157", "24551", "--via-table", "--check", "--json")
    add("mul", "1e200", "1e200")
    add("mul", "1e200", "1e200", "--check")
    add("mul", "1e-200", "1e-150", "--via-table")
    add("mul", "0", "2")
    add("mul", "2", "3", "--via-table", "--level", "17")

    # discover-e
    add("discover-e")
    add("discover-e", "--json")
    for level in ("0", "4", "10", "30", "48"):
        add("discover-e", "--level", level)
    add("discover-e", "--level", "49")
    add("discover-e", "--sequence", "--level", "6")
    add("discover-e", "--sequence", "--level", "6", "--json")
    add("discover-e", "--tangent-at", "10", "--level", "20", "--digits", "4")
    add("discover-e", "--tangent-at", "10", "--json")
    add("discover-e", "--tangent-at", "3", "--tangent-base", "2")
    add("discover-e", "--tangent-at", "3", "--tangent-base", "2", "--json")
    add("discover-e", "--tangent-at", "0")
    add("discover-e", "--tangent-at", "3", "--tangent-base", "1")
    add("discover-e", "--tangent-at", "2", "--tangent-base", "1.0000000000001")
    add("discover-e", "--tangent-at", "2", "--tangent-base", "1.0000000000001",
        "--json")
    # the slope is finite, but not once divided by the small log10 of the base
    for fmt in ((), ("--json",)):
        add("discover-e", "--tangent-at", "1e-300", "--tangent-base",
            "1.0000000001", "--level", "40", *fmt)

    # area-ln
    for x in ("10", "2", "1", "1e6"):
        add("area-ln", x)
        add("area-ln", x, "--json")
    add("area-ln", "10", "--steps", "16", "--digits", "8")
    add("area-ln", "0.5")
    add("area-ln", "10", "--steps", "0")
    add("area-ln", "2", "--steps", "4611686018427387904")

    # the depth environment variable
    for value in ("20", " 30 ", "0", "48", "99", "-1", "many", ""):
        add("log", "2", env={DEPTH_ENV: value})
    add("log", "2", "--depth", "30", env={DEPTH_ENV: "99"})
    add("discover-e", env={DEPTH_ENV: "99"})
    return out


CASES = _cases()


def invoke(argv, env):
    """Run cli.main in-process: the record the corpus holds for one case."""
    saved = {k: os.environ.get(k) for k in (DEPTH_ENV, "COLUMNS", *env)}
    os.environ.pop(DEPTH_ENV, None)
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal
    os.environ.update(env)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except Exception as exc:  # what the interpreter would exit with
                code = 1
                stderr.write(f"uncaught {type(exc).__name__}: {exc}\n")
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return {"argv": argv, "env": env, "code": code,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _load():
    with GOLDEN.open(encoding="utf-8") as f:
        return [json.loads(line) for line in f]


RECORDS = _load() if GOLDEN.exists() else []


def test_corpus_lists_every_case():
    assert [(r["argv"], r["env"]) for r in RECORDS] == CASES


@pytest.mark.parametrize(
    "record", RECORDS,
    ids=[" ".join([*(f"{k}={v!r}" for k, v in r["env"].items()),
                   *r["argv"]]) for r in RECORDS])
def test_golden(record):
    assert invoke(record["argv"], record["env"]) == record


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_cli_golden.py --regenerate")
    with GOLDEN.open("w", encoding="utf-8") as f:
        for argv, env in CASES:
            f.write(json.dumps(invoke(argv, env)) + "\n")
