"""Test-side verification harness: host-library oracles and the source audit.

This module is deliberately not part of the installed package.  The library
itself may only use +, -, *, / and comparisons; the oracles below are the
one sanctioned place where the host math library appears, and
``audit_no_intrinsics`` is the scanner that keeps it that way.

Run directly it emits one JSON line per oracle report plus one for the
audit, suitable for CI log scraping:

    python tests/verify_harness.py
"""

import json
import math
import pathlib
import random
import re
import sys
from dataclasses import dataclass

from logladder import (
    antilog_dyadic,
    build_ladder,
    convert_base,
    discover_e,
    heron_sqrt,
    log_dyadic,
)

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "logladder"

# Bases the log oracles take in turn.  No base near 1: at depth 40 the
# finest rungs of such a base round to exactly 1.0 (eight of them for base
# 1.000001), so its logs miss 3 * 2^-40 by about 1000x, and a fair test
# needs a bound derived from the base.
LOG_BASES = (2.0, 3.0, 10.0, 1e6)


class UnknownOperationError(KeyError):
    pass


@dataclass(frozen=True)
class OracleReport:
    """Worst error over the samples; every sample is scored."""

    operation: str
    samples: int
    max_rel_error: float
    tolerance: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps({
            "operation": self.operation,
            "samples": self.samples,
            "max_rel_error": self.max_rel_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
        })


def _report(operation, samples, errors, tolerance) -> OracleReport:
    worst = max(errors, default=0.0)
    return OracleReport(operation=operation, samples=samples,
                        max_rel_error=worst, tolerance=tolerance,
                        passed=worst <= tolerance)


def _log_errors(rng, samples, error):
    """Score error(y, log, ladder) over y log-uniform in 1e-323..1e308.

    The bases in LOG_BASES take turns.  Every sample is scored: any error
    log_dyadic raises, CharacteristicOverflowError included, propagates and
    fails the oracle.
    """
    ladders = {base: build_ladder(base, 40) for base in LOG_BASES}
    errors = []
    for i in range(samples):
        ladder = ladders[LOG_BASES[i % len(LOG_BASES)]]
        y = 10.0 ** rng.uniform(-323.0, 308.0)
        errors.append(error(y, log_dyadic(y, ladder), ladder))
    return errors


def oracle_compare(operation: str, samples: int, seed: int) -> OracleReport:
    """Compare one library operation against the host math library.

    Sampling is pseudo-random with the given seed, so reports are
    reproducible byte for byte.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)

    if operation == "heron_sqrt":
        errors = []
        for _ in range(samples):
            # log-uniform from the subnormals (1e-323) to near the top
            x = 10.0 ** rng.uniform(-323.0, 308.0)
            got = heron_sqrt(x, 1e-12, 64).result
            want = math.sqrt(x)
            errors.append(abs(got - want) / want)
        return _report(operation, samples, errors, 1e-11)

    if operation == "log_dyadic":
        errors = _log_errors(
            rng, samples, lambda y, x, ladder:
            abs(x.value() - math.log(y) / math.log(ladder.base)))
        return _report(operation, samples, errors, 3.0 * 2.0 ** -40)

    if operation == "antilog_roundtrip":
        # The bound is 3 * ln(b) * 2^-40, so each error is scaled by
        # ln(10) / ln(b) and the base-10 figure holds for every base.
        errors = _log_errors(
            rng, samples, lambda y, x, ladder:
            abs(antilog_dyadic(x, ladder) / y - 1.0)
            * math.log(10.0) / math.log(ladder.base))
        return _report(operation, samples, errors,
                       3.0 * math.log(10.0) * 2.0 ** -40)

    if operation == "convert_base":
        ladder = build_ladder(10.0, 40)
        errors = []
        for _ in range(samples):
            y = 10.0 ** rng.uniform(-4.0, 4.0)
            # p stays away from 1, where log10(p) -> 0 makes the quotient
            # ill-conditioned and no fixed tolerance would be honest
            p = rng.uniform(1.5, 10.0)
            got = convert_base(log_dyadic(y, ladder), p, ladder)
            want = math.log(y) / math.log(p)
            errors.append(abs(got - want))
        return _report(operation, samples, errors, 1e-9)

    if operation == "discover_e":
        ladder = build_ladder(10.0, 40)
        err = abs(discover_e(20, ladder) / math.e - 1.0)
        return _report(operation, 1, [err], 1e-4)

    raise UnknownOperationError(operation)


# ------------------------------------------------------------------ audit

@dataclass(frozen=True)
class Violation:
    path: str
    line: int
    reason: str
    text: str


_FORBIDDEN = (
    (re.compile(r"^\s*(?:import|from)\s+(?:math|cmath|numpy)\b"),
     "imports host math"),
    (re.compile(r"[<\"](?:math|cmath)\.h[>\"]"), "C math header"),
    (re.compile(r"\b(?:math|cmath|numpy|np)\s*\.\s*\w+"),
     "host math attribute"),
    (re.compile(r"(?<![\w.])pow\s*\("), "builtin pow()"),
    (re.compile(r"\blibc\s*\.\s*math\b"), "libm cimport"),
    (re.compile(r"\.\s*(?:sqrt|cbrt|exp|expm1|exp2|log|log1p|log2|log10"
                r"|hypot|pow)\s*\("),
     "transcendental method call"),
)

# Rules for one language only, by file suffix.  ``**`` is Python's power
# operator but a pointer to a pointer in C; a bare call, or the same name
# behind gcc's __builtin_ prefix, is how C reaches libm, while in Python
# prose such as "log(y)" the import rule suffices.  Integer builtins such as
# __builtin_ctzll stay allowed.
_FORBIDDEN_BY_SUFFIX = {
    ".py": (
        (re.compile(r"[\w\)\]]\s*\*\*"), "power operator"),
    ),
    ".c": (
        (re.compile(r"\b(?:__builtin_)?(?:sqrt|cbrt|exp|expm1|exp2|log|log1p"
                    r"|log2|log10|hypot|pow|fabs)[fl]?\s*\("),
         "libm call"),
    ),
}


def audit_no_intrinsics(source_root=SRC_ROOT) -> list[Violation]:
    """Scan non-test sources for square-root/exp/log/pow intrinsics.

    Returns every offending line; an empty list means the tree honors the
    arithmetic-only rule.  The .py and .c files are scanned.
    """
    root = pathlib.Path(source_root)
    if not root.exists():
        raise OSError(f"source root {root} does not exist")
    violations = []
    for path in sorted(root.rglob("*")):
        if path.suffix not in _FORBIDDEN_BY_SUFFIX:
            continue
        rules = _FORBIDDEN + _FORBIDDEN_BY_SUFFIX[path.suffix]
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            for pattern, reason in rules:
                if pattern.search(line):
                    violations.append(Violation(
                        path=str(path), line=lineno, reason=reason,
                        text=line.strip()))
                    break  # one violation per line is enough
    return violations


DEFAULT_OPERATIONS = ("heron_sqrt", "log_dyadic", "antilog_roundtrip",
                      "convert_base", "discover_e")


def main(argv=None) -> int:
    ok = True
    for op in DEFAULT_OPERATIONS:
        report = oracle_compare(op, 1000, 42)
        print(report.to_json())
        ok = ok and report.passed
    violations = audit_no_intrinsics()
    print(json.dumps({
        "operation": "audit_no_intrinsics",
        "violations": [
            {"path": v.path, "line": v.line, "reason": v.reason}
            for v in violations
        ],
        "passed": not violations,
    }))
    return 0 if ok and not violations else 1


if __name__ == "__main__":
    sys.exit(main())
