"""Command-line front end.

Every subcommand prints stable, locale-free text: identical invocations
produce identical bytes, so outputs can be golden-filed.  Exit codes:
0 success, 2 usage error, 3 domain error (reported as one line on stderr).

The default ladder depth is 40 and can be overridden with the
MELTDOWN_LOG_DEPTH environment variable or per-command ``--depth``.
"""

import argparse
import os
import sys

from . import __version__
from ._backend import backend_name
from .arith import DEFAULT_MAX_ITERATIONS, DEFAULT_REL_TOL, heron_sqrt
from .engine import (antilog_dyadic, convert_base, log_dyadic,
                     log_product_check)
from .errors import LogLadderError
from .euler import discover_e, limit_sequence, riemann_ln, slope_log10, slope_log_p
from .fmt import MAX_SIG_DIGITS, MIN_SIG_DIGITS, format_number
from .ladder import DEFAULT_DEPTH, MAX_DEPTH, build_ladder, rung_epsilon
from .radix import (
    DIGIT_ALPHABET,
    RadixNumeral,
    fractional_digits,
    from_radix,
    to_radix,
)
from .tables import _antilog_by_table, build_table, multiply_via_logs

DEPTH_ENV = "MELTDOWN_LOG_DEPTH"


class _UsageError(Exception):
    pass


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports arguments it does not know under
    its own usage and prog, not the top-level ones."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _resolve_depth(args) -> int:
    if getattr(args, "depth", None) is not None:
        return args.depth
    raw = os.environ.get(DEPTH_ENV, "").strip()
    if not raw:
        return DEFAULT_DEPTH
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"{DEPTH_ENV} must be an integer, got {raw!r}")


def _positive_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _digits(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not MIN_SIG_DIGITS <= n <= MAX_SIG_DIGITS:
        raise argparse.ArgumentTypeError(
            f"digits must be in [{MIN_SIG_DIGITS}, {MAX_SIG_DIGITS}]")
    return n


def _add_common(sub, depth_flag=True, json_flag=True):
    if json_flag:
        sub.add_argument("--json", action="store_true")
    sub.add_argument("--digits", type=_digits, default=10,
                     help="significant digits for plain output (default 10)")
    if depth_flag:
        sub.add_argument("--depth", type=int, default=None,
                         help=f"ladder depth (default {DEFAULT_DEPTH}, "
                              f"or {DEPTH_ENV})")


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def _emit_json(payload) -> None:
    import json  # loaded only here: plain-text output never needs it
    _emit(json.dumps(payload))


def _result(args, value: float, payload: dict) -> int:
    """Print one result: the payload under --json, else value to --digits."""
    if args.json:
        _emit_json(payload)
    else:
        _emit(format_number(value, args.digits))
    return 0


# ---------------------------------------------------------------- sqrt

def _cmd_sqrt(args) -> int:
    trace = heron_sqrt(args.x, rel_tol=args.rel_tol,
                       max_iterations=args.max_iter,
                       initial_guess=args.guess)
    if args.json:
        _emit_json({
            "input": trace.input,
            "initial_guess": trace.initial_guess,
            "iterations": [list(p) for p in trace.iterations],
            "result": trace.result,
            "converged": trace.converged,
            "steps_used": trace.steps_used,
        })
        return 0
    if args.trace:
        _emit("k x_k y_k")
        for i, (xk, yk) in enumerate(trace.iterations, start=1):
            _emit(f"{i} {format_number(xk, args.digits)} "
                  f"{format_number(yk, args.digits)}")
    _emit(format_number(trace.result, args.digits))
    return 0


# ----------------------------------------------------------------- log

def _cmd_log(args) -> int:
    ladder = build_ladder(args.base, _resolve_depth(args))
    lv = log_dyadic(args.y, ladder)
    return _result(args, lv.value(), {
        "base": lv.base,
        "characteristic": lv.characteristic,
        "mantissa_numerator": lv.mantissa_exponent.numerator,
        "mantissa_level": lv.mantissa_exponent.level,
        "value": lv.value(),
        "error_bound": lv.error_bound,
    })


def _cmd_antilog(args) -> int:
    ladder = build_ladder(args.base, _resolve_depth(args))
    if args.table_level is None:
        value = antilog_dyadic(args.x, ladder)
        return _result(args, value, {"value": value})
    value, c, _mantissa, looked, grid_error = _antilog_by_table(
        build_table(ladder, args.table_level), args.x)
    return _result(args, value, {"value": value, "table_value": looked,
                                 "characteristic": c,
                                 "grid_error": grid_error})


def _cmd_convert_base(args) -> int:
    ladder = build_ladder(args.from_base, _resolve_depth(args))
    lv = log_dyadic(args.y, ladder)
    value = convert_base(lv, args.to, ladder)
    return _result(args, value, {"value": value, "from_base": args.from_base,
                                 "to_base": args.to, "source_log": lv.value()})


# --------------------------------------------------------------- radix

def _cmd_radix(args) -> int:
    text = args.value
    sign = ""
    if text.startswith("-"):
        sign, text = "-", text[1:]
    if args.mode == "to":
        whole_text, _, frac_text = text.partition(".")
        try:
            whole = int(whole_text or "0")
            # the fraction is re-read from its own digits so that e.g.
            # 54.79 keeps the exact tail 0.79 rather than 54.79 - 54
            frac_value = float("0." + frac_text) if frac_text else 0.0
        except ValueError:
            raise _UsageError(f"not a number: {args.value!r}")
        out = str(to_radix(whole, args.base))
        if args.frac_digits > 0:
            frac = fractional_digits(frac_value, args.base, args.frac_digits)
            out += "." + "".join(DIGIT_ALPHABET[d] for d in frac)
        _emit(sign + out)
        return 0
    _emit(sign + str(from_radix(RadixNumeral.parse(text, args.base))))
    return 0


# --------------------------------------------------------------- table

def _cmd_table(args) -> int:
    ladder = build_ladder(args.base, _resolve_depth(args))
    if args.rungs:
        _emit("j rung epsilon")
        for j in range(ladder.depth + 1):
            _emit(f"{j} {format_number(ladder.rungs[j], args.digits)} "
                  f"{format_number(rung_epsilon(ladder, j), args.digits)}")
        return 0
    table = build_table(ladder, args.level)
    if args.json:
        sys.stdout.write(table.to_json())
    elif args.gnuplot_data:
        sys.stdout.write(table.to_gnuplot())
    else:
        sys.stdout.write(table.to_csv())
    return 0


# ----------------------------------------------------------------- mul

def _cmd_mul(args) -> int:
    ladder = build_ladder(args.base, _resolve_depth(args))
    if args.via_table:
        table = build_table(ladder, args.level)
        estimate, detail = multiply_via_logs(args.y1, args.y2, table, ladder)
        payload = {
            "estimate": estimate,
            "x1": detail.x1.value(),
            "x2": detail.x2.value(),
            "sum": detail.log_sum,
            "characteristic": detail.characteristic,
            "mantissa": detail.mantissa,
            "table_value": detail.table_value,
            "grid_error": detail.grid_error,
            "log_error_bound": detail.log_error_bound,
        }
    else:
        x1 = log_dyadic(args.y1, ladder)
        x2 = log_dyadic(args.y2, ladder)
        total = x1.value() + x2.value()
        estimate = antilog_dyadic(total, ladder)
        payload = {"estimate": estimate, "x1": x1.value(), "x2": x2.value(),
                   "sum": total}
    if args.check:
        lhs, rhs = log_product_check(args.y1, args.y2, ladder)
        payload["product_log"] = lhs
        payload["sum_of_logs"] = rhs
    if args.json:
        _emit_json(payload)
        return 0
    for key, value in payload.items():
        if isinstance(value, int):
            _emit(f"{key} {value}")
        else:
            _emit(f"{key} {format_number(value, args.digits)}")
    return 0


# ----------------------------------------------------------- discover-e

def _cmd_discover_e(args) -> int:
    depth = _resolve_depth(args)
    if depth < args.level:
        depth = min(MAX_DEPTH, max(depth, args.level))
    ladder = build_ladder(10.0, depth)
    if args.tangent_at is not None:
        if args.tangent_base is not None:
            value = slope_log_p(args.tangent_base, args.tangent_at,
                                args.level, ladder)
        else:
            value = slope_log10(args.tangent_at, args.level, ladder).slope
        return _result(args, value, {"slope": value, "x": args.tangent_at,
                                     "level": args.level})
    if args.sequence:
        seq = limit_sequence(args.level, ladder)
        if args.json:
            _emit_json({"sequence": [[n, t] for n, t in seq]})
            return 0
        _emit("n t_n")
        for n, t in seq:
            _emit(f"{n} {format_number(t, args.digits)}")
        return 0
    e_value = discover_e(args.level, ladder)
    return _result(args, e_value, {"e": e_value, "level": args.level})


def _cmd_area_ln(args) -> int:
    value = riemann_ln(args.x, args.steps)
    return _result(args, value, {"value": value, "steps": args.steps})


# -------------------------------------------------------------- parser

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logladder",
        description="Logarithms, antilogs and e from +, -, *, / alone.")
    parser.add_argument("--version", action="version",
                        version=f"logladder {__version__} "
                                f"({backend_name()} kernels)")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)

    p = sub.add_parser("sqrt", help="square root by divide-and-average")
    p.add_argument("x", type=_positive_float)
    p.add_argument("--guess", type=_positive_float, default=None)
    p.add_argument("--rel-tol", type=_positive_float, default=DEFAULT_REL_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS)
    p.add_argument("--trace", action="store_true",
                   help="print every iterate, not just the result")
    _add_common(p, depth_flag=False)
    p.set_defaults(func=_cmd_sqrt)

    p = sub.add_parser("log", help="dyadic logarithm")
    p.add_argument("y", type=_positive_float)
    p.add_argument("--base", type=_positive_float, default=10.0)
    _add_common(p)
    p.set_defaults(func=_cmd_log)

    p = sub.add_parser("antilog", help="base^x from the ladder")
    p.add_argument("x", type=_positive_float)
    p.add_argument("--base", type=_positive_float, default=10.0)
    p.add_argument("--table-level", type=int, default=None,
                   help="look the mantissa up in a level-N table instead")
    _add_common(p)
    p.set_defaults(func=_cmd_antilog)

    p = sub.add_parser("convert-base", help="rebase a logarithm")
    p.add_argument("y", type=_positive_float)
    p.add_argument("--to", type=_positive_float, required=True)
    p.add_argument("--from", dest="from_base", type=_positive_float,
                   default=10.0)
    _add_common(p)
    p.set_defaults(func=_cmd_convert_base)

    p = sub.add_parser("radix", help="positional numeral conversion")
    p.add_argument("mode", choices=("to", "from"))
    p.add_argument("value")
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--frac-digits", type=int, default=0)
    p.set_defaults(func=_cmd_radix)

    p = sub.add_parser("table", help="emit an antilog table")
    p.add_argument("--level", type=int, default=8)
    p.add_argument("--base", type=_positive_float, default=10.0)
    fmt_group = p.add_mutually_exclusive_group()
    fmt_group.add_argument("--csv", action="store_true",
                           help="CSV output (default)")
    fmt_group.add_argument("--json", action="store_true")
    fmt_group.add_argument("--gnuplot-data", action="store_true",
                           help="plain x,y pairs of the log curve")
    fmt_group.add_argument("--rungs", action="store_true",
                           help="print the ladder rungs instead of a table")
    _add_common(p, json_flag=False)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("mul", help="multiply by adding logarithms")
    p.add_argument("y1", type=_positive_float)
    p.add_argument("y2", type=_positive_float)
    p.add_argument("--via-table", action="store_true",
                   help="use nearest-grid table lookup for the antilog")
    p.add_argument("--level", type=int, default=13,
                   help="table level for --via-table (default 13)")
    p.add_argument("--base", type=_positive_float, default=10.0)
    p.add_argument("--check", action="store_true",
                   help="also print both sides of the product law")
    _add_common(p)
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("discover-e", help="estimate e from the slope limit")
    p.add_argument("--level", type=int, default=20,
                   help="slope reading level n (default 20)")
    p.add_argument("--sequence", action="store_true",
                   help="print the t_n sequence instead of the estimate")
    p.add_argument("--tangent-at", type=_positive_float, default=None,
                   help="print the slope of the log curve at x instead")
    p.add_argument("--tangent-base", type=_positive_float, default=None,
                   help="base for --tangent-at (default 10)")
    _add_common(p)
    p.set_defaults(func=_cmd_discover_e)

    p = sub.add_parser("area-ln", help="ln(x) as the area under 1/t")
    p.add_argument("x", type=_positive_float)
    p.add_argument("--steps", type=int, default=4096)
    _add_common(p, depth_flag=False)
    p.set_defaults(func=_cmd_area_ln)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (LogLadderError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
