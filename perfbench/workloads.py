"""The benchmark's three workloads.

Each workload hands out seeded blocks of ops.  A block holds its mix
exactly, in a seeded order with seeded arguments, so two seeds differ in
their inputs and not in their mix.  The shares of the mix are chosen to
cover every op evenly, not taken from measured use: api_stream gives each
of its five calls a fifth (log, antilog and convert_base half on base 10,
half on base 2); bulk_build gives tables, areas and slope readings a third
each; cli_oneshot gives each subcommand a ninth and ``table`` two ninths,
and one op in 45 uses base 1.000001.  ``run`` times one op with nothing
around it; ``check`` holds the result against the oracle; ``traced`` runs
the same op with spans and kernel replays.

Typed errors (the library's own, and the OverflowError the CLI also maps
to exit 3) make an op fail.  Any other exception is a bug and ends the run.
"""

import contextlib
import io
import json
import math
import os
import random
import sys
from time import perf_counter

import oracle
import tracing
from spawner import spawn
from logladder import (
    DEFAULT_DEPTH,
    antilog_dyadic,
    build_ladder,
    build_table,
    cli,
    convert_base,
    discover_e,
    heron_sqrt,
    limit_sequence,
    log_dyadic,
    multiply_via_logs,
    riemann_ln,
)
from logladder.arith import DEFAULT_MAX_ITERATIONS, DEFAULT_REL_TOL
from logladder.errors import LogLadderError
from logladder.fmt import format_number

TYPED = (LogLadderError, OverflowError)
BUILD_DIR = ".bench_build"               # scratch space inside the checkout
LOG10_LO, LOG10_HI = -300.0, 300.0     # inputs are log-uniform in 1e-300..1e300
P_LO, P_HI = math.log10(1.5), 6.0      # target bases 1.5..1e6, log-uniform
# Reference tasks' median seconds on a 2-core shared x86 VM; end-to-end
# times are scaled to a machine on which the tasks take this long.
FLOAT_LOOP_REF_S = 0.0175   # float_loop_seconds()
TABLE_LOOP_REF_S = {13: 0.012, 15: 0.050}   # table_loop_seconds(level)
BARE_START_REF_S = 0.050    # CliOneshot.reference_seconds("bare_start")


def float_loop_seconds():
    """Seconds for a fixed pure-Python float loop that no change to
    logladder can speed up: how fast the machine runs Python right now."""
    t0 = perf_counter()
    s = 0.0
    for i in range(1, 250_000):
        s += 1.0 / i
    return perf_counter() - t0


def table_loop_seconds(level):
    """Seconds for a copy of the table build's loop: 2^level entries, each
    the product of the rungs its bits pick.  The copy lives here, so no
    change to logladder speeds it up.  Its mix of integer, float, branch
    and list work follows the machine's speed at logladder's calls better
    than the float loop: over four minutes on a shared VM, the level-16
    build time moved 1.6x and the float loop 1.3x, while the build over
    this loop at level 15 stayed within 2.1-2.3; the median api_stream
    latency over this loop at level 13 spread 3.5% (IQR over medians of
    25 samples), over the float loop 5.9%, unscaled 9.5%."""
    rungs = [1.0 + 1.0 / j for j in range(1, level + 2)]
    t0 = perf_counter()
    out = []
    for k in range(1 << level):
        v = 1.0
        for j in range(1, level + 1):
            if (k >> (level - j)) & 1:
                v *= rungs[j]
        out.append(v)
    return perf_counter() - t0


def log_uniform(rng, lo=LOG10_LO, hi=LOG10_HI):
    return 10.0 ** rng.uniform(lo, hi)


def antilog_exponent(rng, base):
    """An exponent whose true antilog lies in 1e-300..1e300."""
    return rng.uniform(*(oracle.log_in_base(10.0 ** e, base)
                         for e in (LOG10_LO, LOG10_HI)))


def factor_pair(rng):
    """Two log-uniform factors whose product stays inside 1e-300..1e300."""
    e1 = rng.uniform(LOG10_LO, LOG10_HI)
    return 10.0 ** e1, log_uniform(rng, max(LOG10_LO, LOG10_LO - e1),
                                   min(LOG10_HI, LOG10_HI - e1))


class Workload:
    # The median latency is a median over windows of whole blocks, so a
    # few seconds of a slower machine move it less.  Where a window holds
    # hundreds of ops the tail is taken per window too, and the median of
    # those tails reported: over a whole run the tail would measure the
    # rare stall of the process or the slowest spell of a shared machine
    # rather than the program's slow ops.
    window_blocks = 1
    tail_per_window = False
    # A run's inputs: this many seeded windows, made before timing starts
    # and gone through in turn until the run's time is up (run.measure).
    input_windows = 1
    pass_blocks = 1      # blocks in one traced pass
    probe_blocks = 1     # blocks the set-up probe runs to reach peak memory
    peak_rss_mb = None   # set by workloads whose ops are processes
    # Reference tasks timed between ops (run.measure), set by each workload
    references: dict     # task name -> its seconds on the reference machine
    scaled_by: dict      # end-to-end time metric -> task that scales it

    def __init__(self, rng):
        self.rng = rng

    def setup(self):
        """Ladders and tables the workload builds before its first op."""

    def run(self, op):
        """Time one op; returns (seconds, value, typed error name or None)."""
        _, fn, args = op
        t0 = perf_counter()
        try:
            value = fn(*args)
        except TYPED as exc:
            return perf_counter() - t0, None, type(exc).__name__
        return perf_counter() - t0, value, None

    def pass_end(self, tracer):
        """Per-pass probes of the traced run."""

    def reference_seconds(self, name):
        """Seconds one run of reference task ``name`` takes now."""
        if name == "float_loop":
            return float_loop_seconds()
        task, level = name.rsplit("_", 1)
        assert task == "table_loop", name
        return table_loop_seconds(int(level))


# ------------------------------------------------------------ api_stream

def _log_then_convert(y, p, ladder):
    return convert_base(log_dyadic(y, ladder), p, ladder)


def _floor(x):
    c = int(x)
    return c - 1 if c > x else c


def _antilog_kernel_args(x, ladder):
    """The mantissa_product arguments antilog_dyadic derives from a real x."""
    c = _floor(x)
    k = round((x - c) * (1 << ladder.depth))
    if k == 1 << ladder.depth:
        k = 0
    return k, ladder.depth, ladder.rungs


class ApiStream(Workload):
    """In-process stream of five public calls on ladders built in advance."""

    name = "api_stream"
    window_blocks = 10
    tail_per_window = True
    input_windows = 40   # 40,000 ops, about 3 s a pass
    references = {"table_loop_13": TABLE_LOOP_REF_S[13]}
    scaled_by = dict.fromkeys(("ops_per_s", "lat_p50_us", "lat_tail_us"),
                              "table_loop_13")
    pass_blocks = 20
    TABLE_LEVEL = 13

    def setup(self):
        self.ladders = {10.0: build_ladder(10.0, DEFAULT_DEPTH),
                        2.0: build_ladder(2.0, DEFAULT_DEPTH)}
        self.table = build_table(self.ladders[10.0], self.TABLE_LEVEL)

    def block(self):
        rng = self.rng
        ops = []
        for base, ladder in self.ladders.items():
            for _ in range(10):
                ops.append(("log_dyadic", log_dyadic,
                            (log_uniform(rng), ladder)))
                ops.append(("antilog_dyadic", antilog_dyadic,
                            (antilog_exponent(rng, base), ladder)))
                ops.append(("convert_base", _log_then_convert,
                            (log_uniform(rng), log_uniform(rng, P_LO, P_HI),
                             ladder)))
        ladder10 = self.ladders[10.0]
        for _ in range(20):
            ops.append(("multiply_via_logs", multiply_via_logs,
                        (*factor_pair(rng), self.table, ladder10)))
            ops.append(("heron_sqrt", heron_sqrt, (log_uniform(rng),)))
        rng.shuffle(ops)
        return ops

    def check(self, op, value, error):
        if error is not None:
            return
        kind, _, args = op
        if kind == "log_dyadic":
            y, ladder = args
            oracle.check_log(value, y, ladder.base, ladder.depth)
        elif kind == "antilog_dyadic":
            x, ladder = args
            oracle.check_antilog(value, x, ladder.base, ladder.depth)
        elif kind == "convert_base":
            y, p, ladder = args
            oracle.check_convert(value, y, p, ladder.base, ladder.depth)
        elif kind == "multiply_via_logs":
            y1, y2, _, ladder = args
            estimate, detail = value
            oracle.check_product(estimate, detail, y1, y2, ladder.base)
        else:
            oracle.check_sqrt(value, args[0])

    def _replay_log(self, tr, parent, op_id, y, ladder):
        c, k, _ = tr.kernel("log_split", parent, op_id, y, ladder.base,
                            ladder.rungs)
        tr.tally("kernels.norm_steps_per_log", abs(c))
        tr.tally("kernels.rungs_taken_per_log", bin(k).count("1"))

    def traced(self, op, tr, op_id):
        kind, fn, args = op
        root = tr.span("op." + kind, None, op_id)
        if kind == "convert_base":
            y, p, ladder = args
            lv, error, s = tr.call("engine.log_dyadic", root, op_id, TYPED,
                                   log_dyadic, y, ladder)
            self._replay_log(tr, s, op_id, y, ladder)
            value = None
            if error is None:
                value, error, s = tr.call("engine.convert_base", root, op_id,
                                          TYPED, convert_base, lv, p, ladder)
                if error is None:
                    self._replay_log(tr, s, op_id, p, ladder)
        else:
            layer = {"multiply_via_logs": "tables",
                     "heron_sqrt": "arith"}.get(kind, "engine")
            value, error, s = tr.call(f"{layer}.{kind}", root, op_id, TYPED,
                                      fn, *args)
            if kind == "log_dyadic":
                self._replay_log(tr, s, op_id, *args)
            elif kind == "antilog_dyadic" and error is None:
                tr.kernel("mantissa_product", s, op_id,
                          *_antilog_kernel_args(*args))
            elif kind == "multiply_via_logs":
                y1, y2, _, ladder = args
                self._replay_log(tr, s, op_id, y1, ladder)
                self._replay_log(tr, s, op_id, y2, ladder)
            elif kind == "heron_sqrt" and error is None:
                # the returned trace names the guess and the steps taken
                tr.kernel("heron_pairs", s, op_id, value.input,
                          value.initial_guess, DEFAULT_REL_TOL,
                          DEFAULT_MAX_ITERATIONS)
                tr.tally("arith.heron_steps_per_call", value.steps_used)
        tr.end(root)
        return value, error


# ------------------------------------------------------------ bulk_build

def _table_op(base, depth, level):
    ladder = build_ladder(base, depth)
    return ladder, build_table(ladder, level)


def _riemann_op(base, depth, x, steps):
    return build_ladder(base, depth), riemann_ln(x, steps)


def _discover_op(base, depth, n):
    ladder = build_ladder(base, depth)
    return ladder, discover_e(n, ladder)


def _sequence_op(base, depth, n):
    ladder = build_ladder(base, depth)
    return ladder, limit_sequence(n, ladder)


class BulkBuild(Workload):
    """Cold builds: a fresh ladder per op, then a table, an area or e."""

    name = "bulk_build"
    window_blocks = 20   # 540 ops; the 20 level-16 tables hold the tail
    tail_per_window = True
    input_windows = 4    # 2,160 ops, about 20 s a pass
    # the tail is held by level-16 tables
    references = {"float_loop": FLOAT_LOOP_REF_S,
                  "table_loop_15": TABLE_LOOP_REF_S[15]}
    scaled_by = {"ops_per_s": "float_loop", "lat_p50_us": "float_loop",
                 "lat_tail_us": "table_loop_15"}

    def block(self):
        rng = self.rng
        ops = []

        def fresh(base=None):
            if base is None:
                base = log_uniform(rng, P_LO, P_HI)
            return base, rng.randint(20, 48)

        for level in range(8, 17):
            ops.append(("build_table", _table_op, (*fresh(), level)))
        # Steps are log-uniform, not a few fixed counts: the median latency
        # falls among the areas, and with fixed counts it sat on the 25%
        # gap between two of them, so it jumped from process to process.
        for _ in range(9):
            steps = round(2.0 ** rng.uniform(12.0, 16.0))
            ops.append(("riemann_ln", _riemann_op,
                        (*fresh(), rng.uniform(1.0, 100.0), steps)))
        # slope readings need a base-10 ladder
        for i in range(9):
            base, depth = fresh(10.0)
            if i < 5:
                ops.append(("discover_e", _discover_op,
                            (base, depth, rng.randint(10, depth))))
            else:
                ops.append(("limit_sequence", _sequence_op,
                            (base, depth, rng.randint(4, depth))))
        rng.shuffle(ops)
        return ops

    def check(self, op, value, error):
        if error is not None:
            return
        kind, _, args = op
        base, depth, *rest = args
        ladder, result = value
        oracle.check_ladder(ladder, base, depth)
        if kind == "build_table":
            oracle.check_table(result, base, rest[0])
        elif kind == "riemann_ln":
            oracle.check_riemann(result, *rest)
        elif kind == "discover_e":
            oracle.check_discover_e(result, rest[0], depth)
        else:
            oracle.check_limit_sequence(result, rest[0])

    def traced(self, op, tr, op_id):
        kind, _, args = op
        base, depth, *rest = args
        root = tr.span("op." + kind, None, op_id)
        ladder, error, s = tr.call("ladder.build_ladder", root, op_id, TYPED,
                                   build_ladder, base, depth)
        rungs, _ = tr.kernel("ladder_rungs", s, op_id, base, depth,
                             DEFAULT_REL_TOL, DEFAULT_MAX_ITERATIONS)
        if tr.keep:
            watched, steps = tracing.heron_steps(base, depth)
            tr.same_bits("ladder_rungs (watched)", rungs, watched)
            tr.tally("ladder.heron_steps_per_rung", steps, depth)
        value = None
        if error is None:
            if kind == "build_table":
                level = rest[0]
                result, error, s = tr.call("tables.build_table", root, op_id,
                                           TYPED, build_table, ladder, level)
                values = tr.kernel("table_values", s, op_id, ladder.rungs,
                                   level)
                if tr.keep:
                    watched, ops = tracing.counted_ops(
                        "table_values",
                        [tracing.Counted(r) for r in ladder.rungs], level)
                    tr.same_bits("table_values (counted)", values, watched)
                    tr.tally("tables.rung_mults_per_table",
                             ops["__mul__"] + ops["__rmul__"])
            elif kind == "riemann_ln":
                result, error, s = tr.call("euler.riemann_ln", root, op_id,
                                           TYPED, riemann_ln, *rest)
                area = tr.kernel("trapezoid_recip", s, op_id, *rest)
                if tr.keep:
                    x, steps = rest
                    watched, ops = tracing.counted_ops(
                        "trapezoid_recip", tracing.Counted(x), steps)
                    tr.same_bits("trapezoid_recip (counted)", area, watched)
                    # one reciprocal 1/t per panel point past t = 1
                    tr.tally("euler.trapezoid_steps", ops["__rtruediv__"])
            else:
                fn = discover_e if kind == "discover_e" else limit_sequence
                result, error, s = tr.call("euler." + kind, root, op_id,
                                           TYPED, fn, rest[0], ladder)
            value = ladder, result
        tr.end(root)
        return value, error


# ----------------------------------------------------------- cli_oneshot

CLI_TIMEOUT_S = 1.0      # a normal op takes 0.05-0.2 s on two cores
CLI_DIGITS = 10          # the CLI's default --digits
PROBES_PER_PASS = 5


class CliOneshot(Workload):
    """One ``python -m logladder`` process at a time."""

    name = "cli_oneshot"
    probe_blocks = 0
    input_windows = 3    # 135 processes, about 16 s a pass
    # A bare ``python -c pass``, timed between the ops, follows the
    # machine's speed at starting processes: over four minutes on a shared
    # VM a CLI process's time moved 1.7x and its ratio to a bare start
    # stayed within 1.57-1.69, where its ratio to the float loop moved
    # 4.3-5.4.  The kill timeout is a fixed wall time and is not scaled.
    references = {"bare_start": BARE_START_REF_S}
    scaled_by = dict.fromkeys(("ops_per_s", "lat_p50_us", "lat_tail_us"),
                              "bare_start")

    def __init__(self, rng, root):
        super().__init__(rng)
        self.python = sys.executable
        self.cmd = [self.python, "-m", "logladder"]
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.out_path = os.path.join(root, BUILD_DIR, "cli.stdout")
        self.err_path = os.path.join(root, BUILD_DIR, "cli.stderr")
        self.peak_rss_mb = 0.0

    def block(self):
        rng = self.rng
        ops = []

        def add(kind, argv, **meta):
            ops.append((kind, [kind, *argv], meta))

        # base 10 is the CLI default and goes without --base
        for base in (10.0, 10.0, 2.0, 2.0, 1.000001):
            y = log_uniform(rng)
            add("log", [repr(y)] + (["--base", repr(base)] if base != 10.0
                                    else []), y=y, base=base)
        for base in (10.0, 10.0, 10.0, 2.0, 2.0):
            x = antilog_exponent(rng, base)
            add("antilog", [repr(x), "--base", repr(base)], x=x, base=base)
        for q in (10.0, 10.0, 10.0, 2.0, 2.0):
            y, p = log_uniform(rng), log_uniform(rng, P_LO, P_HI)
            add("convert-base", [repr(y), "--to", repr(p), "--from", repr(q)],
                y=y, p=p, q=q)
        for _ in range(5):
            y1, y2 = factor_pair(rng)
            add("mul", [repr(y1), repr(y2), "--via-table"], y1=y1, y2=y2)
        for level in range(8, 13):
            add("table", ["--level", str(level)], level=level, json=False)
            add("table", ["--level", str(level), "--json"], level=level,
                json=True)
        for _ in range(5):
            x = log_uniform(rng)
            add("sqrt", [repr(x), "--trace"], x=x)
        for _ in range(5):
            n = rng.randint(10, 48)
            add("discover-e", ["--level", str(n)], level=n)
        for _ in range(5):
            x = rng.uniform(1.0, 100.0)
            steps = round(2.0 ** rng.uniform(12.0, 16.0))
            add("area-ln", [repr(x), "--steps", str(steps)], x=x, steps=steps)
        rng.shuffle(ops)
        return ops

    def _spawn(self, argv):
        return spawn(argv, self.env, CLI_TIMEOUT_S,
                     self.out_path, self.err_path)

    def reference_seconds(self, name):
        seconds, code, _ = self._spawn([self.python, "-c", "pass"])
        if code != 0:
            raise oracle.WrongResult(f"python -c pass: exit {code}")
        return seconds

    def run(self, op):
        _, argv, _ = op
        seconds, code, rss = self._spawn(self.cmd + argv)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if code is None:
            return seconds, None, "KilledOnTimeout"
        with open(self.out_path, "rb") as fh:
            out = fh.read()
        value = (code, out, None)
        return seconds, value, "DomainErrorExit3" if code == 3 else None

    def reference(self, argv):
        """cli.main in-process: (exit code, stdout bytes)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue().encode("utf-8")

    def check(self, op, value, error):
        if error == "KilledOnTimeout":
            return
        kind, argv, meta = op
        code, out, ref = value
        if code not in (0, 3):
            raise oracle.WrongResult(f"logladder {' '.join(argv)}: exit {code}")
        ref_code, ref_out = ref if ref is not None else self.reference(argv)
        if (code, out) != (ref_code, ref_out):
            raise oracle.WrongResult(
                f"logladder {' '.join(argv)}: process gave exit {code} "
                f"{out[:200]!r}, cli.main gave exit {ref_code} {ref_out[:200]!r}")
        if code == 0:
            check_cli_output(kind, meta, out.decode("utf-8"))

    def traced(self, op, tr, op_id):
        kind, argv, meta = op
        root = tr.span("op." + kind, None, op_id)
        s = tr.span("cli.process", root, op_id)
        _, value, error = self.run(op)
        tr.end(s)
        if error != "KilledOnTimeout":
            s = tr.span("cli.main_inproc", root, op_id)
            ref = self.reference(argv)
            tr.end(s)
            value = value[:2] + (ref,)
            if value[0] == 0:
                self._replay_output(kind, meta, ref[1].decode("utf-8"), tr,
                                    root, op_id)
        tr.end(root)
        return value, error

    def _replay_output(self, kind, meta, text, tr, root, op_id):
        if kind == "table":
            table = build_table(build_ladder(10.0, DEFAULT_DEPTH),
                                meta["level"])
            name = "to_json" if meta["json"] else "to_csv"
            s = tr.span("tables." + name, root, op_id)
            again = getattr(table, name)()
            tr.end(s)
            if again != text:
                raise oracle.WrongResult(f"table.{name}() differs from the CLI")
            return
        for token in text.split():
            try:
                v = float(token)
            except ValueError:
                continue
            s = tr.span("fmt.format_number", root, op_id)
            again = format_number(v, CLI_DIGITS)
            tr.end(s)
            if again != token:
                raise oracle.WrongResult(
                    f"format_number({v!r}) gave {again!r}, CLI printed {token!r}")

    def pass_end(self, tr):
        for _ in range(PROBES_PER_PASS):
            for name, argv in (("cli.interp_start", ["-c", "pass"]),
                               ("cli.import", ["-c", "import logladder.cli"])):
                s = tr.span(name, None, -1)
                _, code, _ = self._spawn([self.python, *argv])
                tr.end(s)
                if code != 0:
                    raise oracle.WrongResult(f"python {' '.join(argv)}: exit {code}")


def _last_number(text):
    return float(text.split()[-1])


def check_cli_output(kind, meta, text):
    d = oracle.CLI_DIGITS_REL
    what = f"CLI {kind} {meta}"
    if kind == "log":
        truth = oracle.log_in_base(meta["y"], meta["base"])
        oracle.check_abs(what, _last_number(text), truth,
                         oracle.log_bound(DEFAULT_DEPTH) + d * abs(truth))
    elif kind == "antilog":
        oracle.check_rel(what, _last_number(text), meta["base"] ** meta["x"],
                         oracle.antilog_rel_bound(meta["base"], DEFAULT_DEPTH) + d)
    elif kind == "convert-base":
        y, p, q = meta["y"], meta["p"], meta["q"]
        truth = math.log(y) / math.log(p)
        oracle.check_abs(what, _last_number(text), truth,
                         oracle.convert_bound(y, p, q, DEFAULT_DEPTH)
                         + d * abs(truth))
    elif kind == "mul":
        fields = dict(line.split() for line in text.splitlines())
        bound = float(fields["log_error_bound"]) * (1.0 + d)
        oracle.check_rel(what, float(fields["estimate"]),
                         meta["y1"] * meta["y2"],
                         oracle.product_rel_bound(10.0, bound) + d)
    elif kind == "table":
        check_cli_table(what, meta, text)
    elif kind == "sqrt":
        if not text.startswith("k x_k y_k\n"):
            raise oracle.WrongResult(f"{what}: no trace header")
        oracle.check_rel(what, _last_number(text), math.sqrt(meta["x"]),
                         oracle.SQRT_REL + d)
    elif kind == "discover-e":
        n = meta["level"]
        oracle.check_rel(what, _last_number(text), math.e,
                         oracle.discover_e_rel_bound(n, max(DEFAULT_DEPTH, n))
                         + d)
    elif kind == "area-ln":
        truth = math.log(meta["x"])
        oracle.check_abs(what, _last_number(text), truth,
                         oracle.trapezoid_bound(meta["x"], meta["steps"])
                         + d * truth)


def check_cli_table(what, meta, text):
    level = meta["level"]
    if meta["json"]:
        doc = json.loads(text)
        rows = [(e["mantissa_exponent"], e["value"]) for e in doc["entries"]]
        tol = oracle.TABLE_REL
    else:
        lines = text.splitlines()
        if lines[0] != "mantissa_exponent,value":
            raise oracle.WrongResult(f"{what}: bad CSV header {lines[0]!r}")
        rows = [tuple(float(f) for f in line.split(",")) for line in lines[1:]]
        tol = oracle.TABLE_REL + oracle.CSV_DIGITS_REL
    if len(rows) != 1 << level:
        raise oracle.WrongResult(f"{what}: {len(rows)} rows")
    for k, (m, v) in enumerate(rows):
        if m != k / float(1 << level):
            raise oracle.WrongResult(f"{what}: row {k} has exponent {m!r}")
        oracle.check_rel(f"{what} row {k}", v, 10.0 ** m, tol)


WORKLOADS = {w.name: w for w in (ApiStream, BulkBuild, CliOneshot)}


def make(name, seed, root):
    """A workload whose inputs come from ``seed`` alone."""
    rng = random.Random(f"{name}:{seed}")
    if name == CliOneshot.name:
        return CliOneshot(rng, root)
    return WORKLOADS[name](rng)
