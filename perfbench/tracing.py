"""Spans around the benchmark's calls into each layer, and kernel replays.

A span is (name, start_ns, end_ns, parent, op): ``parent`` is the id of the
span that caused it (-1 for an op's root span) and ``op`` numbers the op
within its pass.  Callers pass the parent's span record, not its id.
Spans of the first traced pass of each workload are kept in memory and
written out at the end; every pass adds its span durations to per-name
samples, from which the per-layer times are medians.

Right after a public call, ``Tracer.kernel`` replays the same arguments on
the matching function of the active kernel backend, in a span whose parent
is the public call.  When both backends import, the replay also runs on
the other one and the two results must agree bit for bit.

Work counts come from what the library did, never from a formula of the
inputs: the kernels' own return values where they carry the count, and
otherwise a replay on the pure-Python twin (``_kernels_py``) that watches
its arithmetic (``Counted``) or the helpers it calls (``heron_steps``).
Those replays must give the same bits as the active backend.
"""

import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

from logladder import _backend, _kernels_py
from logladder.arith import DEFAULT_MAX_ITERATIONS, DEFAULT_REL_TOL

try:
    from logladder import _kernels as _compiled
except ImportError:
    _compiled = None


def canonical(value):
    """Exact comparison form: floats by their bits, sequences recursively."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    return value


class Counted(float):
    """A float that counts the + - * / done with it, on either side.

    Results are Counted too, so a count follows a value through a kernel's
    loop.  ``Counted.ops`` maps each operator method to its number of calls.
    """

    ops = Counter()


def _counting(name):
    op = getattr(float, name)

    def method(self, other):
        Counted.ops[name] += 1
        return Counted(op(self, other))
    return method


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__"):
    setattr(Counted, _name, _counting(_name))


def counted_ops(kernel, *args):
    """Run a pure-Python kernel whose float inputs are Counted.

    Returns (result, operator counts)."""
    Counted.ops = Counter()
    out = getattr(_kernels_py, kernel)(*args)
    return out, Counted.ops


def heron_steps(base, depth):
    """Heron iterations the pure-Python ladder_rungs makes for one ladder,
    read from the iterate lists of the heron_pairs calls it makes.

    Returns (rungs, steps)."""
    inner, steps = _kernels_py.heron_pairs, 0

    def watched(*args):
        nonlocal steps
        out = inner(*args)
        steps += len(out[0])
        return out

    _kernels_py.heron_pairs = watched
    try:
        rungs, _ = _kernels_py.ladder_rungs(base, depth, DEFAULT_REL_TOL,
                                            DEFAULT_MAX_ITERATIONS)
    finally:
        _kernels_py.heron_pairs = inner
    return rungs, steps


class Tracer:
    def __init__(self):
        self.active = _backend.kernels
        # the backend _backend did not select, when it imports
        self.other = _compiled if self.active is _kernels_py else _kernels_py
        self.keep = True            # record span rows and counts
        self.spans = []
        self.errors = Counter()     # typed errors of the first pass
        self.plain_s = self.traced_s = 0.0   # wall time of paired passes
        self.durations = defaultdict(lambda: array("d"))   # name -> us
        self.tallies = defaultdict(lambda: [0, 0])         # name -> sum, n
        self.compared = 0
        self.mismatches = []

    def span(self, name, parent, op):
        """Open a span under the ``parent`` record (None for a root)."""
        rec = [name, 0, 0, parent[5] if parent else -1, op,
               len(self.spans) if self.keep else -1,
               parent[0] if parent else ""]
        if self.keep:
            self.spans.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def end(self, rec):
        """Close a span; its duration also counts under name|parent name."""
        rec[2] = perf_counter_ns()
        us = (rec[2] - rec[1]) / 1000.0
        self.durations[rec[0]].append(us)
        if rec[6]:
            self.durations[f"{rec[0]}|{rec[6]}"].append(us)
        return rec

    def call(self, name, parent, op, typed, fn, *args):
        """Run fn in a span; returns (value, typed error name, span)."""
        rec = self.span(name, parent, op)
        try:
            value, error = fn(*args), None
        except typed as exc:
            value, error = None, type(exc).__name__
        return value, error, self.end(rec)

    def kernel(self, name, parent, op, *args):
        rec = self.span("kernels." + name, parent, op)
        out = getattr(self.active, name)(*args)
        self.end(rec)
        if self.other is not None:
            self.compared += 1
            theirs = getattr(self.other, name)(*args)
            if canonical(theirs) != canonical(out):
                self.mismatches.append({"kernel": name, "args": repr(args)[:200],
                                        "active": repr(out)[:200],
                                        "other": repr(theirs)[:200]})
        return out

    def tally(self, name, amount, calls=1):
        """Add to an exact per-call count; only the first pass counts."""
        if self.keep:
            t = self.tallies[name]
            t[0] += amount
            t[1] += calls

    def same_bits(self, what, ours, replay):
        """A watched pure-Python replay must compute what the backend did."""
        if canonical(replay) != canonical(ours):
            self.mismatches.append({"kernel": what, "active": repr(ours)[:200],
                                    "other": repr(replay)[:200]})

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, sid, _ in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op}) + "\n")
