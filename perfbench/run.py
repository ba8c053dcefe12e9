"""Layered benchmark for logladder: one seeded command, results checked while timed.

    python3 perfbench/run.py --workload api_stream --seed 1 --seconds 10 --trace 0

Workloads (``--workload all`` runs each in turn), all closed loop with one
caller:

* api_stream: in-process public calls on ladders and a table built in
  advance;
* bulk_build: a fresh ladder per op, then a table, a trapezoid area or e;
* cli_oneshot: one ``python -m logladder`` process per op.

Run from the root of a checkout.  Every run first builds the package in
place with its own ``setup.py`` (a no-op when no compiled extension can be
built), keeping build files in ``.bench_build``, and byte-compiles the
package and the benchmark.

With ``--trace 0`` it prints the end-to-end metrics.  Set-up time and peak
memory come from fresh probe processes (``probe.py``), medians of several.
With ``--trace 1`` it alternates untraced and traced passes over one fixed
list of ops and prints the per-layer metrics named in ``BENCHMARK.json``,
each taken on the workload ``layer_map.json`` says it is measured on,
together with the layer and end-to-end metric it belongs to.  Stdout is
JSON lines: a header, one line per metric, and last the result object.  A
wrong result or a backend mismatch exits 1 without a result; a checkout
without the logladder sources exits 2.
"""

import argparse
import json
import os
import platform
import statistics
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120.0
BUILD_TIMEOUT_S = 850.0
TAIL_BEYOND = 10     # the tail percentile leaves this many samples beyond it
# A workload's reference tasks (a fixed float loop, a copy of the table
# loop, a bare interpreter start) run between ops for about this share of
# the time the ops take; they tell how fast the shared machine runs that
# kind of work at the moment (workloads.py says why each was chosen).
CAL_SHARE = 0.15


def emit(obj):
    print(json.dumps(obj), flush=True)


def die(code, message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def build():
    """Build the package in place on every run; setuptools skips sources
    that are older than what they built, so a rebuild costs little."""
    import subprocess
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "wb") as log:
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
             "--build-temp", str(BUILD / "temp")],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        die(2, f"setup.py build_ext failed; see {BUILD / 'build.log'}")
    # Byte-compile too, so every process the benchmark starts loads the
    # same cached code whether or not its environment lets Python write
    # .pyc files; compiling on each start adds about 1 MB to peak memory.
    import compileall
    for tree in (SRC, HERE):
        if not compileall.compile_dir(str(tree), quiet=1):
            die(2, f"byte-compiling {tree} failed")


# ------------------------------------------------------------ end to end

def measure(wl, seconds):
    """Closed loop over whole windows of blocks until ``seconds`` have passed.

    The inputs are a fixed seeded set of ``wl.input_windows`` windows,
    made before the clock starts; the loop goes through them in turn,
    once at least and again until the time is up.  Every pass is timed and
    checked.  The ops attempted are the ops of the set, and an op failed
    if it failed on any pass, so both counts follow from the seed alone
    and not from how many passes the machine's speed allowed.

    Returns one (latencies of the ops that succeeded, wall seconds) pair
    per window run, the typed errors of the failed ops, the ops attempted,
    the seconds the failed runs took by error, and the reference tasks'
    times by task.  Wall time covers only the ops: checking results
    happens between the timed stretches, and the reference tasks run
    between two ops, where their time is taken out of the wall time.
    """
    inputs = [[wl.block() for _ in range(wl.window_blocks)]
              for _ in range(wl.input_windows)]
    windows, failures = [], {}     # failures: (window, block, op) -> error
    failed_s = Counter()
    cal = {name: [] for name in wl.references}
    cal_s, op_s = 0.0, 0.0
    start = perf_counter()
    runs = 0
    while runs < len(inputs) or perf_counter() - start < seconds:
        w = runs % len(inputs)
        lat, wall = array("d"), 0.0
        for b, ops in enumerate(inputs[w]):
            outs, paused = [], 0.0
            t0 = perf_counter()
            for op in ops:
                outs.append(wl.run(op))
                op_s += outs[-1][0]
                if cal_s < CAL_SHARE * op_s:
                    t1 = perf_counter()
                    for name, samples in cal.items():
                        samples.append(wl.reference_seconds(name))
                        cal_s += samples[-1]
                    paused += perf_counter() - t1
            wall += perf_counter() - t0 - paused
            for i, (op, (seconds_taken, value, error)) in enumerate(
                    zip(ops, outs)):
                wl.check(op, value, error)
                if error is None:
                    lat.append(seconds_taken)
                else:
                    failures.setdefault((w, b, i), error)
                    failed_s[error] += seconds_taken
        windows.append((lat, wall))
        runs += 1
    attempted = sum(len(ops) for window in inputs for ops in window)
    return windows, Counter(failures.values()), attempted, failed_s, cal


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, i.e. the (TAIL_BEYOND + 1)-th largest sample."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        die(1, f"only {n} latencies; a tail needs more than {TAIL_BEYOND}")
    return (sorted(samples)[n - 1 - TAIL_BEYOND],
            100.0 * (n - TAIL_BEYOND) / n)


# logladder and the perfbench modules that import it load only after main()
# has built the package and put the checkout's src first on sys.path.

def setup_probes(workload, seed):
    import spawner
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out, err = str(BUILD / "probe.stdout"), str(BUILD / "probe.stderr")
    argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed),
            str(ROOT)]
    setup, rss = [], []    # setup: (seconds, float loop seconds) per probe
    for _ in range(SETUP_PROBES):
        _, code, peak = spawner.spawn(argv, env, PROBE_TIMEOUT_S, out, err)
        if code != 0:
            die(1, f"set-up probe exited {code}: "
                   f"{Path(err).read_text(errors='replace')[-500:]}")
        probe = json.loads(Path(out).read_text())
        setup.append((probe["setup_s"], probe["cal_s"]))
        rss.append(peak)
    return setup, rss


def end_to_end(name, seed, seconds, root):
    """The end-to-end metrics of one workload: {name: (value, details)}.

    Times and rates come from the run's wall clock, scaled by the machine
    speed the workload's reference task for each (``wl.scaled_by``) saw
    during the run (``speed`` > 1 on a faster machine than the reference);
    each line also carries the value as the wall clock read it.  Set-up
    time, taken in probe processes, is scaled by the speed of the float
    loop each probe times right after its set-up; memory is not scaled.
    """
    import workloads
    setup, probe_rss = setup_probes(name, seed)
    wl = workloads.make(name, seed, root)
    wl.setup()
    windows, errors, attempted, failed_s, cal = measure(wl, seconds)

    speeds = {task: ref / statistics.median(cal[task])
              for task, ref in wl.references.items()}
    machines = {m: {"speed": speeds[task], "reference": task,
                    "calibrations": len(cal[task])}
                for m, task in wl.scaled_by.items()}
    failed = sum(errors.values())
    succeeded = sum(len(lat) for lat, _ in windows)
    if wl.tail_per_window:
        tails = [tail(lat) for lat, _ in windows]
        tail_us = statistics.median(t for t, _ in tails) * 1e6
        tail_pct = statistics.median(p for _, p in tails)
    else:
        tail_us, tail_pct = tail([x for lat, _ in windows for x in lat])
        tail_us *= 1e6
    wall_s = sum(w for _, w in windows)
    ops_per_s = succeeded / wall_s
    # a killed op takes the fixed timeout whatever the machine's speed,
    # so only the rest of the wall time is scaled
    killed_s = failed_s["KilledOnTimeout"]
    ops_scaled = succeeded / ((wall_s - killed_s)
                              * machines["ops_per_s"]["speed"] + killed_s)
    p50_us = statistics.median(statistics.median(lat)
                               for lat, _ in windows) * 1e6
    # where the ops are processes, their peak is the program's peak
    peak = (wl.peak_rss_mb if wl.peak_rss_mb is not None
            else statistics.median(probe_rss))
    per_window = {"windows": len(windows), "window_blocks": wl.window_blocks,
                  "input_windows": wl.input_windows}
    metrics = {
        "ops_per_s": (ops_scaled,
                      {"wall_value": ops_per_s, **machines["ops_per_s"],
                       "succeeded": succeeded, "wall_s": wall_s,
                       "failed_ops_s": sum(failed_s.values()),
                       "killed_s": killed_s, "speeds": speeds,
                       **per_window}),
        "lat_p50_us": (p50_us * machines["lat_p50_us"]["speed"],
                       {"wall_value": p50_us, **machines["lat_p50_us"],
                        "samples": succeeded, **per_window}),
        "lat_tail_us": (tail_us * machines["lat_tail_us"]["speed"],
                        {"wall_value": tail_us, **machines["lat_tail_us"],
                         "percentile": tail_pct, "beyond": TAIL_BEYOND,
                         "samples": succeeded,
                         "per_window": wl.tail_per_window}),
        "failed_frac": (failed / attempted,
                        {"failed": failed, "attempted": attempted,
                         "errors": dict(sorted(errors.items()))}),
        "setup_s": (statistics.median(s * workloads.FLOAT_LOOP_REF_S / c
                                      for s, c in setup),
                    {"wall_value": statistics.median(s for s, _ in setup),
                     "probes": setup}),
        "peak_rss_mb": (peak, {"probes": probe_rss}),
    }
    return metrics, attempted, failed


# ------------------------------------------------------------- per layer

def traced_pass(wl, ops, tr):
    """One traced pass; returns its wall seconds (the ops alone) and the
    indices of the ops that failed.  Only the first pass keeps span rows,
    work counts and the error breakdown."""
    t0 = perf_counter()
    outs = [wl.traced(op, tr, i) for i, op in enumerate(ops)]
    seconds = perf_counter() - t0
    wl.pass_end(tr)
    for op, (value, error) in zip(ops, outs):
        wl.check(op, value, error)
        if error is not None and tr.keep:
            tr.errors[error] += 1
    tr.keep = False
    return seconds, {i for i, (_, error) in enumerate(outs)
                     if error is not None}


def traced_run(name, seed, seconds, root, paired):
    """Trace one op list of a workload.

    A first traced pass keeps the spans and makes the work-count replays.
    With ``paired`` it then alternates untraced and traced passes until
    ``seconds`` have passed, at least once each; the tracing overhead
    comes from these pairs alone.  Returns (tracer, ops attempted, ops
    failed): the ops of the list, and those that failed on any pass.
    """
    import tracing
    import workloads
    tr = tracing.Tracer()
    wl = workloads.make(name, seed, root)
    wl.setup()
    ops = [op for _ in range(wl.pass_blocks) for op in wl.block()]
    _, failed = traced_pass(wl, ops, tr)
    start = perf_counter()
    while paired and (tr.plain_s == 0.0 or perf_counter() - start < seconds):
        t0 = perf_counter()
        outs = [wl.run(op) for op in ops]
        tr.plain_s += perf_counter() - t0
        for i, (op, (_, value, error)) in enumerate(zip(ops, outs)):
            wl.check(op, value, error)
            if error is not None:
                failed.add(i)
        traced_s, traced_failed = traced_pass(wl, ops, tr)
        tr.traced_s += traced_s
        failed |= traced_failed
    return tr, len(ops), len(failed)


def layer_value(metric, tr):
    def med(span):
        samples = tr.durations.get(span)
        if not samples:
            die(1, f"no {span} spans to measure {metric}")
        return statistics.median(samples)

    if metric == "engine.wrapper_share":
        return 1.0 - (med("kernels.log_split|engine.log_dyadic")
                      / med("engine.log_dyadic"))
    if metric == "cli.import_us":
        return med("cli.import") - med("cli.interp_start")
    if metric.startswith("errors."):
        return tr.errors[metric[len("errors."):]]
    if metric in tr.tallies:
        total, calls = tr.tallies[metric]
        return total / calls
    if metric.endswith((".us", "_us")):
        return med(metric[:-3])
    die(1, f"no rule measures {metric}")


def per_layer(selected, args, spec, mapping):
    """Each per-layer metric from the tracer of the workload it is measured
    on (``layer_map.json``).  Selected workloads run paired passes for
    ``--seconds`` each; every other workload gets one traced pass on the
    same seed, because each run reports every per-layer metric."""
    import workloads
    tracers = {}
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        tr, a, f = traced_run(name, args.seed, args.seconds, str(ROOT),
                              paired=name in selected)
        tracers[name] = tr
        attempted, failed = attempted + a, failed + f
        spans_dir = BUILD / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_file = spans_dir / f"{name}-seed{args.seed}.jsonl"
        tr.write(spans_file)
        emit({"workload": name, "paired": name in selected,
              "spans_file": str(spans_file.relative_to(ROOT)),
              "spans": len(tr.spans), "errors_first_pass": dict(tr.errors)})
    mismatches = [m for tr in tracers.values() for m in tr.mismatches]
    if tracers[selected[0]].other is None:
        emit({"backend_check": "skipped",
              "reason": "logladder._kernels does not import; only the "
                        "active backend was replayed"})
    else:
        emit({"backend_check": "both",
              "kernel_calls_compared": sum(t.compared
                                           for t in tracers.values()),
              "mismatches": mismatches[:20]})
    paired = [tracers[name] for name in selected]
    overhead = (sum(t.traced_s for t in paired)
                / sum(t.plain_s for t in paired) - 1.0)
    out = {}
    for m in spec["per_layer"]:
        source = mapping[m["name"]]["measured_on"]
        if m["name"] == "trace.overhead_frac":
            value = overhead
        elif m["name"] == "kernels.backend_mismatches":
            value = len(mismatches)
        else:
            value = layer_value(m["name"], tracers[source])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        emit({"metric": m["name"], "value": value, "unit": m["unit"],
              **mapping[m["name"]]})
    if mismatches:
        die(1, f"{len(mismatches)} kernel calls differ between backends")
    return out, attempted, failed


def end_to_end_lines(name, args, spec):
    metrics, attempted, failed = end_to_end(name, args.seed, args.seconds,
                                            str(ROOT))
    # failed_frac is printed but is not an end-to-end metric of the
    # contract: it is 0 on bulk_build, and the result line's attempted and
    # failed already carry it
    units = {"failed_frac": "ratio"}
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"])
    for metric, (value, extra) in metrics.items():
        emit({"workload": name, "metric": metric, "value": value,
              "unit": units[metric], **extra})
    out = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
           for m in spec["end_to_end"]}
    return out, attempted, failed


# ------------------------------------------------------------------ main

def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapping = json.loads((HERE / "layer_map.json").read_text())["metrics"]
    names = [m["name"] for m in spec["per_layer"]]
    if sorted(names) != sorted(mapping):
        die(2, "BENCHMARK.json per_layer and layer_map.json list different "
               f"metrics: {sorted(set(names) ^ set(mapping))}")
    return spec, mapping


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "logladder" / "__init__.py").is_file() \
            or not (ROOT / "setup.py").is_file():
        die(2, f"no logladder sources under {ROOT}; run from a full checkout")
    spec, mapping = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        die(2, f"unknown workload {args.workload!r}; choose from {names} or all")
    build()
    sys.path.insert(0, str(SRC))
    os.environ.pop("MELTDOWN_LOG_DEPTH", None)   # both CLI sides use depth 40
    import logladder
    if Path(logladder.__file__).resolve().parent != SRC / "logladder":
        die(2, f"imported logladder from {logladder.__file__}, not {SRC}")
    import tracing
    emit({"header": {
        "backend": logladder.backend_name(),
        "compiled_importable": tracing._compiled is not None,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace}})

    import oracle
    selected = names if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        if args.trace:
            result["metrics"], result["attempted"], result["failed"] = \
                per_layer(selected, args, spec, mapping)
        else:
            for name in selected:
                metrics, attempted, failed = end_to_end_lines(name, args, spec)
                result["attempted"] += attempted
                result["failed"] += failed
                prefix = "" if len(selected) == 1 else name + "."
                result["metrics"].update(
                    {prefix + k: v for k, v in metrics.items()})
    except oracle.WrongResult as exc:
        die(1, f"wrong result: {exc}")
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
