"""Set-up probe: one fresh process doing a workload's set-up.

    python3 perfbench/probe.py <workload> <seed> <checkout root>

Times the import of logladder plus the ladders and tables the workload
builds before its first op, then runs the workload's first blocks so the
process reaches its working peak memory, which the parent reads from the
child's resource usage.  Prints {"setup_s": seconds, "cal_s": seconds} as
its only line, where cal_s is the float loop's time right after set-up,
for scaling set-up time to the reference machine speed.
``run.py`` starts it with the checkout's ``src`` on PYTHONPATH.
"""

import json
import statistics
import sys
from time import perf_counter

t0 = perf_counter()
import logladder  # noqa: E402,F401  (the import is what is timed)
t1 = perf_counter()

import workloads  # noqa: E402

wl = workloads.make(sys.argv[1], int(sys.argv[2]), sys.argv[3])
t2 = perf_counter()
wl.setup()
t3 = perf_counter()
cal_s = statistics.median(workloads.float_loop_seconds() for _ in range(3))
for _ in range(wl.probe_blocks):
    for op in wl.block():
        wl.run(op)
print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2), "cal_s": cal_s}))
