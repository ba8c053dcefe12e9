"""Start child processes one at a time from a small helper process.

Linux carries a process's peak resident memory across exec, and a spawned
child starts out sharing its parent's memory, so a child started straight
from the benchmark process reports at least the benchmark's own peak.
Started from this helper, which imports almost nothing, a child reports
its own peak, or the helper's (about 10 MB) if that were larger.

``spawn`` is the benchmark's side.  Run as a script, the helper reads one
JSON request per line on stdin, ``[argv, timeout, out_path, err_path]``,
runs it with the helper's environment and answers one JSON line,
``[seconds, exit code or null when killed, peak RSS in MB]``.  It exits
when its stdin closes.
"""

import json
import os
import select
import sys
from time import perf_counter

_helper = None     # (environment, Popen) of the running helper


def run_child(argv, timeout, out_path, err_path):
    """Run one child with stdout/stderr to files; kill it after ``timeout``.

    Returns (seconds, exit code or None when killed, peak RSS in MB).  The
    child is always reaped before this returns.
    """
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
    t0 = perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    killed = False
    fd = os.pidfd_open(pid)
    try:
        if not select.select([fd], [], [], timeout)[0]:
            os.kill(pid, 9)
            killed = True
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(fd)
    seconds = perf_counter() - t0
    code = None if killed else os.waitstatus_to_exitcode(status)
    return seconds, code, usage.ru_maxrss / 1024.0


def _stop():
    global _helper
    if _helper is not None:
        _helper[1].stdin.close()
        _helper[1].wait()
        _helper = None


def spawn(argv, env, timeout, out_path, err_path):
    """Run one child through the helper, which runs with ``env``; same
    result as ``run_child``.  The helper starts on first use, and again
    when ``env`` changes; it is stopped at exit."""
    global _helper
    import atexit
    import subprocess
    if _helper is None or _helper[0] != env:
        _stop()
        proc = subprocess.Popen([sys.executable, "-I", "-S", __file__],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=env, text=True)
        _helper = (dict(env), proc)
        atexit.register(_stop)
    proc = _helper[1]
    proc.stdin.write(json.dumps([argv, timeout, out_path, err_path]) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"spawn helper exited {proc.wait()}")
    return tuple(json.loads(line))


if __name__ == "__main__":
    for request in sys.stdin:
        print(json.dumps(run_child(*json.loads(request))), flush=True)
