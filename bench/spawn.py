"""Starts the benchmark's measured processes, one at a time, on request.

    python3 bench/spawn.py

Reads one JSON request a line from standard input,
``{"argv": [...], "stdout": PATH, "timeout": SECONDS}``, runs ``argv`` in
the current directory with its standard output sent to PATH, and answers
one JSON line, ``{"code": ..., "wall": ..., "cpu": ..., "maxrss_kb": ...}``.
``code`` is null when the process was killed at its timeout. It ends at the
end of its input.

bench/run.py starts its processes through this one because Linux carries
a parent's peak resident set into the ``ru_maxrss`` of a child that it
starts: the child runs in the parent's memory until it execs. The
benchmark holds the checkers' data, which would set a floor under every
peak it measured; this process stays small, so the peak is the child's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], stdout_path: str, timeout: float) -> dict:
    """Run one process to its end and take its own resource usage from wait4.

    A blocking wait4 ends exactly when the process does, where
    Popen.wait(timeout) polls and adds up to 50 ms.
    """
    killed = threading.Event()
    with open(stdout_path, "wb") as stdout:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=stdout)

        def kill() -> None:
            killed.set()
            proc.kill()

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": None if killed.is_set() else proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,  # Linux reports KiB
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
