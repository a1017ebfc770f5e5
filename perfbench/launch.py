"""Run one command and record its wall time, exit code and peak RSS.

    python3 perfbench/launch.py RESULT.json TIMEOUT_S PROGRAM [ARGS...]

The command inherits this process's stdin, stdout and stderr.  On Linux a
spawned process's peak RSS (``ru_maxrss``) is at least its parent's peak at
spawn time, so a large harness would hide a small command's peak.  This
launcher is a bare interpreter; its own peak, reported as ``floor_kb``, is
below that of any pktflow command.  The command is killed after TIMEOUT_S
seconds and then reports exit code -9.
"""

import json
import os
import signal
import sys
import time


def vm_hwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    result, timeout, *argv = sys.argv[1:]
    floor = vm_hwm_kb()
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    code = os.waitstatus_to_exitcode(status)
    with open(result, "w", encoding="ascii") as fh:
        json.dump({"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": code,
                   "floor_kb": floor}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
