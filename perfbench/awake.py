"""Keeps one CPU from halting while the serve-query load runs.

Usage: ``python3 awake.py <cpu>``

A virtual machine whose guest idles its CPUs with a halt instruction (no
cpuidle driver) pays for every wake-up of a halted CPU in the host, and on
a busy host that took milliseconds.  The served latency then measured the
host, not the server.  This process runs on one CPU at ``SCHED_IDLE``
priority and never sleeps, so that CPU never halts; any ordinary thread
that becomes runnable there preempts it at once.  It exits when its parent
does, and its parent also stops it when the load ends.
"""

import os
import sys


def main() -> int:
    cpu = int(sys.argv[1])
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    while os.getppid() == parent:
        for _ in range(100_000):
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
