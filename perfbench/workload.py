"""Run one benchmark workload in this process and print its result.

    python3 perfbench/workload.py WORKLOAD SEED SECONDS TRACE WORKDIR

``run.py`` starts this script once per workload, so that the peak resident
memory it reports belongs to that workload alone.  The last stdout line is a
JSON object with the measurements.

The load is a closed loop with one caller: each command is
``infobs.cli.main(argv)`` with its output captured, issued only after the
previous one returned.  Commands run in-process because interpreter start-up
would swamp the few milliseconds a small command takes.  One *pass* is the
workload's fixed command sequence; passes repeat until the time is used.
"""

import os
import sys
import time


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir = argv
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    # Timed before anything else is imported, so the import pays for the
    # standard modules the package needs, as it does for a user.
    started = time.thread_time()
    import infobs.cli
    import_s = time.thread_time() - started

    from harness import run_workload
    return run_workload(infobs, import_s, name, int(seed), float(seconds),
                        trace == "1", workdir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
