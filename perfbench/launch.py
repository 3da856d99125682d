"""Start one permrex CLI command under the benchmark's guards.

    python3 launch.py READY_FD AS_LIMIT_BYTES <permrex argv...>

The memory cap is set in this child only, so a runaway command fails on
its own instead of taking the machine down.  The child is pinned to one CPU
for the import only: the numpy it imports starts a BLAS worker thread per
CPU it may run on, and whether that thread competes with the import depends
on how busy the host keeps the other CPU, which swung set-up time by a
third.  Pinned while numpy loads, the BLAS library starts no workers.  The
saved CPU mask is restored before the command runs, so threads or processes
the command starts may use every CPU.  Before the import, the child times
two fixed pure-Python loops: the speed of the CPU this command runs on, at
this moment.  Once `permrex.cli` is imported and about to parse argv, one
line goes to READY_FD: the seconds the loops took in all, the reference
time (the fastest runs of the two loops, summed), the CPU seconds the loops
used, and the CLOCK_MONOTONIC reading.  The command then runs as
`python -m permrex.cli <argv...>` would.

At exit the child times the loops again, for long commands during which
the machine's speed moved, and writes a second line: the same three loop
figures and its own peak resident set (VmHWM, in kB).  The parent cannot
use the child's ru_maxrss for the peak: Linux carries the spawning
process's high-water mark into it across exec.  The parent takes the loops'
time out of the command's.
"""

import atexit
import os
import resource
import sys
import time


REFERENCE_LOOPS = 70_000
REFERENCE_ENTRIES = 15_000
REFERENCE_REPEATS = 3


def arithmetic() -> None:
    x = 0
    for i in range(REFERENCE_LOOPS):
        x += i * i


def allocation() -> None:
    table = {}
    for i in range(REFERENCE_ENTRIES):
        table[i, i + 1] = [i]


def reference() -> float:
    """Fastest of a few timings of each of two fixed loops, summed; the
    fastest skips any interruption.  The allocating loop is there because
    `lemmas`, `len` and `oracle`, which allocate many small objects, track
    the sum more closely: on a busy 2-CPU virtual machine their times over
    the arithmetic loop's alone spread by 13-15 % across repeats, over the
    sum by 10-11 %.  For `gen` and `verify` the two did equally well."""
    total = 0.0
    for loop in (arithmetic, allocation):
        best = float("inf")
        for _ in range(REFERENCE_REPEATS):
            started = time.perf_counter()
            loop()
            best = min(best, time.perf_counter() - started)
        total += best
    return total


def timed_reference() -> str:
    """The loops' total seconds, reference time and CPU seconds, as text."""
    started, cpu_started = time.monotonic(), time.process_time()
    measured = reference()
    spent, cpu_spent = time.monotonic() - started, time.process_time() - cpu_started
    return f"{spent!r} {measured!r} {cpu_spent!r}"


def report_exit(fd: int) -> None:
    with open("/proc/self/status", encoding="ascii") as status:
        peak_kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    os.write(fd, f"{timed_reference()} {peak_kb}".encode())
    os.close(fd)


def main() -> None:
    ready_fd, limit, *argv = sys.argv[1:]
    resource.setrlimit(resource.RLIMIT_AS, (int(limit), int(limit)))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    loop = timed_reference()
    import permrex.cli

    os.sched_setaffinity(0, cpus)
    fd = int(ready_fd)
    os.write(fd, f"{loop} {time.monotonic()!r}\n".encode())
    atexit.register(report_exit, fd)
    sys.argv = ["permrex", *argv]
    permrex.cli.main()


if __name__ == "__main__":
    main()
