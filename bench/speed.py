"""Host speed factor: how much slower than the reference machine this host
runs pure-Python code at the moment of measuring.

The benchmark runs on shared virtual machines whose speed drifts between
states up to twice apart, for seconds to minutes at a time; child CPU time
tracks wall time, so the drift is not steal time that CPU accounting could
remove.  Medians within a run cannot remove drift that lasts as long as the
run.  So the benchmark times two fixed pure-Python kernels of its own right
before and right after every CLI command, takes the mean of the two speed
factors, and reports the command's wall time divided by that factor raised
to ELASTICITY: its wall time at reference speed.  The kernels are the
benchmark's and never the program's, so a change to the program moves the
command's time and not the factor.

A command that keeps several CPUs busy (the sweeps' worker pool) is
bracketed by ParallelSpeed instead: the kernels run in that many processes
at once, so the factor also sees a CPU that another tenant is using and the
contention between the benchmark's own CPUs.

The two kernels differ in character (integer arithmetic with a dict and a
list; a bitmask sweep with tuple lookups and a generator, like the program's
scans), and the factor is their geometric mean, so that neither kernel's
own sensitivity decides it alone.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

REPS = 5

# How strongly ccelab's commands follow the kernels: fitted over about 600
# bracketed commands (dk queries and acyclic sweeps) on the reference
# machine, log(command time) rose by 0.6 to 0.7 per unit of log(factor);
# the commands run longer than a kernel and average out part of the drift.
ELASTICITY = 0.7

# Median kernel times on the reference machine (a 2-vCPU Linux VM running
# Python 3.11 in its fast state).  A factor of 1.0 means reference speed.
REFERENCE_S = {"arith": 0.0117, "scan": 0.0053}


def _arith() -> int:
    acc = 0
    seen = {}
    buckets = [0] * 64
    for m in range(40_000):
        x = (m * 2_654_435_761) & 0xFFFFF
        buckets[x & 63] += x >> 7
        if x & 1:
            acc ^= x
        seen[x & 1023] = m
        acc += len(seen) & (m | 3)
    return acc


_N = 4
_ROW = (1 << _N) - 1
_SHIFTS = tuple(v * _N for v in range(_N))


def _deposit_table(positions) -> tuple:
    table = []
    for c in range(1 << len(positions)):
        m = 0
        for i, pos in enumerate(positions):
            if (c >> i) & 1:
                m |= 1 << pos
        table.append(m)
    return tuple(table)


_POSITIONS = [u * _N + v for u in range(_N) for v in range(_N) if u != v]
_LO = _deposit_table(_POSITIONS[:6])
_HI = _deposit_table(_POSITIONS[6:])


def _bits(m: int):
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _acyclic(rows) -> bool:
    alive = _ROW
    removed = True
    while alive and removed:
        removed = False
        for v in _bits(alive):
            if not (rows[v] & alive):
                alive ^= 1 << v
                removed = True
    return alive == 0


def _scan() -> int:
    """Count the labeled DAGs on four vertices (543) among all 4096
    loopless digraphs."""
    kept = 0
    for c in range(1 << len(_POSITIONS)):
        mask = _LO[c & 63] | _HI[c >> 6]
        if _acyclic([(mask >> s) & _ROW for s in _SHIFTS]):
            kept += 1
    return kept


KERNELS = (("arith", _arith), ("scan", _scan))


def speed_factor() -> float:
    """Geometric mean over the kernels of their median time over REPS
    runs, each relative to its reference time.  Above 1 means slower."""
    logs = []
    for name, kernel in KERNELS:
        times = []
        for _ in range(REPS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        logs.append(math.log(statistics.median(times) / REFERENCE_S[name]))
    return math.exp(sum(logs) / len(logs))


class ParallelSpeed:
    """speed_factor() measured in `workers` helper processes at once (this
    file run as a script); their geometric mean.  Call close() to stop the
    helpers; a helper also ends when its standard input closes."""

    def __init__(self, workers: int) -> None:
        self._procs = [
            subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
            for _ in range(workers)
        ]

    def __call__(self) -> float:
        for proc in self._procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        logs = [math.log(float(proc.stdout.readline())) for proc in self._procs]
        return math.exp(sum(logs) / len(logs))

    def close(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


if __name__ == "__main__":
    # Helper of ParallelSpeed: one factor per line read.
    for _ in sys.stdin:
        print(speed_factor(), flush=True)
