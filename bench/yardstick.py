"""Host-speed yardstick: times in reference seconds.

The benchmark runs on shared virtual machines whose speed changes from one
second to the next.  On the 2-vCPU machine the benchmark was built on, a
fixed Python loop ran in one of two states, a fast one and one 1.4-1.7
times slower, switching every quarter second to several seconds, with the
process CPU time following the wall time (the slowdown is contention for
the physical core, not time taken from the guest).  Whole workload passes
drifted by the same factor, so raw seconds from runs minutes apart differ
by more than any bound a change could be held to.

`Yardstick` measures how fast the host runs while the program runs.  While
installed, an interval timer interrupts the process every INTERVAL_S
seconds and runs a probe: fixed work of one of the kinds in PROBES.
`reference_seconds(t0, t1)` then takes the stretch [t0, t1] of the
program's run, drops the time spent in probes, and weighs each remaining
piece by the host speed around it:

    piece seconds * (probe's reference seconds) / (median time of the
                                                   nearest probes),

the time the piece would take on a host where the probe takes its
reference seconds.  The probes run no program code, so a change to the
program moves only the seconds being weighed.

A child process cannot be probed that way: probes interleaved with it on
its CPU ran twice as slowly as probes before and after it, from the
context switches.  `probe_burst()` times BURST probes back to back and
gives their median, to be run before and after the child.

No probe slows down exactly as the program does, and work of different
kinds slows down by different factors.  Over a minute or more of passes
on the build machine, log(reference seconds) still moved with log(raw
seconds) (a slope of 1 would mean no correction) at these slopes:

    probe      quantize-mix   history-full   stream-long
    arith      +0.27, +0.12   -0.15, -0.06   +0.28
    objects    +0.47, +0.02   -0.38, -0.45   +0.07

so each workload names the probe it uses (workloads.PROBE).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02     # probe period; probes take 0.5-1 % of the run time
NEAREST = 5           # probes whose median gives the speed around a piece
BURST = 11            # probes in one probe_burst()

_VEC = np.linspace(0.0, 1.0, 4096)


def _step(x: float, k: int) -> float:
    return (x * 1.000001 + k) % 1000.0


def _arith():
    """Python calls with float arithmetic, and one array product."""
    acc = 0.0
    for i in range(600):
        acc = _step(acc, i)
    acc += float((_VEC * 1.5) @ _VEC[::-1])
    if not acc > 0.0:
        raise ArithmeticError("probe lost its result")


def _objects():
    """As _arith, plus dict and list updates and small-array arithmetic."""
    acc, table, row = 0.0, {}, []
    for i in range(600):
        acc = _step(acc, i)
        table[i & 63] = acc
        row.append(acc)
        if len(row) == 32:
            row.clear()
    small = np.zeros(4)
    for _ in range(12):
        small = small * 0.5 + acc
    acc += float((_VEC * 1.5) @ _VEC[::-1]) + small[0]
    if not acc > 0.0:
        raise ArithmeticError("probe lost its result")


# kind -> (probe work, its seconds on the reference host).  The reference
# seconds are a definition; each is about the probe's time on the build
# machine with its core uncontended.
PROBES = {"arith": (_arith, 8e-5), "objects": (_objects, 1.4e-4)}


def probe(kind: str) -> float:
    """Run the probe work of `kind` once; return its wall seconds."""
    work = PROBES[kind][0]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def probe_burst(kind: str) -> float:
    """Median seconds of BURST probes of `kind` run back to back."""
    return statistics.median(probe(kind) for _ in range(BURST))


class Yardstick:
    """Probes the host speed on a timer; converts stretches of the run to
    reference seconds.  Use as a context manager around the code timed."""

    def __init__(self, kind: str):
        self.kind = kind
        self.work, self.ref_s = PROBES[kind]
        self.starts = []   # perf_counter at probe start, increasing
        self.ends = []     # perf_counter at probe end
        self.times = []    # probe seconds
        self._saved = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.times.append(t1 - t0)

    def __enter__(self):
        probe(self.kind)  # warm the probe's code before the first tick
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        while len(self.times) < NEAREST:  # a stretch too short for the timer
            self._tick(None, None)
        return False

    def _speed(self, i: int) -> float:
        """Median time of the NEAREST probes around probe index i."""
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return statistics.median(self.times[lo:lo + NEAREST])

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the stretch [t0, t1] without its probes."""
        total, cursor = 0.0, t0
        i = bisect.bisect_left(self.starts, t0)
        while cursor < t1:
            end = min(t1, self.starts[i]) if i < len(self.starts) else t1
            if end > cursor:  # a piece of program time, before probe i
                total += (end - cursor) * self.ref_s / self._speed(
                    min(i, len(self.times) - 1))
            if i >= len(self.starts):
                break
            cursor = max(cursor, self.ends[i])
            i += 1
        return total
