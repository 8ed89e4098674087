"""Reference-speed calibration.

The machines this benchmark runs on change speed by up to 1.7x over tens
of seconds (shared hosts), which moves every wall-clock figure far more
than the changes the benchmark must detect.  So a background thread times
a short fixed kernel every INTERVAL_S, also while operations run, and each
operation's latency is reported at the reference speed:

    latency_at_ref = latency_wall * REFERENCE_S / kernel_seconds

where `kernel_seconds` is the median of the kernel times sampled from
WINDOW_S before the operation's start to WINDOW_S after its end.  The
kernel does what the program's searches do (walk an adjacency table,
build tuples, insert them into a set and look them up), so it slows down
with the program.  Over six runs of one input set, the quartile spread of
the three latency metrics was 2-5 % scaled against 18-26 % raw on
find-fuzz, and 4-7 % against 20-28 % on sweep; a compute-only kernel,
without the set traffic, left 3-9 % and 6-9 %.  The kernel is the
benchmark's own code, so a change to the program cannot move it.  Raw
wall-clock figures are printed beside every scaled one.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

# Kernel time, in seconds, that defines the reference speed: about the
# kernel's median time on a 2-vCPU x86-64 VM with CPython 3.11.7, so that
# reference milliseconds read close to wall milliseconds there.
REFERENCE_S = 0.0007
INTERVAL_S = 0.1
WINDOW_S = 0.15

_N = 64
_ADJ = tuple(tuple(sorted({(v * 7 + d * 13) % _N for d in range(1, 5)} - {v}))
             for v in range(_N))


def _kernel() -> int:
    """All 3-edge walks without immediate returns from every other vertex,
    stored in a set as tuples, then each looked up reversed."""
    walks = set()
    for c in range(0, _N, 2):
        for a in _ADJ[c]:
            for b in _ADJ[a]:
                if b != c:
                    for x in _ADJ[b]:
                        if x != a and x != c:
                            walks.add((c, a, b, x))
    hits = 0
    for w in walks:
        if (w[3], w[2], w[1], w[0]) in walks:
            hits += 1
    return hits


def kernel_seconds(reps: int = 3) -> float:
    """Fastest of `reps` kernel runs."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factor(kernel: float) -> float:
    return REFERENCE_S / kernel


class SpeedLog:
    """Kernel times with the moment each was taken, sampled by a
    background thread every INTERVAL_S, also while an operation runs: the
    thread takes the interpreter lock for two kernel runs (about 1.5 ms),
    so long operations get their speed measured throughout; `spent`
    records that time so it can be taken out of the operations'."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernels: list[float] = []
        self.spent: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            t0 = time.perf_counter()
            k = kernel_seconds(reps=2)
            self.spent.append(time.perf_counter() - t0)
            self.times.append(t0)
            self.kernels.append(k)
            if self._stop.wait(INTERVAL_S):
                return

    def __enter__(self) -> "SpeedLog":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Scale factor to the reference speed for an operation that ran
        over [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return speed_factor(statistics.median(self.kernels[lo:hi]))

    def kernel_time_within(self, start: float, end: float) -> float:
        """Time the sampler itself took inside [start, end]."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return sum(self.spent[lo:hi])
