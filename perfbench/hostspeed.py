"""Host-speed probe: scales measured times to a reference host speed.

On a shared 2-vCPU VM the same computation runs at speeds up to 1.6x apart,
in streaks of a few seconds to a minute, because of contention elsewhere on
the host; process CPU time follows wall time, so the slowdown is not steal.
No statistic over one run hides a streak as long as the run. A fixed
reference computation (`kernel`, about 3 ms of pure-Python work) run in
the same process does. Over ten minutes on that VM, 5-second medians of a
Python min-scan probe followed the medians of a `diagram_of_cloud` call, a
w1 solve and a `kde` batch with correlation 0.94-0.98, and the ratio of each
to it spread 2-5% where the raw times spread 12-21%. The same probe run in a
second process on the other vCPU did not follow them (correlation 0.29), so
the probe has to share the workload's process and moment.

A `Meter` times one stretch of the benchmark (a pass or a set-up). It runs
the kernel at the stretch's start and end and, from a SIGALRM handler, every
PROBE_EVERY_S seconds in between, so samples land inside long library calls
too; Python runs the handler in the main thread between bytecodes, after any
C call in progress returns. Each stretch of workload time between two
samples is divided by its slowness, the median kernel time around it over
NOMINAL_S, and the samples' own time is left out. A scaled time reads as it
would on a host where the kernel takes NOMINAL_S; the raw time, without the
samples, is kept alongside it.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import signal
import statistics
import time

import numpy as np

clock = time.perf_counter

PROBE_EVERY_S = 0.125  # interval of the probe timer
NEIGHBOURS = 3  # samples on each side of a gap whose median gives its slowness
# About the median kernel time on the VM the benchmark was tuned on (Intel
# Xeon, 2 vCPUs, Python 3.11.7); a fixed constant, so scaled times compare
# across runs and commits.
NOMINAL_S = 0.003

_N = 60
_ROWS = [[((i * 7919 + j * 104729) % 1000) / 1000.0 for j in range(_N)] for i in range(_N)]
_RNG = random.Random(0)
_BITS = [_RNG.getrandbits(2400) | (1 << 2399) for _ in range(400)]
_PTS = np.random.default_rng(3).random((40, 3))


def _scan() -> float:
    """Min-scans over rows of floats, like the assignment solver's inner loop."""
    total = 0.0
    for _ in range(4):
        v = [0.0] * _N
        for row in _ROWS:
            best = 1e9
            for j in range(_N):
                c = row[j] - v[j]
                if c < best:
                    best = c
            total += best
            v = [x + 1e-3 for x in v]
    return total


def _reduce() -> int:
    """A fixed chain of 2400-bit integer XORs with lookups by top bit, like
    the Z/2 reduction's inner loop."""
    pivot: dict[int, int] = {}
    for col in _BITS[:150]:
        for _ in range(6):
            low = col.bit_length() - 1
            held = pivot.get(low)
            if held is None:
                pivot[low] = col
                break
            col ^= held ^ _BITS[(low * 31) % len(_BITS)]
    return len(pivot)


def _sort_edges() -> int:
    """Tuple-keyed edges built, sorted and ranked, like building a filtration."""
    dist = np.sqrt(((_PTS[:, None] - _PTS[None]) ** 2).sum(-1))
    n = len(_PTS)
    edges = [((i, j), float(dist[i, j])) for i in range(n) for j in range(i + 1, n)]
    edges.sort(key=lambda e: (e[1], len(e[0]), e[0]))
    rank = {verts: k for k, (verts, _) in enumerate(edges)}
    return sum(rank[(i, i + 1)] for i in range(n - 1))


def kernel() -> int:
    """Fixed pure-Python work like the library's hot loops. A matrix product
    is left out: its time followed the persistence layer's far less
    (correlation 0.23 against 0.74-0.76 for each part here)."""
    return int(_scan()) + _reduce() + _sort_edges()


kernel()  # first call pays for lazy set-up; never timed

# The probing Meter that is open, if any. Module state because the SIGALRM
# handler is process-wide.
_open: list = []


def _on_alarm(*_signal) -> None:
    # Installed once and never removed, so a late alarm finds a handler.
    if _open:
        _open[0]._sample()


class Meter:
    """Times one stretch of the benchmark and scales it by the host's speed.

    Use as `with Meter() as meter:`, with `with meter.item(i):` around each
    item's ingest. With `probe=False` no kernel runs and nothing is scaled
    (traced passes). Only one probing Meter may be open at a time.
    """

    def __init__(self, probe: bool = True):
        self.probe = probe
        self.samples: list[tuple[float, float]] = []  # (start, end) of kernel runs
        self.intervals: list[tuple[int, float, float]] = []  # (item, start, end)
        self.begin = self.end = 0.0
        self._sampling = False

    def _sample(self) -> None:
        if self._sampling:  # an alarm that lands in a sample is dropped
            return
        self._sampling = True
        try:
            t0 = clock()
            kernel()
            self.samples.append((t0, clock()))
        finally:
            self._sampling = False

    def __enter__(self) -> "Meter":
        self.begin = clock()
        if self.probe:
            if _open:
                raise RuntimeError("another probing Meter is open")
            if signal.getsignal(signal.SIGALRM) is not _on_alarm:
                signal.signal(signal.SIGALRM, _on_alarm)
            self._sample()
            _open.append(self)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            _open.clear()
            self._sample()
        self.end = clock()

    @contextlib.contextmanager
    def item(self, i: int):
        t0 = clock()
        try:
            yield
        finally:
            self.intervals.append((i, t0, clock()))

    # -- results -------------------------------------------------------------

    def _gaps(self) -> list[tuple[float, float]]:
        """The stretches of workload time between consecutive samples."""
        if not self.probe:
            return [(self.begin, self.end)]
        return [(a[1], b[0]) for a, b in zip(self.samples, self.samples[1:])]

    def slowness(self) -> list[float]:
        """Slowness of each gap: gap k lies between samples k and k+1."""
        if not self.probe:
            return [1.0]
        durs = [b - a for a, b in self.samples]
        return [
            statistics.median(durs[max(0, k + 1 - NEIGHBOURS) : k + 1 + NEIGHBOURS]) / NOMINAL_S
            for k in range(len(durs) - 1)
        ]

    def raw_s(self) -> float:
        """Time of the stretch without the probe samples in it."""
        return sum(b - a for a, b in self._gaps())

    def scaled_s(self) -> float:
        """The stretch's workload time, each gap divided by its slowness."""
        return sum((b - a) / s for (a, b), s in zip(self._gaps(), self.slowness()))

    def items(self, n: int, scaled: bool = True) -> np.ndarray:
        """Summed ingest time of each of the n items, without probe samples,
        scaled or raw."""
        gaps = self._gaps()
        slow = self.slowness() if scaled else [1.0] * len(gaps)
        ends = [b for _, b in gaps]
        out = np.zeros(n)
        for i, a, b in self.intervals:
            k = bisect.bisect_left(ends, a)
            while k < len(gaps) and gaps[k][0] < b:
                lo, hi = max(a, gaps[k][0]), min(b, gaps[k][1])
                out[i] += max(hi - lo, 0.0) / slow[k]
                k += 1
        return out

    def median_slowness(self) -> float:
        return statistics.median(self.slowness())
