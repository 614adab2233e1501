"""Normalised seconds: a calibration kernel and the clock that interleaves it.

The sandbox's speed differs by more than ten percent from one process to
the next and drifts by as much inside one (CPU time tracks wall time, so it
is machine speed, not the scheduler) — wider than any bound a PR could be
gated on.  Measured work is therefore cut into short *intervals* (tens of
milliseconds), each followed by samples of a fixed kernel, and host times
are reported in *normalised seconds*::

    interval seconds * CAL_REF / mean(calibration samples around it)

— what the work would have taken on the machine, and in the moment, where
one kernel run takes ``CAL_REF`` seconds.  One sample is as noisy as the
work it brackets, so a single reading normalises nothing; a few hundred of
them spread through a run do.

The kernel uses builtins only (modular multiplication on 254-bit integers,
``heapq`` push/pop, dict updates) and imports nothing from ``repro``: no
optimisation of the repository can make it faster, so a normalised second
means the same thing on every commit.  The mix mirrors what the fleet spends
its time on — bigint field arithmetic (Poseidon), heap traffic (the event
loop) and small-dict bookkeeping (routers, stats).  It allocates nothing the
garbage collector tracks, so it never pays for a collection of the
deployment's heap.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Median seconds of one :func:`kernel` run on the reference sandbox when
#: ``ledger/BENCH_11.json`` was recorded.  Frozen: changing it rescales
#: every host-time metric of every later ledger.
CAL_REF = 0.00200

#: Work seconds per calibration sample; with a ~2 ms kernel this keeps the
#: kernel at 5-10 % of measured time.
PERIOD = 0.030
#: Calibration samples that normalise one interval: the nearest ones on the
#: timeline (about a third of a second either side), averaged without the
#: ``TRIM`` lowest and highest.  Work integrates every speed the machine
#: passes through, so a mean matches it better than a median; the trimming
#: is for the sample that was descheduled.  Chosen on forty recorded
#: timelines: shorter windows follow drift better, longer ones average the
#: samples' own noise better, and between 15 and 31 neither wins.
WINDOW = 21
TRIM = 2
#: Most samples taken at one tick, after an interval that could not be cut
#: (one simulator event that applies a whole block, say).
MAX_BURST = 24

#: BN254 scalar field modulus — same operand width as the repo's Poseidon.
_P = 21888242871839275222246405745257275088548364400416034343698204186575808495617


def kernel() -> int:
    """One fixed unit of work; the return value keeps it from being elided."""
    x = 0x1D3C9B7F5A2E4C6D8F0B1A3957E2C4D6A8B0C1E3F507192B4D6F8A0C2E4F6071
    acc = 0
    for i in range(700):
        x = (x * x % _P) * x % _P + i
    heap: list[int] = []
    push, pop = heapq.heappush, heapq.heappop
    for i in range(900):
        push(heap, ((i * 7919) % 1009 << 20) | i)
    while heap:
        acc += pop(heap)
    counts: dict[int, int] = {}
    for i in range(7000):
        key = i & 255
        counts[key] = counts.get(key, 0) + i
    return acc ^ len(counts) ^ (x & 0xFF)


def sample() -> float:
    """``perf_counter`` seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def _trimmed_mean(window: list[float]) -> float:
    kept = sorted(window)[TRIM:-TRIM] if len(window) > 4 * TRIM else window
    return statistics.fmean(kept)


class Clock:
    """A timeline of work intervals, each followed by calibration samples.

    The code being measured calls :meth:`tick` wherever it can be
    interrupted; once ``PERIOD`` seconds of work have accumulated the
    interval is closed and one sample per ``PERIOD`` is taken.  :meth:`cut`
    closes the open interval unconditionally and returns the position of the
    next one, so callers can name ranges of the timeline (a set-up, a group
    of rounds) and ask for their normalised seconds afterwards.
    """

    def __init__(self) -> None:
        #: Raw and CPU seconds of each closed interval.
        self.raw: list[float] = []
        self.cpu: list[float] = []
        #: Every calibration sample, in the order taken.
        self.samples: list[float] = []
        #: Per interval: how many samples had been taken when it closed.
        self.taken: list[int] = []
        self._factors: list[float] | None = None
        self._open_raw = 0.0
        self._open_cpu = 0.0
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def pause(self) -> None:
        """Stop timing; the open interval keeps what it has so far."""
        self._open_raw += time.perf_counter() - self._wall
        self._open_cpu += time.process_time() - self._cpu

    def resume(self) -> None:
        """Time from now on (after a pause, or work that is not to be measured)."""
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    @property
    def position(self) -> int:
        """Index of the interval now open."""
        return len(self.raw)

    def tick(self) -> None:
        self.pause()
        if self._open_raw >= PERIOD:
            self._close()
        self.resume()

    def cut(self) -> int:
        self.pause()
        if self._open_raw > 0.0:
            self._close()
        self.resume()
        return self.position

    def _close(self) -> None:
        self.raw.append(self._open_raw)
        self.cpu.append(self._open_cpu)
        self.taken.append(len(self.samples))
        burst = min(MAX_BURST, round(self._open_raw / PERIOD))
        # The first interval is never left without a sample to be read by.
        for _ in range(burst if self.samples else max(1, burst)):
            self.samples.append(sample())
        self._open_raw = self._open_cpu = 0.0
        self._factors = None

    # -- reading the timeline ------------------------------------------------

    def factor(self, interval: int) -> float:
        """``CAL_REF / local calibration`` for one closed interval."""
        if self._factors is None:
            samples, half = self.samples, WINDOW // 2
            last = max(0, len(samples) - WINDOW)
            self._factors = [
                CAL_REF / _trimmed_mean(samples[low:low + WINDOW])
                for low in (min(last, max(0, taken - half)) for taken in self.taken)
            ]
        return self._factors[interval]

    def raw_s(self) -> float:
        return sum(self.raw)

    def cpu_s(self) -> float:
        return sum(self.cpu)

    def norm_s(self, start: int = 0, stop: int | None = None) -> float:
        stop = len(self.raw) if stop is None else stop
        return sum(self.raw[i] * self.factor(i) for i in range(start, stop))

    @property
    def cal_s(self) -> float:
        """Seconds spent in the kernel (not part of any interval)."""
        return sum(self.samples)
