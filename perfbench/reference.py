"""The reference slices that ``wall_ref`` divides each repetition by.

The host's speed drifts between processes and within one. On a 2-core
machine the same order-swap scan took 6.6 s to 11.2 s from one repetition to
the next in one process, and a fixed loop timed just before each repetition
did not follow it: the ratio spread as widely as the raw time (coefficient of
variation 20% against 17.5% over ten repetitions), because the speed changes
within a repetition's 8 s.

So the reference is sampled through the repetition instead: a timer
interrupts the program every ``INTERVAL`` seconds and runs one short, fixed
slice of reference work, timed on its own. The repetition's time less the
slices' time, divided by the mean slice time, follows the host's speed over
the same window: with slices of interpreter work alone, the coefficient of
variation over the same kind of ten repetitions fell to 2.3%.

A slice never calls tslattice. Its work is fixed and shaped like the
program's: Python bookkeeping on tuples, frozensets and dicts (surface
handling), a 4x4 Hermitian eigendecomposition (gate exponentials), and a
streaming pass over 2^16 amplitudes (gates and maps on large states).
Interpreter work alone followed ``sweep_wide`` but not ``dense_maps``, and
streaming work alone the reverse; the mix followed both to within 3-5%
over twenty repetitions in one process.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.05
BOOKKEEPING_ROUNDS = 150
STREAM_AMPLITUDES = 1 << 16


class ReferenceSlices:
    """Runs reference slices on a timer while it is entered, and times each.

    ``on_slice`` receives each slice's duration as it ends; the tracer uses
    it to keep slice time out of the span it interrupted.
    """

    def __init__(self, on_slice=None):
        rng = np.random.default_rng(20260217)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._h = h + h.conj().T
        self._stream = np.exp(1j * rng.standard_normal(STREAM_AMPLITUDES))
        self._phase = np.exp(0.01j * np.arange(STREAM_AMPLITUDES))
        self.on_slice = on_slice
        self.times: list[float] = []

    def _slice(self) -> float:
        acc = 0.0
        table = {}
        for k in range(BOOKKEEPING_ROUNDS):
            heights = tuple((k * 7 + 3 * i) % 5 for i in range(8))
            gates = frozenset((i, heights[i]) for i in range(7) if heights[i] == heights[i + 1])
            table[gates] = heights
        w, _ = np.linalg.eigh(self._h)
        moved = self._stream * self._phase
        acc += float(np.vdot(moved, moved).real) + float(w[0]) + len(table)
        return acc

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._slice()
        took = perf_counter() - t0
        self.times.append(took)
        if self.on_slice is not None:
            self.on_slice(took)

    def __enter__(self):
        self.times = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def total(self) -> float:
        return sum(self.times)

    def mean(self) -> float:
        return statistics.fmean(self.times)
