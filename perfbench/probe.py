"""The frozen reference probe that calibrates every timed segment.

The host this benchmark runs on changes speed in phases that last
seconds: the same pure-Python loop takes anywhere from 87 to 223 ms.
No raw wall-clock figure repeats under that, so every timed segment is
bracketed by this probe, run while the program under test is quiescent,
and the segment's wall time is scaled by ``PROBE_NOMINAL_MS / measured``.

The probe's work is fixed here and must never change: it is the
instrument's calibration standard, not part of the program under test.
It mixes the kinds of work the measured code does - interpreter work
(heap and dict traffic) and small numpy kernels - because a pure-Python
probe tracks numpy-heavy segments badly.
"""

import heapq
import statistics
import time

import numpy as np

#: Probe time, in ms, that normalised figures are expressed against.
#: Fixed once, near this probe's typical time on a 2-core Xeon, and never
#: re-measured: changing it rescales every normalised metric.
PROBE_NOMINAL_MS = 2.5

#: Repeats per probe reading; the median damps single interrupts.
_REPEATS = 3
_PY_STEPS = 1000
_SMALL_STEPS = 60
_MATMUL_STEPS = 12


def _kernel(matrix, vector, rows, stream) -> float:
    """One pass of the fixed work; the mix was chosen by regressing
    segment times of all four workloads on candidate probes across host
    speed phases: interpreter heap/dict work, serving-shaped small-array
    numpy calls, small matmuls and one streaming pass over 8 MB."""
    heap = []
    table = {}
    state = 12345
    for step in range(_PY_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, state)
        table[state & 1023] = step
        if len(heap) > 64:
            heapq.heappop(heap)
    picked = 0
    for step in range(_SMALL_STEPS):
        batch = np.stack(rows[step % 8 : step % 8 + 8])
        flipped = np.ascontiguousarray(batch[:, ::-1])
        picked += int(np.argmax((flipped * 2.0).sum(axis=1)))
    acc = vector
    for __ in range(_MATMUL_STEPS):
        acc = matrix @ acc
        acc = acc / (np.abs(acc).sum() + 1.0)
    return float(acc.sum()) + float(stream.sum()) + picked + len(table)


class ReferenceProbe:
    """Times the fixed kernel; one reading is the median of a few runs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240101)
        self._args = (
            rng.normal(size=(64, 64)),
            rng.normal(size=(64, 8)),
            list(rng.normal(size=(16, 6))),
            rng.normal(size=1 << 20),
        )
        self.readings_ms = []

    def measure(self) -> float:
        """One probe reading in ms; also kept in :attr:`readings_ms`."""
        times = []
        for __ in range(_REPEATS):
            started = time.perf_counter()
            _kernel(*self._args)
            times.append((time.perf_counter() - started) * 1000.0)
        reading = statistics.median(times)
        self.readings_ms.append(reading)
        return reading

    @staticmethod
    def factor(before_ms: float, after_ms: float) -> float:
        """Scale for a segment bracketed by two readings."""
        return PROBE_NOMINAL_MS / ((before_ms + after_ms) / 2.0)

    def median_ms(self) -> float:
        return statistics.median(self.readings_ms) if self.readings_ms else 0.0
