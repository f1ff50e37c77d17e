"""Probe-bracketed timing, percentiles, peak memory and the fingerprint.

A run is a sequence of timed segments.  Before the first segment and
after every segment the program is quiescent (engine drained, pool
idle, telemetry pumped) and the reference probe takes a reading; a
segment's wall time is scaled by ``nominal / reading`` around it (see
:class:`Recorder`).  Every op latency inside a segment gets the same
scale.  The run stops once the *normalised* time reaches the budget, so
a run does the same amount of work whatever phase the host is in, and
the sample count that picks the tail percentile stays put.
"""

import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from multiprocessing import resource_tracker

import numpy as np

from probe import PROBE_NOMINAL_MS

#: Tail percentiles a run may fall back to.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
_TAIL_BEYOND = 10


class Recorder:
    """Raw segment times and probe readings of one measured phase.

    Segment ``i`` is bracketed by readings ``i`` and ``i + 1``.  Its scale
    is ``nominal / median`` of those two and of every reading taken within
    ``SMOOTH_S`` of the segment's midpoint: host speed phases last
    seconds, far longer than a segment, while a single ~6 ms reading
    jitters, so the windowed median tracks the phase without importing
    the jitter.
    """

    SMOOTH_S = 0.25

    def __init__(self, probe, budget_s: float, wall_cap_s: float, tail_pct: float):
        self.probe = probe
        self.tail_pct = tail_pct
        self.budget_s = budget_s
        self.wall_cap_s = wall_cap_s
        self.ops = 0
        self.failed = 0
        self._started = time.perf_counter()
        self.reading_at = [self._started]
        self.readings = [probe.measure()]
        self.segment_raw_s = []
        self.segment_mid = []
        self.segment_latencies_s = []
        self._norm_estimate_s = 0.0

    def more(self) -> bool:
        return (
            self._norm_estimate_s < self.budget_s
            and time.perf_counter() - self._started < self.wall_cap_s
        )

    def close_segment(self, raw_s, ops, failed, latencies_s) -> float:
        """Probe the quiescent program; returns the bracket's scale."""
        now = time.perf_counter()
        self.reading_at.append(now)
        self.readings.append(self.probe.measure())
        factor = self.probe.factor(self.readings[-2], self.readings[-1])
        self._norm_estimate_s += raw_s * factor
        self.segment_raw_s.append(raw_s)
        self.segment_mid.append(now - raw_s / 2.0)
        self.segment_latencies_s.append(np.asarray(latencies_s, dtype=np.float64))
        self.ops += ops
        self.failed += failed
        return factor

    def factors(self) -> np.ndarray:
        at = np.asarray(self.reading_at)
        readings = np.asarray(self.readings)
        out = np.empty(len(self.segment_raw_s))
        for i, mid in enumerate(self.segment_mid):
            lo = min(i, np.searchsorted(at, mid - self.SMOOTH_S))
            hi = max(i + 2, np.searchsorted(at, mid + self.SMOOTH_S, side="right"))
            out[i] = PROBE_NOMINAL_MS / np.median(readings[lo:hi])
        return out

    @property
    def raw_s(self) -> float:
        return float(sum(self.segment_raw_s))

    def summary(self):
        factors = self.factors()
        raw_ms = np.concatenate(self.segment_latencies_s) * 1000.0
        norm_ms = (
            np.concatenate(
                [lat * f for lat, f in zip(self.segment_latencies_s, factors)]
            )
            * 1000.0
        )
        tail_pct, tail_norm, n = tail(norm_ms, self.tail_pct)
        __, tail_raw, __ = tail(raw_ms, self.tail_pct)
        raw_s = self.raw_s
        norm_s = float(np.dot(self.segment_raw_s, factors))
        return {
            "ops": self.ops,
            "failed": self.failed,
            "segments": len(self.segment_raw_s),
            "norm_s": norm_s,
            "raw_s": raw_s,
            "throughput_per_s": self.ops / norm_s,
            "raw_throughput_per_s": self.ops / raw_s,
            "latency_p50_ms": float(np.median(norm_ms)),
            "raw_latency_p50_ms": float(np.median(raw_ms)),
            "latency_tail_ms": tail_norm,
            "raw_latency_tail_ms": tail_raw,
            "tail_percentile": tail_pct,
            "latency_samples": n,
            "probe_median_ms": float(np.median(self.readings)),
            "percentiles_ms": {
                str(pct): float(np.percentile(norm_ms, pct))
                for pct in (50.0, 90.0, 99.0, 99.9)
            },
        }


def tail(samples, pct: float):
    """(percentile, value, n) at ``pct``, or at the highest lower rung of
    the ladder when fewer than 10 samples lie beyond ``pct``."""
    n = len(samples)
    for rung in _TAIL_LADDER:
        if rung <= pct and n * (100.0 - rung) / 100.0 >= _TAIL_BEYOND:
            return rung, float(np.percentile(samples, rung)), n
    return 50.0, float(np.percentile(samples, 50.0)), n


def timed_setups(probe, build, repeats: int):
    """Run ``build`` ``repeats`` times, each bracketed by the probe.

    Returns ``(median normalised seconds, raw seconds list, last state)``;
    every earlier state is closed as soon as the next one is built.
    """
    normalised, raw = [], []
    state = None
    before = probe.measure()
    for __ in range(repeats):
        if state is not None:
            state.close()
        started = time.perf_counter()
        state = build()
        elapsed = time.perf_counter() - started
        after = probe.measure()
        raw.append(elapsed)
        normalised.append(elapsed * probe.factor(before, after))
        before = after
    return statistics.median(normalised), raw, state


def stop_children() -> None:
    """Stop and reap every process this run started.

    Kernel-pool workers are normally joined when their pool closes; any
    left by an error path are terminated here.  The first shared-memory
    segment also starts ``multiprocessing``'s resource tracker, which
    nothing joins: it exits only after this process does, and then sits
    unreaped.  Closing its pipe here makes it exit (unlinking any segment
    still registered) and waits for it, so no process outlives the run.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    """(vendor/config string, threads in use) of numpy's BLAS."""
    import ctypes

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    vendor = f"{config.get('name')} {config.get('version')}"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return vendor, threads


def fingerprint(probe) -> dict:
    vendor, threads = _blas()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "blas_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "probe_nominal_ms": PROBE_NOMINAL_MS,
        "probe_median_ms": probe.median_ms(),
    }
