"""Machines, requests and micro-services for the deployment simulation.

Each micro-service is an M/G/c-style station: ``concurrency`` parallel
workers (defaulting to the host machine's vCPUs — or a large batch width for
the GPU-backed impact service), a bounded FIFO queue, and a payload-aware
service-time model calibrated against our real metric implementations and
the latencies the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.gateway.simulation import Simulator
from repro.gateway.station import Station
from repro.tracing import NULL_SPAN, NULL_TRACER, SpanContext


@dataclass(frozen=True)
class Machine:
    """One deployment host from Fig. 8(a)."""

    name: str
    vcpus: int
    ram_gb: int
    gpu: bool = False

    def __post_init__(self) -> None:
        if self.vcpus < 1 or self.ram_gb < 1:
            raise ValueError("machines need at least 1 vCPU and 1 GB RAM")


@dataclass
class Request:
    """One client request routed through the gateway."""

    request_id: int
    route: str
    payload: str = "tabular"  # "tabular" | "image"
    created_at: float = 0.0


@dataclass
class RequestRecord:
    """Lifecycle of one request, used by the summary listeners."""

    request: Request
    arrival: float
    start: float = 0.0
    end: float = 0.0
    success: bool = True
    error: str = ""
    #: Root span context of the trace this request ran under (``None``
    #: when tracing is off).  The load generator copies it onto the
    #: telemetry events it publishes — the exemplar link from rollup
    #: buckets back to recorded traces.
    trace: Optional[SpanContext] = None

    @property
    def response_time(self) -> float:
        """Seconds from arrival at the gateway to the response."""
        return self.end - self.arrival

    @property
    def wait_time(self) -> float:
        """Seconds spent queued before a worker picked the request up."""
        return self.start - self.arrival


class ServiceTimeModel:
    """Payload-conditional lognormal service times.

    Parameters
    ----------
    base_seconds:
        Payload kind → median service time in seconds.
    jitter:
        Lognormal sigma (relative spread); 0 gives deterministic times.
    seed:
        RNG seed; every sample is reproducible.
    """

    def __init__(
        self,
        base_seconds: Dict[str, float],
        jitter: float = 0.15,
        seed: int = 0,
    ) -> None:
        if not base_seconds:
            raise ValueError("base_seconds must define at least one payload kind")
        if any(v <= 0 for v in base_seconds.values()):
            raise ValueError("service times must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.base_seconds = dict(base_seconds)
        self.jitter = jitter
        self._rng = np.random.default_rng(seed)

    def sample(self, payload: str) -> float:
        """Draw one service time for a payload kind."""
        if payload not in self.base_seconds:
            raise KeyError(
                f"service does not handle payload {payload!r}; "
                f"supported: {sorted(self.base_seconds)}"
            )
        base = self.base_seconds[payload]
        if self.jitter == 0:
            return base
        return float(base * self._rng.lognormal(0.0, self.jitter))

    def sample_batch(self, payload: str, n: int) -> np.ndarray:
        """Draw ``n`` service times in one vectorized call.

        Feeds the per-service refill buffer on the columnar hot path: one
        generator call per few thousand requests instead of one per
        request.  The batch consumes the generator stream differently
        from ``n`` scalar :meth:`sample` calls, so the two paths are
        statistically identical but not draw-for-draw identical.
        """
        if payload not in self.base_seconds:
            raise KeyError(
                f"service does not handle payload {payload!r}; "
                f"supported: {sorted(self.base_seconds)}"
            )
        if n < 1:
            raise ValueError("n must be >= 1")
        base = self.base_seconds[payload]
        if self.jitter == 0:
            return np.full(n, base)
        return base * self._rng.lognormal(0.0, self.jitter, size=n)

    def supports(self, payload: str) -> bool:
        return payload in self.base_seconds


CompletionCallback = Callable[[RequestRecord], None]


class MicroService(Station):
    """A metric micro-service: the columnar :class:`Station` plus the
    traced record path.

    Parameters
    ----------
    name:
        Route name (e.g. ``"shap"``).
    machine:
        Host machine; default worker count is its vCPU count.
    service_time:
        Payload-aware :class:`ServiceTimeModel`.
    concurrency:
        Parallel in-flight requests (overrides vCPUs; the GPU impact
        service uses a large batch width here).
    queue_capacity:
        Waiting-room size; arrivals beyond it fail fast with a 503-style
        error, which is what JMeter's error-rate column counts.
    stages:
        Optional ordered mapping of pipeline stage name → relative weight
        (e.g. ``{"pipeline.preprocess": 1, "pipeline.predict": 4,
        "pipeline.explain": 5}``).  When a traced request finishes, the
        sampled service time is partitioned proportionally into child
        spans of the processing span — a stage-level profile of where the
        service time went, materialised retroactively without scheduling
        extra simulator events.

    The record path (:meth:`submit`) and the columnar row path share one
    FIFO, so trace-sampled requests interleave with row requests in true
    arrival order; record entries are the one queue-entry kind the
    station hands back here (:meth:`_start_record`).
    """

    def __init__(
        self,
        name: str,
        machine: Machine,
        service_time: ServiceTimeModel,
        concurrency: Optional[int] = None,
        queue_capacity: int = 1000,
        stages: Optional[Dict[str, float]] = None,
    ) -> None:
        if stages is not None:
            if not stages:
                raise ValueError("stages mapping must not be empty")
            if any(w <= 0 for w in stages.values()):
                raise ValueError("stage weights must be positive")
        super().__init__(
            name,
            None,
            service_time,
            machine.vcpus if concurrency is None else concurrency,
            queue_capacity,
        )
        self.machine = machine
        self.stages = dict(stages) if stages else None
        #: Optional completion hook ``probe(tracer, span, record)`` fired
        #: when a request finishes processing, with the processing span as
        #: ``span`` (the :data:`~repro.tracing.span.NULL_SPAN` when
        #: tracing is off).  The capacity scenario wires this to a traced
        #: sensor poll, attaching real AI-trust measurements to the
        #: request's trace.
        self.probe: Optional[Callable] = None
        #: Record-path outcomes (the row path keeps counters only).
        self.completed: List[RequestRecord] = []
        #: Record-path queue-full rejections (rows: ``rejected_rows``).
        self.rejected: int = 0

    def submit(
        self,
        request: Request,
        sim: Simulator,
        on_complete: CompletionCallback,
        tracer=NULL_TRACER,
        parent=None,
    ) -> None:
        """Accept (or reject) a request at the current virtual time.

        ``parent`` is the caller's span (the gateway's request root);
        queueing, processing and rejection each become child spans when
        ``tracer`` is recording.
        """
        record = RequestRecord(request=request, arrival=sim.now)
        if not self.service_time.supports(request.payload):
            record.success = False
            record.error = f"unsupported payload {request.payload!r}"
            record.start = record.end = sim.now
            if tracer.is_recording:
                self._reject_span(record, sim, tracer, parent)
            self.completed.append(record)
            on_complete(record)
            return
        if self._busy < self.concurrency:
            self._start(record, sim, on_complete, tracer, parent)
        elif len(self._waiting) < self.queue_capacity:
            queue_span = NULL_SPAN
            if tracer.is_recording:
                queue_span = tracer.start_span(
                    "service.queue", parent=parent, start_time=sim.now
                )
                queue_span.set_attribute("service", self.name)
                queue_span.set_attribute(
                    "queue_depth", float(len(self._waiting))
                )
            self._waiting.append(
                (record, sim, on_complete, tracer, parent, queue_span)
            )
            self._peak_queue = max(self._peak_queue, len(self._waiting))
        else:
            self.rejected += 1
            record.success = False
            record.error = "queue full (503)"
            record.start = record.end = sim.now
            if tracer.is_recording:
                self._reject_span(record, sim, tracer, parent)
            self.completed.append(record)
            on_complete(record)

    def _reject_span(self, record: RequestRecord, sim, tracer, parent) -> None:
        """Record a fail-fast rejection as an instant error span."""
        span = tracer.start_span(
            "service.reject", parent=parent, start_time=sim.now
        )
        if span.is_recording:
            span.set_attribute("service", self.name)
            record.trace = span.context
        span.record_error(record.error)
        span.end(at=sim.now)

    def _start_record(self, entry) -> None:
        self._start(*entry)

    def _start(
        self,
        record: RequestRecord,
        sim: Simulator,
        on_complete: CompletionCallback,
        tracer=NULL_TRACER,
        parent=None,
        queue_span=None,
    ) -> None:
        self._busy += 1
        record.start = sim.now
        recording = tracer.is_recording
        if recording and queue_span is not None:
            queue_span.end(at=sim.now)
        duration = self.service_time.sample(record.request.payload)
        process_span = NULL_SPAN
        if recording:
            process_span = tracer.start_span(
                "service.process", parent=parent, start_time=sim.now
            )
            process_span.set_attribute("service", self.name)
            process_span.set_attribute("payload", record.request.payload)
            process_span.set_attribute("busy_workers", float(self._busy))
            record.trace = process_span.context

        def finish() -> None:
            record.end = sim.now
            self._busy -= 1
            self._busy_seconds += record.end - record.start
            self.completed.append(record)
            if recording and self.stages:
                self._materialize_stages(process_span, record, tracer)
            if self.probe is not None:
                self.probe(tracer, process_span, record)
            if recording:
                process_span.end(at=sim.now)
            # hand the freed worker to the queue head BEFORE notifying the
            # caller: a callback that synchronously resubmits must queue
            # behind earlier arrivals, not grab the worker
            self._drain()
            on_complete(record)

        sim.schedule(duration, finish)

    def _materialize_stages(self, process_span, record, tracer) -> None:
        """Cut the finished service interval into stage child spans.

        Weights are normalised so the stage spans partition the
        processing span *exactly* — the critical-path invariant (segment
        durations sum to the trace duration) depends on it.
        """
        total = sum(self.stages.values())
        cursor = record.start
        names = list(self.stages)
        for i, stage in enumerate(names):
            if i + 1 < len(names):
                stage_end = cursor + (
                    (record.end - record.start) * self.stages[stage] / total
                )
            else:
                stage_end = record.end  # absorb float residue in the last cut
            tracer.start_span(
                stage, parent=process_span, start_time=cursor
            ).set_attribute("service", self.name).end(at=stage_end)
            cursor = stage_end

    def set_concurrency(self, target: int, sim: Simulator) -> None:
        """Re-provision the worker pool (autoscaling, §V dynamic capacity).

        Growing the pool immediately starts queued requests on the new
        workers; shrinking only lowers the cap — in-flight requests finish,
        and the pool drains down as they complete.
        """
        if target < 1:
            raise ValueError("concurrency must be >= 1")
        self.concurrency = target
        self._drain()

    def utilization(self, elapsed_seconds: float) -> float:
        """Mean worker utilisation over an observation window.

        ``busy_seconds / (workers × elapsed)``; > 0.8 is the §IX signal
        that a metric needs its own (or a bigger) machine.
        """
        if elapsed_seconds <= 0:
            raise ValueError("elapsed_seconds must be positive")
        return self._busy_seconds / (self.concurrency * elapsed_seconds)

    def utilization_event(self, elapsed_seconds: float):
        """The utilisation snapshot as a telemetry event.

        ``value`` is mean worker utilisation over the window; queue depth,
        concurrency and rejection counts ride in ``attrs``, so capacity
        runs land on the same bus → WAL → rollup stream as sensor
        readings and the §IX "needs a bigger machine" signal becomes a
        queryable series instead of a one-off print.
        """
        from repro.telemetry.events import KIND_UTILIZATION, TelemetryEvent

        return TelemetryEvent(
            source=self.name,
            value=self.utilization(elapsed_seconds),
            timestamp=elapsed_seconds,
            kind=KIND_UTILIZATION,
            attrs={
                "busy_workers": float(self._busy),
                "concurrency": float(self.concurrency),
                "queue_length": float(len(self._waiting)),
                "peak_queue_length": float(self._peak_queue),
                "rejected": float(self.rejected + self.rejected_rows),
                "completed": float(len(self.completed) + self.completed_rows),
            },
        )

    def emit_utilization(
        self, telemetry, elapsed_seconds: float, topic: str = "services"
    ) -> None:
        """Publish :meth:`utilization_event` to a pipeline or bus."""
        telemetry.publish(topic, self.utilization_event(elapsed_seconds))
