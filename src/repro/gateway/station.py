"""The columnar M/G/c station shared by the capacity and cluster simulators.

A :class:`Station` is one metric micro-service as the discrete-event
simulation sees it: ``concurrency`` parallel workers over a bounded FIFO
waiting room, with service times drawn from a payload-aware
:class:`~repro.gateway.services.ServiceTimeModel`.  A request is a row
index into a bound :class:`~repro.gateway.records.RecordLog`; service
times come off refillable pre-sampled buffers, and every completion is a
direct push of a pre-bound method onto the simulator's heap — no
per-request objects or closures.

On top of that classic per-row path the station carries:

* the **serving micro-batcher** (DESIGN §15): rows coalesce per payload
  shape and flush on size or window expiry as one fused batch, with
  admission control shedding past ``shed_depth``;
* the **simulated kernel-pool tier** (DESIGN §16): flushed batches
  occupy pool workers instead of station workers, and a pool-worker
  crash resubmits its oldest in-flight batch;
* the **crash guard** (DESIGN §12): :meth:`Station.crash` starts a new
  epoch, retires every completion scheduled in the old one and returns
  every owned row for failover, plus a slow factor for degraded-node
  faults.

:class:`~repro.gateway.services.MicroService` (capacity runs) extends the
station with the traced record path; the cluster's
:class:`~repro.cluster.node.ClusterNode` holds plain stations.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Deque, Dict, List, Optional, Set

from repro.serving.admission import SHED_ERROR_MESSAGE
from repro.serving.policy import ServingPolicy

__all__ = ["SERVICE_TIME_BATCH", "Station"]

#: Refill size for the pre-sampled service-time buffers: one vectorized
#: generator call (plus a ``tolist`` for C-speed scalar reads) per this
#: many requests of a payload kind.
SERVICE_TIME_BATCH = 4096


class Station:
    """One route's station: c workers, FIFO queue, batcher, pool, epoch.

    Parameters
    ----------
    name:
        Route name (e.g. ``"shap"``).
    node:
        The owning :class:`~repro.cluster.node.ClusterNode`, or ``None``
        for a single-node capacity deployment.  It qualifies error texts
        (``"queue full at node-2/shap (503)"``) and telemetry sources
        (``"serving:shap@node-2"``).
    service_time:
        Payload-aware service-time model.
    concurrency:
        Parallel workers.
    queue_capacity:
        Waiting-room size in entries (a row or a fused batch); arrivals
        beyond it fail with a typed 503.
    """

    def __init__(
        self,
        name: str,
        node,
        service_time,
        concurrency: int,
        queue_capacity: int = 1000,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if queue_capacity < 0:
            raise ValueError("queue_capacity must be non-negative")
        self.name = name
        self.node = node
        self.service_time = service_time
        self.concurrency = concurrency
        self.queue_capacity = queue_capacity
        #: Per-station stats bundle, attached by the runner at bind time
        #: so the completion sink reaches it without a dict probe.
        self.stats = None
        #: Rows served to completion (rejections are counted apart).
        self.completed_rows = 0
        self.rejected_rows = 0
        self.stale_completions = 0
        self._epoch = 0
        self._slow = 1.0
        self._busy = 0
        self._busy_seconds = 0.0
        self._peak_queue = 0
        self._inflight: Set[int] = set()
        # FIFO of row ints and batch lists (plus MicroService's record
        # tuples); deque gives O(1) popleft for all of them
        self._waiting: Deque = deque()
        self._log = None
        self._sim = None
        self._sink = None
        self._sim_queue = None
        self._sim_counter = None
        self._supported_ids: frozenset = frozenset()
        self._err_queue_full = 0
        self._err_shed = 0
        self._err_unsupported: Dict[int, int] = {}
        self._st_buffers: Dict[int, list] = {}
        self._st_last_id = -1
        self._st_last_buf: list = [[], 0]
        self._finish_cb = self._finish_row  # pre-bound: no per-event binding
        # serving bindings (configure_serving); None keeps the classic
        # per-row dispatch untouched
        self.serving: Optional[ServingPolicy] = None
        self.shed_rows = 0
        self.batches_flushed = 0
        self.rows_batched = 0
        self.flushed_by_size = 0
        self.flushed_by_deadline = 0
        self.batch_size_peak = 0
        self._srv_pending: Dict[int, list] = {}
        self._srv_epochs: Dict[int, int] = {}
        self._srv_queued = 0
        self._srv_max_batch = 0
        self._srv_window = 0.0
        self._srv_marginal = 0.0
        self._srv_shed_depth = 0
        self._flush_deadline_cb = self._flush_deadline
        self._finish_batch_cb = self._finish_batch
        # kernel-pool bindings (policy.pool_workers > 0)
        self._pool_workers = 0
        self._pool_busy = 0
        self._pool_waiting: Deque[list] = deque()
        self._pool_inflight: Dict[int, tuple] = {}
        self._pool_seq = 0
        self._pool_busy_seconds = 0.0
        self._pool_peak_queue = 0
        self.pool_batches = 0
        self.pool_rows = 0
        self.pool_crashes = 0
        self.pool_restarts = 0
        self.pool_resubmitted = 0
        self.pool_peak_inflight = 0
        self._finish_pool_batch_cb = self._finish_pool_batch

    # -- wiring --------------------------------------------------------------

    def bind(self, log, sim, sink) -> None:
        """Attach the shared log/heap and the runner's completion sink.

        ``sink(station, row, ok)`` runs once per finished row (success,
        rejection, shed or unsupported payload); the runner owns the
        response leg — including the row's ``end`` stamp, which the
        station leaves untouched on success — plus stats and row
        recycling.  Passing the station tells the runner which stats
        bundle (and, in a cluster, which node) answered.
        """
        self._log = log
        self._sim = sim
        self._sink = sink
        # scheduling a completion is a pure heap push (service times are
        # strictly positive, so the schedule-into-the-past guard is
        # dead); grab the simulator's heap and tie-break counter once
        self._sim_queue = sim._queue
        self._sim_counter = sim._counter
        self._supported_ids = frozenset(
            log.intern_payload(p) for p in self.service_time.base_seconds
        )
        where = "" if self.node is None else f" at {self.node.node_id}/{self.name}"
        self._err_queue_full = log.intern_error(f"queue full{where} (503)")
        # SHED_ERROR_MESSAGE stays the prefix so is_shed_error() matches
        # and SLO attribution can separate shedding from failure
        self._err_shed = log.intern_error(SHED_ERROR_MESSAGE + where)
        self._err_unsupported = {}

    def configure_serving(self, policy: ServingPolicy) -> None:
        """Enable micro-batched dispatch + admission control (DESIGN §15).

        Rows submitted through :meth:`submit_row_serving` coalesce per
        payload shape and flush as one fused kernel call occupying one
        worker for ``draw * (1 + (n-1)*batch_marginal)`` — the measured
        sublinear scaling of the vectorized kernels.  Once the backlog
        (pending + queued batch rows) reaches ``shed_depth``, new rows
        are shed with the typed ``503 shed`` error.  With
        ``pool_workers`` set, flushed batches run on the simulated pool
        tier instead of the station's workers.
        """
        self.serving = policy
        self._srv_pending = {}
        self._srv_epochs = {}
        self._srv_queued = 0
        self._srv_max_batch = policy.max_batch
        self._srv_window = policy.batch_window
        self._srv_marginal = policy.batch_marginal
        self._srv_shed_depth = policy.shed_depth
        self._pool_workers = policy.pool_workers

    # -- classic per-row path ------------------------------------------------

    def submit_row(self, row: int) -> None:
        """Accept (or typed-reject) a columnar request at the current time."""
        payload_id = self._log.v_payload_ids[row]
        if payload_id in self._supported_ids:
            self.submit_trusted_row(row)
        else:
            self._reject_unsupported(row, payload_id)

    def submit_trusted_row(self, row: int) -> None:
        """:meth:`submit_row` minus the payload check.

        For callers that validated the payload up front (a closed-loop
        group or arrival process sends one fixed payload).  The
        uncongested accept runs once per simulated request, so the
        service-time draw is inlined here rather than called.
        """
        if self._busy < self.concurrency:
            self._busy += 1
            log = self._log
            now = self._sim.now
            log.v_start[row] = now
            self._inflight.add(row)
            payload_id = log.v_payload_ids[row]
            if payload_id == self._st_last_id:
                buffer = self._st_last_buf
            else:
                buffer = self._buffer(payload_id)
            values, pos = buffer
            if pos >= len(values):
                values = buffer[0] = self._refill(payload_id)
                pos = 0
            buffer[1] = pos + 1
            _heappush(
                self._sim_queue,
                (
                    now + values[pos] * self._slow,
                    next(self._sim_counter),
                    self._finish_cb,
                    row,
                ),
            )
        else:
            waiting = self._waiting
            depth = len(waiting)
            if depth < self.queue_capacity:
                waiting.append(row)
                if depth >= self._peak_queue:
                    self._peak_queue = depth + 1
            else:
                self.rejected_rows += 1
                self._reject(row, self._err_queue_full)

    def _reject(self, row: int, code: int) -> None:
        self._log.fail(row, code, self._sim.now)
        self._sink(self, row, False)

    def _reject_unsupported(self, row: int, payload_id: int) -> None:
        code = self._err_unsupported.get(payload_id)
        if code is None:
            payload = self._log.payload_name(payload_id)
            code = self._log.intern_error(f"unsupported payload {payload!r}")
            self._err_unsupported[payload_id] = code
        self._reject(row, code)

    def _buffer(self, payload_id: int) -> list:
        """The ``[values, cursor]`` draw buffer of a payload, cached."""
        buffer = self._st_buffers.get(payload_id)
        if buffer is None:
            buffer = self._st_buffers[payload_id] = [[], 0]
        self._st_last_id = payload_id
        self._st_last_buf = buffer
        return buffer

    def _refill(self, payload_id: int) -> list:
        return self.service_time.sample_batch(
            self._log.payload_name(payload_id), SERVICE_TIME_BATCH
        ).tolist()

    def _sample_service(self, payload_id: int) -> float:
        """One service-time draw off the pre-sampled buffers."""
        if payload_id == self._st_last_id:
            buffer = self._st_last_buf
        else:
            buffer = self._buffer(payload_id)
        values, pos = buffer
        if pos >= len(values):
            values = buffer[0] = self._refill(payload_id)
            pos = 0
        buffer[1] = pos + 1
        return values[pos]

    def _start_row(self, row: int) -> None:
        """Claim a worker for a queued row (cold drain path)."""
        self._busy += 1
        log = self._log
        now = self._sim.now
        log.v_start[row] = now
        self._inflight.add(row)
        _heappush(
            self._sim_queue,
            (
                now + self._sample_service(log.v_payload_ids[row]) * self._slow,
                next(self._sim_counter),
                self._finish_cb,
                row,
            ),
        )

    def _finish_row(self, row: int) -> None:
        self._inflight.discard(row)
        now = self._sim.now
        log = self._log
        self._busy_seconds += now - log.v_start[row]
        self.completed_rows += 1
        # the freed worker takes the queue head *before* the sink runs:
        # a sink that synchronously resubmits must queue behind earlier
        # arrivals.  A saturated run drains a row on nearly every
        # completion, so that case is _start_row inlined and the worker
        # simply stays busy; a shrunk cap (busy > concurrency) releases
        # the worker instead
        waiting = self._waiting
        if waiting and self._busy <= self.concurrency:
            entry = waiting.popleft()
            if type(entry) is int:
                log.v_start[entry] = now
                self._inflight.add(entry)
                payload_id = log.v_payload_ids[entry]
                if payload_id == self._st_last_id:
                    buffer = self._st_last_buf
                else:
                    buffer = self._buffer(payload_id)
                values, pos = buffer
                if pos >= len(values):
                    values = buffer[0] = self._refill(payload_id)
                    pos = 0
                buffer[1] = pos + 1
                _heappush(
                    self._sim_queue,
                    (
                        now + values[pos] * self._slow,
                        next(self._sim_counter),
                        self._finish_cb,
                        entry,
                    ),
                )
            else:
                self._busy -= 1
                self._start_entry(entry)
        else:
            self._busy -= 1
        self._sink(self, row, True)

    def _start_entry(self, entry) -> None:
        """Claim a worker for one queue entry of any kind."""
        if type(entry) is int:
            self._start_row(entry)
        elif type(entry) is list:
            self._start_batch(entry)
        else:
            self._start_record(entry)

    def _start_record(self, entry) -> None:
        """Record-path queue entries; only MicroService enqueues them."""
        raise TypeError(f"unexpected queue entry {entry!r}")

    def _drain(self) -> None:
        """Start queue entries, strictly from the head, while workers are free."""
        waiting = self._waiting
        while self._busy < self.concurrency and waiting:
            self._start_entry(waiting.popleft())

    # -- serving micro-batcher -----------------------------------------------

    def submit_row_serving(self, row: int) -> None:
        """Accept, batch, or shed a columnar request at the current time."""
        payload_id = self._log.v_payload_ids[row]
        if payload_id not in self._supported_ids:
            self._reject_unsupported(row, payload_id)
            return
        if self._srv_shed_depth and self._srv_queued >= self._srv_shed_depth:
            self.shed_rows += 1
            self._reject(row, self._err_shed)
            return
        pending = self._srv_pending.get(payload_id)
        if pending is None:
            pending = self._srv_pending[payload_id] = []
            self._srv_epochs[payload_id] = 0
        pending.append(row)
        self._srv_queued += 1
        if len(pending) >= self._srv_max_batch:
            self.flushed_by_size += 1
            self._flush_payload(payload_id)
        elif len(pending) == 1:
            _heappush(
                self._sim_queue,
                (
                    self._sim.now + self._srv_window,
                    next(self._sim_counter),
                    self._flush_deadline_cb,
                    (self._srv_epochs[payload_id], payload_id),
                ),
            )

    def _flush_deadline(self, token) -> None:
        """Window-expiry flush; stale epochs are already-flushed groups."""
        epoch, payload_id = token
        if epoch != self._srv_epochs.get(payload_id, -1):
            return
        if self._srv_pending.get(payload_id):
            self.flushed_by_deadline += 1
            self._flush_payload(payload_id)

    def _flush_payload(self, payload_id: int) -> None:
        batch = self._srv_pending[payload_id]
        self._srv_pending[payload_id] = []
        self._srv_epochs[payload_id] += 1
        if self._pool_workers:
            self._dispatch_pool_batch(batch)
        elif self._busy < self.concurrency:
            self._start_batch(batch)
        else:
            waiting = self._waiting
            depth = len(waiting)
            # a parked batch is one fused unit of work — one queue entry
            if depth < self.queue_capacity:
                waiting.append(batch)
                if depth >= self._peak_queue:
                    self._peak_queue = depth + 1
                return
            n = len(batch)
            self.rejected_rows += n
            self._srv_queued -= n
            for row in batch:
                self._reject(row, self._err_queue_full)

    def _batch_duration(self, batch: list) -> float:
        """One draw for a fused batch, scaled by the marginal row cost."""
        return (
            self._sample_service(self._log.v_payload_ids[batch[0]])
            * self._slow
            * (1.0 + (len(batch) - 1) * self._srv_marginal)
        )

    def _count_batch(self, batch: list) -> None:
        """Stamp and count a newly started fused batch."""
        log = self._log
        now = self._sim.now
        n = len(batch)
        self._srv_queued -= n
        for row in batch:
            log.v_start[row] = now
        self.batches_flushed += 1
        self.rows_batched += n
        if n > self.batch_size_peak:
            self.batch_size_peak = n

    def _start_batch(self, batch: list) -> None:
        """Claim a worker for one fused batch (one draw, n rows)."""
        self._busy += 1
        self._count_batch(batch)
        self._inflight.update(batch)
        _heappush(
            self._sim_queue,
            (
                self._sim.now + self._batch_duration(batch),
                next(self._sim_counter),
                self._finish_batch_cb,
                batch,
            ),
        )

    def _finish_batch(self, batch: list) -> None:
        self._inflight.difference_update(batch)
        # one worker held for the whole fused call
        self._busy_seconds += self._sim.now - self._log.v_start[batch[0]]
        self.completed_rows += len(batch)
        self._busy -= 1
        self._drain()
        sink = self._sink
        for row in batch:
            sink(self, row, True)

    # -- simulated kernel pool (policy.pool_workers > 0) ---------------------
    #
    # The discrete-event mirror of repro.pool: flushed batches occupy
    # pool workers, not station workers, so admission, coalescing and
    # window timers overlap with kernel execution.  A pool-worker crash
    # re-dispatches its oldest in-flight batch with a fresh draw; the
    # orphaned completion finds its dispatch id gone and does nothing.
    # A station crash drops the whole tier (its rows fail over).

    def _dispatch_pool_batch(self, batch: list) -> None:
        """Route one flushed batch to the pool tier (park if saturated).

        Parked batches stay in ``_srv_queued`` so admission control
        back-pressures on the pool backlog exactly as it does on the
        coalescing backlog.
        """
        if self._pool_busy < self._pool_workers:
            self._start_pool_batch(batch)
        else:
            waiting = self._pool_waiting
            waiting.append(batch)
            if len(waiting) > self._pool_peak_queue:
                self._pool_peak_queue = len(waiting)

    def _start_pool_batch(self, batch: list, resubmit: bool = False) -> None:
        """Occupy one pool worker with a fused batch (one draw, n rows).

        ``resubmit`` re-dispatches a crash-orphaned batch: its rows were
        already started and counted, so only a fresh completion is
        scheduled.  Dispatch ids are monotonic and never reused.
        """
        if not resubmit:
            self._pool_busy += 1
            # a pooled batch is still one fused serving batch — the
            # serving counters stay comparable across pool on/off runs
            self._count_batch(batch)
            self.pool_batches += 1
            self.pool_rows += len(batch)
        inflight = len(self._pool_inflight) + 1
        if inflight > self.pool_peak_inflight:
            self.pool_peak_inflight = inflight
        now = self._sim.now
        duration = self._batch_duration(batch)
        self._pool_seq += 1
        dispatch_id = self._pool_seq
        self._pool_inflight[dispatch_id] = (batch, now)
        _heappush(
            self._sim_queue,
            (
                now + duration,
                next(self._sim_counter),
                self._finish_pool_batch_cb,
                dispatch_id,
            ),
        )

    def _finish_pool_batch(self, dispatch_id: int) -> None:
        entry = self._pool_inflight.pop(dispatch_id, None)
        if entry is None:
            # orphaned: resubmitted under a new id, or failed over by a
            # station crash — either way the rows are accounted already
            return
        batch, started = entry
        self._pool_busy_seconds += self._sim.now - started
        self.completed_rows += len(batch)
        self._pool_busy -= 1
        if self._pool_waiting and self._pool_busy < self._pool_workers:
            self._start_pool_batch(self._pool_waiting.popleft())
        sink = self._sink
        for row in batch:
            sink(self, row, True)

    def crash_pool_worker(self) -> int:
        """Kill one pool worker; returns rows re-dispatched.

        The oldest in-flight batch dies with the worker and is
        resubmitted onto the instantly-restarted replacement with a
        fresh draw — nothing is lost and nothing double-counts.
        """
        if not self._pool_workers:
            return 0
        self.pool_crashes += 1
        self.pool_restarts += 1
        if not self._pool_inflight:
            return 0
        dispatch_id = min(self._pool_inflight)
        batch, _started = self._pool_inflight.pop(dispatch_id)
        self.pool_resubmitted += len(batch)
        self._start_pool_batch(batch, resubmit=True)
        return len(batch)

    @property
    def pool_backlog(self) -> int:
        """In-flight plus parked pool batches (the POOL panel's value)."""
        return len(self._pool_inflight) + len(self._pool_waiting)

    # -- fault surface -------------------------------------------------------

    def crash(self) -> List[int]:
        """Start a new epoch: return every owned row for failover.

        Completions scheduled in the old epoch are retired in place: their
        heap entries keep their time and sequence number (the heap keys,
        so event order is untouched) but now call :meth:`_stale`, which
        only counts them.  The hot path therefore carries bare rows and
        never checks an epoch.  In-flight, queued, batch-pending and
        pooled rows are handed back to the caller to retry elsewhere or
        typed-fail.
        """
        self._epoch += 1
        queue = self._sim_queue
        if queue is not None:
            row_cb, batch_cb = self._finish_cb, self._finish_batch_cb
            for i, (at, seq, callback, arg) in enumerate(queue):
                if callback is row_cb or callback is batch_cb:
                    queue[i] = (at, seq, self._stale, arg)
        lost = list(self._inflight)
        for entry in self._waiting:
            if type(entry) is list:
                lost.extend(entry)
            else:
                lost.append(entry)
        # unflushed coalescing groups die too; bumping each payload
        # epoch orphans their pending window timers
        for payload_id, pending in self._srv_pending.items():
            if pending:
                lost.extend(pending)
                self._srv_pending[payload_id] = []
            self._srv_epochs[payload_id] += 1
        self._srv_queued = 0
        for batch, _started in self._pool_inflight.values():
            lost.extend(batch)
        for batch in self._pool_waiting:
            lost.extend(batch)
        self._pool_inflight.clear()
        self._pool_waiting.clear()
        self._pool_busy = 0
        self._inflight.clear()
        self._waiting.clear()
        self._busy = 0
        return lost

    def _stale(self, arg) -> None:
        """A completion from before a crash: its rows were failed over."""
        self.stale_completions += len(arg) if type(arg) is list else 1

    def set_slow(self, factor: float) -> None:
        """Degrade (or restore, with 1.0) the station's service times."""
        if factor <= 0:
            raise ValueError("slow factor must be positive")
        self._slow = factor

    # -- reporting -----------------------------------------------------------

    def _event(self, prefix: str, value: float, at: float, kind: str, attrs):
        """A counter snapshot event; node-qualified inside a cluster."""
        from repro.telemetry.events import TelemetryEvent

        if self.node is None:
            return TelemetryEvent(
                prefix + self.name, value, timestamp=at, kind=kind, attrs=attrs
            )
        node_id = self.node.node_id
        return TelemetryEvent(
            f"{prefix}{self.name}@{node_id}",
            value,
            timestamp=at,
            kind=kind,
            attrs=attrs,
        ).with_node(node_id)

    def serving_counters(self) -> dict:
        """Batching/shed (and pool) counters for serving summaries."""
        batches = self.batches_flushed
        out = {
            "batches": batches,
            "rows_batched": self.rows_batched,
            "mean_batch": self.rows_batched / batches if batches else 0.0,
            "by_size": self.flushed_by_size,
            "by_deadline": self.flushed_by_deadline,
            "peak_batch": self.batch_size_peak,
            "shed_rows": self.shed_rows,
        }
        if self._pool_workers:
            out["pool"] = {
                "workers": self._pool_workers,
                "batches": self.pool_batches,
                "rows": self.pool_rows,
                "crashes": self.pool_crashes,
                "restarts": self.pool_restarts,
                "resubmitted": self.pool_resubmitted,
                "peak_inflight": self.pool_peak_inflight,
            }
        return out

    def serving_event(self, at: float):
        """Batching/shedding counters as a ``serving:`` telemetry event.

        ``value`` is the mean rows per fused kernel call; flush-trigger
        splits, the batch-size peak and the shed count ride in ``attrs``.
        """
        from repro.telemetry.events import KIND_SERVING

        batches = self.batches_flushed
        return self._event(
            "serving:",
            self.rows_batched / batches if batches else 0.0,
            at,
            KIND_SERVING,
            {
                "batches": float(batches),
                "rows": float(self.rows_batched),
                "by_size": float(self.flushed_by_size),
                "by_deadline": float(self.flushed_by_deadline),
                "peak": float(self.batch_size_peak),
                "shed": float(self.shed_rows),
            },
        )

    def pool_event(self, at: float):
        """Pool backlog + fan-out counters as a ``pool:`` telemetry event.

        ``value`` is the pool backlog (in-flight + parked batches);
        worker occupancy, fan-out and the crash/resubmit ledger ride in
        ``attrs`` so the POOL dashboard panel reads one source per
        station.
        """
        from repro.telemetry.events import KIND_POOL

        batches = self.pool_batches
        return self._event(
            "pool:",
            float(self.pool_backlog),
            at,
            KIND_POOL,
            {
                "workers": float(self._pool_workers),
                "busy": float(self._pool_busy),
                "queued": float(len(self._pool_waiting)),
                "batches": float(batches),
                "rows": float(self.pool_rows),
                "mean_fan_out": self.pool_rows / batches if batches else 0.0,
                "peak_inflight": float(self.pool_peak_inflight),
                "crashes": float(self.pool_crashes),
                "restarts": float(self.pool_restarts),
                "resubmitted": float(self.pool_resubmitted),
                "busy_seconds": self._pool_busy_seconds,
            },
        )

    # -- introspection -------------------------------------------------------

    @property
    def busy_workers(self) -> int:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    @property
    def peak_queue_length(self) -> int:
        return self._peak_queue

    @property
    def inflight_rows(self) -> int:
        return len(self._inflight)

    @property
    def busy_seconds(self) -> float:
        """Cumulative worker-seconds spent serving completed requests."""
        return self._busy_seconds

    @property
    def epoch(self) -> int:
        return self._epoch
