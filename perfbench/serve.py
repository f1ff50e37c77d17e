"""serve-zipf and serve-unique: closed-loop traffic into a ServingEngine.

One client thread keeps ``OUTSTANDING`` requests in flight against a
``ServingEngine`` (the bench_serving model: a 10-tree random forest on 6
features with a 64-coalition ``KernelShapExplainer``; max batch 8, 4 ms
window, 256-entry explanation cache).  30% of requests are explains, the
rest predicts.  Each completed request publishes a latency event and an
availability event into a memory-only ``TelemetryPipeline`` whose
rollups feed an ``SLOEvaluator``.

* ``serve-zipf`` draws payloads from 48 vectors under Zipf(1.1), so most
  explains hit the cache and the engine, batcher and telemetry
  bookkeeping dominate; batches run inline.
* ``serve-unique`` makes every payload distinct, so every explain misses
  and inserts into the bounded cache, and batches go to a real
  ``KernelPool`` with one forked worker.

The engine runs on a logical clock that advances ``ARRIVAL_DT`` per
submission and jumps to the next flush deadline when the loop can make
no other progress, so batch composition is a function of the seed alone.
Latency is wall time from submit to the client seeing the request done.
A segment is a fixed number of requests and ends in a drain, so the
probe after it runs with the batcher empty and the pool idle.
"""

import time

import numpy as np

from layers import Proxy
from repro.ml import RandomForestClassifier
from repro.pool import KernelPool
from repro.serving import ServingEngine, ServingPolicy
from repro.slo import SLOEvaluator, drill_definitions
from repro.telemetry import KIND_RESPONSE, TelemetryEvent, TelemetryPipeline
from repro.xai.shap import KernelShapExplainer

N_FEATURES = 6
N_VECTORS = 48
ZIPF_EXPONENT = 1.1
EXPLAIN_SHARE = 0.3
OUTSTANDING = 16
#: Requests per timed segment.  A zipf request costs ~20 us, so its
#: segments are longer: the probe after each must stay a small share.
SEGMENT_REQUESTS = {False: 2048, True: 96}
#: serve-unique replays every Nth segment through an inline engine.
INLINE_CHECK_EVERY = 4
ARRIVAL_DT = 0.001
POLICY = ServingPolicy(max_batch=8, batch_window=0.004, cache_size=256)
ROUTE = "serve"
LATENCY_SOURCE = f"{ROUTE}@node-0"
OK_SOURCE = f"ok:{ROUTE}"
TOPIC = "responses"
_CHUNK = 4096
#: The served model is the same in every run; the run's seed makes the
#: traffic (vectors, payloads, the predict/explain mix).  Training the
#: model from the run seed moved kernel cost between seeds for reasons
#: unrelated to the code under test.
APPLICATION_SEED = 0


class _Traffic:
    """Seeded request stream: (is_explain, payload, oracle key)."""

    def __init__(self, seed: int, unique: bool, vectors: np.ndarray) -> None:
        self._rng = np.random.default_rng([seed, 1])
        self._unique = unique
        self._vectors = vectors
        weights = (np.arange(N_VECTORS) + 1.0) ** -ZIPF_EXPONENT
        self._weights = weights / weights.sum()
        self._buffer = []

    def _refill(self) -> None:
        explains = self._rng.random(_CHUNK) < EXPLAIN_SHARE
        if self._unique:
            payloads = self._rng.normal(size=(_CHUNK, N_FEATURES))
            keys = [None] * _CHUNK
        else:
            keys = self._rng.choice(N_VECTORS, size=_CHUNK, p=self._weights)
            payloads = self._vectors[keys]
        self._buffer = list(zip(explains.tolist(), payloads, keys))
        self._buffer.reverse()

    def next(self):
        if not self._buffer:
            self._refill()
        return self._buffer.pop()


class ServeState:
    """One wired engine + pool + telemetry + SLO stack and its traffic."""

    def __init__(self, seed: int, unique: bool, layers=None) -> None:
        rng = np.random.default_rng(APPLICATION_SEED)
        X = rng.normal(size=(400, N_FEATURES))
        y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(int)
        self.model = RandomForestClassifier(
            n_estimators=10, max_depth=6, seed=APPLICATION_SEED
        ).fit(X, y)
        self.explainer = KernelShapExplainer(
            self.model.predict_proba, X[:32], n_coalitions=64, seed=APPLICATION_SEED
        )
        self.vectors = np.random.default_rng([seed, 2]).normal(
            size=(N_VECTORS, N_FEATURES)
        )
        self.unique = unique
        self.layers = layers
        self.pool = (
            KernelPool(
                self.model.predict_proba,
                self.explainer,
                workers=1,
                warm_features=N_FEATURES,
            )
            if unique
            else None
        )
        predict_fn, explainer, pool = (
            self.model.predict_proba,
            self.explainer,
            self.pool,
        )
        self.telemetry = TelemetryPipeline(window_seconds=0.25)
        self.slo = SLOEvaluator(drill_definitions(ROUTE))
        observe = self.slo.observe
        if layers is not None:
            rows = lambda args: len(args[0])  # noqa: E731
            predict_fn = layers.wrap("ml.forest.predict", predict_fn, rows)
            explainer = Proxy(
                explainer,
                shap_values_batch_exact=layers.wrap(
                    "xai.shap.batch", explainer.shap_values_batch_exact, rows
                ),
            )
            if pool is not None:
                pool = Proxy(
                    pool,
                    submit_predict=layers.wrap("pool.submit", pool.submit_predict),
                    submit_explain=layers.wrap("pool.submit", pool.submit_explain),
                    drain=layers.wrap("pool.wait", pool.drain),
                )
            observe = layers.wrap("slo.observe", observe)
        self.telemetry.rollups.on_finalize(observe)
        self.telemetry.start()
        self.engine = ServingEngine(predict_fn, explainer, POLICY, pool=pool)
        engine, publish = self.engine, self.telemetry.publish
        submit_explain, submit_predict = engine.submit_explain, engine.submit_predict
        flush_due, drain = engine.flush_due, engine.drain
        pump = self.telemetry.pump
        if layers is not None:
            submit_explain = layers.wrap("serving.engine.submit", submit_explain)
            submit_predict = layers.wrap("serving.engine.submit", submit_predict)
            flush_due = layers.wrap("serving.engine.flush", flush_due)
            drain = layers.wrap("serving.engine.drain", drain)
            publish = layers.wrap("telemetry.publish", publish)
            pump = layers.wrap("telemetry.pump", pump)
        self._submit = {True: submit_explain, False: submit_predict}
        self._flush_due, self._drain = flush_due, drain
        self._publish, self._pump = publish, pump
        self.traffic = _Traffic(seed, unique, self.vectors)
        self.now = 0.0
        self.served = []
        self._oracle = {}
        self.verified = self.checked = self.mismatches = 0
        self.inline_checked = self.inline_differ = 0
        self.published = 0
        self.pool_busy_s = 0.0
        self.closed = False

    # -- one timed segment ----------------------------------------------------

    def segment(self):
        """Run one segment of closed-loop requests, then drain."""
        outstanding, latencies = [], []
        failed = sent = 0
        n = SEGMENT_REQUESTS[self.unique]
        pool = self.pool
        track_pool = pool is not None and self.layers is not None
        last = time.perf_counter()
        while sent < n or outstanding:
            busy = track_pool and pool.queue_depth > 0
            if sent < n and len(outstanding) < OUTSTANDING:
                explain, x, key = self.traffic.next()
                started = time.perf_counter()
                request = self._submit[explain](x, self.now)
                self.now += ARRIVAL_DT
                outstanding.append((request, started, explain, key))
                sent += 1
            elif sent == n or pool is not None:
                # a blocking drain, never a spin: a busy-polling client
                # would take CPU from the worker on a 2-core host
                self._drain(self.now)
            else:
                self.now = max(self.now, self.engine.next_deadline())
                self._flush_due(self.now)
            if track_pool:
                now = time.perf_counter()
                if busy:
                    self.pool_busy_s += now - last
                last = now
            failed += self._harvest(outstanding, latencies)
        self._pump()
        return n, failed, latencies

    def _harvest(self, outstanding, latencies) -> int:
        """Retire finished requests in place; returns how many failed."""
        seen = time.perf_counter()
        failed = 0
        keep = 0
        for item in outstanding:
            request = item[0]
            if not request.done:
                outstanding[keep] = item
                keep += 1
                continue
            latency = seen - item[1]
            latencies.append(latency)
            ok = request.error is None
            failed += not ok
            at = request.completed_at
            self._publish(
                TOPIC,
                TelemetryEvent(LATENCY_SOURCE, latency * 1000.0, at, KIND_RESPONSE),
            )
            self._publish(
                TOPIC, TelemetryEvent(OK_SOURCE, float(ok), at, KIND_RESPONSE)
            )
            self.published += 2
            self.served.append((item[2], item[3], request))
        del outstanding[keep:]
        return failed

    # -- checks, outside the timed window ------------------------------------

    def verify(self) -> None:
        """Check the requests served since the last call, then drop them.

        Every result must be bitwise-equal to the per-request kernel
        (``predict_proba(x[None])[0]`` or ``shap_values(x)``); zipf
        payloads repeat, so their oracle is computed once per vector.
        On serve-unique every ``INLINE_CHECK_EVERY``-th segment is also
        replayed through an inline engine, whose results must equal the
        pooled ones.
        """
        model, explainer = self.model, self.explainer
        for explain, key, request in self.served:
            if request.error is not None:
                continue  # already counted as a failed op
            oracle = self._oracle.get((explain, key)) if key is not None else None
            if oracle is None:
                x = request.x
                oracle = (
                    explainer.shap_values(x)
                    if explain
                    else model.predict_proba(x[None])[0]
                )
                if key is not None:
                    self._oracle[(explain, key)] = oracle
            self.mismatches += not np.array_equal(request.value, oracle)
        if self.pool is not None and self.verified % INLINE_CHECK_EVERY == 0:
            self.inline_differ += self._pooled_vs_inline(self.served)
            self.inline_checked += len(self.served)
        self.verified += 1
        self.checked += len(self.served)
        self.served.clear()

    def _pooled_vs_inline(self, served) -> int:
        inline = ServingEngine(self.model.predict_proba, self.explainer, POLICY)
        replayed = []
        for i, (explain, _key, request) in enumerate(served):
            submit = inline.submit_explain if explain else inline.submit_predict
            replayed.append(submit(request.x, i * ARRIVAL_DT))
        inline.drain(len(served) * ARRIVAL_DT)
        return sum(
            not np.array_equal(pooled[2].value, local.value)
            for pooled, local in zip(served, replayed)
        )

    def check(self):
        self.verify()
        problems = []
        if not self.checked:
            problems.append("no request was served")
        if self.mismatches:
            problems.append(
                f"{self.mismatches} results differ from the per-request oracle"
            )
        if self.pool is not None and not self.inline_checked:
            problems.append("no pooled result was compared with inline")
        if self.inline_differ:
            problems.append(f"{self.inline_differ} pooled results differ from inline")
        stats = self.telemetry.stats()["bus"]["topics"].get(TOPIC, {})
        if stats.get("published") != self.published or stats.get("dropped"):
            problems.append("telemetry lost published events")
        return problems

    # -- per-layer figures ----------------------------------------------------

    def _counters(self):
        engine, cache, pool = self.engine, self.engine.cache, self.pool
        bus = self.telemetry.stats()["bus"]
        return {
            "batches": engine.batches,
            "rows": engine.rows_batched,
            "by_size": engine.flushed_by_size,
            "flushes": engine.flushed_by_size
            + engine.flushed_by_deadline
            + engine.flushed_by_drain,
            "hits": cache.hits,
            "lookups": cache.hits + cache.misses,
            "evictions": cache.evictions,
            "published": self.published,
            "dropped": sum(t["dropped"] for t in bus["topics"].values()),
            "windows": self.slo.windows_seen,
            "pool_busy_s": self.pool_busy_s,
            "dispatched": pool.dispatched if pool is not None else 0,
            "slot_waits": pool.slot_waits if pool is not None else 0,
        }

    def mark(self) -> None:
        """Start counting from here: the measured phase begins."""
        self._marked = self._counters()

    def layer_metrics(self, layers, phase):
        now = self._counters()
        d = {key: now[key] - self._marked[key] for key in now}
        ops = phase.ops
        predict_rows = layers.counts.get("ml.forest.predict.rows", 0.0)
        shap_rows = layers.counts.get("xai.shap.batch.rows", 0.0)
        metrics = {
            "serving.engine.self_ms_per_req": layers.self_ms(
                "serving.engine.submit", "serving.engine.flush", "serving.engine.drain"
            )
            / ops,
            "serving.cache.hit_ratio": d["hits"] / d["lookups"],
            "serving.cache.evictions": d["evictions"] / ops,
            "serving.batcher.mean_batch": d["rows"] / d["batches"],
            "serving.batcher.size_flush_share": d["by_size"] / d["flushes"],
            "ml.forest.predict_ms_per_row": (
                layers.self_ms("ml.forest.predict") / predict_rows
                if predict_rows
                else 0.0
            ),
            "ml.forest.rows": predict_rows / ops,
            "xai.shap.batch_ms_per_row": (
                layers.self_ms("xai.shap.batch") / shap_rows if shap_rows else 0.0
            ),
            "telemetry.publish_us_per_event": (
                1000.0 * layers.self_ms("telemetry.publish") / d["published"]
            ),
            "telemetry.pump_ms": layers.self_ms("telemetry.pump") / ops,
            "telemetry.events": d["published"] / ops,
            "telemetry.dropped": d["dropped"] / ops,
            "slo.observe_ms": layers.self_ms("slo.observe") / ops,
            "slo.windows_seen": d["windows"] / ops,
        }
        if self.pool is not None:
            metrics.update(
                {
                    "pool.submit_ms": layers.self_ms("pool.submit") / ops,
                    "pool.wait_ms": layers.self_ms("pool.wait") / ops,
                    "pool.dispatched": d["dispatched"] / ops,
                    "pool.slot_waits": d["slot_waits"] / ops,
                    "pool.utilization": d["pool_busy_s"] / phase.raw_s,
                }
            )
        return metrics

    #: label -> (span names, or None for the label itself; the public
    #: functions those spans wrap), for the cProfile cross-check
    CPROFILE_TARGETS = {
        "serving.engine.submit": (
            None,
            [
                ("serving/engine.py", "submit_explain"),
                ("serving/engine.py", "submit_predict"),
            ],
        ),
        "ml.forest.predict": (None, [("ml/forest.py", "predict_proba")]),
        "xai.shap.batch": (None, [("xai/shap.py", "shap_values_batch_exact")]),
        "telemetry.publish": (None, [("telemetry/pipeline.py", "publish")]),
        "telemetry.pump": (None, [("telemetry/pipeline.py", "pump")]),
        "pool.submit": (
            None,
            [("pool/pool.py", "submit_predict"), ("pool/pool.py", "submit_explain")],
        ),
    }

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.engine.shutdown(self.now, ROUTE)
        self.telemetry.close()
