"""monitor: the paper's AI-sensor loop over a fall-detection model.

Set-up trains the UniMiB-like fall-detection pipeline (random forest, 20
trees of depth 12, 2000 samples; the same application in every run),
registers five sensors - performance,
data quality, SHAP explanation, explanation drift and LIME explanation -
and runs the first monitoring round, the drift baseline.  Readings go
onto a WAL-backed ``TelemetryPipeline``; its rollups feed an
``SLOEvaluator`` whose status the ``AIDashboard`` shows.  One op is one
``ContinuousMonitor.poll_once`` round plus one ``render_text``.

This path loads ``core.sensors``, ``xai`` and the SHAP-dissimilarity
drift probe and bypasses serving, the pool and the gateway entirely.
Sensors read a logical clock that advances one second per round, so
rollup windows close at the same rounds whatever the host's speed.
"""

import math
import os
import shutil
import time

from repro.core import (
    AIDashboard,
    AlertRule,
    ContinuousMonitor,
    DataQualitySensor,
    ModelContext,
    PerformanceSensor,
    SensorRegistry,
)
from repro.core.sensors import (
    AISensor,
    ExplanationDriftSensor,
    ExplanationSensor,
    LimeExplanationSensor,
)
from repro.datasets import generate_unimib_like, to_binary_fall_task
from repro.ml import RandomForestClassifier, StandardScaler
from repro.ml.pipeline import AIPipeline
from repro.slo import SLOEvaluator, drill_definitions
from repro.telemetry import TelemetryPipeline, replay
from repro.xai.shap import KernelShapExplainer

N_SAMPLES = 2000
#: The monitored application - its data and model - is the same in every
#: run; the run's seed picks what the sensors sample.  Seeding the data
#: too moved round cost by ~8% between seeds, for reasons unrelated to
#: the code under test.
APPLICATION_SEED = 0
ROUND_SECONDS = 1.0
WINDOW_SECONDS = 5.0
SENSOR_NAMES = (
    "performance",
    "data_quality",
    "shap_explanation",
    "explanation_drift",
    "lime_explanation",
)


class _Clock:
    """Logical time the sensors stamp readings with."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _TracedSensor(AISensor):
    """A sensor whose ``measure`` runs inside a per-sensor span."""

    def __init__(self, inner: AISensor, layers, clock) -> None:
        super().__init__(inner.name, clock)
        self.property = inner.property
        self._inner = inner
        self._layers = layers
        self._span = f"core.sensors.{inner.name}.poll"

    def measure(self, context):
        with self._layers.span(self._span):
            return self._inner.measure(context)


class _TracedPipeline(TelemetryPipeline):
    """The pipeline with ``publish``/``pump`` inside spans."""

    def __init__(self, layers, **kwargs) -> None:
        super().__init__(**kwargs)
        self._layers = layers

    def publish(self, topic, event):
        with self._layers.span("telemetry.publish"):
            return super().publish(topic, event)

    def pump(self):
        with self._layers.span("telemetry.pump"):
            return super().pump()


class MonitorState:
    """A trained model under a five-sensor monitor with WAL telemetry."""

    def __init__(self, seed: int, workdir: str, layers=None) -> None:
        self.layers = layers
        self.workdir = workdir
        self.clock = _Clock()
        dataset = generate_unimib_like(n_samples=N_SAMPLES, seed=APPLICATION_SEED)
        X, y = to_binary_fall_task(dataset)
        X = StandardScaler().fit_transform(X)
        self.pipeline = AIPipeline(
            data_provider=lambda: (X, y),
            model_factory=lambda: RandomForestClassifier(
                n_estimators=20, max_depth=12, seed=APPLICATION_SEED
            ),
            seed=APPLICATION_SEED,
        )
        started = time.perf_counter()
        self.pipeline.run()
        self.train_raw_s = time.perf_counter() - started
        sensors = [
            PerformanceSensor(clock=self.clock),
            DataQualitySensor(clock=self.clock),
            ExplanationSensor(seed=seed, clock=self.clock),
            ExplanationDriftSensor(seed=seed, clock=self.clock),
            LimeExplanationSensor(seed=seed, clock=self.clock),
        ]
        self._unpatch = None
        if layers is not None:
            sensors = [_TracedSensor(s, layers, self.clock) for s in sensors]
            self._patch_shap(layers)
        registry = SensorRegistry()
        for sensor in sensors:
            registry.register(sensor)
        wal_dir = os.path.join(workdir, "wal")
        options = dict(wal_dir=wal_dir, window_seconds=WINDOW_SECONDS)
        self.wal_dir = wal_dir
        self.telemetry = (
            _TracedPipeline(layers, **options)
            if layers is not None
            else TelemetryPipeline(**options)
        )
        self.slo = SLOEvaluator(drill_definitions())
        observe = self.slo.observe
        if layers is not None:
            observe = layers.wrap("slo.observe", observe)
        self.telemetry.rollups.on_finalize(observe)
        self.dashboard = AIDashboard()
        self.dashboard.add_rule(
            AlertRule(
                sensor="performance",
                threshold=0.90,
                message="fall detection below the operator's threshold",
            )
        )
        self.dashboard.set_slo_provider(self.slo.status)
        context = self.pipeline.context
        self.monitor = ContinuousMonitor(
            registry,
            self.dashboard,
            lambda: ModelContext(
                model=context.model,
                X_train=context.X_train,
                y_train=context.y_train,
                X_test=context.X_test,
                y_test=context.y_test,
                model_version=context.model_version,
            ),
            telemetry=self.telemetry,
        )
        self._poll = self.monitor.poll_once
        self._render = self.dashboard.render_text
        if layers is not None:
            self._poll = layers.wrap("core.monitor.poll", self._poll)
            self._render = layers.wrap("core.dashboard.render", self._render)
        self.clock.now += ROUND_SECONDS
        self.monitor.on_model_update()
        self.rendered = 0
        self.closed = False

    def _patch_shap(self, layers) -> None:
        """Route Kernel SHAP batch calls made inside sensors through a span."""
        original = KernelShapExplainer.shap_values_batch
        traced = layers.wrap(
            "xai.shap.batch", original, rows=lambda args: len(args[1])
        )
        KernelShapExplainer.shap_values_batch = traced

        def unpatch():
            KernelShapExplainer.shap_values_batch = original

        self._unpatch = unpatch

    def segment(self):
        """One op: a monitoring round plus a dashboard render."""
        self.clock.now += ROUND_SECONDS
        started = time.perf_counter()
        record = self._poll()
        text = self._render()
        elapsed = time.perf_counter() - started
        self.rendered += bool(text)
        return 1, int(bool(record.errors)), [elapsed]

    def verify(self) -> None:
        """Per-segment checks: none beyond what :meth:`check` does."""

    def check(self):
        """No sensor errors, finite readings, lossless WAL replay."""
        problems = []
        rounds = self.monitor.rounds
        for record in rounds:
            if record.errors:
                problems.append(f"round {record.index}: sensor errors {record.errors}")
            for reading in record.readings:
                values = [reading.value, *reading.details.values()]
                if not all(math.isfinite(v) for v in values):
                    problems.append(f"round {record.index}: {reading.sensor} not finite")
            if sorted(r.sensor for r in record.readings) != sorted(SENSOR_NAMES):
                problems.append(f"round {record.index}: missing sensors")
        if self.rendered != len(rounds) - 1:
            problems.append("a dashboard render came back empty")
        self.telemetry.flush()
        expected = [
            (r.sensor, r.value, r.timestamp) for rec in rounds for r in rec.readings
        ]
        replayed = [(e.source, e.value, e.timestamp) for e in replay(self.wal_dir)]
        if replayed != expected:
            problems.append(
                f"WAL replay gave {len(replayed)} events, {len(expected)} published"
            )
        return problems

    def _counters(self):
        topics = self.telemetry.stats()["bus"]["topics"].values()
        return {
            "published": sum(t["published"] for t in topics),
            "dropped": sum(t["dropped"] for t in topics),
            "wal_bytes": _wal_bytes(self.wal_dir),
            "windows": self.slo.windows_seen,
        }

    def mark(self) -> None:
        """Start counting from here: the measured phase begins."""
        self._marked = self._counters()

    def layer_metrics(self, layers, phase):
        now = self._counters()
        d = {key: now[key] - self._marked[key] for key in now}
        ops = phase.ops
        shap_rows = layers.counts.get("xai.shap.batch.rows", 0.0)
        metrics = {
            f"core.sensors.{name}.poll_ms": layers.inclusive_ms(
                f"core.sensors.{name}.poll"
            )
            / ops
            for name in SENSOR_NAMES
        }
        metrics.update(
            {
                "core.monitor.self_ms": layers.self_ms("core.monitor.poll") / ops,
                "core.dashboard.render_ms": layers.self_ms("core.dashboard.render")
                / ops,
                "xai.shap.batch_ms_per_row": (
                    layers.self_ms("xai.shap.batch") / shap_rows if shap_rows else 0.0
                ),
                "telemetry.publish_us_per_event": 1000.0
                * layers.self_ms("telemetry.publish")
                / d["published"],
                "telemetry.pump_ms": layers.self_ms("telemetry.pump") / ops,
                "telemetry.events": d["published"] / ops,
                "telemetry.dropped": d["dropped"] / ops,
                "telemetry.wal_bytes": d["wal_bytes"] / ops,
                "slo.observe_ms": layers.self_ms("slo.observe") / ops,
                "slo.windows_seen": d["windows"] / ops,
            }
        )
        return metrics

    CPROFILE_TARGETS = {
        "core.sensors.*.poll": (
            tuple(f"core.sensors.{name}.poll" for name in SENSOR_NAMES),
            [("core/sensors.py", "measure")],
        ),
        "xai.shap.batch": (None, [("xai/shap.py", "shap_values_batch")]),
        "core.monitor.poll": (None, [("core/monitor.py", "poll_once")]),
        "core.dashboard.render": (None, [("core/dashboard.py", "render_text")]),
        "telemetry.pump": (None, [("telemetry/pipeline.py", "pump")]),
    }

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._unpatch is not None:
            self._unpatch()
        self.telemetry.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _wal_bytes(wal_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(wal_dir, name)) for name in os.listdir(wal_dir)
    )
