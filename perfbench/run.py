"""Wall-clock benchmark of the SPATIAL request paths, probe-normalised.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 12 --trace 0

Workloads: ``serve-zipf``, ``serve-unique``, ``monitor`` and ``sim``
(see README.md in this directory).  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` measures half the budget
untraced (raw twins) and half traced, and reports the per-layer metrics,
the tracing overhead and a cProfile cross-check.  Every correctness
check runs outside the timed window; any failure prints
``"correct": false`` and exits with status 1.  The last line of standard
output is the result object; the line before it is the full record with
the machine fingerprint.
"""

import os
import sys

# BLAS threads would contend with the pool worker and the probe on a
# small host; pin them before numpy is first imported.
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    sys.exit("perfbench: no src/repro beside perfbench/; run from a checkout")
sys.path.insert(0, _SRC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import harness  # noqa: E402
from layers import Layers, cprofile_crosscheck  # noqa: E402
from probe import ReferenceProbe  # noqa: E402

#: Set-ups per ``--trace 0`` run; setup_s is their median.
SETUP_REPEATS = {"serve-zipf": 9, "serve-unique": 9, "monitor": 3, "sim": 9}
#: Tail percentile per workload: the highest rung of 50/75/90/95/99/99.9
#: with at least 10 samples beyond it at the reference sample counts,
#: lowered where that rung did not repeat between runs.  Fixed, so a
#: change in sample count cannot move the rung; a run with too few
#: samples falls back to a lower rung and records it.  serve-unique
#: reports p99, not p99.9: its ~18 samples beyond p99.9 all come from the
#: rare window of 16 requests holding 10+ explains, and p99.9 moved by
#: 19-23% (IQR over seeds).  serve-zipf reports p90: a request there
#: costs ~20 us, so p99 and above count the sub-millisecond host
#: interruptions that land on all 16 in-flight requests at once; over 10
#: seeds p99 moved by 28% and p99.9 by 46%, p90 by 6%.  The record keeps
#: p50/p90/p99/p99.9 of every run.
TAIL_PERCENTILE = {"serve-zipf": 90.0, "serve-unique": 99.0, "monitor": 75.0, "sim": 75.0}
#: Traced segments run under cProfile for the cross-check.
CPROFILE_SEGMENTS = {"serve-zipf": 20, "serve-unique": 20, "monitor": 2, "sim": 2}
#: Untimed segments before each measured phase, so caches are warm.
WARMUP_SEGMENTS = 2
#: Wall-time cap on a measured phase, as a multiple of its budget.
WALL_CAP = 2.5

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "serving.engine.self_ms_per_req": "ms/req",
    "serving.cache.hit_ratio": "ratio",
    "serving.cache.evictions": "count/req",
    "serving.batcher.mean_batch": "rows",
    "serving.batcher.size_flush_share": "ratio",
    "pool.submit_ms": "ms/req",
    "pool.wait_ms": "ms/req",
    "pool.dispatched": "count/req",
    "pool.slot_waits": "count/req",
    "pool.utilization": "ratio",
    "ml.forest.predict_ms_per_row": "ms/row",
    "ml.forest.rows": "count/req",
    "xai.shap.batch_ms_per_row": "ms/row",
    "telemetry.publish_us_per_event": "us/event",
    "telemetry.pump_ms": "ms/op",
    "telemetry.events": "count/op",
    "telemetry.dropped": "count/op",
    "telemetry.wal_bytes": "bytes/op",
    "slo.observe_ms": "ms/op",
    "slo.windows_seen": "count/op",
    "core.sensors.performance.poll_ms": "ms/op",
    "core.sensors.data_quality.poll_ms": "ms/op",
    "core.sensors.shap_explanation.poll_ms": "ms/op",
    "core.sensors.explanation_drift.poll_ms": "ms/op",
    "core.sensors.lime_explanation.poll_ms": "ms/op",
    "core.monitor.self_ms": "ms/op",
    "core.dashboard.render_ms": "ms/op",
    "ml.pipeline.train_s": "s",
    "gateway.capacity.run_ms": "ms/op",
    "gateway.capacity.events_per_s": "1/s",
    "cluster.runner.run_ms": "ms/op",
    "cluster.failovers": "count/op",
    "cluster.redispatched": "count/op",
    "bench.probe_ms": "ms",
    "bench.raw_throughput_per_s": "1/s",
    "bench.raw_latency_p50_ms": "ms",
    "bench.tracing_overhead": "ratio",
    "bench.harness_self_share": "ratio",
    "bench.attribution_residual_us": "us",
    "bench.cprofile_max_disagreement": "ratio",
}


def _builder(workload: str, seed: int, scratch: str):
    """``build(layers=None)`` for the workload's state."""
    import monitor
    import serve
    import sim

    if workload == "monitor":
        return lambda layers=None: monitor.MonitorState(
            seed, tempfile.mkdtemp(dir=scratch), layers
        )
    if workload == "sim":
        return lambda layers=None: sim.SimState(seed, layers)
    unique = workload == "serve-unique"
    return lambda layers=None: serve.ServeState(seed, unique, layers)


def _measure(state, probe, budget_s, tail_pct, layers=None):
    for __ in range(WARMUP_SEGMENTS):
        state.segment()
        state.verify()
    if layers is not None:
        layers.reset()
    state.mark()
    # As a long-running server would after loading: move set-up objects
    # (imported modules, the model, earlier set-ups) out of the collector's
    # reach, so a full collection's cost reflects what the measured path
    # allocates, not how much the benchmark built before it.
    gc.collect()
    gc.freeze()
    recorder = harness.Recorder(probe, budget_s, WALL_CAP * budget_s, tail_pct)
    while recorder.more():
        started = time.perf_counter()
        if layers is None:
            ops, failed, latencies = state.segment()
        else:
            with layers.span("bench.segment"):
                ops, failed, latencies = state.segment()
        elapsed = time.perf_counter() - started
        factor = recorder.close_segment(elapsed, ops, failed, latencies)
        if layers is not None:
            layers.close_segment(factor)
        state.verify()
    return recorder


def _traced_segments(state, layers, count: int) -> None:
    for __ in range(count):
        with layers.span("bench.segment"):
            state.segment()
        layers.close_segment(1.0)


def _end_to_end(workload, build, probe, seconds, record):
    setup_s, setup_raw, state = harness.timed_setups(
        probe, build, SETUP_REPEATS[workload]
    )
    try:
        recorder = _measure(state, probe, seconds, TAIL_PERCENTILE[workload])
        problems = state.check()
    finally:
        state.close()
    peak_rss_mb = harness.peak_rss_mb()
    summary = recorder.summary()
    record.update(phase=summary, setup_raw_s=setup_raw)
    metrics = {
        "throughput_per_s": summary["throughput_per_s"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_tail_ms": summary["latency_tail_ms"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, recorder, problems


def _per_layer(workload, build, probe, seconds, seed, record):
    half = seconds / 2.0
    __, __, state = harness.timed_setups(probe, build, 1)
    try:
        untraced = _measure(state, probe, half, TAIL_PERCENTILE[workload])
        problems = state.check()
    finally:
        state.close()
    layers = Layers(seed)
    setup_norm_s, (setup_raw_s,), state = harness.timed_setups(
        probe, lambda: build(layers), 1
    )
    try:
        traced = _measure(state, probe, half, TAIL_PERCENTILE[workload], layers)
        metrics = state.layer_metrics(layers, traced)
        crosscheck = cprofile_crosscheck(
            layers,
            lambda: _traced_segments(state, layers, CPROFILE_SEGMENTS[workload]),
            state.CPROFILE_TARGETS,
        )
        problems += state.check()
    finally:
        state.close()
    if getattr(state, "train_raw_s", None) is not None:
        metrics["ml.pipeline.train_s"] = (
            state.train_raw_s * setup_norm_s / setup_raw_s
        )
    raw = untraced.summary()
    traced_s = traced.summary()
    disagreement = {
        name: abs(span_s - profile_s) / profile_s
        for name, (span_s, profile_s) in crosscheck.items()
        if profile_s > 0
    }
    metrics.update(
        {
            "bench.probe_ms": probe.median_ms(),
            "bench.raw_throughput_per_s": raw["raw_throughput_per_s"],
            "bench.raw_latency_p50_ms": raw["raw_latency_p50_ms"],
            "bench.tracing_overhead": (traced_s["norm_s"] / traced.ops)
            / (raw["norm_s"] / untraced.ops)
            - 1.0,
            "bench.harness_self_share": layers.harness_self_s()
            / layers.total_self_s(),
            "bench.attribution_residual_us": layers.residual_s * 1e6,
            "bench.cprofile_max_disagreement": max(disagreement.values(), default=0.0),
        }
    )
    record.update(
        untraced=raw,
        traced=traced_s,
        cprofile={
            name: {"span_s": span_s, "cprofile_s": profile_s}
            for name, (span_s, profile_s) in crosscheck.items()
        },
        self_s=dict(layers.self_s),
    )
    for name, (span_s, profile_s) in sorted(crosscheck.items()):
        print(
            f"cprofile-check {workload} {name}: spans {span_s * 1000:.1f} ms, "
            f"cProfile {profile_s * 1000:.1f} ms"
        )
    return metrics, untraced, traced, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    scratch = os.path.join(_ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    probe = ReferenceProbe()
    build = _builder(args.workload, args.seed, scratch)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        if args.trace:
            metrics, untraced, traced, problems = _per_layer(
                args.workload, build, probe, args.seconds, args.seed, record
            )
            attempted = untraced.ops + traced.ops
            failed = untraced.failed + traced.failed
            units = PER_LAYER
        else:
            metrics, recorder, problems = _end_to_end(
                args.workload, build, probe, args.seconds, record
            )
            attempted, failed = recorder.ops, recorder.failed
            units = END_TO_END
    finally:
        harness.stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(scratch))
    if failed:
        problems.append(f"{failed} ops failed")
    record.update(
        fingerprint=harness.fingerprint(probe),
        attempted=attempted,
        succeeded=attempted - failed,
        failed=failed,
        problems=problems,
    )
    print(json.dumps(record, sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
