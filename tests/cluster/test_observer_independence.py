"""Observation must not change what is observed (cluster runs).

Turning on cross-node trace materialisation (``trace_every``) and the
live telemetry feed (a started pipeline plus ``response_every``) must
leave a faulted cluster run bit-identical: same ``SummaryReport``, same
conservation ledger, same serving counters, same record columns.  The
observers run at completion time and draw from their own RNGs, so any
difference would mean an observer leaked into the simulation.
"""

import numpy as np
import pytest

from repro.cluster import ClusterRunner, ClusterTopology, FaultPlan
from repro.cluster.topology import RouteSpec
from repro.gateway.arrivals import PoissonArrivalGroup
from repro.gateway.loadgen import ThreadGroup
from repro.gateway.simulation import Simulator
from repro.serving import ServingPolicy
from repro.telemetry import TelemetryPipeline

POLICIES = {
    "classic": None,
    "serving": ServingPolicy(
        max_batch=4,
        batch_window=0.003,
        shed_depth=24,
        cache_size=32,
        cache_items=2048,
    ),
    "pool": ServingPolicy(
        max_batch=4, batch_window=0.003, shed_depth=40, pool_workers=2
    ),
}


def _run(mode, load, traced, telemetry):
    topology = ClusterTopology(
        Simulator(),
        [
            RouteSpec("shap", concurrency=2, queue_capacity=8),
            RouteSpec(
                "lime",
                base_seconds={"tabular": 0.012},
                concurrency=2,
                queue_capacity=16,
            ),
        ],
        n_nodes=4,
        replication=2,
        seed=13,
    )
    pipeline = None
    if telemetry:
        pipeline = TelemetryPipeline(auto_pump_every=256).start()
    runner = ClusterRunner(
        topology,
        retain_records=True,
        seed=13,
        trace_every=3 if traced else 0,
        telemetry=pipeline,
        response_every=2 if telemetry else 0,
        serving=POLICIES[mode],
    )
    if load == "closed":
        runner.add_thread_group(
            ThreadGroup("shap", 24, rampup_seconds=0.1, iterations=12)
        )
        runner.add_thread_group(
            ThreadGroup("lime", 8, rampup_seconds=0.1, iterations=12)
        )
    else:
        runner.add_open_loop(PoissonArrivalGroup("shap", 1500.0, 800))
        runner.add_open_loop(PoissonArrivalGroup("lime", 400.0, 200))
    shap_nodes = [node.node_id for node in topology.replica_nodes("shap")]
    lime_primary = topology.replica_nodes("lime")[0].node_id
    plan = (
        FaultPlan()
        .add_crash(shap_nodes[0], 0.15, restart_at=0.35)
        .add_partition(shap_nodes[1], 0.1, 0.15)
        .add_partition(lime_primary, 0.2, 0.1)
    )
    for at in (0.05, 0.12, 0.25):
        plan.add_pool_crash(shap_nodes[1], at)
    runner.apply_fault_plan(plan)
    report = runner.run()
    return runner, report, pipeline


def _columns(log):
    n = log.size
    errors = [
        "" if ok else log.error_message(int(code))
        for code, ok in zip(log.error_codes[:n], log.ok[:n])
    ]
    return (
        log.arrival[:n].copy(),
        log.start[:n].copy(),
        log.end[:n].copy(),
        log.ok[:n].copy(),
        errors,
    )


@pytest.mark.parametrize("load", ["open", "closed"])
@pytest.mark.parametrize("mode", sorted(POLICIES))
def test_tracing_and_telemetry_leave_cluster_runs_identical(mode, load):
    base_runner, base_report, _ = _run(mode, load, False, False)
    base_columns = _columns(base_runner.log)
    assert base_runner.conservation()["lost_in_flight"] > 0  # faults bit
    for traced, telemetry in ((True, False), (False, True), (True, True)):
        runner, report, pipeline = _run(mode, load, traced, telemetry)
        # the observers really observed something
        if traced:
            assert len(runner.collector) > 0
        if telemetry:
            pipeline.flush()
            assert "ok:shap" in pipeline.rollups.sources
        assert report == base_report
        assert runner.conservation() == base_runner.conservation()
        assert runner.serving_summary() == base_runner.serving_summary()
        columns = _columns(runner.log)
        for got, want in zip(columns[:4], base_columns[:4]):
            np.testing.assert_array_equal(got, want)
        assert columns[4] == base_columns[4]
