"""Golden station matrix: seed-for-seed identity of both simulators.

Every scenario is a small seeded, retain-mode run of
:class:`~repro.gateway.capacity.CapacityRunner` or
:class:`~repro.cluster.runner.ClusterRunner` over the three station
disciplines (classic per-row, serving + explanation cache, serving +
kernel pool) and both workload shapes (closed and open loop); cluster
runs additionally cross five fault plans.  The pinned fingerprint covers
every ``SummaryReport`` field (timelines and per-route reports by
sha256), the conservation ledger, ``serving_summary()``,
``serving_events()`` and a sha256 over the record columns.

The golden file was captured before the station code was unified, so a
pass proves the refactor changed no observable number.  The one allowed
drift: cluster ``pool:`` events may carry *more* attrs than pinned (the
shared station reports worker occupancy on both simulators).

Regenerate (only when a behaviour change is intended)::

    PYTHONPATH=src python -m tests.gateway.test_station_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterRunner, ClusterTopology, FaultPlan
from repro.cluster.topology import RouteSpec
from repro.gateway import CapacityRunner, build_paper_deployment
from repro.gateway.arrivals import PoissonArrivalGroup
from repro.gateway.loadgen import ThreadGroup
from repro.gateway.simulation import Simulator
from repro.serving import ServingPolicy

GOLDEN = Path(__file__).parent / "golden" / "station_matrix.json"

MODES = {
    "classic": None,
    "cache": ServingPolicy(
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
LOADS = ("closed", "open")
PLANS = ("none", "crash", "partition", "slow", "poolcrash")


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _report(report) -> dict:
    return {
        "n_requests": report.n_requests,
        "n_errors": report.n_errors,
        "avg_response_ms": report.avg_response_ms,
        "median_response_ms": report.median_response_ms,
        "p95_response_ms": report.p95_response_ms,
        "p99_response_ms": report.p99_response_ms,
        "max_response_ms": report.max_response_ms,
        "throughput_rps": report.throughput_rps,
        "duration_seconds": report.duration_seconds,
        "timeline": _digest(report.timeline),
        "per_route": {
            route: _report(sub) for route, sub in sorted(report.per_route.items())
        },
    }


def _columns(log) -> str:
    n = log.size
    digest = hashlib.sha256()
    for column in (log.arrival, log.start, log.end, log.ok):
        digest.update(np.ascontiguousarray(column[:n]).tobytes())
    errors = [
        log.error_message(int(code)) if not ok else ""
        for code, ok in zip(log.error_codes[:n], log.ok[:n])
    ]
    digest.update("\n".join(errors).encode())
    return digest.hexdigest()


def _events(events) -> list:
    return [
        {"source": e.source, "value": e.value, "attrs": dict(e.attrs)}
        for e in events
    ]


def _fingerprint(runner, report) -> dict:
    end = report.duration_seconds
    out = {
        "summary": _report(report),
        "serving_summary": runner.serving_summary(),
        "serving_events": _events(runner.serving_events(end)),
        "columns": _columns(runner.log),
        "appended": runner.log.appended,
        "in_flight": runner.in_flight,
    }
    if hasattr(runner, "conservation"):
        out["conservation"] = runner.conservation()
    # JSON round trip: tuples become lists, int keys become strings
    return json.loads(json.dumps(out))


def capacity_case(mode: str, load: str, traced: bool) -> dict:
    sim, gateway = build_paper_deployment(seed=11)
    for route in ("shap", "lime"):
        gateway.service(route).queue_capacity = 12
    runner = CapacityRunner(
        sim,
        gateway,
        retain_records=True,
        seed=11,
        trace_every=5 if traced else 0,
        serving=MODES[mode],
    )
    if load == "closed":
        runner.add_thread_group(
            ThreadGroup("shap", 40, rampup_seconds=0.2, iterations=10)
        )
        runner.add_thread_group(
            ThreadGroup("lime", 12, rampup_seconds=0.1, iterations=10)
        )
        runner.add_thread_group(
            ThreadGroup("occlusion", 3, rampup_seconds=0.1, iterations=2)
        )
    else:
        runner.add_open_loop(PoissonArrivalGroup("shap", 3000.0, 800))
        runner.add_open_loop(PoissonArrivalGroup("lime", 300.0, 200))
        runner.add_open_loop(PoissonArrivalGroup("occlusion", 50.0, 6))
    report = runner.run()
    return _fingerprint(runner, report)


def cluster_case(mode: str, load: str, plan: str) -> dict:
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
        seed=5,
    )
    runner = ClusterRunner(
        topology, retain_records=True, seed=5, serving=MODES[mode]
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
    primary = topology.replica_nodes("shap")[0].node_id
    faults = FaultPlan()
    if plan == "crash":
        faults.add_crash(primary, 0.15, restart_at=0.35)
    elif plan == "partition":
        faults.add_partition(primary, 0.1, 0.2)
    elif plan == "slow":
        faults.add_slow(primary, 0.05, 0.3, 4.0)
    elif plan == "poolcrash":
        for at in (0.1, 0.12, 0.2, 0.3):
            faults.add_pool_crash(primary, at)
    runner.apply_fault_plan(faults)
    report = runner.run()
    return _fingerprint(runner, report)


def _cases():
    for mode in MODES:
        for load in LOADS:
            # the record path is the trace-sampling route; before the
            # stations were unified it could not hand a worker to a
            # queued serving batch, so only classic runs are pinned traced
            for traced in (False, True) if mode == "classic" else (False,):
                name = f"capacity/{mode}/{load}" + ("/traced" if traced else "")
                yield name, lambda m=mode, l=load, t=traced: capacity_case(
                    m, l, t
                )
    for mode in MODES:
        for load in LOADS:
            for plan in PLANS:
                yield f"cluster/{mode}/{load}/{plan}", (
                    lambda m=mode, l=load, p=plan: cluster_case(m, l, p)
                )


CASES = dict(_cases())


def _pool_superset(case: str, got: dict, want: dict) -> dict:
    """Drop attrs on cluster ``pool:`` events that the golden lacks."""
    if not case.startswith("cluster/"):
        return got
    pinned = {e["source"]: e["attrs"] for e in want["serving_events"]}
    events = []
    for event in got["serving_events"]:
        if event["source"].startswith("pool:") and event["source"] in pinned:
            keep = pinned[event["source"]]
            event = {
                **event,
                "attrs": {k: v for k, v in event["attrs"].items() if k in keep},
            }
        events.append(event)
    return {**got, "serving_events": events}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_station_matrix_matches_golden(case, golden):
    want = golden[case]
    got = CASES[case]()
    assert _pool_superset(case, got, want) == want


def test_matrix_exercises_every_station_path(golden):
    """The pinned runs must actually hit rejections, sheds, cache hits,
    pool parking, failover and stale completions — otherwise identity
    on them would prove little."""
    cap = golden["capacity/classic/open"]
    assert cap["summary"]["n_errors"] > 0
    assert golden["capacity/cache/open"]["serving_summary"]["shap"]["shed_rows"] > 0
    assert golden["capacity/cache/closed"]["serving_summary"]["shap"]["cache"]["hits"] > 0
    pool = golden["cluster/pool/open/poolcrash"]["conservation"]
    assert pool["pool_redispatched"] > 0
    crash = golden["cluster/classic/open/crash"]["conservation"]
    assert crash["lost_in_flight"] > 0 and crash["stale_completions"] > 0
    assert golden["cluster/classic/closed/partition"]["conservation"][
        "lost_responses"
    ] > 0
    for case, data in golden.items():
        if case.startswith("cluster/"):
            cons = data["conservation"]
            assert cons["appended"] == cons["observed"], case
        assert data["in_flight"] == 0, case


@pytest.mark.parametrize("mode", ["cache", "pool"])
def test_traced_serving_runs_drain_batches_behind_records(mode):
    """Trace-sampled records share the station queue with serving
    batches; a record completion must hand its worker to a queued batch."""
    data = capacity_case(mode, "closed", traced=True)
    sent = 40 * 10 + 12 * 10 + 3 * 2  # the closed-loop groups' requests
    assert data["in_flight"] == 0
    assert data["summary"]["n_requests"] == sent
    # every 5th request took the record path instead of a log row
    assert data["appended"] == sent - sent // 5


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if "--write" not in sys.argv:
        raise SystemExit("pass --write to regenerate the golden file")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    data = {case: CASES[case]() for case in sorted(CASES)}
    # one case per line keeps the file small and its diffs readable
    lines = [f"{json.dumps(case)}: {json.dumps(data[case], sort_keys=True)}"
             for case in sorted(data)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
