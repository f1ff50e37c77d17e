"""sim: the discrete-event capacity and cluster simulators.

One op is a seeded ``CapacityRunner`` run followed by a seeded
``ClusterRunner`` run, both with ``retain_records=False``:

* capacity - the Fig. 8 paper deployment (``build_paper_deployment``)
  under open-loop Poisson SHAP traffic, behind a ``ServingPolicy``
  batch/cache tier;
* cluster - four nodes, replication 2, a simulated two-worker pool tier,
  and a fault plan in the CLI grammar that crashes the route's primary
  node (restarting it later) and crashes a pool worker on the replica.

Neither runs a real kernel, so this workload moves only when the
gateway, cluster or event-loop code changes.  Ops cycle through
``SEEDS_PER_RUN`` seeds drawn from the run's seed, so every seed runs
several times and its virtual-time summary must repeat exactly.  The
throughput counts simulated requests; latency is per op.
"""

import time

import numpy as np

from repro.cluster import ClusterRunner, ClusterTopology, FaultPlan, paper_route_specs
from repro.gateway import CapacityRunner, PoissonArrivalGroup, build_paper_deployment
from repro.gateway.simulation import Simulator
from repro.serving import ServingPolicy

ROUTE = "shap"
CAPACITY_REQUESTS = 12000
CAPACITY_RATE_RPS = 450.0
CLUSTER_REQUESTS = 12000
CLUSTER_RATE_RPS = 800.0
SEEDS_PER_RUN = 4
CAPACITY_POLICY = ServingPolicy(
    max_batch=8, batch_window=0.004, cache_size=64, cache_items=4096
)
CLUSTER_POLICY = ServingPolicy(
    max_batch=8,
    batch_window=0.004,
    cache_size=64,
    cache_items=4096,
    pool_workers=2,
)


def _summary(report) -> tuple:
    return (
        report.n_requests,
        report.n_errors,
        report.avg_response_ms,
        report.median_response_ms,
        report.max_response_ms,
        report.throughput_rps,
        report.duration_seconds,
    )


class SimState:
    """Seeds for the run's ops and the per-seed summaries they produced."""

    def __init__(self, seed: int, layers=None) -> None:
        rng = np.random.default_rng([seed, 3])
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=SEEDS_PER_RUN)]
        self.layers = layers
        self.ops = 0
        self.summaries = {}
        self.problems = []
        self.events = 0
        self.failovers = 0
        self.redispatched = 0
        self._capacity_run = CapacityRunner.run
        self._cluster_run = ClusterRunner.run
        if layers is not None:
            self._capacity_run = layers.wrap("gateway.capacity.run", CapacityRunner.run)
            self._cluster_run = layers.wrap("cluster.runner.run", ClusterRunner.run)
        # set-up: build both stacks once so first-use costs land here
        self._op(self.seeds[0], record=False)

    def _op(self, seed: int, record: bool = True):
        sim, gateway = build_paper_deployment(seed=seed)
        capacity = CapacityRunner(
            sim, gateway, serving=CAPACITY_POLICY, seed=seed, retain_records=False
        )
        capacity.add_open_loop(
            PoissonArrivalGroup(
                route=ROUTE, rate_rps=CAPACITY_RATE_RPS, n_requests=CAPACITY_REQUESTS
            )
        )
        capacity_report = self._capacity_run(capacity)
        topology = ClusterTopology(
            Simulator(), paper_route_specs(), n_nodes=4, replication=2, seed=seed
        )
        primary, replica = topology.ring.preference(ROUTE, 2)
        plan = FaultPlan.parse(
            f"crash:{primary}@6:14,poolcrash:{replica}@9,poolcrash:{replica}@16"
        )
        cluster = ClusterRunner(
            topology, seed=seed, retain_records=False, serving=CLUSTER_POLICY
        )
        cluster.add_open_loop(
            PoissonArrivalGroup(
                route=ROUTE, rate_rps=CLUSTER_RATE_RPS, n_requests=CLUSTER_REQUESTS
            )
        )
        cluster.apply_fault_plan(plan)
        cluster_report = self._cluster_run(cluster)
        if not record:
            return 0
        ledger = cluster.conservation()
        self.events += sim.processed_events
        self.failovers += ledger["failovers"]
        self.redispatched += ledger["pool_redispatched"]
        self._conserve(capacity, capacity_report, ledger, cluster_report)
        summary = (
            _summary(capacity_report),
            _summary(cluster_report),
            sim.processed_events,
            topology.sim.processed_events,
            tuple(sorted(ledger.items())),
        )
        first = self.summaries.setdefault(seed, summary)
        if first != summary:
            self.problems.append(f"seed {seed}: summary differs between repeats")
        return capacity_report.n_errors + cluster_report.n_errors

    def _conserve(self, capacity, capacity_report, ledger, cluster_report) -> None:
        if capacity.log.appended != CAPACITY_REQUESTS or capacity.in_flight:
            self.problems.append("capacity run lost requests")
        if capacity_report.n_requests != CAPACITY_REQUESTS:
            self.problems.append("capacity report is missing requests")
        if not (
            ledger["appended"] == ledger["observed"] == CLUSTER_REQUESTS
            and ledger["in_flight"] == 0
            and cluster_report.n_requests == CLUSTER_REQUESTS
        ):
            self.problems.append(f"cluster ledger does not balance: {ledger}")

    def segment(self):
        """One op: a capacity run, then a faulted cluster run."""
        seed = self.seeds[self.ops % SEEDS_PER_RUN]
        self.ops += 1
        started = time.perf_counter()
        failed = self._op(seed)
        elapsed = time.perf_counter() - started
        return CAPACITY_REQUESTS + CLUSTER_REQUESTS, failed, [elapsed]

    def verify(self) -> None:
        """Per-segment checks: none beyond what :meth:`check` does."""

    def check(self):
        problems = list(self.problems)
        if self.ops <= SEEDS_PER_RUN:
            problems.append("no seed ran twice, so determinism went unchecked")
        if self.failovers == 0:
            problems.append("the crash fault caused no failover")
        return problems

    def _counters(self):
        return {
            "ops": self.ops,
            "events": self.events,
            "failovers": self.failovers,
            "redispatched": self.redispatched,
        }

    def mark(self) -> None:
        """Start counting from here: the measured phase begins."""
        self._marked = self._counters()

    def layer_metrics(self, layers, phase):
        now = self._counters()
        d = {key: now[key] - self._marked[key] for key in now}
        capacity_s = layers.self_s.get("gateway.capacity.run", 0.0)
        return {
            "gateway.capacity.run_ms": 1000.0 * capacity_s / d["ops"],
            "gateway.capacity.events_per_s": d["events"] / capacity_s,
            "cluster.runner.run_ms": layers.self_ms("cluster.runner.run") / d["ops"],
            "cluster.failovers": d["failovers"] / d["ops"],
            "cluster.redispatched": d["redispatched"] / d["ops"],
        }

    CPROFILE_TARGETS = {
        "gateway.capacity.run": (None, [("gateway/capacity.py", "run")]),
        "cluster.runner.run": (None, [("cluster/runner.py", "run")]),
    }

    def close(self) -> None:
        pass
