"""The benchmark harness: timed rounds of a workload's operations.

One invocation runs one workload in this process, on one thread.  It repeats
*rounds* — one pass over every operation of the workload — until
``--seconds`` of host time have passed, and reports the median of each
metric over the rounds.  Every round attempts the same operations, so the
share of failed operations is the same whatever the run length.

An operation is built (``scenario_from_spec``), simulated (``run_protocol``)
and checked.  It fails when it raises, when the shared engine that actually
runs differs from the requested one, or when an output check rejects it.

Each round's per-operation run summaries are hashed into a digest (host
times are not part of a summary).  All rounds of an invocation must produce
the same digest, traced rounds included; a mismatch makes the result
incorrect.  The digest is printed, so two commits can be compared by it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.directory.aggregate import clear_aggregation_caches
from repro.protocols.runner import run_protocol, scenario_from_spec
from repro.simnet.flows import effective_shared_engine, use_shared_engine
from repro.simnet.network import SimNetwork
from repro.utils import phases

from simbench import checks
from simbench.tracing import LAYERS, Tracer, layer_metrics
from simbench.workloads import Operation, Workload

#: ``spec_tail_s`` needs at least this many specs per round (it is the
#: highest percentile with at least ``TAIL_BEYOND`` samples above it).
TAIL_MIN_SPECS = 40
TAIL_BEYOND = 10


@dataclass
class OperationResult:
    """One executed operation: host times, run summary and check verdict."""

    label: str
    total_s: float
    setup_s: float
    summary: Optional[Dict[str, Any]]
    errors: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors)


@dataclass
class Round:
    """One pass over a workload's operations."""

    wall_s: float
    results: List[OperationResult]
    digest: str
    phases: Dict[str, float] = field(default_factory=dict)
    #: The process's resident-set high-water mark when the round ended.
    peak_rss_mb: float = 0.0

    @property
    def setup_s(self) -> float:
        return sum(result.setup_s for result in self.results)

    @property
    def messages(self) -> int:
        return sum(r.summary["stats"]["messages_sent"] for r in self.results if r.summary)

    @property
    def client_fetches(self) -> int:
        return sum(
            r.summary["clients"].get("fetch_attempts", 0) for r in self.results if r.summary
        )


@contextmanager
def loop_start_marks() -> Iterator[List[float]]:
    """Record the host time at which each simulation's event loop starts.

    Everything an operation does before ``SimNetwork.run`` (scenario
    construction, node and link assembly, fault and client wiring) is its
    set-up time.
    """
    original = SimNetwork.__dict__["run"]
    marks: List[float] = []

    def run(network, until=None):
        marks.append(perf_counter())
        return original(network, until)

    SimNetwork.run = run
    try:
        yield marks
    finally:
        SimNetwork.run = original


def _outcome(operation: Operation, scenario, summary: Dict[str, Any]) -> checks.Outcome:
    spec = operation.spec
    return checks.Outcome(
        kind=operation.kind,
        protocol=spec.protocol,
        summary=summary,
        authorities=spec.authority_count,
        bandwidth_mbps=spec.bandwidth_mbps,
        min_vote_bytes=min(vote.size_bytes for vote in scenario.votes.values()),
        mix=operation.mix,
    )


def check_outcome(
    outcome: checks.Outcome,
    current_success: Optional[bool] = None,
    fair_latency: Optional[float] = None,
) -> List[str]:
    """Every check that applies to ``outcome``'s kind of operation."""
    errors = checks.check_accounting(outcome)
    if outcome.kind == "grid":
        errors += checks.check_grid(outcome, current_success)
    elif outcome.kind == "fault":
        errors += checks.check_fault(outcome)
    elif outcome.kind == "flood":
        errors += checks.check_flood(outcome)
    elif outcome.kind == "scale":
        errors += checks.check_scale(outcome, fair_latency)
    elif outcome.kind == "clients":
        errors += checks.check_clients(outcome)
    return errors


class Harness:
    """Runs rounds of one workload and derives its metrics."""

    def __init__(self, workload: Workload, tracer: Optional[Tracer] = None) -> None:
        self.workload = workload
        self.tracer = tracer
        self._marks: List[float] = []
        #: Latency of each reference operation (run once, untimed).
        self.reference_latency: Dict[str, Optional[float]] = {}

    # -- one operation -------------------------------------------------------
    def _simulate(self, operation: Operation) -> Tuple[Any, Any]:
        spec = operation.spec
        scenario = scenario_from_spec(spec)
        result = run_protocol(
            spec.protocol,
            scenario,
            config=spec.protocol_config(),
            max_time=spec.max_time,
            engine=spec.engine,
            delta=spec.delta,
            view_timeout=spec.view_timeout,
        )
        return scenario, result

    def execute(
        self, operation: Operation, current_success: Optional[bool] = None,
        with_phases: bool = False,
    ) -> Tuple[OperationResult, Dict[str, float]]:
        """Build, simulate and check one operation."""
        buckets: Dict[str, float] = {}
        with use_shared_engine(operation.engine):
            effective = effective_shared_engine(transport=operation.spec.transport)
            marks_before = len(self._marks)
            started = perf_counter()
            try:
                if with_phases:
                    (scenario, result), buckets, _wall = phases.profile(
                        self._simulate, operation
                    )
                else:
                    scenario, result = self._simulate(operation)
            except Exception as error:  # an operation that raises is a failed one
                elapsed = perf_counter() - started
                return OperationResult(
                    operation.label, elapsed, elapsed, None,
                    ["raised %s: %s" % (type(error).__name__, error)],
                ), buckets
            finished = perf_counter()
        loop_start = self._marks[marks_before] if len(self._marks) > marks_before else finished
        summary = result.summary()
        fair_latency = None
        if operation.reference is not None:
            fair_latency = self.reference_latency[operation.reference]
        errors = check_outcome(_outcome(operation, scenario, summary), current_success, fair_latency)
        if effective != operation.engine:
            errors.append("ran on %s, requested %s" % (effective, operation.engine))
        return OperationResult(
            operation.label, finished - started, loop_start - started, summary, errors
        ), buckets

    # -- rounds ----------------------------------------------------------------
    def run_references(self) -> None:
        """Run the workload's untimed reference operations once."""
        with loop_start_marks() as self._marks:
            for operation in self.workload.references:
                clear_aggregation_caches()
                result, _ = self.execute(operation)
                if result.failed:
                    raise RuntimeError(
                        "reference %s failed: %s" % (operation.label, "; ".join(result.errors))
                    )
                self.reference_latency[operation.label] = result.summary["latency"]

    def run_round(self, run_id: int = 0, traced: bool = False) -> Round:
        """One timed pass over every operation of the workload."""
        # Every round starts from the caches a fresh process would have, so
        # rounds measure the same work; caching within a round is kept.
        clear_aggregation_caches()
        # Nor does a round pay for collecting the garbage of the one before.
        gc.collect()
        tracer = self.tracer if traced else None
        results: List[OperationResult] = []
        totals: Dict[str, float] = {}
        current_by_cell: Dict[Tuple[float, int], bool] = {}
        if tracer is not None:
            tracer.run_id = run_id
            tracer.install()
        try:
            with loop_start_marks() as self._marks:
                started = perf_counter()
                for op_id, operation in enumerate(self.workload.operations):
                    if tracer is not None:
                        tracer.op_id = op_id
                    spec = operation.spec
                    cell = (spec.bandwidth_mbps, spec.relay_count)
                    result, buckets = self.execute(
                        operation, current_by_cell.get(cell), with_phases=traced
                    )
                    if operation.kind == "grid" and spec.protocol == "current":
                        current_by_cell[cell] = bool(result.summary and result.summary["success"])
                    for name, value in buckets.items():
                        totals[name] = totals.get(name, 0.0) + value
                    results.append(result)
                wall = perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
        return Round(wall, results, digest_of(results), totals, peak_rss_mb())


def digest_of(results: List[OperationResult]) -> str:
    """SHA-256 over the labelled run summaries (simulated statistics only)."""
    payload = [[result.label, result.summary] for result in results]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tail_percentile(count: int) -> Optional[int]:
    """The highest whole percentile with ≥ TAIL_BEYOND of ``count`` samples above it."""
    if count < TAIL_MIN_SPECS:
        return None
    return (100 * (count - TAIL_BEYOND)) // count


def nearest_rank(values: List[float], percentile: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def end_to_end(rounds: List[Round]) -> Dict[str, float]:
    """The end-to-end metrics: medians over the rounds of one invocation."""
    metrics = {
        "wall_s": _median([r.wall_s for r in rounds]),
        "setup_s": _median([r.setup_s for r in rounds]),
        "spec_p50_s": _median([_median([x.total_s for x in r.results]) for r in rounds]),
        "sim_msgs_per_s": _median([r.messages / r.wall_s for r in rounds]),
        # After the first round: what running the workload once needs.  Later
        # rounds only add allocator fragmentation, which varies run to run.
        "peak_rss_mb": rounds[0].peak_rss_mb,
    }
    percentile = tail_percentile(len(rounds[0].results))
    if percentile is not None:
        metrics["spec_tail_s"] = _median(
            [nearest_rank([x.total_s for x in r.results], percentile) for r in rounds]
        )
    if rounds[0].client_fetches:
        metrics["client_fetches_per_s"] = _median([r.client_fetches / r.wall_s for r in rounds])
    return metrics


def per_layer(
    tracer: Tracer, plain: List[Round], traced: List[Round]
) -> Tuple[Dict[str, float], bool]:
    """Per-layer metrics from the traced rounds (overhead against the plain
    ones), and whether every traced round made the same counted calls —
    counts are simulated work, so they must repeat exactly."""
    by_round = [layer_metrics(tracer, run_id) for run_id in range(len(traced))]
    counts = [
        {k: v for k, v in values.items() if not k.endswith("_s") and k != "crypto.macs_per_verify"}
        for values in by_round
    ]
    metrics = {name: _median([values[name] for values in by_round]) for name in by_round[0]}
    for bucket in (*phases.BUCKETS, "other"):
        metrics["phase.%s_s" % bucket] = _median([r.phases.get(bucket, 0.0) for r in traced])
    traced_wall = _median([r.wall_s for r in traced])
    layer_self = sum(metrics["%s.self_s" % layer] for layer in LAYERS)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - _median([r.wall_s for r in plain])
    metrics["trace.unattributed_s"] = traced_wall - layer_self
    return metrics, all(c == counts[0] for c in counts)
