"""One benchmark invocation: rounds, checks, digests and the result line."""

from __future__ import annotations

import json
import platform
import statistics
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from simbench.harness import Harness, Round, end_to_end, per_layer
from simbench.tracing import Tracer
from simbench.workloads import build_workload

#: End-to-end metrics (tracing off), in output order, with their units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "spec_p50_s": "s",
    "sim_msgs_per_s": "messages/s",
    "peak_rss_mb": "MiB",
}

#: Printed where a workload has them, not part of the result line: each
#: exists on one workload only (see README.md).
END_TO_END_EXTRA = {
    "spec_tail_s": "s",
    "client_fetches_per_s": "fetches/s",
}

#: Per-layer metrics of the traced run, in output order, with their units.
PER_LAYER = {
    "engine.events": "count",
    "engine.scheduled": "count",
    "engine.cancelled": "count",
    "engine.self_s": "s",
    "network.sends": "count",
    "network.messages": "count",
    "network.self_s": "s",
    "flows.admitted": "count",
    "flows.wakes": "count",
    "flows.self_s": "s",
    "linkmodel.ack_rounds": "count",
    "linkmodel.self_s": "s",
    "protocols.handlers": "count",
    "protocols.self_s": "s",
    "consensus.steps": "count",
    "consensus.self_s": "s",
    "directory.aggregations": "count",
    "directory.self_s": "s",
    "crypto.verifies": "count",
    "crypto.macs": "count",
    "crypto.macs_per_verify": "ratio",
    "crypto.self_s": "s",
    "clients.wave_ticks": "count",
    "clients.self_s": "s",
    "faults.calls": "count",
    "faults.self_s": "s",
    "netgen.self_s": "s",
    "phase.transport_s": "s",
    "phase.protocol_s": "s",
    "phase.crypto_s": "s",
    "phase.client_wave_s": "s",
    "phase.other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


#: Failed operations listed in the output before the list is cut short.
MAX_FAILURES_SHOWN = 20


def _print_round(kind: str, index: int, round_: Round) -> None:
    failed = sum(1 for result in round_.results if result.failed)
    print("%s round %d: wall %.4f s, set-up %.4f s, %d operations, %d failed, digest %s"
          % (kind, index, round_.wall_s, round_.setup_s, len(round_.results), failed,
             round_.digest))


def _print_failures(rounds: List[Round]) -> None:
    shown = 0
    for round_ in rounds:
        for result in round_.results:
            if result.failed and shown < MAX_FAILURES_SHOWN:
                print("FAILED %s: %s" % (result.label, "; ".join(result.errors)))
                shown += 1


def _print_table(metrics: Dict[str, float], units: Dict[str, str]) -> None:
    for name, unit in units.items():
        if name in metrics:
            print("  %-26s %16.6f %s" % (name, metrics[name], unit))


def another_pass_fits(elapsed: float, passes: List[float], seconds: float) -> bool:
    """Whether to start another pass (a plain round, plus a traced one when
    tracing): always the first, then only if it is expected to end nearer to
    ``seconds`` than stopping now does.  A run so lasts about ``seconds``
    whatever the length of a round, instead of up to a whole round more."""
    if not passes:
        return True
    return elapsed + statistics.median(passes) / 2 < seconds


def run_benchmark(args, root: Path) -> int:
    """Run ``args.workload`` as the command line asks; print and return 0."""
    import numpy

    workload = build_workload(args.workload, args.seed, tiny=args.tiny)
    print("simbench %s seed=%d tiny=%s trace=%d: %d operations per round "
          "(python %s, numpy %s)"
          % (workload.name, args.seed, args.tiny, args.trace, len(workload.operations),
             platform.python_version(), numpy.__version__))
    if not args.tiny:
        # Warm-up, untimed: the small copy of the workload runs the same code
        # paths, so the first timed round pays no first-use costs.
        warm_up = Harness(build_workload(args.workload, args.seed, tiny=True))
        warm_up.run_references()
        warm_up.run_round()
    tracer = Tracer() if args.trace else None
    harness = Harness(workload, tracer)
    harness.run_references()

    plain: List[Round] = []
    traced: List[Round] = []
    passes: List[float] = []
    started = perf_counter()
    while another_pass_fits(perf_counter() - started, passes, args.seconds):
        pass_started = perf_counter()
        plain.append(harness.run_round())
        _print_round("plain", len(plain) - 1, plain[-1])
        if args.trace:
            traced.append(harness.run_round(run_id=len(traced), traced=True))
            _print_round("traced", len(traced) - 1, traced[-1])
        passes.append(perf_counter() - pass_started)

    rounds = plain + traced
    digests = {round_.digest for round_ in rounds}
    correct = len(digests) == 1
    if not correct:
        print("rounds disagree: %d distinct digests" % len(digests))
    print("digest %s" % plain[0].digest)
    _print_failures(rounds)
    attempted = sum(len(round_.results) for round_ in rounds)
    failed = sum(1 for round_ in rounds for result in round_.results if result.failed)
    print("operations: %d attempted, %d failed" % (attempted, failed))

    if args.trace:
        metrics, counts_agree = per_layer(tracer, plain, traced)
        if not counts_agree:
            print("traced rounds made different counted calls")
            correct = False
        out = root / "simbench" / "out"
        out.mkdir(exist_ok=True)
        path = out / ("trace-%s-seed%d.npz" % (workload.name, args.seed))
        tracer.write(str(path))
        print("spans: %d written to %s" % (tracer.span_count(), path.relative_to(root)))
        print("per-layer metrics (median of %d traced rounds):" % len(traced))
        _print_table(metrics, PER_LAYER)
        units = PER_LAYER
    else:
        metrics = end_to_end(plain)
        print("end-to-end metrics (median of %d rounds):" % len(plain))
        _print_table(metrics, dict(END_TO_END, **END_TO_END_EXTRA))
        units = END_TO_END

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0
