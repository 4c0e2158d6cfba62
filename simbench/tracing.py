"""The traced run: spans around each layer's entry points, kept in memory.

:class:`Tracer` replaces entry points of the program's layers with wrappers
that record one span per call — name, start, end, parent span and operation
id — in flat arrays, and puts the originals back on :meth:`Tracer.uninstall`.
Nothing under ``src/`` changes; the wrappers live here.  A function imported
by name into other modules (``aggregate_votes``, ``verify``,
``generate_population``, ...) is replaced in every ``repro`` module that
holds it, so calls through those names are traced too.

A layer's self time is the summed duration of its spans minus the time their
child spans cover (:func:`layer_metrics`).  Time spent outside every span
(the runner's own code, key generation, the harness) is reported as
``trace.unattributed_s``, so the layer self times plus that remainder add up
to the traced wall clock.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: Layer names in reporting order.
LAYERS = (
    "engine", "network", "flows", "linkmodel", "protocols", "consensus",
    "directory", "crypto", "clients", "faults", "netgen",
)


def _entry_points() -> List[Tuple[str, Any, str]]:
    """``(span name, owner, attribute)`` for every traced entry point.

    The span name's first dotted part is its layer.  Owners are classes
    (methods are replaced on the class) or modules (functions are replaced
    in the module and wherever they were imported by name).
    """
    from repro.clients.cohort import ClientCohortNode
    from repro.clients.distribution import ConsensusDistribution
    from repro.clients.mirror import DirectoryMirrorNode
    from repro.clients.waves import CohortWaveScheduler
    from repro.consensus.hotstuff import HotStuffEngine
    from repro.core import documents, icps
    from repro.crypto import keys, signatures
    from repro.directory import aggregate, consensus_doc, vote
    from repro.faults.injector import FaultInjector
    from repro.netgen import relaygen, topology_gen, views
    from repro.protocols.base import DirectoryAuthorityNode
    from repro.simnet import engine, flows, linkmodel, network, shared_sched, vector_sched

    points = [
        ("engine.run", engine.Simulator, "run"),
        ("engine.schedule", engine.Simulator, "schedule"),
        ("engine.schedule_batch", engine.Simulator, "schedule_batch"),
        ("engine.cancel", engine.Simulator, "cancel"),
        ("engine.handle_cancel", engine.EventHandle, "cancel"),
        ("network.send", network.SimNetwork, "send"),
        ("network.send_many", network.SimNetwork, "send_many"),
        ("network.start", network.SimNetwork, "start"),
        ("network.run", network.SimNetwork, "run"),
        ("flows.start_flows", flows.FlowScheduler, "start_flows"),
        ("flows.start_flows", shared_sched.LazySharedLinkScheduler, "start_flows"),
        ("flows.wake", vector_sched.VectorSharedLinkScheduler, "_on_wake"),
        ("flows.wake", vector_sched.VectorSharedLinkScheduler, "_on_link_event"),
        ("flows.wake", shared_sched.LazySharedLinkScheduler, "_on_flow_event"),
        ("flows.wake", shared_sched.LazySharedLinkScheduler, "_on_link_event"),
        ("flows.wake", shared_sched.TcpLazyRater, "_on_tick"),
        ("linkmodel.advance_flow", linkmodel.TcpLinkModel, "advance_flow"),
        ("protocols.receive", DirectoryAuthorityNode, "receive"),
        ("consensus.icps", icps.ICPSNode, "start"),
        ("consensus.icps", icps.ICPSNode, "on_message"),
        ("consensus.icps", icps.ICPSNode, "on_timeout"),
        ("consensus.engine", HotStuffEngine, "start"),
        ("consensus.engine", HotStuffEngine, "set_input"),
        ("consensus.engine", HotStuffEngine, "on_message"),
        ("consensus.engine", HotStuffEngine, "on_timeout"),
        ("directory.aggregate", aggregate, "aggregate_votes"),
        ("directory.serialize", vote.VoteDocument, "serialize"),
        ("directory.digest", vote.VoteDocument, "digest"),
        ("directory.digest", vote.VoteDocument, "digest_hex"),
        ("directory.serialize", consensus_doc.ConsensusDocument, "serialize_body"),
        ("directory.digest", consensus_doc.ConsensusDocument, "digest"),
        ("directory.digest", consensus_doc.ConsensusDocument, "digest_hex"),
        ("directory.digest", documents.Document, "digest"),
        ("crypto.sign", signatures, "sign"),
        ("crypto.verify", signatures, "verify"),
        ("crypto.mac", keys.KeyPair, "mac"),
        ("clients.wave_tick", CohortWaveScheduler, "_on_tick"),
        ("clients.cohort", ClientCohortNode, "on_message"),
        ("clients.mirror", DirectoryMirrorNode, "on_message"),
        ("clients.fetch", ConsensusDistribution, "handle_fetch"),
        ("faults.filter_send", FaultInjector, "filter_send"),
        ("faults.filter_delivery", FaultInjector, "filter_delivery"),
        ("faults.delivery_jitter", FaultInjector, "delivery_jitter"),
        ("faults.tcp_loss_event", FaultInjector, "tcp_loss_event"),
        ("netgen.population", relaygen, "generate_population"),
        ("netgen.votes", views, "generate_authority_votes"),
        ("netgen.topology", topology_gen, "generate_topology"),
    ]
    # start_flow is abstract on the base class: trace the workloads' engines.
    for cls in (shared_sched.LazySharedLinkScheduler, vector_sched.VectorSharedLinkScheduler):
        points.append(("flows.start_flow", cls, "start_flow"))
        points.append(("flows.link_replaced", cls, "on_link_replaced"))
    return points


#: Entry points that also feed a counter: ``(span name, attribute) ->
#: (counter, before(args), after(args, result, before))``.
_COUNTED = {
    # Events processed by one Simulator.run call.
    ("engine.run", "run"): (
        "engine.events",
        lambda args: args[0].processed_events,
        lambda args, result, before: args[0].processed_events - before,
    ),
    # Cancellations that took effect (not already cancelled or executed).
    ("engine.handle_cancel", "cancel"): (
        "engine.cancelled",
        lambda args: args[0].cancelled,
        lambda args, result, before: int(args[0].cancelled and not before),
    ),
    ("flows.start_flows", "start_flows"): (
        "flows.batched",
        lambda args: None,
        lambda args, result, before: len(args[1]),
    ),
    ("network.send_many", "send_many"): (
        "network.batched",
        lambda args: None,
        lambda args, result, before: len(result),
    ),
}


class Tracer:
    """Records spans in flat arrays; one instance per traced invocation."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.run = array("i")
        self._stack: List[int] = []
        #: Operation and round the next spans belong to (set by the harness).
        self.op_id = -1
        self.run_id = -1
        #: ``(round, counter name) -> count`` for counts no span shows.
        self.counters: Dict[Tuple[int, str], int] = {}
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)
        name_col, start, end = self.name_col, self.start, self.end
        parent, op, run, stack = self.parent, self.op, self.run, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(end)
            name_col.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            run.append(tracer.run_id)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()

        return traced

    def _wrap_counted(self, name: str, fn: Callable, counter: str, before, after) -> Callable:
        """A traced wrapper that also adds ``after(args, result, before(args))``
        to ``counter`` for the current round."""
        traced = self._wrap(name, fn)
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            state = before(args)
            result = traced(*args, **kwargs)
            key = (tracer.run_id, counter)
            counters[key] = counters.get(key, 0) + after(args, result, state)
            return result

        return counted

    def _wrap_timer_registration(self, fn: Callable) -> Callable:
        """Trace node timer callbacks, charged to the layer of their owner."""
        from repro.clients.cohort import ClientCohortNode
        from repro.clients.mirror import DirectoryMirrorNode
        from repro.protocols.base import DirectoryAuthorityNode

        protocol_timer = functools.partial(self._wrap, "protocols.timer")
        client_timer = functools.partial(self._wrap, "clients.timer")

        @functools.wraps(fn)
        def schedule_node_timer(network, name, time, callback, *args):
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, DirectoryAuthorityNode):
                callback = protocol_timer(callback)
            elif isinstance(owner, (ClientCohortNode, DirectoryMirrorNode)):
                callback = client_timer(callback)
            return fn(network, name, time, callback, *args)

        return schedule_node_timer

    # -- installation --------------------------------------------------------
    def _replace(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Replace every entry point with its traced wrapper."""
        from repro.simnet.network import SimNetwork

        for name, owner, attribute in _entry_points():
            # A KeyError here means the program renamed or moved an entry
            # point: the layer would otherwise go silently untraced.
            original = owner.__dict__[attribute]
            if isinstance(owner, type):
                if (name, attribute) in _COUNTED:
                    counter, before, after = _COUNTED[(name, attribute)]
                    wrapped = self._wrap_counted(name, original, counter, before, after)
                else:
                    wrapped = self._wrap(name, original)
                self._replace(owner, attribute, wrapped)
                continue
            wrapped = self._wrap(name, original)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "") or ""
                if module_name.startswith("repro") and module.__dict__.get(attribute) is original:
                    self._replace(module, attribute, wrapped)
        self._replace(
            SimNetwork,
            "schedule_node_timer",
            self._wrap_timer_registration(SimNetwork.__dict__["schedule_node_timer"]),
        )

    def uninstall(self) -> None:
        """Put every original entry point back (reverse installation order)."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- output --------------------------------------------------------------
    def span_count(self) -> int:
        return len(self.end)

    def write(self, path: str) -> None:
        """Write every span as compressed columns plus the name table."""
        import numpy as np

        np.savez_compressed(
            path,
            name=np.frombuffer(self.name_col, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            names=np.array(json.dumps(self.names)),
        )


def layer_metrics(tracer: Tracer, run_id: int) -> Dict[str, float]:
    """Per-layer counts and self times of the spans of round ``run_id``."""
    import numpy as np

    names = np.frombuffer(tracer.name_col, dtype=np.int32)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    runs = np.frombuffer(tracer.run, dtype=np.int32)
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    self_time = duration - covered
    mine = runs == run_id
    name_ids = {name: index for index, name in enumerate(tracer.names)}

    def spans(*span_names: str):
        mask = np.zeros(len(names), dtype=bool)
        for span_name in span_names:
            if span_name in name_ids:
                mask |= names == name_ids[span_name]
        return mask & mine

    def count(*span_names: str) -> int:
        return int(spans(*span_names).sum())

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        layer_names = [name for name in tracer.names if name.split(".")[0] == layer]
        metrics["%s.self_s" % layer] = float(self_time[spans(*layer_names)].sum())

    def counter(name: str) -> int:
        return tracer.counters.get((run_id, name), 0)

    def outside(child: str, batch: str) -> int:
        """Spans named ``child`` whose parent is not a ``batch`` span."""
        children = spans(child)
        batches = np.nonzero(spans(batch))[0]
        return int((children & ~np.isin(parent, batches)).sum())

    # A batch call that loops over the single-item entry point shows both
    # spans; count each item once.
    metrics["flows.admitted"] = float(
        outside("flows.start_flow", "flows.start_flows") + counter("flows.batched")
    )
    metrics["network.messages"] = float(
        outside("network.send", "network.send_many") + counter("network.batched")
    )
    metrics["engine.events"] = float(counter("engine.events"))
    metrics["engine.cancelled"] = float(counter("engine.cancelled"))
    metrics["flows.wakes"] = float(count("flows.wake"))
    metrics["engine.scheduled"] = float(count("engine.schedule"))
    metrics["network.sends"] = float(count("network.send", "network.send_many"))
    metrics["linkmodel.ack_rounds"] = float(count("linkmodel.advance_flow"))
    metrics["protocols.handlers"] = float(count("protocols.receive", "protocols.timer"))
    metrics["consensus.steps"] = float(count("consensus.icps"))
    metrics["directory.aggregations"] = float(count("directory.aggregate"))
    verifies = spans("crypto.verify")
    macs = spans("crypto.mac")
    verify_ids = np.nonzero(verifies)[0]
    paid = np.unique(parent[macs & np.isin(parent, verify_ids)]) if verify_ids.size else []
    metrics["crypto.verifies"] = float(verify_ids.size)
    metrics["crypto.macs"] = float(macs.sum())
    metrics["crypto.macs_per_verify"] = float(len(paid) / verify_ids.size) if verify_ids.size else 0.0
    metrics["clients.wave_ticks"] = float(count("clients.wave_tick"))
    metrics["faults.calls"] = float(count(*[n for n in tracer.names if n.startswith("faults.")]))
    return metrics
