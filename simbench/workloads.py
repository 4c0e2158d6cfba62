"""The benchmark's workloads: the RunSpecs each one runs, built from a seed.

A workload is a fixed list of operations.  An operation is one
:class:`~repro.runtime.spec.RunSpec` plus the shared engine it must run on;
the harness builds, simulates and checks it.  Every stochastic input of a
spec derives from the ``--seed`` the benchmark is given, so the same seed
gives the same simulated statistics and a different seed gives different
relay populations, topologies, fault draws and client arrivals.

``tiny=True`` builds a reduced copy of each workload with the same make-up
(same protocols, same kinds of operation, same checks) on small inputs, for
the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.analysis.latency import latency_sweep_spec
from repro.attack.ddos import majority_attack_plan
from repro.experiments.figure12_faults import default_fault_mixes, figure12_sweep
from repro.experiments.figure13_clients import figure13_spec
from repro.experiments.scaling_sweep import scaling_specs
from repro.runtime.spec import PROTOCOL_NAMES, RunSpec

WORKLOADS = ("paper-grid", "scale-fair", "scale-tcp", "clients-attack")

#: Figure 10's bandwidth panels used here (Mbit/s) and its relay-count grid.
GRID_BANDWIDTHS = (50.0, 10.0, 1.0, 0.5)
GRID_RELAY_COUNTS = (1000, 4000, 7000, 10000)

#: Relay count of the Figure-1 flood (the attack demo's) and its run length:
#: four 150 s rounds plus a minute, long enough for ``ours`` to finish once
#: the 300 s flood ends.
FLOOD_RELAY_COUNT = 8000
FLOOD_MAX_TIME = 660.0

#: Authority counts of the scaling workloads.  Past ~90 authorities the
#: shared transport dominates host time; tcp costs ~3x more per message, so
#: its count is lower to keep a round within a few seconds of the fair one.
SCALE_FAIR_AUTHORITIES = 120
SCALE_TCP_AUTHORITIES = 90

#: The Figure-13 cell: 10M clients in 32 cohorts behind 256 mirrors.
CLIENT_POPULATION = 10_000_000
CLIENT_COHORTS = 32
CLIENT_MIRRORS = 256


@dataclass(frozen=True)
class Operation:
    """One spec the harness builds, simulates and checks.

    ``kind`` selects the output checks (``grid``, ``fault``, ``flood``,
    ``scale`` or ``clients``); ``mix`` names the Figure-12 fault mix;
    ``reference`` labels the workload reference whose latency bounds this
    operation's from below.
    """

    label: str
    spec: RunSpec
    engine: str
    kind: str
    mix: Optional[str] = None
    reference: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    """A named list of operations plus untimed reference operations.

    ``references`` run once per invocation, outside the timed region: they
    give checks a value to compare against (scale-tcp's fair latency).
    """

    name: str
    operations: Tuple[Operation, ...]
    references: Tuple[Operation, ...] = ()


def _paper_grid(seed: int, tiny: bool) -> Workload:
    bandwidths = (10.0, 0.5) if tiny else GRID_BANDWIDTHS
    relay_counts = (1000, 10000) if tiny else GRID_RELAY_COUNTS
    operations = []
    for spec in latency_sweep_spec(
        bandwidths_mbps=bandwidths, relay_counts=relay_counts, seed=seed
    ):
        label = "grid/%s@%gMbps/%d" % (spec.protocol, spec.bandwidth_mbps, spec.relay_count)
        operations.append(Operation(label, spec, "lazy", "grid"))
    mixes = default_fault_mixes()
    if tiny:
        mixes = tuple(mix for mix in mixes if mix.name in ("flash-flood", "byzantine"))
    _sweep, cells = figure12_sweep(mixes, seed=seed)
    for mix, spec in cells:
        label = "fault/%s/%s" % (mix.name, spec.protocol)
        operations.append(Operation(label, spec, "lazy", "fault", mix=mix.name))
    attack = majority_attack_plan(residual_bandwidth_mbps=0.5)
    for protocol in PROTOCOL_NAMES:
        spec = RunSpec(
            protocol=protocol,
            relay_count=1000 if tiny else FLOOD_RELAY_COUNT,
            seed=seed,
            max_time=FLOOD_MAX_TIME,
            bandwidth_overrides=attack.bandwidth_overrides(),
        )
        operations.append(Operation("flood/%s" % protocol, spec, "lazy", "flood"))
    return Workload("paper-grid", tuple(operations))


def _scale_spec(seed: int, authorities: int, transport: str) -> RunSpec:
    # The scaling sweep's spec: current protocol, 200 relays, 250 Mbit/s,
    # 600 s of simulated time.
    (spec,) = scaling_specs(authority_counts=(authorities,), transports=(transport,), seed=seed)
    return spec


def _scale(name: str, seed: int, tiny: bool) -> Workload:
    transport = "tcp" if name == "scale-tcp" else "fair"
    if tiny:
        authorities = 12
    else:
        authorities = SCALE_TCP_AUTHORITIES if transport == "tcp" else SCALE_FAIR_AUTHORITIES
    references = ()
    if transport == "tcp":
        fair = Operation(
            "scale/fair@%d" % authorities, _scale_spec(seed, authorities, "fair"), "vector", "scale"
        )
        references = (fair,)
    operation = Operation(
        "scale/%s@%d" % (transport, authorities),
        _scale_spec(seed, authorities, transport),
        "vector",
        "scale",
        reference=references[0].label if references else None,
    )
    return Workload(name, (operation,), references)


def _clients_attack(seed: int, tiny: bool) -> Workload:
    population = 10_000 if tiny else CLIENT_POPULATION
    cohorts = 4 if tiny else CLIENT_COHORTS
    operations = tuple(
        Operation(
            "clients/%s" % protocol,
            figure13_spec(
                protocol,
                population,
                cohort_count=cohorts,
                mirror_count=16 if tiny else CLIENT_MIRRORS,
                seed=seed,
            ),
            "vector",
            "clients",
        )
        for protocol in ("ours", "current")
    )
    return Workload("clients-attack", operations)


def build_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The operations of workload ``name`` for ``seed``."""
    if name == "paper-grid":
        return _paper_grid(seed, tiny)
    if name in ("scale-fair", "scale-tcp"):
        return _scale(name, seed, tiny)
    if name == "clients-attack":
        return _clients_attack(seed, tiny)
    raise ValueError("unknown workload %r; expected one of %r" % (name, WORKLOADS))
