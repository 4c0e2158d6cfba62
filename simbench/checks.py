"""Output checks: properties the simulated results must have.

Each check takes an :class:`Outcome` (the run summary plus what the check
needs to know about the spec) and returns a list of error strings, empty when
the outcome passes.  None of them compares against a recorded output: the
expectations are computed apart from the program (the uplink lower bound,
4·n·(n−1) messages) or are properties the paper's method must have (the
current protocol fails past its 18 s connection timeout, ``ours`` always
finishes).  ``tests/test_simbench_checks.py`` feeds each check a doctored
outcome to show it can fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: The directory connection timeout the current protocol's vote push obeys.
CONNECTION_TIMEOUT_S = 18.0

#: How far the uplink bound must sit from the timeout before a grid cell's
#: current-protocol outcome is asserted: success at or below
#: ``timeout / margin``, failure at or above ``timeout * margin``.  In
#: between, propagation delay and the signature round decide, so the cell is
#: left unasserted.
TIMEOUT_MARGIN = 1.25

#: Share of clients ``ours`` must leave fresh at the end of a Figure-13 run.
OURS_MIN_FRESH = 0.98


@dataclass
class Outcome:
    """What the checks see of one finished operation.

    ``summary`` is :meth:`ProtocolRunResult.summary`; ``authorities`` and
    ``bandwidth_mbps`` come from the spec; ``min_vote_bytes`` is the smallest
    vote the scenario built.
    """

    kind: str
    protocol: str
    summary: Dict[str, Any]
    authorities: int
    bandwidth_mbps: float
    min_vote_bytes: int
    mix: Optional[str] = None


def uplink_bound_s(outcome: Outcome) -> float:
    """(n−1) · vote bytes / bandwidth: the time to push one vote to every peer."""
    bytes_per_s = outcome.bandwidth_mbps * 1e6 / 8.0
    return (outcome.authorities - 1) * outcome.min_vote_bytes / bytes_per_s


def check_accounting(outcome: Outcome) -> List[str]:
    """Dropped + timed-out + delivered messages never exceed those sent."""
    stats = outcome.summary["stats"]
    resolved = (
        stats["messages_dropped"] + stats["messages_timed_out"] + stats["messages_delivered"]
    )
    if resolved > stats["messages_sent"]:
        return ["%d messages resolved but only %d sent" % (resolved, stats["messages_sent"])]
    return []


def check_uplink_bound(outcome: Outcome) -> List[str]:
    """A successful baseline is never faster than its vote push allows."""
    if outcome.protocol == "ours" or not outcome.summary["success"]:
        return []
    bound = uplink_bound_s(outcome)
    latency = outcome.summary["latency"]
    if latency is None or latency < bound:
        return ["latency %r below the uplink bound %.6f s" % (latency, bound)]
    return []


def check_timeout_outcome(outcome: Outcome) -> List[str]:
    """The current protocol succeeds well under its timeout, fails well over it."""
    if outcome.protocol != "current":
        return []
    bound = uplink_bound_s(outcome)
    success = outcome.summary["success"]
    if bound <= CONNECTION_TIMEOUT_S / TIMEOUT_MARGIN and not success:
        return ["current failed with an uplink bound of %.3f s" % bound]
    if bound >= CONNECTION_TIMEOUT_S * TIMEOUT_MARGIN and success:
        return ["current succeeded with an uplink bound of %.3f s" % bound]
    return []


def check_grid(outcome: Outcome, current_success: Optional[bool]) -> List[str]:
    """Figure 10: bound, timeout, synchronous ⊆ current, ``ours`` everywhere.

    ``current_success`` is the outcome of the current protocol in the same
    bandwidth × relay cell (None for the current protocol itself).
    """
    errors = check_uplink_bound(outcome) + check_timeout_outcome(outcome)
    success = outcome.summary["success"]
    if outcome.protocol == "synchronous" and success and not current_success:
        errors.append("synchronous succeeded where current failed")
    if outcome.protocol == "ours" and not success:
        errors.append("ours failed a bandwidth cell")
    return errors


def check_flood(outcome: Outcome) -> List[str]:
    """Figure 1: under the majority flood only ``ours`` reaches consensus."""
    expected = outcome.protocol == "ours"
    if outcome.summary["success"] != expected:
        return ["%s success=%s under the majority flood" % (outcome.protocol, not expected)]
    return []


def check_fault(outcome: Outcome) -> List[str]:
    """Figure 12's documented outcomes for the flood and Byzantine mixes."""
    success = outcome.summary["success"]
    if outcome.mix in ("flash-flood", "flash-flood-tcp") and success:
        return ["%s reached consensus through %s" % (outcome.protocol, outcome.mix)]
    if outcome.mix == "byzantine" and success != (outcome.protocol == "ours"):
        return ["%s success=%s under byzantine" % (outcome.protocol, success)]
    return []


def check_scale(outcome: Outcome, fair_latency: Optional[float] = None) -> List[str]:
    """The scaling spec: 4·n·(n−1) messages, all delivered, a majority done.

    ``fair_latency`` is the same spec's latency on ``fair``; a tcp run is
    never faster, since tcp rates are capped by the fair share.
    """
    stats = outcome.summary["stats"]
    n = outcome.authorities
    errors = []
    if stats["messages_sent"] != 4 * n * (n - 1):
        errors.append("%d messages sent, expected 4·n·(n−1) = %d"
                      % (stats["messages_sent"], 4 * n * (n - 1)))
    if stats["messages_delivered"] != stats["messages_sent"]:
        errors.append("%d of %d messages delivered"
                      % (stats["messages_delivered"], stats["messages_sent"]))
    if sum(stats["bytes_delivered"].values()) != sum(stats["bytes_sent"].values()):
        errors.append("delivered bytes differ from sent bytes")
    successes = sum(1 for entry in outcome.summary["outcomes"] if entry["success"])
    if not outcome.summary["success"] or successes < n // 2 + 1:
        errors.append("only %d of %d authorities reached consensus" % (successes, n))
    latency = outcome.summary["latency"]
    if fair_latency is not None and (latency is None or latency < fair_latency):
        errors.append("tcp latency %r below the fair latency %r" % (latency, fair_latency))
    return errors


def check_clients(outcome: Outcome) -> List[str]:
    """Figure 13: client accounting is conserved and recovery matches the paper."""
    clients = outcome.summary["clients"]
    population = clients["population"]
    errors = []
    if sum(clients["states"].values()) != population:
        errors.append("client states sum to %d, population %d"
                      % (sum(clients["states"].values()), population))
    resolved = clients["fetch_successes"] + clients["fetch_timeouts"] + clients["fetch_not_ready"]
    if resolved > clients["fetch_attempts"]:
        errors.append("%d fetches resolved of %d attempted" % (resolved, clients["fetch_attempts"]))
    fresh = clients["fresh_fraction"]
    published = clients["first_publish_time_s"]
    if published is None:
        if fresh > 0:
            errors.append("clients fresh without any publish")
    else:
        # Every fresh client became fresh at or after the first publish, so
        # the median time-to-fresh and the mean staleness are bounded by it.
        p50 = clients["time_to_fresh_p50_s"]
        if p50 is not None and p50 < published:
            errors.append("median time-to-fresh %r before the first publish %r" % (p50, published))
        end = outcome.summary["end_time"]
        floor = fresh * published + (1.0 - fresh) * end
        if clients["mean_staleness_s"] < floor * (1.0 - 1e-12):
            errors.append("mean staleness %r below the publish floor %r"
                          % (clients["mean_staleness_s"], floor))
    if outcome.protocol == "current" and fresh != 0.0:
        errors.append("current left %.4f of clients fresh" % fresh)
    if outcome.protocol == "ours" and fresh < OURS_MIN_FRESH:
        errors.append("ours left only %.4f of clients fresh" % fresh)
    return errors
