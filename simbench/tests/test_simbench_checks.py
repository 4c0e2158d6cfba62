"""Each output check rejects a doctored outcome and accepts the honest one."""

from __future__ import annotations

import copy

import pytest

from simbench import checks
from simbench.harness import check_outcome


def _summary(success=True, latency=10.0, sent=288, delivered=288, timed_out=0, dropped=0,
             authorities=9):
    return {
        "success": success,
        "latency": latency,
        "end_time": 1800.0,
        "outcomes": [{"success": success} for _ in range(authorities)],
        "stats": {
            "messages_sent": sent,
            "messages_delivered": delivered,
            "messages_timed_out": timed_out,
            "messages_dropped": dropped,
            "bytes_sent": {"a": 1000.0},
            "bytes_delivered": {"a": 1000.0},
        },
        "clients": {},
    }


def _outcome(kind="grid", protocol="current", summary=None, authorities=9,
             bandwidth_mbps=10.0, min_vote_bytes=100_000, mix=None):
    return checks.Outcome(
        kind=kind,
        protocol=protocol,
        summary=summary if summary is not None else _summary(),
        authorities=authorities,
        bandwidth_mbps=bandwidth_mbps,
        min_vote_bytes=min_vote_bytes,
        mix=mix,
    )


def _clients_summary(protocol="ours"):
    fresh = 0.99 if protocol == "ours" else 0.0
    population = 1000
    summary = _summary()
    summary["clients"] = {
        "population": population,
        "states": {"stale": 10, "fetching": 0, "failed": 0, "fresh": 990} if fresh
        else {"stale": 1000, "fetching": 0, "failed": 0, "fresh": 0},
        "fetch_attempts": 3000,
        "fetch_successes": 990 if fresh else 0,
        "fetch_timeouts": 1000,
        "fetch_not_ready": 500,
        "fresh_fraction": fresh,
        "first_publish_time_s": 400.0 if fresh else None,
        "time_to_fresh_p50_s": 600.0 if fresh else None,
        "mean_staleness_s": 0.99 * 620.0 + 0.01 * 1800.0 if fresh else 1800.0,
    }
    return summary


def test_uplink_bound_is_n_minus_one_votes_over_the_bandwidth():
    # 8 peers × 100 kB at 10 Mbit/s (1.25 MB/s) = 0.64 s.
    assert checks.uplink_bound_s(_outcome()) == pytest.approx(0.64)


def test_accounting_rejects_more_resolved_than_sent():
    assert checks.check_accounting(_outcome()) == []
    doctored = _outcome(summary=_summary(sent=288, delivered=280, timed_out=5, dropped=5))
    assert checks.check_accounting(doctored)


def test_uplink_bound_rejects_a_latency_faster_than_the_link():
    assert checks.check_uplink_bound(_outcome(summary=_summary(latency=0.7))) == []
    assert checks.check_uplink_bound(_outcome(summary=_summary(latency=0.5)))
    # ours is exempt: its latency is measured differently.
    assert checks.check_uplink_bound(_outcome(protocol="ours", summary=_summary(latency=0.1))) == []


def test_timeout_outcome_rejects_success_past_the_timeout_and_failure_well_under_it():
    # 8 × 100 kB at 0.1 Mbit/s = 64 s, well past 18 s.
    slow = dict(bandwidth_mbps=0.1)
    assert checks.check_timeout_outcome(_outcome(summary=_summary(success=False), **slow)) == []
    assert checks.check_timeout_outcome(_outcome(summary=_summary(latency=70.0), **slow))
    # 0.64 s is well under it.
    assert checks.check_timeout_outcome(_outcome()) == []
    assert checks.check_timeout_outcome(_outcome(summary=_summary(success=False)))
    # 8 × 100 kB at 0.4 Mbit/s = 16 s sits inside the margin: no verdict.
    assert checks.check_timeout_outcome(
        _outcome(summary=_summary(success=False), bandwidth_mbps=0.4)
    ) == []


def test_grid_rejects_synchronous_beyond_current_and_a_failing_ours():
    synchronous = _outcome(protocol="synchronous", summary=_summary(latency=30.0))
    assert checks.check_grid(synchronous, current_success=True) == []
    assert checks.check_grid(synchronous, current_success=False)
    ours = _outcome(protocol="ours", bandwidth_mbps=0.1)
    assert checks.check_grid(ours, None) == []
    assert checks.check_grid(_outcome(protocol="ours", summary=_summary(success=False)), None)


def test_flood_rejects_a_surviving_baseline_and_a_stalled_ours():
    for protocol in ("current", "synchronous"):
        assert checks.check_flood(_outcome("flood", protocol, _summary(success=False))) == []
        assert checks.check_flood(_outcome("flood", protocol, _summary(success=True)))
    assert checks.check_flood(_outcome("flood", "ours", _summary(success=True))) == []
    assert checks.check_flood(_outcome("flood", "ours", _summary(success=False)))


def test_fault_rejects_consensus_through_a_flood_and_baselines_past_byzantine():
    for mix in ("flash-flood", "flash-flood-tcp"):
        assert checks.check_fault(_outcome("fault", "ours", _summary(success=False), mix=mix)) == []
        assert checks.check_fault(_outcome("fault", "ours", _summary(success=True), mix=mix))
    assert checks.check_fault(_outcome("fault", "current", _summary(success=False), mix="byzantine")) == []
    assert checks.check_fault(_outcome("fault", "current", _summary(success=True), mix="byzantine"))
    assert checks.check_fault(_outcome("fault", "ours", _summary(success=False), mix="byzantine"))
    # Other mixes carry no documented outcome here.
    assert checks.check_fault(_outcome("fault", "current", _summary(success=False), mix="lossy-links")) == []


def _scale(summary=None, authorities=12):
    messages = 4 * authorities * (authorities - 1)
    summary = summary or _summary(sent=messages, delivered=messages, authorities=authorities)
    return _outcome("scale", "current", summary, authorities=authorities, bandwidth_mbps=250.0)


def test_scale_accepts_the_honest_run():
    assert checks.check_scale(_scale()) == []
    assert checks.check_scale(_scale(), fair_latency=9.0) == []


@pytest.mark.parametrize("doctor", [
    lambda s: s["stats"].update(messages_sent=527),
    lambda s: s["stats"].update(messages_delivered=527),
    lambda s: s["stats"]["bytes_delivered"].update(a=999.0),
    lambda s: [entry.update(success=False) for entry in s["outcomes"][:6]],
])
def test_scale_rejects_each_doctored_statistic(doctor):
    outcome = _scale()
    doctor(outcome.summary)
    assert checks.check_scale(outcome)


def test_scale_rejects_tcp_faster_than_fair():
    assert checks.check_scale(_scale(), fair_latency=10.5)


def test_clients_accepts_the_honest_runs():
    for protocol in ("ours", "current"):
        assert checks.check_clients(_outcome("clients", protocol, _clients_summary(protocol))) == []


@pytest.mark.parametrize("protocol, doctor", [
    ("ours", lambda c: c["states"].update(stale=11)),
    ("ours", lambda c: c.update(fetch_timeouts=2000)),
    ("ours", lambda c: c.update(time_to_fresh_p50_s=300.0)),
    ("ours", lambda c: c.update(mean_staleness_s=400.0)),
    ("ours", lambda c: c.update(fresh_fraction=0.97)),
    ("current", lambda c: c.update(fresh_fraction=0.001)),
])
def test_clients_rejects_each_doctored_statistic(protocol, doctor):
    summary = _clients_summary(protocol)
    doctor(summary["clients"])
    assert checks.check_clients(_outcome("clients", protocol, summary))


def test_every_kind_runs_the_accounting_check():
    doctored = _summary(sent=10, delivered=11)
    for kind in ("grid", "fault", "flood", "scale", "clients"):
        summary = copy.deepcopy(doctored)
        if kind == "clients":
            summary["clients"] = _clients_summary()["clients"]
        assert any("resolved" in error for error in check_outcome(_outcome(kind, "ours", summary)))
