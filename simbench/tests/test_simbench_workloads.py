"""The tiny copy of every workload runs end to end, plain and traced."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from simbench.harness import Harness, end_to_end
from simbench.report import another_pass_fits
from simbench.tracing import Tracer
from simbench.workloads import WORKLOADS, build_workload

ROOT = Path(__file__).resolve().parents[2]

# The scaling and client workloads request the vector engine, which needs
# numpy; without it they would (rightly) fail as downgraded.
pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="the vector engine needs numpy"
)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_passes_its_checks_and_tracing_changes_no_statistic(name):
    workload = build_workload(name, seed=3, tiny=True)
    plain_harness = Harness(workload)
    plain_harness.run_references()
    plain = plain_harness.run_round()
    assert [r.errors for r in plain.results] == [[] for _ in plain.results]
    assert plain_harness.run_round().digest == plain.digest

    traced_harness = Harness(workload, Tracer())
    traced_harness.run_references()
    traced = traced_harness.run_round(traced=True)
    assert traced.digest == plain.digest
    assert traced_harness.tracer.span_count() > 0
    metrics = end_to_end([plain])
    assert metrics["wall_s"] > 0 and metrics["sim_msgs_per_s"] > 0


def test_tracer_restores_every_entry_point():
    from repro.crypto import signatures
    from repro.protocols import current_v3
    from repro.simnet.engine import Simulator
    from repro.simnet.network import SimNetwork

    before = (Simulator.schedule, SimNetwork.schedule_node_timer, signatures.verify,
              current_v3.verify)
    tracer = Tracer()
    tracer.install()
    assert Simulator.schedule is not before[0] and current_v3.verify is not before[3]
    tracer.uninstall()
    assert (Simulator.schedule, SimNetwork.schedule_node_timer, signatures.verify,
            current_v3.verify) == before


def test_a_pass_starts_only_if_it_ends_nearer_the_run_length():
    assert another_pass_fits(0.0, [], 0.0)  # the first always runs
    assert another_pass_fits(10.0, [10.0], 30.0)  # ends at 20
    assert another_pass_fits(20.0, [10.0, 10.0], 30.0)  # ends at 30
    assert not another_pass_fits(26.0, [13.0, 13.0], 30.0)  # would end at 39
    assert not another_pass_fits(20.0, [20.0], 30.0)  # 40 is no nearer than 20


def test_seed_changes_the_inputs():
    first = build_workload("scale-fair", seed=1, tiny=True).operations[0].spec
    second = build_workload("scale-fair", seed=2, tiny=True).operations[0].spec
    assert first.seed == 1 and second.seed == 2


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_line(trace):
    out = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "scale-tcp", "--seed", "5",
         "--seconds", "0", "--trace", trace, "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if trace == "1" else "end_to_end"]
    assert {name: result["metrics"][name]["unit"] for name in result["metrics"]} == {
        metric["name"]: metric["unit"] for metric in declared
    }
