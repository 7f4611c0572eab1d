"""End-to-end scenario runs: the three invariants under real chaos.

The headline satellite: one multi-host kill + partition scenario,
parameterized over BOTH cluster backends — thread-pool servers over the
memory fabric, and one-OS-process-per-host over TCP where the kill is a
genuine SIGKILL and the partition maps onto a SIGSTOP freeze.  Either
way the run must come out the other side with *no lost acked puts*, *no
stranded waiters*, and *bounded duplicates*.
"""

from __future__ import annotations

import pytest

from repro.scenarios import (
    FaultEvent,
    ScenarioSpec,
    WorkloadSpec,
    run_scenario,
)
from repro.scenarios.sweep import kill_partition

BACKENDS = ["inprocess", "process"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_kill_plus_partition_invariants(backend):
    """The spec ``python -m repro.scenarios.sweep`` sweeps, at seed 1234."""
    spec = kill_partition(backend, seed=1234)
    result = run_scenario(spec)
    # The kill genuinely opened while load was flowing.
    opened = [r for r in result.executed_faults if r["phase"] == "open"]
    assert any(r["kind"] == "kill" for r in opened), result.executed_faults
    # All three invariants (and per-workload verification) hold.
    result.assert_ok()
    assert result.metrics["acked_puts"] > 0
    assert not result.report.lost_acked
    assert not result.report.stranded_waiters
    assert not result.report.unexplained_duplicates


def test_calm_run_is_exactly_once():
    """Without faults the duplicate bound degenerates to exactly-once."""
    spec = ScenarioSpec(
        name="calm",
        seed=5,
        hosts=3,
        replication_factor=1,
        duration=30.0,
        max_duplicates=0,
        workloads=[
            WorkloadSpec(kind="uniform", workers=2, ops=60),
            WorkloadSpec(kind="pipeline", workers=1, ops=20),
        ],
    )
    result = run_scenario(spec)
    result.assert_ok()
    assert result.report.duplicates == {}
    assert result.metrics["fault_epochs"] == 0
    # Everything acked was seen again: consumed in-flight or drained.
    counts = result.metrics
    assert counts["consumes"] + counts["drained"] >= counts["acked_puts"]


def test_fanin_actors_and_lucid_survive_a_kill():
    """Waiter-table fan-in, MDC mailboxes, and Lucid dataflow under a kill."""
    spec = ScenarioSpec(
        name="mixed",
        seed=21,
        hosts=4,
        replication_factor=2,
        duration=60.0,
        faults=[
            FaultEvent(at=0.6, kind="kill", targets=("n03",), duration=1.2),
        ],
        workloads=[
            WorkloadSpec(kind="scatter_gather", workers=1, ops=25,
                         options={"fanout": 3}),
            WorkloadSpec(kind="actors", workers=1, ops=20,
                         options={"actors": 3, "hops": 6}),
            WorkloadSpec(kind="lucid", workers=1, ops=1, options={"n": 6}),
        ],
    )
    result = run_scenario(spec)
    result.assert_ok()
    notes = result.workload_notes
    assert notes["lucid[2]"]["converged"] is True
    assert notes["actors[1]"]["rings_completed"] > 0
    assert notes["scatter_gather[0]"]["rounds"] == [25]


def test_open_loop_pacing_runs_at_rate():
    """Open-loop driving issues on the clock and still reconciles."""
    spec = ScenarioSpec(
        name="open",
        seed=9,
        hosts=2,
        replication_factor=1,
        duration=30.0,
        workloads=[
            WorkloadSpec(kind="uniform", workers=1, ops=80, pacing="open",
                         rate=400.0),
        ],
    )
    result = run_scenario(spec)
    result.assert_ok()
    assert result.metrics["acked_puts"] > 0


def test_seeded_fault_plan_executes_deterministically():
    """A generated (plan-based) schedule executes the events it promised."""
    spec = ScenarioSpec(
        name="gen",
        seed=77,
        hosts=3,
        replication_factor=2,
        duration=60.0,
        fault_plan={"kills": 1, "kill_hold": 0.8, "window": [0.003, 0.008]},
        workloads=[WorkloadSpec(kind="uniform", workers=2, ops=1500)],
    )
    promised = spec.fault_schedule()
    assert [e.kind for e in promised] == ["kill"]
    result = run_scenario(spec)
    result.assert_ok()
    executed_kills = [
        r for r in result.executed_faults
        if r["kind"] == "kill" and r["phase"] == "open"
    ]
    assert [tuple(r["targets"]) for r in executed_kills] == [
        promised[0].targets
    ]
