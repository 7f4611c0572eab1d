"""The scenario driver: spec in, invariant-checked result out.

``run_scenario(spec)`` is the harness's single entry point: build the
cluster the spec describes (either backend, tens-to-hundreds of simulated
hosts), start every workload leg, run the fault schedule beside them,
then settle, drain, and check the three cluster-wide invariants.  The
returned :class:`ScenarioResult` carries everything a report needs —
metrics, the executed fault record, per-workload notes, and the
invariant report — and serializes to a dict for artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.scenarios.checker import InvariantChecker, InvariantReport
from repro.scenarios.faults import FaultScheduler
from repro.scenarios.ledger import ScenarioLedger
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.workloads import WorkloadContext, build_workloads

__all__ = ["ScenarioResult", "run_scenario"]


@dataclass
class ScenarioResult:
    """Everything one scenario execution produced."""

    spec: ScenarioSpec
    report: InvariantReport
    metrics: dict = field(default_factory=dict)
    executed_faults: list[dict] = field(default_factory=list)
    workload_notes: dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.report.ok and not any(
            notes.get("failures") for notes in self.workload_notes.values()
        )

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "ok": self.ok,
            "invariants": self.report.to_dict(),
            "metrics": dict(self.metrics),
            "executed_faults": list(self.executed_faults),
            "workloads": dict(self.workload_notes),
        }

    def format(self) -> str:
        m = self.metrics
        lines = [
            f"scenario {self.spec.name!r}: "
            f"{len(self.spec.host_names())} hosts, "
            f"backend={self.spec.backend}, seed={self.spec.seed}",
            f"  acked puts: {m.get('acked_puts', 0)}  "
            f"throughput: {m.get('throughput_ops', 0.0):.1f} acked put/s  "
            f"ack latency p50/p99: {m.get('p50_ms', 0.0):.2f}/"
            f"{m.get('p99_ms', 0.0):.2f} ms",
            f"  faults executed: {len(self.executed_faults)}  "
            f"retried puts: {m.get('retried_puts', 0)}  "
            f"abandoned: {m.get('abandoned_puts', 0)}",
        ]
        lines.append(self.report.format())
        for name, notes in sorted(self.workload_notes.items()):
            if notes:
                lines.append(f"  workload {name}: {notes}")
        return "\n".join(lines)

    def assert_ok(self) -> None:
        if not self.ok:
            raise AssertionError(self.format())


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one scenario end to end and reconcile its invariants.

    The run is budget-and-deadline bounded: it ends when every workload
    delivered its op budget or ``spec.duration`` elapsed, whichever
    comes first — then the fault scheduler closes its open windows, the
    checker settles/drains the cluster, and the invariants are decided.
    """
    from repro.runtime.cluster import Cluster

    spec.validate()
    adf = spec.build_adf()
    ledger = ScenarioLedger()
    cluster = Cluster(
        adf,
        backend=spec.backend,
        transport_kind=spec.transport,
        heartbeat_interval=spec.heartbeat_interval,
        failure_threshold=spec.failure_threshold,
        idle_timeout=10.0,
    )
    with cluster:
        cluster.register()
        ctx = WorkloadContext(cluster, spec, ledger)
        workloads = build_workloads(ctx)
        tracked = [key for w in workloads for key in w.tracked_folders()]

        scheduler = FaultScheduler(cluster, spec.fault_schedule(), ledger)
        for workload in workloads:
            workload.start()
        scheduler.start()

        deadline = time.monotonic() + spec.duration
        while time.monotonic() < deadline:
            if all(w.is_complete() for w in workloads):
                break
            time.sleep(0.05)
        ctx.stop.set()
        # Close every still-open fault window *before* joining: a put
        # retry loop can only make progress once its victim host is back.
        scheduler.stop()
        for workload in workloads:
            workload.join(timeout=30.0)
        for workload in workloads:
            workload.shutdown()

        # Mailboxes/refs may only exist after start(); re-collect.
        tracked = [key for w in workloads for key in w.tracked_folders()]
        checker = InvariantChecker(
            cluster, ledger, spec, tracked, anchor_host=spec.host_names()[0]
        )
        report = checker.run()
        ledger.finish()

        notes = {
            f"{w.kind}[{w.index}]": w.verify() for w in workloads
        }
        counts = ledger.counts()
        metrics = {
            "hosts": len(spec.host_names()),
            "backend": spec.backend,
            "elapsed_s": round(ledger.elapsed, 4),
            "throughput_ops": round(counts["acked_puts"] / ledger.elapsed, 2),
            **ledger.ack_latency_percentiles(),
            **counts,
        }
        for name, n in notes.items():
            if n.get("failures"):
                report.failures.append(f"workload {name}: {n['failures']}")
        return ScenarioResult(
            spec=spec,
            report=report,
            metrics=metrics,
            executed_faults=list(scheduler.executed),
            workload_notes=notes,
        )
