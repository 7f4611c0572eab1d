"""A failure rate, not a single pass: one scenario over many seeds.

A rare invariant break (one lost acked put in tens of loaded runs) is
invisible to a single seeded run.  ``python -m repro.scenarios.sweep``
runs one :class:`~repro.scenarios.spec.ScenarioSpec` under N consecutive
seeds on one backend or both, optionally beside one CPU-bound subprocess
of its own (``--burner``: a loaded box is where the rare cases show), and
prints each run's verdict, then per backend the failure rate with its
Wilson 95 % interval and every failure's seed and lost tokens.

The spec is the kill + partition scenario of
``tests/scenarios/test_scenario_invariants.py`` (:func:`kill_partition`),
under each run's seed and the swept backend.  To rerun one failure, start
at its seed with ``--runs 1``.  Example::

    PYTHONPATH=src python -m repro.scenarios.sweep --runs 60 --burner
"""

from __future__ import annotations

import argparse
import math
import subprocess
import sys
import time

from repro.scenarios.driver import run_scenario
from repro.scenarios.spec import FaultEvent, ScenarioSpec, WorkloadSpec

__all__ = ["kill_partition", "sweep", "wilson", "main"]

BACKENDS = ("inprocess", "process")

#: Per-backend op budgets of :func:`kill_partition`: the in-process fabric
#: is an order of magnitude faster, and the faults must land while traffic
#: is still flowing.  On the process backend (2-vCPU box, warm
#: interpreter) 280 + 75 ops are over 0.30-0.50 s after the schedule
#: starts, so the kill at 0.4 s sometimes finds the load done and never
#: opens; 520 + 140 take 0.60-0.91 s.  A budget that outlasts the
#: windows' timed closes at 1.9 s makes the restart's resync pull wait 10 s on the still-frozen
#: peer (ROADMAP item 5(b): no deadline on that leg).
OPS = {"inprocess": (500, 120), "process": (520, 140)}


def kill_partition(backend: str, seed: int = 1234) -> ScenarioSpec:
    """Kill ``n02`` at 0.4 s for 1.5 s and cut ``n01``–``n02`` at 0.9 s for
    1 s, under a uniform mix and a 3-stage pipeline, rf 2 on 3 hosts."""
    uniform_ops, pipeline_ops = OPS[backend]
    return ScenarioSpec(
        name=f"kp-{backend}",
        seed=seed,
        hosts=3,
        replication_factor=2,
        duration=60.0,
        backend=backend,
        faults=[
            FaultEvent(at=0.4, kind="kill", targets=("n02",), duration=1.5),
            FaultEvent(
                at=0.9, kind="partition", targets=("n01", "n02"), duration=1.0
            ),
        ],
        workloads=[
            WorkloadSpec(kind="uniform", workers=2, ops=uniform_ops),
            WorkloadSpec(
                kind="pipeline", workers=1, ops=pipeline_ops, options={"stages": 3}
            ),
        ],
    )


def wilson(failures: int, runs: int, z: float = 1.96) -> tuple[float, float]:
    """The Wilson score interval of a failure rate *failures* / *runs*."""
    if runs == 0:
        return 0.0, 1.0
    p = failures / runs
    scale = 1 + z * z / runs
    centre = (p + z * z / (2 * runs)) / scale
    half = z * math.sqrt(p * (1 - p) / runs + z * z / (4 * runs * runs)) / scale
    return max(0.0, centre - half), min(1.0, centre + half)


def _verdict(spec: ScenarioSpec) -> tuple[bool, list[str], str]:
    """Run *spec*: whether it held, its lost tokens, and a one-line note."""
    started = time.monotonic()
    try:
        result = run_scenario(spec)
    except Exception as exc:  # noqa: BLE001 - a crashed run is a failed run
        return False, [], f"raised {type(exc).__name__}: {exc}"
    lost = [entry["token"] for entry in result.report.lost_acked]
    note = (
        f"{result.metrics.get('acked_puts', 0)} acked in "
        f"{time.monotonic() - started:.1f} s"
    )
    if not result.ok:
        note += "; " + "; ".join(result.report.failures)
    return result.ok, lost, note


def sweep(make, backends, runs: int, first_seed: int, out=sys.stdout) -> dict:
    """Run ``make(backend, seed)`` for each seed in ``first_seed ..
    first_seed + runs - 1`` on each of *backends*; returns ``{backend:
    [(seed, lost tokens, note)]}`` of the runs that failed, having printed
    every verdict and the rates."""
    failed: dict[str, list] = {}
    for backend in backends:
        failed[backend] = []
        for seed in range(first_seed, first_seed + runs):
            ok, lost, note = _verdict(make(backend, seed))
            print(f"{backend} seed {seed}: {'ok' if ok else 'FAILED'} ({note})",
                  file=out, flush=True)
            if not ok:
                failed[backend].append((seed, lost, note))
    for backend, failures in failed.items():
        low, high = wilson(len(failures), runs)
        print(
            f"{backend}: {len(failures)} failed of {runs} "
            f"({len(failures) / runs:.1%}; Wilson 95 % {low:.1%}-{high:.1%})",
            file=out,
        )
        for seed, lost, note in failures:
            print(f"  seed {seed}: lost {lost or 'nothing'}; {note}", file=out)
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios.sweep", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--runs", type=int, default=20, help="seeds per backend")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument(
        "--backend", choices=(*BACKENDS, "both"), default="inprocess"
    )
    parser.add_argument(
        "--burner", action="store_true", help="run one CPU-bound subprocess beside"
    )
    args = parser.parse_args(argv)
    backends = BACKENDS if args.backend == "both" else (args.backend,)
    burner = None
    if args.burner:
        burner = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        failed = sweep(kill_partition, backends, args.runs, args.seed)
    finally:
        if burner is not None:
            burner.kill()
            burner.wait()
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
