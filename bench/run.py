"""Run the benchmark: ``python3 -m bench.run [--workload NAME] [--trace 1]``.

With ``--workload <name>`` one run happens in this process and the last
line of standard output is the result object the benchmark contract
asks for (``correct``/``attempted``/``failed``/``metrics``).  Without it
every workload runs in turn, each in a process of its own so that
``peak_rss_mb`` belongs to one workload; ``--traced`` runs each both
ways and prints ``tracing_overhead`` from the pair.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from bench import layers
from bench.harness import ROOT, Tracer, child_pids, pin_to_one_cpu
from bench.workloads import (
    COUNTER_UNITS,
    REF_SECONDS,
    RUNNERS,
    WINDOW_COUNTERS,
    WORKLOADS,
    Outcome,
    RunContext,
)

END_TO_END = (
    "setup_s",
    "ops_per_s",
    "cpu_ms_per_kop",
    "put_ack_p50_ms",
    "get_p50_ms",
    "turnaround_p50_ms",
    "recover_s",
    "peak_rss_mb",
)

#: Measured like the end-to-end latencies but too unsteady on the reference
#: box to carry a bound (see README, *Bounds*): reported with the layers.
DEMOTED = ("put_ack_p90_ms", "turnaround_p90_ms")

#: Layer-table entries that come from the traced workload run itself;
#: the probes in :mod:`bench.layers` supply the rest.
RUN_LAYER_DEFAULTS = {
    **{
        f"{name}_per_kop": (0.0, COUNTER_UNITS.get(name, "1/kop"))
        for name in (*WINDOW_COUNTERS, "link.bytes", "link.messages")
    },
    # Zero on the workloads that kill nothing inside their window.
    "replication.failover_stall_ms": (0.0, "ms"),
    "replication.retried_puts": (0.0, "count"),
    "replication.duplicates": (0.0, "count"),
    "replication.resync_records": (0.0, "count"),
}


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _stamp(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": _commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def _arm_watchdog(deadline: float, tmp_dir: Path) -> threading.Timer:
    """Turn a hang into a failed run: dump stacks, reap servers, exit 3."""
    faulthandler.dump_traceback_later(deadline, exit=False)

    def expire() -> None:
        print(f"bench: run exceeded {deadline:.0f}s, giving up", file=sys.stderr)
        _kill_children()
        shutil.rmtree(tmp_dir, ignore_errors=True)
        os._exit(3)

    # Fires just after the stack dump above has been written.
    timer = threading.Timer(deadline + 1.0, expire)
    timer.daemon = True
    timer.start()
    return timer


def _kill_children() -> None:
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _layer_table(outcome: Outcome, tracer: Tracer, tmp_dir: Path) -> dict:
    """Every per-layer metric: window deltas, span sums, then the probes."""
    table = dict(RUN_LAYER_DEFAULTS)
    table.update(outcome.layer)
    table.update({name: outcome.metrics[name] for name in DEMOTED})
    self_times = tracer.self_times()
    api_s = sum(t for name, t in self_times.items() if "." in name and name[0].isupper())
    table["trace.ops_per_s"] = outcome.metrics["ops_per_s"]
    ops = outcome.detail["ops"]
    table["trace.spans_per_op"] = (len(tracer.spans) / ops, "count")
    table["trace.api_self_ms_per_op"] = (api_s * 1000.0 / ops, "ms")
    table.update(layers.run_probes(tmp_dir))
    # The probes are uncorrected timings, so compare like with like.
    attributed_us = layers.attributed_put_ack_us(table, **outcome.put_path)
    table["trace.unattributed_share"] = (
        1.0 - attributed_us / (outcome.uncorrected_put_ack_ms * 1000.0), "ratio")
    return table


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; prints the table and the result line."""
    pin_to_one_cpu()
    out_dir = Path(args.out_dir)
    tmp_dir = out_dir / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    stamp = _stamp(args)
    # Four times the window, plus room for set-up, checks, tail and probes.
    deadline = 4.0 * args.seconds + (100.0 if args.trace else 45.0)
    watchdog = _arm_watchdog(deadline, tmp_dir)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tracer = Tracer(enabled=bool(args.trace))
    ctx = RunContext(
        seed=args.seed,
        scale=args.seconds / REF_SECONDS,
        tracer=tracer,
        tmp_dir=tmp_dir,
    )
    started = time.perf_counter()
    try:
        outcome = RUNNERS[args.workload](ctx)
        if args.trace:
            metrics = _layer_table(outcome, tracer, tmp_dir)
            tracer.write(out_dir / f"trace-{args.workload}.jsonl")
        else:
            metrics = {name: outcome.metrics[name] for name in END_TO_END}
    finally:
        watchdog.cancel()
        faulthandler.cancel_dump_traceback_later()
        _kill_children()  # none are left unless the run died half-way
        shutil.rmtree(tmp_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload}/{name:<42} {value:>16.4f} {unit}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    record = {
        **stamp,
        "run_s": time.perf_counter() - started,
        "detail": outcome.detail,
        **result,
    }
    if args.trace:
        record["end_to_end"] = {
            n: {"value": v, "unit": u} for n, (v, u) in outcome.metrics.items()
        }
    print("detail " + json.dumps(record))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a process of its own; with ``--traced``, both ways."""
    status = 0
    for workload in WORKLOADS:
        records = {}
        for trace in (0, 1) if args.traced else (args.trace,):
            cmd = [
                sys.executable, "-m", "bench.run",
                "--workload", workload, "--trace", str(trace),
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--out-dir", args.out_dir,
            ]
            if args.out:
                cmd += ["--out", args.out]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines if not line.startswith("detail ")))
            if proc.returncode != 0:
                print(f"{workload}: run failed with exit code {proc.returncode}")
                status = 1
                continue
            records[trace] = json.loads(lines[-1])
            status |= not records[trace]["correct"]
        if len(records) == 2:
            traced = records[1]["metrics"]["trace.ops_per_s"]["value"]
            untraced = records[0]["metrics"]["ops_per_s"]["value"]
            print(f"{workload}/tracing_overhead {traced / untraced:.4f} ratio "
                  f"(traced / untraced ops_per_s)")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=1,
                        help="shuffles key order and payload values")
    parser.add_argument("--seconds", type=float, default=REF_SECONDS,
                        help="seconds the timed window is sized for; op counts "
                             "scale with it (the smoke test passes a fraction)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans, snapshot counters, run the layer "
                             "probes and print the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="all-workload mode: run untraced then traced and "
                             "print tracing_overhead")
    parser.add_argument("--out", help="append each run's stamped record to this JSONL file")
    parser.add_argument("--out-dir", default=str(ROOT / "bench" / "out"),
                        help="where span files and scratch WAL directories go")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args)
    if args.traced:
        parser.error("--traced applies to all-workload mode; use --trace 1")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
