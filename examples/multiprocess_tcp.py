#!/usr/bin/env python
"""Real operating-system processes over real TCP sockets — on both sides.

Everything else in the examples runs simulated hosts as threads; this one
is the fidelity check, now all the way down: ``backend="process"`` gives
every memo server its own OS process (its own interpreter, its own GIL),
exactly like the paper's one-server-per-machine deployment, and the
workers are genuine ``multiprocessing`` processes that connect back with
nothing but host/port pairs from the cluster's address book.

The workload is the classic job-jar Monte-Carlo π estimate: a boss fills
a jar of tasks on one host, workers attached to *different* hosts drain
it through ordinary cross-server forwarding.

Run:  python examples/multiprocess_tcp.py
"""

import multiprocessing
import random

from repro import Cluster, system_default_adf
from repro.core.api import Memo
from repro.core.keys import Key, Symbol
from repro.network.connection import Address
from repro.network.tcp import TCPTransport
from repro.runtime.client import MemoClient

HOSTS = ["hub", "east", "west"]
N_WORKERS = 3
N_TASKS = 24
POINTS_PER_TASK = 20_000

JAR = Symbol("jar")
OUT = Symbol("out")


def worker_process(host: str, server_port: int, worker_id: int) -> None:
    """Runs in a separate OS process: connect, drain the jar, deposit hits."""
    transport = TCPTransport()
    client = MemoClient(
        transport, Address(host, server_port), origin=f"worker-{worker_id}"
    )
    memo = Memo(client, "mcpi", process_name=f"worker-{worker_id}")
    rng = random.Random(worker_id)
    while True:
        task = memo.get(Key(JAR))
        if task is None:  # poison pill
            client.close()
            return
        hits = 0
        for _ in range(task["points"]):
            x, y = rng.random(), rng.random()
            if x * x + y * y <= 1.0:
                hits += 1
        memo.put(Key(OUT), {"hits": hits, "worker": worker_id}, wait=True)


def main() -> None:
    adf = system_default_adf(HOSTS, app="mcpi")
    with Cluster(adf, backend="process") as cluster:
        cluster.register()
        boss = cluster.memo_api("hub", "mcpi", "boss")

        # Each worker attaches to a different server process; the ports
        # were drawn from the OS once, by the cluster, and stay the
        # hosts' for as long as it runs.
        procs = [
            multiprocessing.Process(
                target=worker_process,
                args=(
                    HOSTS[i % len(HOSTS)],
                    cluster.address_book[HOSTS[i % len(HOSTS)]].port,
                    i,
                ),
            )
            for i in range(N_WORKERS)
        ]
        for p in procs:
            p.start()

        for _ in range(N_TASKS):
            boss.put(Key(JAR), {"points": POINTS_PER_TASK})
        boss.flush()

        total_hits = 0
        per_worker: dict[int, int] = {}
        for _ in range(N_TASKS):
            result = boss.get(Key(OUT))
            total_hits += result["hits"]
            per_worker[result["worker"]] = per_worker.get(result["worker"], 0) + 1

        for _ in range(N_WORKERS):
            boss.put(Key(JAR), None)
        boss.flush()
        for p in procs:
            p.join(timeout=30)

        total_points = N_TASKS * POINTS_PER_TASK
        pi = 4.0 * total_hits / total_points
        n_procs = len(HOSTS) + N_WORKERS
        print(f"π ≈ {pi:.4f} from {total_points:,} points across "
              f"{n_procs} OS processes ({len(HOSTS)} servers + "
              f"{N_WORKERS} workers) over TCP")
        for wid in sorted(per_worker):
            print(f"  worker {wid} (pid was separate): {per_worker[wid]} tasks")
        assert abs(pi - 3.14159) < 0.05
    print("done.")


if __name__ == "__main__":
    main()
