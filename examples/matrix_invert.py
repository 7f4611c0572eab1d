#!/usr/bin/env python
"""The paper's `invert` application on its own Figure-3 topology.

Section 4.3 of the paper uses a matrix-inversion application named
``invert`` as its running example: a boss on one Sparc, workers on two
more Sparcs and an SP-1, a star topology with a costlier SP-1 uplink.
This example reproduces it end to end:

* the ADF below is the paper's example (hosts renamed, SP-1 scaled to 8
  simulated processors so a laptop run finishes instantly);
* the boss publishes the matrix, drops one task per inverse column into a
  job jar, and assembles the result;
* workers drain the jar — medium-grain work distribution (section 4.2).

Run:  python examples/matrix_invert.py [N]
"""

import sys

import numpy as np

from repro import Cluster, ProgramRegistry, run_application
from repro.adf.parser import parse_adf
from repro.core.keys import Key, Symbol

ADF_TEXT = """
# The section-4.3 example, laptop-scaled.
APP invert
HOSTS
glen-ellyn 1 sun4 1
aurora     1 sun4 1
joliet     1 sun4 1
bonnie     8 sp1  sun4*0.5
FOLDERS
0   glen-ellyn
1   aurora
2   joliet
3-8 bonnie
PROCESSES
0   boss   glen-ellyn
1   worker aurora
2   worker joliet
3-6 worker bonnie
PPC
glen-ellyn <-> aurora 1
glen-ellyn <-> joliet 1
glen-ellyn <-> bonnie 2
"""

JAR = Symbol("jar")
RESULT = Symbol("result")
MATRIX = Symbol("matrix")


def build_registry(n: int) -> ProgramRegistry:
    registry = ProgramRegistry()

    @registry.register("boss")
    def boss(memo, ctx):
        rng = np.random.default_rng(1994)
        a = rng.uniform(-1, 1, (n, n)) + np.eye(n) * n
        memo.put(Key(MATRIX), a.tolist(), wait=True)
        for j in range(n):
            memo.put(Key(JAR), {"column": j})
        memo.flush()
        inv = np.zeros((n, n))
        for _ in range(n):
            res = memo.get(Key(RESULT))
            inv[:, res["column"]] = res["values"]
        for _ in range(len(ctx.peers) - 1):
            memo.put(Key(JAR), {"stop": True})
        memo.flush()
        return float(np.abs(a @ inv - np.eye(n)).max())

    @registry.register("worker")
    def worker(memo, ctx):
        a = None
        solved = 0
        while True:
            task = memo.get(Key(JAR))
            if task.get("stop"):
                return solved
            if a is None:
                a = np.array(memo.get_copy(Key(MATRIX)))
            j = task["column"]
            e = np.zeros(n)
            e[j] = 1.0
            memo.put(Key(RESULT), {"column": j, "values": np.linalg.solve(a, e).tolist()})
            solved += 1

    return registry


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    adf = parse_adf(ADF_TEXT)
    adf.validate()

    cluster = Cluster(adf).start()
    try:
        cluster.register()
        results = run_application(
            adf, build_registry(n), cluster=cluster, timeout=300
        )
        print(f"inverted a {n}x{n} matrix; max |A·A⁻¹ − I| = {results['0']:.2e}")
        for pid in sorted((p for p in results if p != "0"), key=int):
            print(f"  worker {pid}: solved {results[pid]} columns")

        metrics = cluster.metrics()
        print(f"\nmemo distribution over folder servers (puts):")
        for sid in sorted(metrics.server_puts, key=int):
            host = dict(adf.folder_server_placement())[sid]
            print(f"  server {sid} on {host:<10} {metrics.server_puts[sid]}")
        print(f"inter-host messages: {metrics.inter_host_messages()}")
        print(f"broadcasts (always 0 by design): {metrics.broadcasts}")
        assert results["0"] < 1e-9, results["0"]
        assert sum(results[pid] for pid in results if pid != "0") == n
    finally:
        cluster.stop()


if __name__ == "__main__":
    main()
