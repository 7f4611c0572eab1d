"""Integration: the paper's `invert` application on its Figure-3 topology.

A boss distributes matrix rows to workers through a job jar; workers
compute the Gauss-Jordan elimination steps for their rows and deposit
results into an I-structure; the boss assembles the inverse.  This is the
medium-grain boss/worker decomposition of section 4.2 running on the exact
host/folder/process layout of the section 4.3 example ADF (3 "Sparc" hosts
plus one 128-processor "SP-1", star topology with a costlier SP-1 link).
"""

import threading
import time

import numpy as np
import pytest

from repro import Cluster, ProgramRegistry, run_application, system_default_adf
from repro.adf.parser import parse_adf
from repro.core.api import NIL
from repro.core.keys import FolderName, Key, Symbol

FIG3_ADF = """
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

N = 8  # matrix size

JAR = Symbol("jar")
RESULT = Symbol("result")
MATRIX = Symbol("matrix")
DONE = Symbol("done")


def make_registry():
    registry = ProgramRegistry()

    @registry.register("boss")
    def boss(memo, ctx):
        rng = np.random.default_rng(94)
        a = rng.uniform(-1, 1, (N, N)) + np.eye(N) * N  # well-conditioned
        # Publish the matrix (read-only broadcast via get_copy).
        memo.put(Key(MATRIX), a.tolist(), wait=True)
        # One task per column of the inverse: solve A x = e_j.
        for j in range(N):
            memo.put(Key(JAR), {"column": j})
        memo.flush()
        # Assemble the inverse column by column.
        inv = np.zeros((N, N))
        for _ in range(N):
            res = memo.get(Key(RESULT))
            inv[:, res["column"]] = res["values"]
        # Tell the workers to go home.
        for _ in range(len(ctx.peers) - 1):
            memo.put(Key(JAR), {"stop": True})
        memo.flush()
        a_inv_err = float(np.abs(a @ inv - np.eye(N)).max())
        return {"max_error": a_inv_err}

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
            e = np.zeros(N)
            e[j] = 1.0
            x = np.linalg.solve(a, e)
            memo.put(Key(RESULT), {"column": j, "values": x.tolist()})
            solved += 1

    return registry


@pytest.fixture
def invert_adf():
    adf = parse_adf(FIG3_ADF)
    adf.validate()
    return adf


class TestInvertApplication:
    def test_full_run_produces_correct_inverse(self, invert_adf):
        results = run_application(invert_adf, make_registry(), timeout=120)
        assert results["0"]["max_error"] < 1e-8

    def test_work_was_parallelized(self, invert_adf):
        results = run_application(invert_adf, make_registry(), timeout=120)
        worker_counts = [v for k, v in results.items() if k != "0"]
        assert sum(worker_counts) == N
        # More than one worker actually contributed.
        assert sum(1 for c in worker_counts if c > 0) >= 2

    def test_no_broadcasts_and_sp1_owns_most_folders(self, invert_adf):
        cluster = Cluster(invert_adf).start()
        try:
            cluster.register()
            run_application(
                invert_adf, make_registry(), cluster=cluster, timeout=120
            )
            metrics = cluster.metrics()
            assert metrics.broadcasts == 0
            # Proportional ownership is a statement over *many* folders
            # (the app itself uses only 3); probe with a folder spray.
            reg = cluster.servers["glen-ellyn"].registration("invert")
            from repro.core.keys import FolderName

            n_probe = 1000
            bonnie_owned = 0
            for i in range(n_probe):
                _sid, owner = reg.placement.place_host(
                    FolderName("invert", Key(Symbol("probe"), (i,)))
                )
                if owner == "bonnie":
                    bonnie_owned += 1
            # bonnie has 16 of the network's ~19 power units, discounted
            # by its costlier star link — still the clear majority owner.
            assert bonnie_owned / n_probe > 0.5
        finally:
            cluster.stop()


class TestJobJarFairness:
    """One-at-a-time tasks: a worker on another host than the jar gets its
    share — local and remote waiters queue in one list at the owner."""

    TASKS = 400

    def test_remote_worker_is_not_starved_by_a_colocated_one(self):
        app = "jobjar"
        adf = system_default_adf(["owner", "other", "spare"], app=app)
        with Cluster(adf, idle_timeout=0.5) as cluster:
            cluster.register()
            placement = cluster.servers["owner"].registration(app).placement

            def owned_key(name):
                return next(
                    key
                    for key in (Key(Symbol(name), (i,)) for i in range(1000))
                    if placement.place_host(FolderName(app, key))[1] == "owner"
                )

            jar, done = owned_key("jar"), owned_key("done")
            stores = cluster.servers["owner"].local_folder_servers().values()

            def worker(host, who):
                with cluster.memo_api(host, app, who) as memo:
                    while memo.get(jar) != "stop":
                        memo.put(done, who, wait=True)

            def start_worker(host, who):
                waits = sum(fs.stats["blocked_waits"] for fs in stores)
                thread = threading.Thread(target=worker, args=(host, who))
                thread.start()
                deadline = time.monotonic() + 10
                while sum(fs.stats["blocked_waits"] for fs in stores) == waits:
                    assert time.monotonic() < deadline, f"{who} never waited"
                    time.sleep(0.01)
                return thread

            # The remote worker is waiting at the jar before the local one.
            threads = [start_worker("other", "remote"), start_worker("owner", "local")]
            served = {"remote": 0, "local": 0}
            with cluster.memo_api("owner", app, "master") as master:
                for task in range(self.TASKS):
                    master.put(jar, task, wait=True)
                    served[master.get(done)] += 1
                for _ in threads:
                    master.put(jar, "stop", wait=True)
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        assert served["remote"] >= self.TASKS // 4, served
