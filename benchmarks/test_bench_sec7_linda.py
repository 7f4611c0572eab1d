"""SEC7A — D-Memo folder lookup vs Linda associative matching (section 7).

"We believe that this tuple space is just 'a flat directory of unordered
queues'.  Using this approach, we are able to provide better programming
abstractions than Linda."

Two measurable halves:

1. **Lookup cost.** Linda `in_` scans the space (associative matching);
   D-Memo hashes the folder name.  The bench fills each system with N
   unrelated items and measures retrieval of a specific one as N grows:
   Linda degrades linearly, the folder directory stays flat.
2. **Abstraction.** A job-jar with per-process private jars needs
   ``get_alt`` — one call in D-Memo; the Linda encoding needs polling
   across two patterns.  Measured as ops and scans per task.
"""

import time

import pytest

from repro.baselines.linda import ANY, TupleSpace
from repro.servers.folder_server import FolderServer
from repro.core.keys import FolderName, Key, Symbol
from repro.core.memo import MemoRecord
from repro.transferable.wire import decode, encode

from benchmarks.conftest import report

pytestmark = pytest.mark.benchmark(group="sec7a-vs-linda")


def fname(name, *idx):
    return FolderName("bench", Key(Symbol(name), tuple(idx)))


def linda_with_n(n: int) -> TupleSpace:
    ts = TupleSpace()
    for i in range(n):
        ts.out("unrelated", i, f"payload-{i}")
    ts.out("needle", 42)
    return ts


def folders_with_n(n: int) -> FolderServer:
    fs = FolderServer("0")
    for i in range(n):
        fs.put(fname("unrelated", i), MemoRecord(encode(f"payload-{i}")))
    fs.put(fname("needle"), MemoRecord(encode(42)))
    return fs


@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_linda_lookup(benchmark, n):
    ts = linda_with_n(n)

    def op():
        t = ts.in_("needle", ANY)
        ts.out(*t)
        return t

    assert benchmark(op) == ("needle", 42)
    ts.close()


@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_dmemo_lookup(benchmark, n):
    fs = folders_with_n(n)

    def op():
        rec = fs.get(fname("needle"))
        fs.put(fname("needle"), rec)
        return rec

    assert decode(benchmark(op).payload) == 42
    fs.shutdown()


def test_lookup_scaling_series(benchmark):
    """The crossover shape: Linda cost grows with space size, folders don't."""
    rows = [("space size", "linda µs/op", "d-memo µs/op", "linda/dmemo")]

    def sweep():
        ratios = []
        for n in (100, 1000, 10_000):
            ts = linda_with_n(n)
            start = time.perf_counter()
            for _ in range(200):
                t = ts.in_("needle", ANY)
                ts.out(*t)
            linda_us = (time.perf_counter() - start) / 200 * 1e6
            ts.close()

            fs = folders_with_n(n)
            start = time.perf_counter()
            for _ in range(200):
                rec = fs.get(fname("needle"))
                fs.put(fname("needle"), rec)
            dmemo_us = (time.perf_counter() - start) / 200 * 1e6
            fs.shutdown()

            ratios.append(linda_us / dmemo_us)
            rows.append(
                (n, f"{linda_us:.1f}", f"{dmemo_us:.1f}", f"{ratios[-1]:.1f}x")
            )
        return ratios

    ratios = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    report("SEC7A: retrieval cost vs space size", rows)
    # Linda degrades with N; the folder directory does not: the advantage
    # ratio must grow by an order of magnitude from N=100 to N=10k.
    assert ratios[-1] > ratios[0] * 10


def test_job_jar_abstraction_cost(benchmark):
    """get_alt (private-or-common jar) vs the Linda two-pattern encoding."""
    fs = FolderServer("0")
    for i in range(50):
        fs.put(fname("common"), MemoRecord(encode(i)))
        fs.put(fname("private"), MemoRecord(encode(100 + i)))

    def drain_dmemo():
        calls = taken = 0
        while True:
            hit = fs.get_alt_skip((fname("private"), fname("common")))
            calls += 1
            if hit is None:
                return calls, taken
            taken += 1

    dmemo_calls, taken = benchmark.pedantic(
        drain_dmemo, rounds=1, iterations=1, warmup_rounds=0
    )
    assert taken == 100
    fs.shutdown()

    ts = TupleSpace()
    for i in range(50):
        ts.out("common", i)
        ts.out("private", "me", 100 + i)
    linda_calls = 0
    taken = 0
    while True:
        got = ts.inp("private", "me", ANY)
        linda_calls += 1
        if got is None:
            got = ts.inp("common", ANY)
            linda_calls += 1
        if got is None:
            break
        taken += 1
    assert taken == 100
    scans = ts.scan_count
    ts.close()

    rows = [
        ("system", "ops for 100 tasks", "tuple scans"),
        ("d-memo get_alt", dmemo_calls, "0 (hashed)"),
        ("linda inp×2", linda_calls, scans),
    ]
    report("SEC7A: job-jar abstraction cost", rows)
    assert dmemo_calls < linda_calls
