"""What a forward costs, counted in bytecode operations on every thread.

A forwarded request should cost about what a local one does plus one hop:
the entry server passes the client's frame on, the owner serves it as a
local request, and the ack comes back from a prebuilt frame.  Time on a
shared box spreads too widely to pin a few per cent, but the number of
bytecode operations a request runs is nearly deterministic: this test
counts them with ``sys.settrace`` (``f_trace_opcodes``) on the client's
thread and on every server thread, over a warmed-up 2-host in-process
cluster at replication factor 1, and holds the forward to a budget.

Measured on CPython 3.11: a lone acked put costs ~2 530 operations served
locally and ~5 390 forwarded; a put plus a ``get_skip`` ~5 690 locally and
~11 860 forwarded.  CPython 3.12 counts fewer.  A forward that re-encodes
the request it holds, or builds its envelope and its ack from scratch,
overruns the budgets.
"""

from __future__ import annotations

import itertools
import sys
import threading

import pytest

from repro.adf.defaults import system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.runtime.cluster import Cluster

APP = "cost"

#: Operations per request, all threads together: the budgets.
FORWARDED_PUT = 5_500
FORWARDED_PAIR = 12_000
LOCAL_PUT = 2_950


class OpcodeCounter:
    """Counts the bytecode operations run by this thread and by every
    thread started while it is installed, while :attr:`counting`."""

    def __init__(self) -> None:
        self.counting = False
        self.active = True
        self._ticks = itertools.count()

    def _local(self, frame, event, arg):
        if self.counting and event == "opcode":
            next(self._ticks)
        return self._local if self.active else None

    def _global(self, frame, event, arg):
        if not self.active:
            return None
        frame.f_trace_opcodes = True
        return self._local

    def __enter__(self) -> "OpcodeCounter":
        self._previous = threading.gettrace()
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        sys.settrace(None)
        threading.settrace(self._previous)

    def per_call(self, fn, n: int) -> float:
        """Operations per call of ``fn(i)``, averaged over *n* calls."""
        before = next(self._ticks)
        self.counting = True
        try:
            for i in range(n):
                fn(i)
        finally:
            self.counting = False
        return (next(self._ticks) - before - 1) / n


def owned_by(cluster, host: str, name: str) -> Key:
    chain = cluster.servers[host].registration(APP).placement.replica_chain
    keys = (Key(Symbol(name), (i,)) for i in range(400))
    return next(k for k in keys if chain(FolderName(APP, k))[0][1] == host)


@pytest.mark.skipif(sys.gettrace() is not None, reason="another tracer is installed")
def test_a_forward_costs_what_a_hop_costs():
    adf = system_default_adf(["h0", "h1"], app=APP, replication_factor=1)
    costs = {}
    with OpcodeCounter() as counter, Cluster(adf) as cluster:
        cluster.register()
        memo = cluster.memo_api("h0", APP)
        keys = {"forwarded": owned_by(cluster, "h1", "r"), "local": owned_by(cluster, "h0", "l")}

        def put(k):
            return lambda i: memo.put(k, i, wait=True)

        def pair(k):
            return lambda i: (memo.put(k, i, wait=True), memo.get_skip(k))

        for i in range(300):  # warm-up: caches filled, ids past one byte
            for k in keys.values():
                pair(k)(i)
        for where, k in keys.items():
            costs[f"{where} put"] = counter.per_call(put(k), 100)
            for _ in range(100):
                memo.get_skip(k)
            costs[f"{where} pair"] = counter.per_call(pair(k), 100)
    report = ", ".join(f"{what} {n:.0f}" for what, n in costs.items())
    assert costs["forwarded put"] <= FORWARDED_PUT, report
    assert costs["forwarded pair"] <= FORWARDED_PAIR, report
    assert costs["local put"] <= LOCAL_PUT, report
