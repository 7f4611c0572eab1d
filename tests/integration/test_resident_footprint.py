"""What one resident memo costs — the folder server's capacity (paper §4.1).

``bench``'s ``ingest/peak_rss_mb`` is resident memos; this holds the same
claim in tier-1 by a ``tracemalloc`` diff, attributed line by line: a
memo at rest is its record (four slots), its payload ``bytes`` and its
slot in the folder's list.  Budgets are stated for CPython 3.11 and 3.12,
where a four-slot object is 64 B and an 18-byte ``bytes`` 51 B.
"""

import gc
import inspect
import sys
import tracemalloc

import pytest

from repro import Cluster, system_default_adf
from repro.core import memo as memo_module
from repro.core.keys import FolderName, Key, Symbol
from repro.network import codec
from repro.network.protocol import GetRequest, PutRequest
from repro.transferable.wire import encode as tlv_encode

APP = "foot"
FOLDERS = 64


@pytest.fixture
def cluster():
    with Cluster(system_default_adf(["a", "b"], app=APP), idle_timeout=5.0) as cluster:
        cluster.register()
        yield cluster


@pytest.fixture
def tracing():
    gc.collect()
    tracemalloc.start(1)
    try:
        yield
    finally:
        tracemalloc.stop()


def _lines(func) -> range:
    source, first = inspect.getsourcelines(func)
    return range(first, first + len(source))


def test_resident_memo_is_record_payload_and_list_slot(cluster, tracing):
    memo = cluster.memo_api("a", APP, "ingest")
    keys = [Key(Symbol("ing"), (f,)) for f in range(FOLDERS)]

    def put(n):
        items = [(keys[i % FOLDERS], i % 4096) for i in range(n)]
        for j in range(0, n, 256):
            memo.put_many(items[j : j + 256])
        memo.flush()

    count = 20_000
    put(4_000)  # folders exist, lists have grown once, caches are warm
    gc.collect()
    before = tracemalloc.take_snapshot()
    put(count)
    gc.collect()
    diff = tracemalloc.take_snapshot().compare_to(before, "lineno")
    memo.close()

    total = sum(d.size_diff for d in diff) / count
    # 64 (record) + 51 (payload) + ~11 (list slot); the rest is headroom
    # for list over-allocation and client-side residue at this sample
    # size.  A ``__dict__`` on the record or a ``str`` per memo is +48 / +55.
    assert total <= 150, f"{total:.1f} B per resident memo"

    def per_memo(filename, lines=None):
        return sum(
            d.size_diff
            for d in diff
            if d.traceback[0].filename == filename
            and (lines is None or d.traceback[0].lineno in lines)
        ) / count

    # Nothing but the record is allocated on a memo's behalf by the record
    # module (the record itself is charged to the line that constructs
    # it), and the depositor's name is not a fresh ``str`` per memo.
    assert per_memo(memo_module.__file__) < 1
    readers = (codec._Reader.r_str, codec._Reader.r_name)
    assert sum(per_memo(codec.__file__, _lines(f)) for f in readers) < 1


def test_distinct_depositor_names_are_not_kept(cluster):
    """Sharing names adds no table: 10 000 one-off names leave nothing behind.

    Counted in interpreter blocks (``sys.getallocatedblocks``), which needs
    no tracing: a kept name is one block, a kept record two more.
    """
    client = cluster.client_for("a", origin="driver")
    payload = tlv_encode(7)
    folders = [FolderName(APP, Key(Symbol("once"), (f,))) for f in range(FOLDERS)]

    def put_and_take_back(names):
        # Chunked, so the client's own pending-ack set stays one size.
        for j in range(0, len(names), 500):
            chunk = names[j : j + 500]
            client.put_many(
                PutRequest(folders[i % FOLDERS], payload, name)
                for i, name in enumerate(chunk)
            )
            client.flush()
            for i in range(len(chunk)):
                assert client.request(GetRequest(folders[i % FOLDERS], mode="skip")).found

    put_and_take_back([f"warm-{i}" for i in range(1_000)])
    gc.collect()
    start = sys.getallocatedblocks()
    put_and_take_back([f"depositor-{i}-é" for i in range(10_000)])
    gc.collect()
    held = sys.getallocatedblocks() - start
    client.close()
    assert held < 1_000, f"{held} blocks still held after 10 000 names came and went"
