"""A store directory written by the PR 20 commit still recovers, byte for byte.

``fixtures/pr20_store`` holds one snapshot and one WAL segment produced
by running :func:`write_scenario` against commit 773e91c (before
``MemoRecord`` was slotted and names were shared at the codec boundary).
The tests copy it before opening it — recovery truncates torn tails and
reopens the last segment for append — so the checked-in files are only
ever read.
"""

import shutil
from pathlib import Path

from repro.core.keys import FolderName, Key, Symbol
from repro.core.memo import MemoRecord
from repro.durability.config import DurabilityConfig
from repro.durability.store import DurableStore
from repro.servers.folder_server import FolderServer

FIXTURE = Path(__file__).parent / "fixtures" / "pr20_store"
FILES = ("snap-00000000000000000005.dc", "wal-00000000000000000006.log")


def folder(name, *index):
    return FolderName("app", Key(Symbol(name), index))


def open_server(path):
    store = DurableStore(path, DurabilityConfig(str(path), fsync="none", snapshot_every=0))
    server = FolderServer("s0", journal=store)
    store.recover_into(server)
    return store, server


def write_scenario(path):
    """Puts, a snapshot, then a consume, a delayed + clear, a folder drop."""
    store, fs = open_server(path)
    a, b = folder("a", 1), folder("b")
    for i, origin in enumerate(("worker-é", "worker-é", "", "w2")):
        fs.put(a, MemoRecord(payload=b"a%d" % i, origin=origin))
    # A replica copy arrives already stamped by another store.
    fs.put(b, MemoRecord(payload=b"copy", origin="ж", src_sid="s9", src_lsn=77))
    store.snapshot_now()
    fs.put(a, MemoRecord(payload=b"a4", origin="worker-é"))
    assert fs.get_skip(a) is not None  # WalConsume
    d, e, f = folder("d"), folder("e", 300, 0), folder("f")
    fs.put_delayed(d, a, MemoRecord(payload=b"late", origin="w2"))
    fs.put(d, MemoRecord(payload=b"d0", origin=""))  # WalDelayedClear + release put
    fs.put_delayed(e, a, MemoRecord(payload=b"parked", origin="worker-é"))
    fs.put_delayed(f, a, MemoRecord(payload=b"pulled", origin="w2"))
    fs.extract_records(lambda _n, r: r.payload == b"pulled")  # delayed WalConsume
    fs.extract_folders(lambda n: n == b)  # WalFolderDrop
    store.close()


def dump(fs):
    """{folder: (memos, delayed)} as plain tuples, order within a folder kept."""
    _lsn, state = fs.snapshot_state()
    return {
        str(name): (
            [(r.payload, r.origin, r.src_sid, r.src_lsn) for r in memos],
            [(r.payload, r.origin, r.src_sid, r.src_lsn, str(to)) for r, to in delayed],
        )
        for name, memos, delayed in state
    }


# What commit 773e91c recovered from its own files.
EXPECTED_LSN = 15
EXPECTED = {
    "app:a[1]": (
        [
            (b"a0", "worker-é", "s0", 1),
            (b"a1", "worker-é", "s0", 2),
            (b"a2", "", "s0", 3),
            (b"a4", "worker-é", "s0", 6),
            (b"late", "w2", "s0", 8),
        ],
        [],
    ),
    "app:d": ([(b"d0", "", "s0", 9)], []),
    "app:e[300,0]": ([], [(b"parked", "worker-é", "s0", 12, "app:a[1]")]),
}


def test_parent_written_store_recovers(tmp_path):
    assert sorted(p.name for p in FIXTURE.iterdir()) == sorted(FILES)
    shutil.copytree(FIXTURE, tmp_path / "store")
    store, fs = open_server(tmp_path / "store")
    try:
        assert store.recovered.truncated_bytes == 0
        assert fs.current_lsn() == EXPECTED_LSN
        assert dump(fs) == EXPECTED
        # Names repeated across records are one object, not one per record.
        memos = fs.snapshot_state()[1][0][1]
        assert memos[0].origin is memos[1].origin
        assert memos[0].src_sid is memos[1].src_sid
    finally:
        store.close()


def test_same_scenario_writes_the_same_bytes(tmp_path):
    """The other direction: what this commit writes, the parent can read."""
    write_scenario(tmp_path / "store")
    for name in FILES:
        assert (tmp_path / "store" / name).read_bytes() == (FIXTURE / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == sorted(FILES)
