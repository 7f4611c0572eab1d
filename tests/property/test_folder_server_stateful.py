"""Stateful property test: the folder server against a multiset model.

Hypothesis drives random sequences of put / get_skip / get_copy /
put_delayed / get_alt_skip / get_async / cancel_waiter operations against
a live FolderServer and a trivial reference model (dict of multisets +
delayed parking lots + one FIFO waiter list per folder).  Any divergence
— lost memo, phantom memo, wrong delayed-release semantics, a waiter
served out of order or twice, broken vanish bookkeeping — fails with a
minimized counterexample.  Waiter callbacks run inline on the putting
thread, so the machine stays single-threaded.
"""

from collections import Counter

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.keys import FolderName, Key, Symbol
from repro.core.memo import MemoRecord
from repro.servers.folder_server import FolderServer

FOLDER_IDS = list(range(4))


def fname(i: int) -> FolderName:
    return FolderName("app", Key(Symbol("f"), (i,)))


class FolderServerMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.fs = FolderServer("0")
        # model: folder id -> Counter of values
        self.model: dict[int, Counter] = {i: Counter() for i in FOLDER_IDS}
        # model of delayed parking: folder id -> list[(value, dest id)]
        self.delayed: dict[int, list[tuple[int, int]]] = {
            i: [] for i in FOLDER_IDS
        }
        # model of waiting: folder id -> [(waiter id, mode, handle)], FIFO
        self.waiters: dict[int, list[tuple[int, str, object]]] = {
            i: [] for i in FOLDER_IDS
        }
        self.parks = 0  # waiter ids: one per get_async call
        # waiter id -> value: what the model says each completed waiter
        # received, and what its callback actually delivered
        self.expected: dict[int, int] = {}
        self.delivered: dict[int, object] = {}
        # (folder id, handle) of waiters that already completed
        self.completed: list[tuple[int, object]] = []

    def teardown(self) -> None:
        if hasattr(self, "fs"):
            self.fs.shutdown()

    # -- operations --------------------------------------------------------

    def _model_arrival(self, folder: int, value: int) -> None:
        """An arrival completes the folder's waiters — every copy waiter,
        then the first consumer (waiters only exist on an empty folder,
        so the arrival is the one memo to hand out) — and releases parked
        memos; each release is itself an arrival in its destination
        folder, so releases cascade (the server implements a release as
        an ordinary put — paper section 6.1.2)."""
        self.model[folder][value] += 1
        released, self.delayed[folder] = self.delayed[folder], []
        keep = []
        for wid, mode, handle in self.waiters[folder]:
            if mode == "get" and self.model[folder][value] == 0:
                keep.append((wid, mode, handle))
                continue
            if mode == "get":
                self.model[folder][value] -= 1
            self.expected[wid] = value
            self.completed.append((folder, handle))
        self.waiters[folder] = keep
        for dvalue, dest in released:
            self._model_arrival(dest, dvalue)

    @rule(folder=st.sampled_from(FOLDER_IDS), value=st.integers(0, 99))
    def put(self, folder: int, value: int) -> None:
        self.fs.put(fname(folder), MemoRecord.from_value(value))
        self._model_arrival(folder, value)
        assert self.delivered == self.expected

    @rule(folder=st.sampled_from(FOLDER_IDS), mode=st.sampled_from(["get", "copy"]))
    def park(self, folder: int, mode: str) -> None:
        wid = self.parks = self.parks + 1
        record, handle = self.fs.get_async(
            fname(folder),
            mode,
            lambda rec, err: self.delivered.__setitem__(
                wid, err if rec is None else rec.value()
            ),
        )
        if sum(self.model[folder].values()) == 0:
            assert record is None
            self.waiters[folder].append((wid, mode, handle))
        else:
            assert handle is None and self.model[folder][record.value()] > 0
            if mode == "get":
                self.model[folder][record.value()] -= 1

    @rule(folder=st.sampled_from(FOLDER_IDS), pick=st.integers(0, 7))
    def cancel(self, folder: int, pick: int) -> None:
        waiting = self.waiters[folder]
        if waiting:
            _wid, _mode, handle = waiting.pop(pick % len(waiting))
            assert self.fs.cancel_waiter(fname(folder), handle)
        elif self.completed:
            done_folder, handle = self.completed[pick % len(self.completed)]
            assert not self.fs.cancel_waiter(fname(done_folder), handle)

    @rule(
        folder=st.sampled_from(FOLDER_IDS),
        dest=st.sampled_from(FOLDER_IDS),
        value=st.integers(100, 199),
    )
    def put_delayed(self, folder: int, dest: int, value: int) -> None:
        self.fs.put_delayed(
            fname(folder), fname(dest), MemoRecord.from_value(value)
        )
        self.delayed[folder].append((value, dest))
        assert self.delivered == self.expected  # parking is not an arrival

    @rule(folder=st.sampled_from(FOLDER_IDS))
    def get_skip(self, folder: int) -> None:
        record = self.fs.get_skip(fname(folder))
        if record is None:
            assert sum(self.model[folder].values()) == 0, (
                f"server says folder {folder} empty; model has "
                f"{dict(self.model[folder])}"
            )
        else:
            value = record.value()
            assert self.model[folder][value] > 0, (
                f"server produced {value!r} not in model {dict(self.model[folder])}"
            )
            self.model[folder][value] -= 1

    @rule(folder=st.sampled_from(FOLDER_IDS))
    def get_copy_nonblocking(self, folder: int) -> None:
        # Only probe when the model says a memo exists (copy blocks on empty).
        if sum(self.model[folder].values()) == 0:
            return
        record = self.fs.get_copy(fname(folder), timeout=5)
        assert self.model[folder][record.value()] > 0

    @rule(a=st.sampled_from(FOLDER_IDS), b=st.sampled_from(FOLDER_IDS))
    def get_alt_skip(self, a: int, b: int) -> None:
        hit = self.fs.get_alt_skip((fname(a), fname(b)))
        if hit is None:
            assert sum(self.model[a].values()) == 0
            assert sum(self.model[b].values()) == 0
        else:
            name, record = hit
            folder = name.key.index[0]
            assert folder in (a, b)
            value = record.value()
            assert self.model[folder][value] > 0
            self.model[folder][value] -= 1

    # -- invariants -----------------------------------------------------------

    @invariant()
    def memo_counts_match(self) -> None:
        if not hasattr(self, "fs"):
            return
        expected = sum(sum(c.values()) for c in self.model.values())
        assert self.fs.memo_count() == expected

    @invariant()
    def live_folders_match(self) -> None:
        """A folder lives exactly while it holds a memo, a delayed memo
        or a waiter — no waiter is left behind, none keeps a ghost."""
        if not hasattr(self, "fs"):
            return
        live = sum(
            1
            for i in FOLDER_IDS
            if sum(self.model[i].values()) or self.delayed[i] or self.waiters[i]
        )
        assert self.fs.folder_count() == live

    @invariant()
    def stats_are_consistent(self) -> None:
        if not hasattr(self, "fs"):
            return
        stats = self.fs.stats
        assert stats["folders_created"] >= stats["folders_vanished"]


TestFolderServerStateful = FolderServerMachine.TestCase
TestFolderServerStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
