"""The correlated-call engine a client and a peer link both run.

Each test drives one :class:`~repro.network.calls.Calls` over the memory
transport and plays the far end itself: it reads the requests and writes
the replies, pushes and losses the engine must sort out.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.keys import FolderName, Key, Symbol
from repro.errors import ConnectionClosedError
from repro.network.calls import Calls
from repro.network.connection import Address
from repro.network.protocol import (
    PUT_ACK,
    Acks,
    Heartbeat,
    MemoReady,
    Reply,
    WaitCancelled,
    recv_tagged,
    send_message,
)
from repro.network.transport import InMemoryTransport, NetworkFabric
from repro.servers.link import PeerLink
from repro.servers.threadcache import ThreadCache


@pytest.fixture
def ends():
    """A connected pair: ``(the engine's end, the far end)``."""
    transport = InMemoryTransport(NetworkFabric(), "h")
    listener = transport.listen(Address("h", 1))
    near = transport.connect(listener.address)
    far = listener.accept(timeout=2)
    yield near, far
    near.close()
    far.close()
    listener.close()


class Owner:
    """What an engine's owner sees: pushes, and losses it answers by
    failing everything outstanding."""

    def __init__(self, conn) -> None:
        self.pushes: list = []
        self.failed: list = []
        self.calls = Calls(conn, self.push, self.lost)

    def push(self, token, payload, reason) -> None:
        self.pushes.append((token, payload, reason))

    def lost(self) -> None:
        self.failed += self.calls.fail(ConnectionClosedError("lost"))


def answer(far, cid: int, **fields) -> None:
    send_message(far, Reply(**fields), corr_id=cid)


def reading_threads(calls: Calls) -> list:
    """Spy on *calls*' dispatch: the thread that handled each frame."""
    threads: list = []
    dispatch = calls.dispatch

    def spy(msg, cid):
        threads.append(threading.get_ident())
        dispatch(msg, cid)

    calls.dispatch = spy
    return threads


def test_a_leader_dispatches_other_slots_replies_on_its_way(ends):
    near, far = ends
    owner = Owner(near)
    calls = owner.calls
    ran: list = []
    mine, other = calls.open(), calls.open(then=ran.append)
    answer(far, other.first, found=True, payload=b"other")
    answer(far, mine.first, found=True, payload=b"mine")
    calls.wait(mine, time.monotonic() + 5)
    assert mine.error is None and mine.results[0].payload == b"mine"
    assert other.over and ran == [other]
    assert other.results[0].payload == b"other"


def test_a_follower_gets_its_own_reply(ends):
    near, far = ends
    calls = Owner(near).calls
    threads = reading_threads(calls)
    first, second = calls.open(), calls.open()
    leader = threading.Thread(target=calls.wait, args=(first, time.monotonic() + 5))
    leader.start()
    time.sleep(0.05)  # the leader reads, and nothing has come yet
    answer(far, second.first, payload=b"second")
    calls.wait(second, time.monotonic() + 5)  # follows: the leader reads it
    assert second.results[0].payload == b"second"
    answer(far, first.first, payload=b"first")
    leader.join(5)
    assert first.results[0].payload == b"first"
    assert set(threads) == {leader.ident}


def test_acks_are_expanded_and_ids_nobody_owes_are_skipped(ends):
    near, far = ends
    calls = Owner(near).calls
    burst = calls.open(3)
    stray = burst.first + 1000
    send_message(far, Acks((burst.first + 2, stray, burst.first, burst.first + 1)))
    answer(far, stray + 1, ok=False, error="nobody asked")
    calls.wait(burst, time.monotonic() + 5)
    assert burst.over and burst.error is None
    assert burst.results == [PUT_ACK] * 3
    assert calls.read_one(5)  # the stray reply is read, and dropped


def test_a_push_reaches_its_token(ends):
    near, far = ends
    owner = Owner(near)
    folder = FolderName("app", Key(Symbol("k")))
    send_message(far, MemoReady(waiter=7, folder=folder, payload=b"memo"))
    send_message(far, WaitCancelled(waiter=8, reason="shutdown: stopping"))
    assert owner.calls.read_one(5) and owner.calls.read_one(5)
    assert owner.pushes == [(7, b"memo", None), (8, None, "shutdown: stopping")]


def test_a_deadline_fails_the_slot_and_a_late_reply_is_ignored(ends):
    near, far = ends
    calls = Owner(near).calls
    ran: list = []
    slot = calls.open(then=ran.append)
    started = time.monotonic()
    calls.wait(slot, started + 0.1)
    assert isinstance(slot.error, TimeoutError)
    assert 0.1 <= time.monotonic() - started < 2
    assert ran == [slot] and slot.left == 1
    answer(far, slot.first, payload=b"late")
    assert calls.read_one(5)
    assert slot.results == [None] and ran == [slot]  # forgotten: not run again


def test_a_slot_of_n_ids_is_over_only_when_all_are_in(ends):
    near, far = ends
    calls = Owner(near).calls
    ran: list = []
    slot = calls.open(3, then=ran.append)
    for i in (2, 0):
        answer(far, slot.first + i, payload=bytes([i]))
        assert calls.read_one(5)
        assert not slot.over and ran == []
    answer(far, slot.first + 1, payload=b"\x01")
    assert calls.read_one(5)
    assert slot.over and ran == [slot] and slot.left == 0
    assert [r.payload for r in slot.results] == [b"\x00", b"\x01", b"\x02"]


def test_on_loss_each_outstanding_slot_fails_once_with_its_left(ends):
    near, far = ends
    owner = Owner(near)
    calls = owner.calls
    ran: list = []
    burst, lone, callback = calls.open(4), calls.open(), calls.open(then=ran.append)
    answered = calls.open()
    send_message(far, Acks((burst.first, burst.first + 3, answered.first)))
    far.close()
    calls.wait(burst)  # leads: reads the acks, then meets the loss
    assert sorted(map(id, owner.failed)) == sorted(map(id, (burst, lone, callback)))
    assert [burst.left, lone.left, callback.left] == [2, 1, 1]
    assert all(isinstance(s.error, ConnectionClosedError) for s in owner.failed)
    assert ran == [callback]
    assert answered.over and answered.error is None
    assert calls.fail(ConnectionClosedError("again")) == []  # exactly once


def test_a_call_from_the_reading_thread_does_not_stall(ends):
    """A peer link's call made on the thread that reads the link, from a
    frame it is dispatching, reads its own reply there, re-entrantly."""
    near, far = ends
    cache = ThreadCache(idle_timeout=0.5, name="t")
    link = PeerLink("peer", near, "me", cache)
    nested: list = []
    dispatch = link.calls.dispatch

    def dispatch_then_call(msg, cid):
        dispatch(msg, cid)
        if not nested:
            nested.append(None)
            started = time.monotonic()
            results, error = link.call(Heartbeat(host="me"))
            nested[:] = [time.monotonic() - started, results[0], error]

    link.calls.dispatch = dispatch_then_call

    def peer() -> None:
        for _ in range(2):
            _msg, cid = recv_tagged(far, 5)
            answer(far, cid)

    serving = threading.Thread(target=peer)
    serving.start()
    try:
        results, error = link.call(Heartbeat(host="me"))
        serving.join(5)
        assert error is None and results[0].ok
        took, reply, nested_error = nested
        assert nested_error is None and reply.ok
        assert took < 1.0, took
    finally:
        link.retire(ConnectionClosedError("done"))
        cache.shutdown()


def test_a_slot_answered_while_its_caller_leads_gets_no_done_lock(ends):
    near, far = ends
    calls = Owner(near).calls
    slot = calls.open()
    answer(far, slot.first, payload=b"mine")
    calls.wait(slot, time.monotonic() + 5)
    assert slot.over and slot.results[0].payload == b"mine"
    assert slot.done is None


def test_a_followers_done_lock_is_made_then_released(ends):
    near, far = ends
    calls = Owner(near).calls
    first, second = calls.open(), calls.open()
    leader = threading.Thread(target=calls.wait, args=(first, time.monotonic() + 5))
    leader.start()
    time.sleep(0.05)  # the leader reads
    assert second.done is None
    follower = threading.Thread(target=calls.wait, args=(second, time.monotonic() + 5))
    follower.start()
    time.sleep(0.05)  # the follower waits on its lock
    assert second.done is not None and not second.over
    answer(far, second.first, payload=b"second")
    follower.join(5)
    assert second.results[0].payload == b"second" and second.error is None
    assert second.done.locked()  # released by the reader, taken by the follower
    answer(far, first.first, payload=b"first")
    leader.join(5)
    assert first.done is None


def test_open_takes_consecutive_fresh_ids_itself(ends, monkeypatch):
    near, _far = ends
    calls = Owner(near).calls

    def no_reserve(n=1):
        raise AssertionError("open reserved its ids apart")

    monkeypatch.setattr(calls, "reserve", no_reserve)
    one, burst, other = calls.open(), calls.open(3), calls.open()
    assert [one.first, burst.first, other.first] == [1, 2, 5]
    assert sorted(calls._slots) == [1, 2, 3, 4, 5]


def test_a_forgotten_slot_runs_nothing_and_its_late_reply_is_dropped(ends):
    near, far = ends
    calls = Owner(near).calls
    ran: list = []
    slot = calls.open(then=ran.append)
    calls.forget(slot)
    assert slot.over and calls._slots == {}
    answer(far, slot.first, payload=b"late")
    assert calls.read_one(5)
    assert ran == [] and slot.results == [None] and slot.error is None
