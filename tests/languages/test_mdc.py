"""Unit tests for the MDC actor language."""

import time

import pytest

from repro.core.api import Memo
from repro.errors import MemoError
from repro.languages.mdc import ActorSystem, Behavior
from repro.languages.mdc.actors import ActorRef, _subset_match
from repro.transferable.wire import decode, encode


@pytest.fixture
def actors(one_host_cluster):
    system = ActorSystem(
        one_host_cluster.memo_api("solo", "test", "mdc-system"),
        memo_factory=lambda name: one_host_cluster.memo_api("solo", "test", name),
    )
    yield system
    system.shutdown()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestPatternMatching:
    def test_subset_match(self):
        assert _subset_match({"type": "inc"}, {"type": "inc", "by": 2})
        assert not _subset_match({"type": "inc"}, {"type": "dec"})
        assert _subset_match({}, {"anything": 1})

    def test_first_matching_rule_wins(self, actors):
        hits = []
        b = Behavior()

        @b.on({"type": "x", "mode": "special"})
        def special(actor, msg):
            hits.append("special")

        @b.on({"type": "x"})
        def generic(actor, msg):
            hits.append("generic")

        ref = actors.spawn("matcher", b)
        actors.send(ref, {"type": "x", "mode": "special"})
        actors.send(ref, {"type": "x"})
        assert wait_until(lambda: len(hits) == 2)
        assert sorted(hits) == ["generic", "special"]

    def test_unmatched_counted(self, actors):
        b = Behavior()

        @b.on({"type": "known"})
        def known(actor, msg):
            pass

        ref = actors.spawn("strict", b)
        actors.send(ref, {"type": "unknown"})
        actor = actors.actor("strict")
        assert wait_until(lambda: actor.unmatched_count == 1)


class TestActorCapabilities:
    def test_state_accumulates(self, actors):
        b = Behavior()

        @b.on({"type": "add"})
        def add(actor, msg):
            actor.state["total"] = actor.state.get("total", 0) + msg["n"]

        ref = actors.spawn("acc", b)
        for n in (1, 2, 3):
            actors.send(ref, {"type": "add", "n": n})
        actor = actors.actor("acc")
        assert wait_until(lambda: actor.state.get("total") == 6)

    def test_send_between_actors(self, actors):
        received = []
        ponger = Behavior()

        @ponger.on({"type": "ping"})
        def pong(actor, msg):
            actor.send(msg["reply_to"], {"type": "pong"})

        sink = Behavior()

        @sink.on({"type": "pong"})
        def got(actor, msg):
            received.append(True)

        p = actors.spawn("ponger", ponger)
        s = actors.spawn("sink", sink)
        actors.send(p, {"type": "ping", "reply_to": s})
        assert wait_until(lambda: received)

    def test_become_changes_behavior(self, actors):
        log = []
        quiet = Behavior()

        @quiet.on({"type": "speak"})
        def silent(actor, msg):
            log.append("...")

        loud = Behavior()

        @loud.on({"type": "speak"})
        def shout(actor, msg):
            log.append("HEY")

        switcher = Behavior()

        @switcher.on({"type": "speak"})
        def first(actor, msg):
            log.append("hello")
            actor.become(loud)

        ref = actors.spawn("switcher", switcher)
        actors.send(ref, {"type": "speak"})
        assert wait_until(lambda: log == ["hello"])
        actors.send(ref, {"type": "speak"})
        assert wait_until(lambda: log == ["hello", "HEY"])

    def test_create_child_actor(self, actors):
        results = []
        child_behavior = Behavior()

        @child_behavior.on({"type": "work"})
        def work(actor, msg):
            results.append(msg["n"] * 2)

        parent = Behavior()

        @parent.on({"type": "delegate"})
        def delegate(actor, msg):
            child = actor.create("child", child_behavior)
            actor.send(child, {"type": "work", "n": msg["n"]})

        ref = actors.spawn("parent", parent)
        actors.send(ref, {"type": "delegate", "n": 21})
        assert wait_until(lambda: results == [42])


class TestRefsAndLifecycle:
    def test_actor_ref_transferable(self, actors):
        b = Behavior()
        ref = actors.spawn("traveler", b)
        assert decode(encode(ref)) == ref

    def test_duplicate_name_rejected(self, actors):
        actors.spawn("unique", Behavior())
        with pytest.raises(MemoError, match="already exists"):
            actors.spawn("unique", Behavior())

    def test_non_dict_message_rejected(self, actors):
        ref = actors.spawn("typed", Behavior())
        with pytest.raises(MemoError, match="dicts"):
            actors.send(ref, "raw string")

    def test_unknown_actor_lookup(self, actors):
        with pytest.raises(MemoError):
            actors.actor("ghost")

    def test_actors_share_one_client_without_factory(self, one_host_cluster):
        """Polling mailboxes keep a shared connection safe for many actors."""
        system = ActorSystem(one_host_cluster.memo_api("solo", "test"))
        log = []
        echo = Behavior()

        @echo.on({"type": "go"})
        def go(actor, msg):
            log.append(msg["n"])

        a = system.spawn("first", echo)
        b = system.spawn("second", echo)
        system.send(a, {"type": "go", "n": 1})
        system.send(b, {"type": "go", "n": 2})
        assert wait_until(lambda: sorted(log) == [1, 2])
        system.shutdown()

    def test_shutdown_joins_actors(self, one_host_cluster):
        system = ActorSystem(
            one_host_cluster.memo_api("solo", "test", "sys2"),
            memo_factory=lambda n: one_host_cluster.memo_api("solo", "test", n),
        )
        system.spawn("a", Behavior())
        system.spawn("b", Behavior())
        system.shutdown()
        assert not system.actor("a")._thread.is_alive()


class TestCrossHostActors(object):
    def test_actors_on_different_hosts(self, two_host_cluster):
        """Refs travel inside messages; mailboxes are host-agnostic."""
        sys_a = ActorSystem(
            two_host_cluster.memo_api("alpha", "test", "sysA"),
            memo_factory=lambda n: two_host_cluster.memo_api("alpha", "test", n),
        )
        sys_b = ActorSystem(
            two_host_cluster.memo_api("beta", "test", "sysB"),
            memo_factory=lambda n: two_host_cluster.memo_api("beta", "test", n),
        )
        received = []
        echo = Behavior()

        @echo.on({"type": "echo"})
        def do_echo(actor, msg):
            actor.send(msg["reply_to"], {"type": "reply", "text": msg["text"]})

        collector = Behavior()

        @collector.on({"type": "reply"})
        def collect(actor, msg):
            received.append(msg["text"])

        remote = sys_b.spawn("remote-echo", echo)
        local = sys_a.spawn("collector", collector)
        sys_a.send(remote, {"type": "echo", "text": "across", "reply_to": local})
        assert wait_until(lambda: received == ["across"])
        sys_a.shutdown()
        sys_b.shutdown()

    def test_actor_rides_out_a_restart_of_its_own_host(self, two_host_cluster):
        """A restart of the actor's host reaches its mailbox loop as the
        dying server's ``shutdown:`` reply, failed dials to the dead
        address and, once reborn, ``NotRegisteredError`` until
        re-registration; the transient budget must cover all of them, or
        the actor exits and its next message is never served."""
        cluster = two_host_cluster
        system = ActorSystem(
            cluster.memo_api("alpha", "test", "sysR"),
            memo_factory=lambda n: cluster.memo_api("beta", "test", n),
        )
        got = []
        behavior = Behavior()

        @behavior.on({"type": "ping"})
        def ping(actor, msg):
            got.append(msg["n"])

        ref = system.spawn("survivor", behavior, transient_retries=500)
        cluster.kill_host("beta")
        time.sleep(0.6)  # longer than the client's reconnect retries
        cluster.restart_host("beta")
        system.send(ref, {"type": "ping", "n": 1})
        assert wait_until(lambda: got == [1])
        system.shutdown()
