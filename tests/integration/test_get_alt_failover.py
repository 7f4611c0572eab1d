"""Satellite coverage: ``get_alt``/``get_alt_skip`` across fail-over.

Kill the primary of one alternative mid-wait and assert the waiter
completes from a surviving replica (or re-subscribes cleanly through the
transient window while the failure detector converges).
"""

import threading
import time

import pytest

from repro import NIL, Cluster, system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.errors import MemoError
from repro.network.protocol import GetAltSkipRequest

HOSTS = ["h1", "h2", "h3"]
VICTIM = "h2"


@pytest.fixture
def cluster():
    adf = system_default_adf(HOSTS, app="alt", replication_factor=2)
    with Cluster(
        adf, idle_timeout=0.5, heartbeat_interval=0.05, failure_threshold=2
    ) as c:
        c.register()
        yield c


def keys_with(cluster, picker, n, start=0):
    reg = cluster.servers[HOSTS[0]].registration("alt")
    out, i = [], start
    while len(out) < n:
        key = Key(Symbol("a"), (i,))
        if picker(reg.placement.replica_chain(FolderName("alt", key))):
            out.append(key)
        i += 1
        if i - start > 10_000:  # pragma: no cover - hash would be broken
            raise AssertionError("could not find enough matching keys")
    return out


def primaried_on(host):
    return lambda chain: chain[0][1] == host


class TestGetAltFailover:
    def test_waiter_completes_from_surviving_replica(self, cluster):
        """The killed primary's alternative is fed via its backup."""
        (victim_key,) = keys_with(cluster, primaried_on(VICTIM), 1)
        (other_key,) = keys_with(cluster, primaried_on("h3"), 1, start=3000)
        waiter = cluster.memo_api("h1", "alt", "waiter")
        out = []
        t = threading.Thread(
            target=lambda: out.append(
                waiter.get_alt([victim_key, other_key], timeout=20)
            )
        )
        t.start()
        time.sleep(0.2)  # the poll loop is live and finding both empty
        assert out == []

        cluster.kill_host(VICTIM)
        # Feed the *victim-primaried* alternative: the put fails over to
        # the surviving backup, where the poll must find it.
        filler = cluster.memo_api("h3", "alt", "filler")
        filler.put(victim_key, "rescued", wait=True)

        t.join(timeout=20)
        assert t.is_alive() is False
        assert out and out[0] == (victim_key, "rescued")

    def test_waiter_completes_via_other_alternative(self, cluster):
        """Mid-kill polling rides through; a healthy alternative wins."""
        (victim_key,) = keys_with(cluster, primaried_on(VICTIM), 1, start=500)
        (other_key,) = keys_with(cluster, primaried_on("h1"), 1, start=4000)
        waiter = cluster.memo_api("h1", "alt", "waiter")
        future = waiter.get_alt_async([victim_key, other_key])
        time.sleep(0.1)
        assert not future.done()

        cluster.kill_host(VICTIM)
        filler = cluster.memo_api("h1", "alt", "filler")
        filler.put(other_key, "healthy", wait=True)

        key, value = future.wait(timeout=20)
        assert key == other_key and value == "healthy"

    def test_get_alt_skip_after_kill_routes_past_dead_primary(self, cluster):
        (victim_key,) = keys_with(cluster, primaried_on(VICTIM), 1, start=1000)
        memo = cluster.memo_api("h1", "alt", "m")
        memo.put(victim_key, "pre-kill", wait=True)  # acked ⇒ replicated

        cluster.kill_host(VICTIM)
        time.sleep(0.2)  # let the detectors flip the victim

        hit = memo.get_alt_skip([victim_key])
        assert hit is not NIL
        assert hit == (victim_key, "pre-kill")

    def test_waiter_survives_kill_then_restart_cycle(self, cluster):
        (victim_key,) = keys_with(cluster, primaried_on(VICTIM), 1, start=2000)
        waiter = cluster.memo_api("h1", "alt", "waiter")
        future = waiter.get_alt_async([victim_key])
        time.sleep(0.1)

        cluster.kill_host(VICTIM)
        time.sleep(0.15)
        cluster.restart_host(VICTIM)

        filler = cluster.memo_api("h1", "alt", "filler")
        filler.put(victim_key, "after-restart", wait=True)
        key, value = future.wait(timeout=20)
        assert key == victim_key and value == "after-restart"


@pytest.fixture
def slow_detector_cluster():
    """heartbeat_interval=60: the monitor cannot flip anything within a
    test, so only routing itself can demote a dead host."""
    adf = system_default_adf(HOSTS, app="alt", replication_factor=2)
    with Cluster(adf, idle_timeout=0.5, heartbeat_interval=60) as c:
        c.register()
        yield c


class TestGetAltFailsOverByRouting:
    def test_dead_primary_is_demoted_by_the_round_itself(self, slow_detector_cluster):
        cluster = slow_detector_cluster
        (victim_key,) = keys_with(cluster, primaried_on(VICTIM), 1)
        memo = cluster.memo_api("h1", "alt", "m")
        memo.put(victim_key, "replicated", wait=True)  # acked ⇒ on the backup
        cluster.kill_host(VICTIM)

        hits = []
        for _round in range(2):  # at most the first round may fail
            try:
                hits.append(memo.get_alt_skip([victim_key]))
            except MemoError:
                hits.append(None)
            if hits[-1] not in (None, NIL):
                break
        assert cluster.servers["h1"].failure.is_alive(VICTIM) is False
        assert hits[-1] == (victim_key, "replicated")

    def test_unreachable_group_does_not_abort_the_round(self, slow_detector_cluster):
        cluster = slow_detector_cluster
        (victim_key,) = keys_with(cluster, primaried_on(VICTIM), 1, start=500)
        (live_key,) = keys_with(cluster, primaried_on("h3"), 1, start=4000)
        memo = cluster.memo_api("h1", "alt", "m")
        memo.put(live_key, "healthy", wait=True)
        cluster.kill_host(VICTIM)

        # First round: the dead alternative is tried first, demoted and
        # skipped; the live one answers.
        request = GetAltSkipRequest(
            folders=(FolderName("alt", victim_key), FolderName("alt", live_key)),
            origin="m",
        )
        reply = memo.client.request(request)
        assert reply.ok and reply.found and reply.folder == FolderName("alt", live_key)
        assert cluster.servers["h1"].failure.is_alive(VICTIM) is False


class TestGetAltOwnHostRestart:
    def test_blocking_get_alt_rides_out_a_restart_of_its_own_host(self, cluster):
        """The client's own host dies and comes back mid-wait: its dial
        errors and the reborn host's first answers are misses within the
        budget, not a verdict."""
        (k,) = keys_with(cluster, primaried_on("h3"), 1, start=5000)
        waiter = cluster.memo_api("h1", "alt", "waiter")
        out, errors = [], []

        def wait():
            try:
                out.append(waiter.get_alt([k], timeout=20))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        t = threading.Thread(target=wait)
        t.start()
        time.sleep(0.1)  # the poll loop is live
        cluster.kill_host("h1")
        time.sleep(1.0)  # rounds outlast the client's reconnect budget
        cluster.restart_host("h1")
        cluster.memo_api("h3", "alt", "filler").put(k, "back", wait=True)
        t.join(timeout=20)
        assert errors == []
        assert out == [(k, "back")]

    def test_an_error_that_never_heals_fails_after_the_budget(
        self, cluster, monkeypatch
    ):
        import repro.core.api as api

        monkeypatch.setattr(api, "_ALT_TRANSIENT_MAX", 3)
        memo = cluster.memo_api("h1", "unregistered", "m")
        future = memo.get_alt_async([Key(Symbol("a"), (0,))])
        with pytest.raises(MemoError, match="NotRegisteredError"):
            future.wait(timeout=5)
