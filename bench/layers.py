"""Outside-in layer probes: each module's public functions, timed alone.

Every probe feeds a module the payloads the workloads actually send — the
small-int memo of ``ingest``/``acked_rw``/``crash`` and the 256-float
row of ``farm`` — and reports the median of several batches.  The live
cluster probes isolate one hop each as a *difference of medians* between
two configurations that differ by that hop only.  Names are
``<module>.<metric>``; ``bench/README.md`` says which end-to-end metric
each should move.
"""

from __future__ import annotations

import shutil
import threading
import time
from pathlib import Path

from bench.harness import children_peak_rss_mb, median
from repro import Cluster, system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.core.memo import MemoRecord
from repro.durability.config import DurabilityConfig
from repro.durability.store import DurableStore
from repro.network.codec import decode_tagged, encode_correlated_burst, encode_message
from repro.network.connection import Address
from repro.network.protocol import PutRequest
from repro.network.routing import RoutingTable
from repro.network.tcp import TCPTransport
from repro.network.transport import InMemoryTransport, NetworkFabric
from repro.runtime.registration import registration_request_for
from repro.servers.folder_server import FolderServer
from repro.servers.hashing import FolderPlacement
from repro.transferable.wire import decode, encode

APP = "probe"
INT_VALUE = 12_345
ROW_VALUE = [100.0 + 0.5 * j for j in range(256)]

Metrics = dict[str, tuple[float, str]]


def _per_call_us(fn, calls: int, repeats: int = 5) -> float:
    """Median over *repeats* batches of the mean microseconds per call."""
    batches = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - start) * 1e6 / calls)
    return median(batches)


def _folder(i: int) -> FolderName:
    return FolderName(APP, Key(Symbol("k"), (i,)))


def _put_request(i: int = 7) -> PutRequest:
    return PutRequest(folder=_folder(i), payload=encode(INT_VALUE), origin="proc")


# -- pure modules ------------------------------------------------------------------


def probe_transferable() -> Metrics:
    out: Metrics = {}
    for label, value, calls in (("int", INT_VALUE, 2000), ("row", ROW_VALUE, 200)):
        wire = encode(value)
        out[f"transferable.encode_us.{label}"] = (
            _per_call_us(lambda: encode(value), calls), "us")
        out[f"transferable.decode_us.{label}"] = (
            _per_call_us(lambda: decode(wire), calls), "us")
        out[f"transferable.bytes_per_memo.{label}"] = (float(len(wire)), "B")
    return out


def probe_codec() -> Metrics:
    msg = _put_request()
    frame = encode_message(msg, 123)
    burst = [(_put_request(i), 1000 + i) for i in range(256)]
    return {
        "codec.encode_put_us": (_per_call_us(lambda: encode_message(msg, 123), 2000), "us"),
        "codec.decode_put_us": (_per_call_us(lambda: decode_tagged(frame), 2000), "us"),
        "codec.burst_encode_us_per_frame": (
            _per_call_us(lambda: encode_correlated_burst(burst), 10) / len(burst), "us"),
        "codec.put_frame_bytes": (float(len(frame)), "B"),
    }


def _echo_rtt_us(transport, address: Address, trips: int = 1000) -> float:
    """Round trip of one put frame over a raw ``listen``/``connect`` pair."""
    listener = transport.listen(address)

    def echo() -> None:
        conn = listener.accept(10.0)
        try:
            while True:
                data = conn.recv(10.0)
                if data == b"":
                    return
                conn.send(data)
        finally:
            conn.close()

    thread = threading.Thread(target=echo, name="probe-echo", daemon=True)
    thread.start()
    frame = encode_message(_put_request(), 123)
    conn = transport.connect(listener.address)
    try:
        def trip() -> None:
            conn.send(frame)
            conn.recv(10.0)

        rtt = _per_call_us(trip, trips)
        conn.send(b"")
        thread.join(10.0)
    finally:
        conn.close()
        listener.close()
    return rtt


def probe_transport() -> Metrics:
    fabric = NetworkFabric()
    return {
        "transport.memory_rtt_us": (
            _echo_rtt_us(InMemoryTransport(fabric, "x"), Address("y", 1)), "us"),
        "tcp.rtt_us": (_echo_rtt_us(TCPTransport(), Address("y", 0)), "us"),
    }


def _placement(hosts: list[str], factor: int) -> FolderPlacement:
    """The placement every memo server derives from the default ADF."""
    msg = registration_request_for(
        system_default_adf(hosts, app=APP, replication_factor=factor)
    )
    routing = RoutingTable(
        {src: dict(nbrs) for src, nbrs in msg.links.items()}, hosts=list(msg.host_costs)
    )
    return FolderPlacement(
        list(msg.folder_servers),
        host_power=dict(msg.host_costs),
        routing=routing,
        replication_factor=msg.replication_factor,
    )


def probe_hashing() -> Metrics:
    folders = [_folder(i) for i in range(512)]
    cold, cached = [], []
    for _ in range(5):
        placement = _placement(["h0", "h1", "h2"], 2)
        for bucket in (cold, cached):  # first pass fills the memo, second hits it
            start = time.perf_counter()
            for folder in folders:
                placement.replica_chain(folder)
            bucket.append((time.perf_counter() - start) * 1e6 / len(folders))
    return {
        "hashing.replica_chain_cold_us": (median(cold), "us"),
        "hashing.replica_chain_cached_us": (median(cached), "us"),
    }


def probe_folder_server() -> Metrics:
    """A bare store, no network: deposit, consume, and the parked-wait wake."""
    payload = encode(INT_VALUE)
    folders = [_folder(i) for i in range(512)]
    puts, gets, wakes = [], [], []
    for _ in range(5):
        server = FolderServer("0", track_origins=False)
        n = 4 * len(folders)
        start = time.perf_counter()
        for i in range(n):
            server.put(folders[i % 512], MemoRecord(payload=payload))
        puts.append((time.perf_counter() - start) * 1e6 / n)
        start = time.perf_counter()
        for i in range(n):
            server.get(folders[i % 512])
        gets.append((time.perf_counter() - start) * 1e6 / n)
        # Every folder is empty again: park a consume-wait on each, then
        # time the deposits that complete them (callback included).
        woken = []
        for folder in folders:
            server.get_async(folder, "get", lambda record, error: woken.append(record))
        start = time.perf_counter()
        for folder in folders:
            server.put(folder, MemoRecord(payload=payload))
        wakes.append((time.perf_counter() - start) * 1e6 / len(folders))
        if len(woken) != len(folders):
            raise RuntimeError("parked waits did not all complete")
        server.shutdown()
    return {
        "folder_server.put_us": (median(puts), "us"),
        "folder_server.get_us": (median(gets), "us"),
        "folder_server.get_async_wake_us": (median(wakes), "us"),
    }


class _ReplaySink:
    """Stands in for the folder server recovery installs its state into."""

    def load_recovered(self, folders, lsn) -> None:
        self.folders = folders

    def snapshot_state(self):
        return 0, []


def probe_durability(tmp_dir: Path) -> Metrics:
    """Journal append + commit at ``fsync=batch``, then cold replay of it."""
    config = DurabilityConfig(data_dir=str(tmp_dir), fsync="batch", snapshot_every=0)
    payload = encode(INT_VALUE)
    folders = [_folder(i) for i in range(256)]
    records = 4000
    path = tmp_dir / "probe-store"
    store = DurableStore(path, config)
    store.bind(_ReplaySink())
    batches = []
    lsn = 0
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(records // 5):
            lsn += 1
            store.log_put(lsn, folders[lsn % 256], MemoRecord(payload=payload))
            store.commit()
        batches.append((time.perf_counter() - start) * 1e6 / (records // 5))
    wal_bytes = store.wal_bytes
    store.close()
    start = time.perf_counter()
    reopened = DurableStore(path, config)
    replayed = reopened.recover_into(_ReplaySink()).replayed
    elapsed = time.perf_counter() - start
    reopened.close()
    shutil.rmtree(path, ignore_errors=True)
    if replayed != records:
        raise RuntimeError(f"replayed {replayed} of {records} journaled records")
    return {
        "durability.append_commit_us": (median(batches), "us"),
        "durability.replay_records_per_s": (records / elapsed, "1/s"),
        "durability.wal_bytes_per_payload_byte": (
            wal_bytes / (records * len(payload)), "ratio"),
    }


# -- live clusters -----------------------------------------------------------------


def _acked_put_us(memo, keys: list[Key], puts: int = 1500) -> float:
    """Median ``put(wait=True)`` latency cycling over *keys*."""
    samples = []
    for i in range(puts):
        start = time.perf_counter()
        memo.put(keys[i % len(keys)], INT_VALUE, wait=True)
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e6


def _keys_by_primary(hosts: list[str], factor: int, count: int = 64) -> dict[str, list[Key]]:
    """*count* keys per primary host, by the placement the servers compute."""
    placement = _placement(hosts, factor)
    out: dict[str, list[Key]] = {host: [] for host in hosts}
    sym = Symbol("k")
    i = 0
    while any(len(keys) < count for keys in out.values()):
        key = Key(sym, (i,))
        host = placement.replica_chain(FolderName(APP, key))[0][1]
        if len(out[host]) < count:
            out[host].append(key)
        i += 1
    return out


def probe_single_host() -> Metrics:
    """One host, no forward: the request/ack path, the burst path, the wake."""
    adf = system_default_adf(["solo"], app=APP)
    with Cluster(adf, idle_timeout=5.0) as cluster:
        cluster.register()
        with cluster.memo_api("solo", APP, "a") as a, cluster.memo_api("solo", APP, "b") as b:
            keys = [Key(Symbol("k"), (i,)) for i in range(64)]
            _acked_put_us(a, keys, 200)  # warm the route
            rtt = _acked_put_us(a, keys)

            burst = [(keys[i % 64], INT_VALUE) for i in range(20_000)]
            start = time.perf_counter()
            for j in range(0, len(burst), 256):
                a.put_many(burst[j : j + 256])
            a.flush()
            burst_rate = len(burst) / (time.perf_counter() - start)

            wake_key = Key(Symbol("wake"))
            wakes = []
            for i in range(500):
                parked = b.get_async(wake_key)
                start = time.perf_counter()
                a.put(wake_key, i)
                if parked.wait(10.0) != i:
                    raise RuntimeError("parked get returned the wrong memo")
                wakes.append(time.perf_counter() - start)
    return {
        "memo_server.local_put_rtt_us": (rtt, "us"),
        "client.burst_puts_per_s": (burst_rate, "1/s"),
        "memo_server.wake_hop_us": (median(wakes) * 1e6, "us"),
    }


def probe_three_hosts() -> Metrics:
    """Forward hop (remote-owned − local-owned) and the rf=2 replica leg."""
    hosts = ["h0", "h1", "h2"]
    medians: dict[int, dict[str, float]] = {}
    for factor in (1, 2):
        by_primary = _keys_by_primary(hosts, factor)
        adf = system_default_adf(hosts, app=APP, replication_factor=factor)
        with Cluster(adf, idle_timeout=5.0) as cluster:
            cluster.register()
            with cluster.memo_api("h0", APP, "a") as memo:
                _acked_put_us(memo, by_primary["h0"] + by_primary["h1"], 200)
                medians[factor] = {
                    "local": _acked_put_us(memo, by_primary["h0"]),
                    "remote": _acked_put_us(memo, by_primary["h1"]),
                }
    return {
        "memo_server.forward_hop_us": (
            medians[1]["remote"] - medians[1]["local"], "us"),
        "replication.leg_us": (medians[2]["local"] - medians[1]["local"], "us"),
    }


def probe_backends() -> Metrics:
    """Start and register a three-host cluster on each backend."""
    out: Metrics = {}
    for backend in ("inprocess", "process"):
        adf = system_default_adf(["h0", "h1", "h2"], app=APP)
        t0 = time.perf_counter()
        cluster = Cluster(adf, backend=backend, idle_timeout=5.0).start()
        try:
            t1 = time.perf_counter()
            cluster.register()
            t2 = time.perf_counter()
            if backend == "process":
                with cluster.memo_api("h0", APP, "a") as memo:
                    memo.put_many(
                        (Key(Symbol("k"), (i % 256,)), INT_VALUE) for i in range(5000)
                    )
                    memo.flush()
                out["backends.server_peak_rss_mb"] = (children_peak_rss_mb(), "MiB")
        finally:
            cluster.stop()
        out[f"backends.start_s.{backend}"] = (t1 - t0, "s")
        out[f"backends.register_s.{backend}"] = (t2 - t1, "s")
    return out


def run_probes(tmp_dir: Path) -> Metrics:
    """Every probe; also the derived ``memo_server.session_self_us``."""
    out: Metrics = {}
    out.update(probe_transferable())
    out.update(probe_codec())
    out.update(probe_transport())
    out.update(probe_hashing())
    out.update(probe_folder_server())
    out.update(probe_durability(tmp_dir))
    out.update(probe_single_host())
    out.update(probe_three_hosts())
    out.update(probe_backends())
    # What the session (reader, lane, dispatch, reply) adds on one host:
    # the local round trip less the request and ack codec work on both
    # ends, the bare transport round trip and the bare store deposit.
    out["memo_server.session_self_us"] = (
        out["memo_server.local_put_rtt_us"][0]
        - 2 * (out["codec.encode_put_us"][0] + out["codec.decode_put_us"][0])
        - out["transport.memory_rtt_us"][0]
        - out["folder_server.put_us"][0],
        "us",
    )
    return out


def attributed_put_ack_us(
    layers: Metrics, *, tcp: bool, forward_share: float, durable_replicated: bool
) -> float:
    """Sum of the probed layer costs on a workload's acked-put path.

    Client encode of the value, request and ack through the codec on
    both ends, one transport round trip, the session, a forward hop for
    the share of keys another host owns, the store deposit — and on the
    rf=2 WAL clusters the journal append and the replica leg.
    """
    value = lambda name: layers[name][0]  # noqa: E731
    total = (
        value("transferable.encode_us.int")
        + 2 * (value("codec.encode_put_us") + value("codec.decode_put_us"))
        + value("tcp.rtt_us" if tcp else "transport.memory_rtt_us")
        + value("memo_server.session_self_us")
        + forward_share * value("memo_server.forward_hop_us")
        + value("folder_server.put_us")
    )
    if durable_replicated:
        total += value("durability.append_commit_us") + value("replication.leg_us")
    return total
