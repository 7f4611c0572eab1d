"""Backend selection, validation, and the server_main entrypoint."""

import gc
import os
import signal
import subprocess
import sys

import pytest

from repro.adf.defaults import system_default_adf
from repro.core.keys import Key, Symbol
from repro.errors import RuntimeLaunchError
from repro.network.connection import Address
from repro.network.protocol import Heartbeat, round_trip
from repro.network.tcp import TCPTransport, bind_loopback
from repro.runtime.backends import SERVER_COMMAND, InProcessBackend, ProcessBackend
from repro.runtime.cluster import Cluster
from repro.servers.hashing import HashWeightPolicy
from repro.servers.memo_server import MEMO_PORT

HOSTS = ["a", "b"]

#: What an application process loads and a server process must not.
CLIENT_MODULES = {
    f"repro.runtime.{name}"
    for name in ("cluster", "client", "backends", "launcher", "program", "process")
} | {f"repro.core.{name}" for name in ("api", "futures", "datastructures", "sync", "dataflow")}
CLIENT_PACKAGES = (
    "adf", "sim", "scenarios", "languages", "baselines",
    "transferable",  # memo payloads are opaque bytes to a server
)


def adf():
    return system_default_adf(HOSTS, app="sel")


class TestBackendSelection:
    def test_default_is_inprocess_over_memory(self):
        cluster = Cluster(adf())
        assert cluster.backend_kind == "inprocess"
        assert isinstance(cluster.backend, InProcessBackend)
        assert cluster.transport_kind == "memory"
        assert cluster.fabric is not None

    def test_process_backend_defaults_to_tcp(self):
        cluster = Cluster(adf(), backend="process")
        assert cluster.backend_kind == "process"
        assert isinstance(cluster.backend, ProcessBackend)
        assert cluster.transport_kind == "tcp"
        assert cluster.fabric is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(RuntimeLaunchError, match="unknown cluster backend"):
            Cluster(adf(), backend="carrier-pigeon")

    def test_process_backend_rejects_memory_transport(self):
        with pytest.raises(RuntimeLaunchError, match="TCP"):
            Cluster(adf(), backend="process", transport_kind="memory")

    def test_process_backend_rejects_policy_objects(self):
        with pytest.raises(RuntimeLaunchError, match="process boundary"):
            Cluster(adf(), backend="process", policy=HashWeightPolicy())

    def test_process_backend_has_no_server_objects(self):
        cluster = Cluster(adf(), backend="process")
        with pytest.raises(RuntimeLaunchError, match="no in-process server"):
            cluster.servers
        with pytest.raises(RuntimeLaunchError, match="not started"):
            cluster.client_for("a")

    def test_inprocess_keeps_seed_surface(self):
        cluster = Cluster(adf(), transport_kind="tcp")
        assert set(cluster.servers) == set(HOSTS)
        # TCP listeners bind ephemerally: never the fixed base port.
        for host in HOSTS:
            assert cluster.backend.transport_for(host) is not None
            assert cluster.address_book[host].port != MEMO_PORT
        cluster.stop()


class TestEphemeralPorts:
    def test_parallel_tcp_clusters_never_collide(self, tmp_path):
        """Two clusters (one threaded, one process-per-server) coexist:
        every listener is OS-assigned, nothing derives from MEMO_PORT."""
        with Cluster(adf(), transport_kind="tcp") as first:
            with Cluster(adf(), backend="process") as second:
                ports = [first.address_book[h].port for h in HOSTS]
                ports += [second.address_book[h].port for h in HOSTS]
                assert len(set(ports)) == len(ports)
                assert MEMO_PORT not in ports
                first.register()
                second.register()


class TestFixedAddresses:
    """A host's address is a constant of the cluster: a restarted server
    listens where the dead one did, so nobody has to be told it moved."""

    @pytest.mark.parametrize(
        "backend, transport_kind",
        [("inprocess", "memory"), ("inprocess", "tcp"), ("process", "tcp")],
    )
    def test_client_rides_through_restart(self, backend, transport_kind):
        rep = system_default_adf(HOSTS, app="sel", replication_factor=2)
        with Cluster(
            rep,
            backend=backend,
            transport_kind=transport_kind,
            heartbeat_interval=0.05,
            failure_threshold=2,
        ) as cluster:
            cluster.register()
            memo = cluster.memo_api("a", "sel")
            memo.put(Key(Symbol("before")), 1, wait=True)
            address = cluster.backend.address_of("a")

            cluster.kill_host("a")
            cluster.restart_host("a")

            assert cluster.backend.address_of("a") == address
            memo.put(Key(Symbol("after")), 2, wait=True)
            assert memo.get(Key(Symbol("after"))) == 2

    def test_stop_returns_every_fd_and_reaps_every_child(self):
        """The parent makes a listener per incarnation and holds a port
        reservation per host; none of them may outlive ``stop``."""
        gc.collect()
        fds = len(os.listdir("/proc/self/fd"))
        cluster = Cluster(adf(), backend="process").start()
        procs = [child.proc for child in cluster.backend._children.values()]
        cluster.kill_host("a")
        assert all(p.poll() is None for p in procs[1:])  # only the victim died
        cluster.restart_host("a")
        procs.append(cluster.backend._children["a"].proc)
        cluster.stop()
        assert [p.returncode is not None for p in procs] == [True] * 3
        assert len(os.listdir("/proc/self/fd")) == fds


class TestServerMain:
    def _env(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        return env

    def test_managed_mode_serves_and_dies_on_stdin_eof(self):
        """The production command: the child adopts the listener it was
        born holding, and a request dialled before it was up (waiting in
        the backlog) is its first round trip — answering it is being up."""
        listener = bind_loopback(0)
        listener.listen(8)
        port, fd = listener.getsockname()[1], listener.fileno()
        proc = subprocess.Popen(
            SERVER_COMMAND,
            stdin=subprocess.PIPE,
            pass_fds=(fd,),
            env=self._env(),
        )
        listener.close()
        try:
            config = '{"host": "solo", "address_book": {"solo": %d}, "listen_fd": %d}\n'
            proc.stdin.write((config % (port, fd)).encode())
            proc.stdin.flush()
            reply = round_trip(
                TCPTransport(), Address("solo", port), Heartbeat(host=""), timeout=30
            )
            assert reply.ok
            # Parent death = stdin EOF: the child must exit on its own.
            proc.stdin.close()
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_server_process_loads_only_the_server(self):
        """A fresh server interpreter, started as ``_spawn`` starts one,
        compiles the server and nothing an application process needs."""
        interpreter = SERVER_COMMAND[: SERVER_COMMAND.index("-m")]
        module = SERVER_COMMAND[SERVER_COMMAND.index("-m") + 1]
        script = (
            f"import sys, {module}\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
        )
        out = subprocess.run(
            [*interpreter, "-c", script],
            env=self._env(),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        loaded = out.split()
        assert module in loaded
        forbidden = [
            m
            for m in loaded
            if m in CLIENT_MODULES or m.partition(".")[2].split(".")[0] in CLIENT_PACKAGES
        ]
        assert forbidden == []
        assert len(loaded) <= 33, loaded

    def test_standalone_mode_defaults_documented_port_and_obeys_sigterm(self):
        # --port 0 keeps the test collision-free; MEMO_PORT stays the
        # documented standalone default in the argparse surface.
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.runtime.server_main",
                "standalone-host",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            env=self._env(),
        )
        try:
            line = proc.stdout.readline().decode()
            assert "standalone-host" in line and "listening" in line
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_standalone_default_port_is_memo_port(self):
        from repro.runtime import server_main

        parser_default = None
        # The argparse default is the documented MEMO_PORT contract; probe
        # it without binding (7094 may be in use on a shared machine).
        import argparse

        original = argparse.ArgumentParser.parse_args

        def capture(self, argv=None, namespace=None):
            nonlocal parser_default
            for action in self._actions:
                if action.dest == "port":
                    parser_default = action.default
            raise SystemExit(0)

        argparse.ArgumentParser.parse_args = capture
        try:
            with pytest.raises(SystemExit):
                server_main.main(["x"])
        finally:
            argparse.ArgumentParser.parse_args = original
        assert parser_default == MEMO_PORT
