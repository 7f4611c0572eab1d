"""``python -m repro.runtime.server_main`` — one memo server per OS process.

This is the reproduction's stand-in for the paper's ``inetd``-spawned
per-machine memo server: a tiny entrypoint that owns exactly one
:class:`~repro.servers.memo_server.MemoServer` over real TCP and nothing
else, so a cluster of N hosts is N interpreters with N GILs.

Two modes:

* **Managed** (``--managed``): spawned by the cluster's
  :class:`~repro.runtime.backends.ProcessBackend`, the way ``inetd``
  hands a server a socket that is already listening at the well-known
  port.  Reads one JSON config line from stdin and adopts the listener
  it inherited as file descriptor ``listen_fd`` — connections dialled
  while it was starting are waiting in that socket's backlog, so the
  parent learns it is up from its first answered request, and nothing is
  written to stdout.  The process exits when it is signalled (SIGTERM/SIGINT),
  when a wire :class:`~repro.network.protocol.ShutdownRequest` stops the
  server, or when stdin hits EOF — the parent holds the other end of
  that pipe, so even a SIGKILLed parent takes its children down with it
  instead of leaking listeners.

* **Standalone** (``server_main HOSTNAME``): a hand-run server for
  scripts and experiments, listening on :data:`MEMO_PORT` unless
  ``--port`` says otherwise.

The managed config line mirrors the keyword arguments of
:class:`~repro.servers.memo_server.MemoServer` — the address book as
host → port, this host's entry being the port of the inherited listener
— plus the ``lsn_rebase`` the parent hands a respawned child::

    {"host": "hub", "address_book": {"hub": 40213, "leaf": 40215},
     "listen_fd": 5, "idle_timeout": 2.0, "heartbeat_interval": 0.1,
     "failure_threshold": 3, "durability": {"data_dir": "...", ...} | null,
     "lsn_rebase": 0}
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

from repro.durability.config import DurabilityConfig
from repro.network.connection import Address
from repro.network.tcp import TCPTransport
from repro.servers.memo_server import MEMO_PORT, MemoServer

__all__ = ["build_server", "main"]


def build_server(config: dict) -> MemoServer:
    """Construct (and bind, or adopt the listener of) a memo server from a
    config dict."""
    host = str(config["host"])
    durability = config.get("durability")
    book = {
        str(h): Address(str(h), int(port))
        for h, port in config.get("address_book", {}).items()
    }
    port = book[host].port if host in book else int(config.get("port", 0))
    inherited = {port: int(config["listen_fd"])} if "listen_fd" in config else {}
    server = MemoServer(
        host,
        TCPTransport(inherited),
        address_book=book,
        listen_port=port,
        idle_timeout=float(config.get("idle_timeout", 2.0)),
        heartbeat_interval=float(config.get("heartbeat_interval", 0.1)),
        failure_threshold=int(config.get("failure_threshold", 3)),
        durability=DurabilityConfig(**durability) if durability else None,
    )
    server.replicator.lsn_rebase = int(config.get("lsn_rebase", 0))
    return server


def _watch_parent(stop: threading.Event) -> None:
    """Block on stdin until EOF — i.e. until the parent process is gone.

    Raw ``os.read`` on the file descriptor, not the buffered reader: a
    daemon thread parked inside the buffered object's lock would deadlock
    interpreter shutdown (``_enter_buffered_busy``).
    """
    fd = sys.stdin.fileno()
    try:
        while os.read(fd, 4096):
            pass
    except OSError:
        pass
    stop.set()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.server_main",
        description="Run one D-Memo memo server in this process.",
    )
    parser.add_argument(
        "host", nargs="?", help="logical host name (standalone mode)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=MEMO_PORT,
        help=f"TCP port to bind in standalone mode (default {MEMO_PORT}; 0 = OS-assigned)",
    )
    parser.add_argument(
        "--data-dir",
        default="",
        help="enable WAL+snapshot durability under this directory (standalone mode)",
    )
    parser.add_argument(
        "--managed",
        action="store_true",
        help="cluster-supervised mode: JSON config on stdin, listener inherited "
        "as a file descriptor, exit on stdin EOF",
    )
    args = parser.parse_args(argv)

    if args.managed:
        line = sys.stdin.readline()
        if not line:
            print("server_main --managed: no config line on stdin", file=sys.stderr)
            return 2
        config = json.loads(line)
    else:
        if not args.host:
            parser.error("host name required unless --managed")
        config = {"host": args.host, "port": args.port}
        if args.data_dir:
            config["durability"] = {"data_dir": args.data_dir}

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _sig, _frame: stop.set())

    server = build_server(config)
    server.start()

    if args.managed:
        threading.Thread(
            target=_watch_parent, args=(stop,), name="parent-watch", daemon=True
        ).start()
    else:
        print(
            f"memo server {server.host!r} listening on port {server.address.port}",
            flush=True,
        )

    try:
        while not stop.wait(0.2):
            if server.stopped:  # a wire ShutdownRequest already stopped it
                break
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
