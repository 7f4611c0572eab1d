"""Network communication foundation (paper section 3.1.1).

The foundation separates *what* two processes exchange from *how* bytes
move:

* :mod:`repro.network.frames` — self-delimiting frames with integrity
  checking (the derived transport layer the paper describes for hosts whose
  native channels lack one, e.g. INMOS Transputers);
* :mod:`repro.network.connection` — the abstract ``Connection`` /
  ``Listener`` / ``Transport`` contract plus logical addresses;
* :mod:`repro.network.transport` — the in-memory transport and the
  :class:`NetworkFabric` that simulates link latency;
* :mod:`repro.network.tcp` — a real TCP/IP transport over loopback sockets;
* :mod:`repro.network.protocol` — the typed request/reply messages, encoded
  with the system's own transferable wire format;
* :mod:`repro.network.routing` — per-application routing tables over the
  ADF's logical point-to-point topology (cost-weighted shortest paths, no
  broadcasting).
"""

from repro.network.connection import Address, Connection, Listener, Transport
from repro.network.frames import parse_frame, write_frame
from repro.network.transport import InMemoryTransport, NetworkFabric
from repro.network.tcp import TCPTransport
from repro.network.routing import RoutingTable
from repro.network import protocol

__all__ = [
    "Address",
    "Connection",
    "Listener",
    "Transport",
    "parse_frame",
    "write_frame",
    "InMemoryTransport",
    "NetworkFabric",
    "TCPTransport",
    "RoutingTable",
    "protocol",
]
