"""Exception hierarchy for the D-Memo system.

Every error raised by the library derives from :class:`MemoError` so that
applications can catch system failures with a single ``except`` clause while
still being able to discriminate the subsystem that failed.

The paper's section 3.1 builds D-Memo on four heterogeneous-computing
foundations, each an abstract base whose platform derivation is chosen at
run time.  Two of them raise errors of their own below: the connection
(section 3.1.1: ``repro.network.connection.Transport``, derived as the
in-memory fabric or TCP) and the transferable (section 3.1.3:
``repro.transferable``).  Shared memory (section 3.1.2) is where the
servers run, ``repro.runtime.backends.ClusterBackend``: threads sharing
one address space (``InProcessBackend``) or one OS process per host
(``ProcessBackend``).  Locks (section 3.1.4) are bare ``threading.Lock``
inside the servers and, for applications, the folder-level locks of
section 6.3 (``repro.core.sync``).  The server and runtime layers built
on top raise the rest.
"""

from __future__ import annotations


class MemoError(Exception):
    """Base class for all D-Memo errors."""


# ---------------------------------------------------------------------------
# Transferable foundation (paper section 3.1.3)
# ---------------------------------------------------------------------------


class TransferableError(MemoError):
    """Base class for data-domain mapping and encoding failures."""


class LossyMappingError(TransferableError):
    """A value does not fit in the absolute domain it was declared with.

    The paper's motivating example: a 64-bit Alpha sending an integer to a
    16-bit 80486 where the value exceeds 16 bits.  D-Memo refuses to perform
    the lossy mapping instead of silently truncating.
    """

    def __init__(self, domain: str, value: object, detail: str = "") -> None:
        msg = f"value {value!r} does not fit domain {domain}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.domain = domain
        self.value = value


class EncodingError(TransferableError):
    """An object graph could not be linearized to the wire format."""


class DecodingError(TransferableError):
    """A byte stream could not be de-linearized back to an object graph."""


class UnknownTransferableError(TransferableError):
    """A wire tag or type name has no registered transferable class."""


# ---------------------------------------------------------------------------
# Communication foundation (paper section 3.1.1)
# ---------------------------------------------------------------------------


class CommunicationError(MemoError):
    """Base class for connection/transport/routing failures."""


class ConnectionClosedError(CommunicationError):
    """The peer closed the connection or the transport was shut down."""


class RoutingError(CommunicationError):
    """No route exists between two hosts in the application topology."""


class FrameError(CommunicationError):
    """A malformed frame was received (bad magic, length, or checksum)."""


class ProtocolError(CommunicationError):
    """A well-formed frame carried a semantically invalid message."""


class HostDownError(CommunicationError):
    """Every host in a folder's replica chain was unreachable.

    Raised by the chain-routing fail-over path when the primary *and* all
    backups refuse connections or answer with shutdown errors; with the
    default ``replication_factor=1`` it simply replaces a bare
    communication failure for a dead single owner.
    """


# ---------------------------------------------------------------------------
# Servers and runtime (paper section 4)
# ---------------------------------------------------------------------------


class ServerError(MemoError):
    """Base class for folder/memo server failures."""


class FolderServerError(ServerError):
    """A folder server rejected or failed a request."""


class NotRegisteredError(ServerError):
    """A request named an application that never registered (section 4.4)."""


class FolderMigratedError(ServerError):
    """A blocked get's folder was migrated out from under it.

    Raised *into* waiters when ownership rebalancing (or anti-entropy
    resync) extracts their folder; the memo server catches it and re-routes
    the request under the current placement, so the getter transparently
    re-blocks at the folder's new home instead of stranding on a condition
    variable whose folder no longer receives puts.
    """


class ReplicationError(ServerError):
    """The replication subsystem was misconfigured or could not fan out.

    Covers bad replication factors, replicate requests targeting hosts
    outside a folder's chain, and resync failures."""


class ADFError(MemoError):
    """An Application Description File is syntactically or semantically bad."""


class ADFSyntaxError(ADFError):
    """Lexical/parse failure inside an ADF, with line information."""

    def __init__(self, message: str, line_no: int | None = None) -> None:
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class TopologyError(ADFError):
    """The PPC section describes an unusable topology (e.g. disconnected)."""


class RuntimeLaunchError(MemoError):
    """The cluster/launcher could not start an application."""


class ShutdownError(MemoError):
    """Raised inside blocked operations when the cluster shuts down."""
