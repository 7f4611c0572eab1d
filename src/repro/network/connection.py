"""The abstract Connection / Listener / Transport contract.

"The notion of a connection, we contend, is generally useful in the context
of two processes that must communicate and can be defined independent of any
known networking protocol."  (paper section 3.1.1)

A :class:`Connection` moves whole messages (framed byte strings) between two
endpoints; a :class:`Transport` creates connections from logical
:class:`Address`\\ es.  The D-Memo servers are written purely against these
ABCs, which is what lets the same server code run over the simulated
in-memory fabric and over real TCP sockets — the reproduction's analogue of
"simultaneously interact with different protocols in an application".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

__all__ = ["Address", "Connection", "Listener", "Transport"]


@dataclass(frozen=True, order=True)
class Address:
    """A logical network address: host name plus service port.

    The host name is a *logical* name from the ADF, not necessarily a DNS
    name; each transport maps it to whatever its medium requires.
    """

    host: str
    port: int = 0

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


class Connection(abc.ABC):
    """A bidirectional, message-oriented channel between two processes."""

    @abc.abstractmethod
    def send(self, payload: bytes) -> None:
        """Send one whole message; raises ConnectionClosedError when dead."""

    @abc.abstractmethod
    def recv(self, timeout: float | None = None) -> bytes:
        """Receive one whole message.

        Raises:
            ConnectionClosedError: the peer closed or the transport died.
            TimeoutError: *timeout* elapsed with no message.
        """

    @abc.abstractmethod
    def frame_buffered(self) -> bool:
        """Whether a whole message already waits here, so the next ``recv``
        returns it without waiting on the medium.  Read-only; ask it from
        the thread that reads."""

    @abc.abstractmethod
    def close(self) -> None:
        """Close both directions; idempotent."""

    @property
    @abc.abstractmethod
    def closed(self) -> bool:
        """True once the connection can no longer carry messages."""

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Listener(abc.ABC):
    """A bound service endpoint that accepts incoming connections."""

    @abc.abstractmethod
    def accept(self, timeout: float | None = None) -> Connection:
        """Block for the next inbound connection.

        Raises:
            ConnectionClosedError: the listener was closed.
            TimeoutError: *timeout* elapsed.
        """

    @abc.abstractmethod
    def close(self) -> None:
        """Stop accepting; idempotent."""

    @property
    @abc.abstractmethod
    def address(self) -> Address:
        """The address this listener is bound to."""


class Transport(abc.ABC):
    """Creates listeners and outbound connections for one medium."""

    @abc.abstractmethod
    def listen(self, address: Address) -> Listener:
        """Bind a listener at *address*."""

    @abc.abstractmethod
    def connect(self, address: Address, timeout: float | None = None) -> Connection:
        """Open a connection to the listener at *address*."""
