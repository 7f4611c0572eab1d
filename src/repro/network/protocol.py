"""Typed request/reply messages of the D-Memo server protocol.

Every message is a frozen dataclass with one wire representation: the
compact positional framing of :mod:`repro.network.codec` (1-byte type
tag, no struct or field names).  A memo's value rides a message as
opaque ``payload`` bytes; only clients encode and decode it.

Message flow (Figures 1 and 2 of the paper):

* application process → local memo server: any of the ``*Request`` types;
* memo server → folder server (same host): the same request, unwrapped;
* memo server → next-hop memo server (inter-machine): the request, one
  correlated frame of an :class:`Envelope` carrying the final destination
  host and the accumulated hop trail (for metrics);
* the reply retraces the connection path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.keys import FolderName
from repro.errors import DecodingError, ProtocolError
from repro.network.codec import (
    decode_tagged,
    encode_message,
    register_compact,
    recorrelate,
    split_correlated,
)
from repro.network.connection import Address, Connection, Transport

__all__ = [
    "PutRequest",
    "MigrateRequest",
    "PutDelayedRequest",
    "GetRequest",
    "GetWaitRequest",
    "CancelWaitRequest",
    "GetAltSkipRequest",
    "RegisterRequest",
    "ReplicatePut",
    "Heartbeat",
    "DeltaSyncPull",
    "StatsRequest",
    "ShutdownRequest",
    "ResyncRequest",
    "Envelope",
    "PipelineBatch",
    "Acks",
    "PUT_ACK",
    "MemoReady",
    "WaitCancelled",
    "Reply",
    "send_message",
    "exchange",
    "round_trip",
    "recv_tagged",
    "decode_protocol_frame",
    "decode_reply",
    "put_ack_frame",
    "retryable",
    "shutting_down",
    "GET_MODES",
    "GET_WAIT_MODES",
]

#: Valid modes for :class:`GetRequest`.
GET_MODES = ("get", "copy", "skip")

#: Valid modes for :class:`GetWaitRequest` (the blocking modes only — a
#: non-blocking ``skip`` never parks, so it stays on :class:`GetRequest`).
GET_WAIT_MODES = ("get", "copy")


@dataclass(frozen=True)
class PutRequest:
    """Deposit a memo: ``put(key, value)``."""

    folder: FolderName
    payload: bytes
    origin: str = ""


@dataclass(frozen=True)
class PutDelayedRequest:
    """Deposit a dormant memo released to *release_to* on the next arrival.

    Implements ``put_delayed(key1, key2, value)`` (section 6.1.2): the value
    sits invisibly in *folder* until another memo arrives there, then moves
    to *release_to* where it becomes gettable.
    """

    folder: FolderName
    release_to: FolderName
    payload: bytes
    origin: str = ""


@dataclass(frozen=True)
class GetRequest:
    """Extract a memo without waiting: ``get_skip``.

    ``mode="skip"`` consumes when available, otherwise returns not-found
    at once.  ``"get"`` and ``"copy"`` still decode, but a server answers
    them with a ``ProtocolError`` reply: a blocked read would hold its
    thread, so ``get`` and ``get_copy`` wait with a :class:`GetWaitRequest`.
    """

    folder: FolderName
    mode: str = "get"
    origin: str = ""

    def __post_init__(self) -> None:
        if self.mode not in GET_MODES:
            raise ProtocolError(f"invalid get mode {self.mode!r}")


@dataclass(frozen=True)
class GetWaitRequest:
    """Register interest in a memo without holding a server thread.

    How ``get`` and ``get_copy`` wait: the
    server answers once on the request's correlation id — with the memo
    when the folder is non-empty, or with a "parked" acknowledgement
    (``ok=True, found=False``) after recording the wait in the session's
    waiter table.  A server that serves the folder answers at once; one
    that relays the wait toward the folder's owner answers when the
    owner's first answer comes back, so a remote hit is one found reply,
    never a parked ack and a push.  A parked wait resolves later through
    an unsolicited :class:`MemoReady` push (or :class:`WaitCancelled` on
    migration, shutdown, or cancellation) carrying *waiter*, the
    client-chosen token.  The token — not the correlation id — names the
    wait, so the client can index its future before the request is even
    sent and a push can never race the parked acknowledgement.
    """

    folder: FolderName
    mode: str = "get"
    waiter: int = 0
    origin: str = ""

    def __post_init__(self) -> None:
        if self.mode not in GET_WAIT_MODES:
            raise ProtocolError(f"invalid get-wait mode {self.mode!r}")
        if self.waiter < 0:
            raise ProtocolError(f"waiter token must be >= 0, got {self.waiter}")


@dataclass(frozen=True)
class CancelWaitRequest:
    """Withdraw a parked :class:`GetWaitRequest` by its waiter token.

    The reply's ``found`` flag reports the race outcome: ``False`` means
    the wait was removed before completing (no push will ever arrive for
    the token); ``True`` means completion won — the :class:`MemoReady`
    is already on the wire and the caller should keep its result.
    """

    waiter: int
    origin: str = ""

    def __post_init__(self) -> None:
        if self.waiter < 0:
            raise ProtocolError(f"waiter token must be >= 0, got {self.waiter}")


@dataclass(frozen=True)
class MemoReady:
    """Unsolicited push: a parked wait completed with a memo.

    Sent server → client outside any request/reply pair (a plain
    version-1 compact frame — pushes carry no correlation id; the
    *waiter* token is the routing key).
    """

    waiter: int
    folder: FolderName
    payload: bytes


@dataclass(frozen=True)
class WaitCancelled:
    """Unsolicited push: a parked wait ended without a memo.

    *reason* uses the protocol's error-text conventions, which
    :func:`retryable` and :func:`shutting_down` read: a retryable reason
    invites the client to re-subscribe (the folder moved or the server
    is restarting — the wait is still satisfiable elsewhere); anything
    else is terminal.
    """

    waiter: int
    reason: str = ""


def shutting_down(error: str) -> bool:
    """Whether *error* (a :class:`Reply`'s or a :class:`WaitCancelled`'s
    text) says its sender is stopping: it starts with ``shutdown:``.  The
    data is still there — on the next replica-chain member, or at the
    sender's next incarnation."""
    return error.startswith("shutdown:")


def retryable(error: str) -> bool:
    """Whether *error* heals by asking again: the sender is
    :func:`shutting_down`, or the folder moved (``FolderMigratedError``
    anywhere in the text — it may arrive wrapped by a relaying server)
    and the placement in force now names its new home."""
    return shutting_down(error) or "FolderMigratedError" in error


@dataclass(frozen=True)
class GetAltSkipRequest:
    """One polling round of ``get_alt``/``get_alt_skip`` for co-located folders.

    The folder server checks each folder (in the given order, which the
    client randomizes for nondeterminism) and consumes from the first
    non-empty one.
    """

    folders: tuple[FolderName, ...]
    origin: str = ""

    def __post_init__(self) -> None:
        if not self.folders:
            raise ProtocolError("get_alt requires at least one folder")
        object.__setattr__(self, "folders", tuple(self.folders))


@dataclass(frozen=True)
class RegisterRequest:
    """Application registration (section 4.4).

    Loads the memo server with the application's routing table and the
    information the cost-weighted hash needs: host costs and folder-server
    placement.
    """

    app: str
    links: dict  # host -> {neighbor: cost}
    host_costs: dict  # host -> effective processor cost (cost × #procs)
    folder_servers: tuple  # ((server_id, host), ...)
    replication_factor: int = 1  # distinct hosts per folder (1 = paper's single owner)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "folder_servers", tuple(tuple(fs) for fs in self.folder_servers)
        )
        if self.replication_factor < 1:
            raise ProtocolError(
                f"replication_factor must be >= 1, got {self.replication_factor}"
            )


@dataclass(frozen=True)
class MigrateRequest:
    """Rebalance folder ownership after a re-registration.

    The memo server extracts every folder of *app* whose owner under the
    *current* placement is no longer the local folder server that holds it,
    and re-deposits the contents through normal routing — the system's
    "dynamic data migration across HC machines".
    """

    app: str
    origin: str = ""


@dataclass(frozen=True)
class ReplicatePut:
    """Copy one memo onto a backup host's replica store.

    Sent by whichever chain member accepted a write (the primary, or an
    acting primary during fail-over) to every other live member of the
    folder's replica chain, and by :class:`DeltaSyncPull` handlers
    re-seeding a rejoined backup.  It is a put-lane request, so a run of
    copies — a lane round's, or a re-seed — rides one :class:`Envelope`
    and applies in order; a lone copy rides one of its own.  A copy whose
    origin coordinates the backup already holds is acknowledged and
    dropped; otherwise re-sends may duplicate a memo, never lose one.

    Attributes:
        app: application whose placement names the chain.
        folder: the folder the memo belongs to.
        payload: the memo's transferable bytes.
        origin: depositing process (diagnostics).
        delayed: True for a parked ``put_delayed`` memo.
        release_to: the delayed memo's release target (when *delayed*).
        src_sid: folder-server id that first accepted the write.
        src_lsn: that store's LSN for the write.  Together these are the
            write's cluster-wide origin coordinates; backups store them
            unchanged, so delta anti-entropy can name precisely which
            writes a recovered store already holds.
    """

    app: str
    folder: FolderName
    payload: bytes
    origin: str = ""
    delayed: bool = False
    release_to: FolderName | None = None
    src_sid: str = ""
    src_lsn: int = 0

    def __post_init__(self) -> None:
        if self.delayed and self.release_to is None:
            raise ProtocolError("delayed ReplicatePut requires release_to")


@dataclass(frozen=True)
class Heartbeat:
    """Liveness probe between memo servers (failure detection).

    Carries the *sender's* host name so the receiver can mark it alive —
    hearing from a host is itself evidence of life, making every heartbeat
    round a two-way refresh.
    """

    host: str
    origin: str = ""


@dataclass(frozen=True)
class DeltaSyncPull:
    """Anti-entropy pull: ships what the requester's advertised state lacks.

    Issued by a host rejoining the cluster and by the periodic sweep.
    The receiver (1) extracts replica-held records whose *primary* is
    the requester and returns them as the :class:`PutRequest` /
    :class:`PutDelayedRequest` that deposited them (migration is just
    puts, as for :class:`MigrateRequest`), and (2) re-sends
    :class:`ReplicatePut` copies of its own primary folders that list
    the requester as a backup.  Both phases travel to the requester as
    :class:`Envelope` runs of at most 512 frames over a direct link —
    one exchange per burst, not per record — and whatever a burst does
    not settle takes the per-record path (ordinary routing for returns,
    an envelope of one copy each for re-seeds), as everything does on a
    multi-hop topology.  Both phases are filtered by what the
    requester says it already holds, in origin coordinates, so a
    WAL-recovered host moves only the outage delta while a host that
    came back empty (LSN 0, or a rebased clock with its floor) gets
    everything:

    - ``primary_lsns``: its own folder-server id → recovered LSN.  The
      receiver returns only replica-held, requester-primaried records
      NOT covered (stamped by an advertised store at ``src_lsn`` ≤ its
      mark) — i.e. fail-over writes accepted elsewhere, plus anything
      past a torn-tail truncation.
    - ``replica_marks``: origin store id → max ``src_lsn`` present in
      the requester's replica stores.  The receiver re-seeds only its
      primary records past those marks (no mark for a store re-seeds
      all of it, deduplicated on arrival).
    - ``primary_floors``: its own folder-server id → the store's
      resync floor.  A cold (log-less) restart resumes the LSN clock
      past the dead incarnation's high-water mark, so the range below
      the floor was *never* recovered even though it sits under the
      advertised LSN; the receiver returns records at or below the
      floor unconditionally.  Empty for hosts with continuous or
      WAL-replayed history.

    Timer-driven anti-entropy sweeps send the same message from healthy
    hosts; receiver-side dedup by origin coordinates keeps repeated
    sweeps idempotent.
    """

    app: str
    requester: str
    primary_lsns: dict = field(default_factory=dict)
    replica_marks: dict = field(default_factory=dict)
    primary_floors: dict = field(default_factory=dict)
    origin: str = ""


@dataclass(frozen=True)
class StatsRequest:
    """Ask a server for its counters (diagnostics and benches)."""

    origin: str = ""


@dataclass(frozen=True)
class ShutdownRequest:
    """Orderly shutdown; blocked getters are woken with an error reply."""

    origin: str = ""


@dataclass(frozen=True)
class ResyncRequest:
    """Control-plane ask: run one anti-entropy round *from* this server.

    How the cluster drives anti-entropy on every backend: the server
    holds the stores, so it runs its own round.  The receiver
    resyncs *apps* against every peer in its address book, advertising
    its LSNs, replica marks and floors (see :class:`DeltaSyncPull`).
    The reply's ``stats`` flattens the per-peer counters as
    ``"<peer>:<metric>"``.
    """

    apps: tuple[str, ...]
    origin: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "apps", tuple(self.apps))


@dataclass(frozen=True)
class Envelope:
    """Requests in transit between memo servers (Figure 2): the one way a
    request crosses to another server.

    A forward, a relayed hop, a replica copy, a relayed wait and a burst
    all ride one: the application, target and trail once, and the member
    requests as correlated frames under the sending link's ids.  Like a
    :class:`PipelineBatch` it is sent id-less, and its sender writes the
    frame from the field values (``codec.encode_fields``) without building
    one.  The receiver serves each member where its handler row says — its
    lane members in one round, in order, answered together (accepted puts
    as one :class:`Acks` frame), a lone member as if it came alone — or
    passes each on toward *target_host* in an envelope of its own.  A
    member a server passes on — a client's request forwarded to its owner,
    alone or in a burst, or a member a relay hop passes on — keeps its
    body exactly as it was read, never re-encoded: only a request the
    sending server built itself (a replica copy, a relayed wait, a
    ``get_alt`` sub-round) is encoded there.

    A relay hop could reorder the members it passes on, so an envelope of
    more than one travels only over a direct link to *target_host*.

    Attributes:
        app: application whose routing table governs the forwarding.
        target_host: host owning the destination folder server.
        frames: the member requests, each a correlated compact frame.
        trail: hosts traversed so far (metrics; also a loop guard).
    """

    app: str
    target_host: str
    frames: tuple[bytes, ...]
    trail: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if type(self.frames) is not tuple:
            object.__setattr__(self, "frames", tuple(self.frames))
        if type(self.trail) is not tuple:
            object.__setattr__(self, "trail", tuple(self.trail))
        if not self.frames:
            raise ProtocolError("Envelope requires at least one frame")


@dataclass(frozen=True)
class PipelineBatch:
    """Several already-encoded requests travelling as one wire message.

    A client flushing a ``put_many`` batch coalesces its requests into
    one of these, paying one transport send/receive per *burst* instead
    of per message.  Each inner element is a complete correlated compact
    frame; the receiver unpacks and dispatches them in order.  Batches do
    not nest, and a batch never carries replies: a burst's put acks come
    back as one :class:`Acks` frame.

    The container itself is always sent id-less: the correlation ids live
    on the inner frames.
    """

    frames: tuple[bytes, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))
        if not self.frames:
            raise ProtocolError("PipelineBatch requires at least one frame")


@dataclass(frozen=True)
class Reply:
    """Universal response.

    Attributes:
        ok: False means *error* describes a failure.
        found: for get-style requests, whether a memo was returned
            (``get_skip`` on an empty folder yields ``ok=True, found=False``).
        payload: the memo's transferable bytes when found.
        folder: which folder satisfied a ``get_alt`` round.
        error: human-readable failure description.
        stats: counters, name → int or float (a :class:`StatsRequest`'s,
            or a resync round's).
    """

    ok: bool = True
    found: bool = False
    payload: bytes = b""
    folder: FolderName | None = None
    error: str = ""
    stats: dict = field(default_factory=dict)


#: Shared acknowledgement for accepted writes.  Reply is frozen, so one
#: instance serves every put, and the session, the link and the client
#: recognise an ack by identity: what a sender puts in an :class:`Acks`
#: frame, and what a receiver hands on for each id in one.
PUT_ACK = Reply(ok=True, found=True)


@dataclass(frozen=True)
class Acks:
    """Reply only: the put acks of one lane round, as one frame.

    A server answering a set of more than one request sends the
    correlation id of every request it answered with :data:`PUT_ACK`
    here, instead of a correlated :class:`Reply` frame each; its other
    replies go as those.  Each id means exactly ``PUT_ACK`` tagged with
    it.  A lone reply is never one.  Like a carrier it is sent id-less —
    it answers many ids — but it carries no request: a server that reads
    one closes the connection.  On the wire the ids are zigzag deltas, so
    a round's nearly consecutive ids cost a byte each.
    """

    cids: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.cids) is not tuple:
            object.__setattr__(self, "cids", tuple(self.cids))
        if not self.cids:
            raise ProtocolError("Acks requires at least one id")
        if min(self.cids) < 0 or max(self.cids) >> 64:
            raise ProtocolError("an acknowledged id is outside [0, 2**64)")


_MESSAGE_TYPES = (
    PutRequest,
    PutDelayedRequest,
    GetRequest,
    GetAltSkipRequest,
    RegisterRequest,
    MigrateRequest,
    ReplicatePut,
    Heartbeat,
    DeltaSyncPull,
    StatsRequest,
    ShutdownRequest,
    ResyncRequest,
    Reply,
    PipelineBatch,
    Envelope,
    GetWaitRequest,
    MemoReady,
    WaitCancelled,
    CancelWaitRequest,
    Acks,
)

# Compact positional encodings, the one control framing.  Field tuples must
# list the dataclass init fields in declaration order — the decoder
# constructs positionally.  Tags are wire ABI: never renumber, only append.
register_compact(PutRequest, 1, (("folder", "folder"), ("payload", "bytes"), ("origin", "name")))
register_compact(
    PutDelayedRequest,
    2,
    (("folder", "folder"), ("release_to", "folder"), ("payload", "bytes"), ("origin", "name")),
)
register_compact(GetRequest, 3, (("folder", "folder"), ("mode", "str"), ("origin", "str")))
register_compact(GetAltSkipRequest, 4, (("folders", "folder_tuple"), ("origin", "str")))
register_compact(
    RegisterRequest,
    5,
    (
        ("app", "str"),
        ("links", "link_dict"),
        ("host_costs", "float_dict"),
        ("folder_servers", "server_pairs"),
        ("replication_factor", "uint"),
    ),
)
register_compact(MigrateRequest, 6, (("app", "str"), ("origin", "str")))
register_compact(
    ReplicatePut,
    7,
    (
        ("app", "str"),
        ("folder", "folder"),
        ("payload", "bytes"),
        ("origin", "name"),
        ("delayed", "bool"),
        ("release_to", "opt_folder"),
        ("src_sid", "name"),
        ("src_lsn", "uint"),
    ),
)
register_compact(Heartbeat, 8, (("host", "str"), ("origin", "str")))
# Tag 9 carried the pre-delta full anti-entropy pull; retired, never reuse it.
register_compact(
    DeltaSyncPull,
    20,
    (
        ("app", "str"),
        ("requester", "str"),
        ("primary_lsns", "num_map"),
        ("replica_marks", "num_map"),
        ("primary_floors", "num_map"),
        ("origin", "str"),
    ),
)
register_compact(StatsRequest, 10, (("origin", "str"),))
register_compact(ShutdownRequest, 11, (("origin", "str"),))
# Tag 26 carried the host -> port map rebroadcast after every restart, when
# a restarted host drew a new port; retired, never reuse it.
register_compact(
    ResyncRequest,
    27,
    (("apps", "str_tuple"), ("origin", "str")),
)
# Tag 12 carried the envelope of one request, its ``inner`` a plain frame
# under the envelope's id; retired, never reuse it.
register_compact(PipelineBatch, 14, (("frames", "bytes_tuple"),))
register_compact(
    Envelope,
    15,
    (
        ("app", "str"),
        ("target_host", "str"),
        ("frames", "bytes_tuple"),
        ("trail", "str_tuple"),
    ),
)
register_compact(
    GetWaitRequest,
    16,
    (("folder", "folder"), ("mode", "str"), ("waiter", "uint"), ("origin", "str")),
)
register_compact(
    MemoReady,
    17,
    (("waiter", "uint"), ("folder", "folder"), ("payload", "bytes")),
)
register_compact(WaitCancelled, 18, (("waiter", "uint"), ("reason", "str")))
register_compact(CancelWaitRequest, 19, (("waiter", "uint"), ("origin", "str")))
register_compact(Acks, 28, (("cids", "uint_deltas"),))
register_compact(
    Reply,
    13,
    (
        ("ok", "bool"),
        ("found", "bool"),
        ("payload", "bytes"),
        ("folder", "opt_folder"),
        ("error", "str"),
        ("stats", "num_map"),
    ),
)


def send_message(
    conn: Connection, message: object, corr_id: int | None = None
) -> int:
    """Encode and send one protocol message; returns encoded size.

    The message takes the compact framing (:func:`encode_message` raises
    :class:`~repro.errors.EncodingError` for anything else).  With
    *corr_id* the frame is emitted in the correlated (version-2) framing,
    naming the request/reply pair it belongs to.
    """
    data = encode_message(message, corr_id)
    conn.send(data)
    return len(data)


#: Correlation ids of the exchanges this process starts.
_exchange_ids = itertools.count(1)


def exchange(conn: Connection, message: object, timeout: float | None = None) -> object:
    """Send the request *message* and return its reply (within *timeout*).

    The request carries a fresh correlation id, and the reply must carry
    it back.  A reply naming another id, or none, is not this request's:
    the connection is closed and :class:`ProtocolError` raised.
    """
    cid = next(_exchange_ids)
    send_message(conn, message, corr_id=cid)
    reply, got = recv_tagged(conn, timeout)
    if got != cid:
        conn.close()
        raise ProtocolError(f"the reply to request {cid} was tagged {got}")
    return reply


def round_trip(
    transport: Transport,
    address: Address,
    message: object,
    timeout: float | None = None,
) -> object:
    """One :func:`exchange` on a connection of its own: dial, send
    *message*, receive its reply, close.

    How the cluster's control traffic reaches a memo server —
    registration and the control messages; a server reaches its peers
    over its links instead (:mod:`repro.servers.link`).  Whatever the
    dial or the exchange raises propagates; each caller maps it.
    """
    conn = transport.connect(address)
    try:
        return exchange(conn, message, timeout)
    finally:
        conn.close()


def recv_tagged(
    conn: Connection, timeout: float | None = None
) -> tuple[object, int | None]:
    """Receive one protocol message plus its correlation id (None if
    id-less), as :func:`decode_reply` reads it.

    Raises:
        ProtocolError: the bytes decoded to something that is not a
            registered protocol message, or could not be decoded at all.
    """
    return decode_reply(conn.recv(timeout))


def decode_protocol_frame(data: bytes | memoryview) -> tuple[object, int | None]:
    """Decode one frame into ``(protocol message, correlation id)``.

    The protocol-level validation shared by every receiver: a session
    reading requests (and a carrier's member frames), and
    :func:`decode_reply`.

    Raises:
        ProtocolError: the bytes decoded to something that is not a
            registered protocol message, or could not be decoded at all.
    """
    try:
        msg, corr_id = decode_tagged(data)
    except DecodingError as exc:
        raise ProtocolError(f"undecodable message frame: {exc}") from exc
    if not isinstance(msg, _MESSAGE_TYPES):
        raise ProtocolError(f"unexpected message type {type(msg).__qualname__}")
    return msg, corr_id


#: The put ack's frame past its correlation id (what
#: :func:`split_correlated` exposes), and the longest frame that can be
#: one: header, a ten-byte id, then those bytes.
_PUT_ACK_TAGBODY = encode_message(PUT_ACK)[3:]
_PUT_ACK_LONGEST = 3 + 10 + len(_PUT_ACK_TAGBODY)

#: A lone put ack's frame, built once: :func:`put_ack_frame` splices an id in.
_PUT_ACK_FRAME = encode_message(PUT_ACK, 0)


def put_ack_frame(corr_id: int) -> bytes:
    """``encode_message(PUT_ACK, corr_id)``, copied from a prebuilt frame
    with only the correlation id written: the commonest reply a session
    sends costs no encode."""
    return recorrelate(_PUT_ACK_FRAME, corr_id)


def decode_reply(frame: bytes) -> tuple[object, int | None]:
    """:func:`decode_protocol_frame` for a frame a peer answers with: a
    lone put ack, the commonest reply, is recognised by its bytes and
    never decoded."""
    if len(frame) <= _PUT_ACK_LONGEST:
        split = split_correlated(frame)
        if split is not None and split[1] == _PUT_ACK_TAGBODY:
            return PUT_ACK, split[0]
    return decode_protocol_frame(frame)
