"""Typed request/reply messages of the D-Memo server protocol.

Every message is a frozen dataclass with two wire representations: a
compact positional framing (1-byte type tag, no struct or field names —
:mod:`repro.network.codec`) used on the hot path, and the self-describing
transferable TLV framing, kept registered so memo payloads can embed
protocol messages and seed-era TLV control streams still decode.  The two
framings are distinguished by their leading magic, so a receiver needs no
negotiation.

Message flow (Figures 1 and 2 of the paper):

* application process → local memo server: any of the ``*Request`` types;
* memo server → folder server (same host): the same request, unwrapped;
* memo server → next-hop memo server (inter-machine): the request wrapped
  in a :class:`ForwardEnvelope` carrying the final destination host and the
  accumulated hop trail (for metrics);
* the reply retraces the connection path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.keys import FolderName
from repro.errors import DecodingError, ProtocolError
from repro.network.codec import (
    decode_tagged,
    encode_message,
    register_compact,
    split_correlated,
)
from repro.network.connection import Address, Connection, Transport
from repro.transferable.registry import default_registry

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
    "ForwardEnvelope",
    "BurstEnvelope",
    "PipelineBatch",
    "MemoReady",
    "WaitCancelled",
    "Reply",
    "send_message",
    "recv_message",
    "round_trip",
    "recv_tagged",
    "decode_protocol_frame",
    "iter_batch_frames",
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
    """Extract or examine a memo.

    ``mode``:
        * ``"get"``  — consume; block until a memo is available.
        * ``"copy"`` — return a copy without consuming; block when empty.
        * ``"skip"`` — consume when available, otherwise return not-found
          immediately (``get_skip``).
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

    The futures-first counterpart of a blocking :class:`GetRequest`: the
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

    Only meaningful on a pipelined (correlated) session: an id-less peer
    has no demultiplexer to route a push frame to, so strict sessions
    reject it and never receive pushes.
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
    copies — a lane round's, or a re-seed — rides one
    :class:`BurstEnvelope` and applies in order; a lone copy travels in a
    strict :class:`ForwardEnvelope`.  A copy whose origin coordinates the
    backup already holds is acknowledged and dropped; otherwise re-sends
    may duplicate a memo, never lose one.

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
    :class:`BurstEnvelope` runs of at most 512 frames over a direct link
    — one exchange per burst, not per record — and whatever a burst does
    not settle takes the per-record path (ordinary routing for returns,
    a strict copy for re-seeds), as everything does on a multi-hop
    topology.  Both phases are filtered by what the
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
class ForwardEnvelope:
    """A request in transit between memo servers (Figure 2).

    Attributes:
        app: application whose routing table governs the forwarding.
        target_host: host owning the destination folder server.
        inner: the encoded original request.
        trail: hosts traversed so far (metrics; also a loop guard).
    """

    app: str
    target_host: str
    inner: bytes
    trail: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "trail", tuple(self.trail))


@dataclass(frozen=True)
class BurstEnvelope:
    """A run of lane requests sent to one host as one message.

    The strict :class:`ForwardEnvelope` wraps one request and repeats the
    application, target, and trail strings on every hop — fine for a
    single forward, pure overhead for a run whose envelopes are
    identical.  A burst envelope carries those fields *once* and the
    member requests as correlated frames, which the receiver queues on
    one put lane and applies in order.  Members are requests whose
    handler runs on the lane: a client's pipelined puts forwarded to
    their owner (raw, exactly as the client sent them — never
    re-encoded — so the owner's tagged replies, using the client's own
    ids, pass back to the client verbatim), the puts and
    :class:`ReplicatePut` copies an anti-entropy pull sends a rejoining
    host, and the replica copies a lane round sends each backup.

    Only emitted over a direct link to *target_host* — a relay would
    serve each member on its own worker and could reorder them, so
    multi-hop traffic stays on the strict path.
    """

    app: str
    target_host: str
    frames: tuple[bytes, ...]
    trail: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))
        object.__setattr__(self, "trail", tuple(self.trail))
        if not self.frames:
            raise ProtocolError("BurstEnvelope requires at least one frame")


@dataclass(frozen=True)
class PipelineBatch:
    """Several already-encoded frames travelling as one wire message.

    Pipelined peers coalesce bursts — a client flushing a ``put_many``
    batch, a server emitting the replies a worker set just completed —
    into one of these, paying one transport send/receive per *burst*
    instead of per message.  Each inner element is a complete encoded
    frame (normally a correlated compact frame); the receiver unpacks and
    dispatches them in order.  Batches do not nest.

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
        stats: counter mapping for :class:`StatsRequest`.
    """

    ok: bool = True
    found: bool = False
    payload: bytes = b""
    folder: FolderName | None = None
    error: str = ""
    stats: dict = field(default_factory=dict)


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
    ForwardEnvelope,
    Reply,
    PipelineBatch,
    BurstEnvelope,
    GetWaitRequest,
    MemoReady,
    WaitCancelled,
    CancelWaitRequest,
)

# Registered in the transferable registry too: the TLV fallback framing
# (and any memo payload embedding a protocol message) must keep working.
for _cls in _MESSAGE_TYPES:
    default_registry.register_struct(_cls, name=f"dmemo.proto.{_cls.__name__}")

# Compact positional encodings (hot-path framing).  Field tuples must list
# the dataclass init fields in declaration order — the decoder constructs
# positionally.  Tags are wire ABI: never renumber, only append.
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
        ("primary_lsns", "tlv"),
        ("replica_marks", "tlv"),
        ("primary_floors", "tlv"),
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
register_compact(
    ForwardEnvelope,
    12,
    (("app", "str"), ("target_host", "str"), ("inner", "bytes"), ("trail", "str_tuple")),
)
register_compact(PipelineBatch, 14, (("frames", "bytes_tuple"),))
register_compact(
    BurstEnvelope,
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
register_compact(
    Reply,
    13,
    (
        ("ok", "bool"),
        ("found", "bool"),
        ("payload", "bytes"),
        ("folder", "opt_folder"),
        ("error", "str"),
        ("stats", "tlv"),
    ),
)


def send_message(
    conn: Connection, message: object, corr_id: int | None = None
) -> int:
    """Encode and send one protocol message; returns encoded size.

    Protocol messages take the compact framing; anything else falls back
    to the self-describing TLV codec (see :mod:`repro.network.codec`).
    With *corr_id* the frame is emitted in the correlated (version-2)
    framing, naming the request/reply pair it belongs to.
    """
    data = encode_message(message, corr_id)
    conn.send(data)
    return len(data)


def recv_message(conn: Connection, timeout: float | None = None) -> object:
    """Receive and decode one protocol message (compact or TLV framing).

    The strict request/reply entry point: a correlation id, if present,
    is dropped.  Pipelining peers use :func:`recv_tagged`.

    Raises:
        ProtocolError: the bytes decoded to something that is not a
            registered protocol message, or could not be decoded at all.
    """
    return recv_tagged(conn, timeout)[0]


def round_trip(
    transport: Transport,
    address: Address,
    message: object,
    timeout: float | None = None,
) -> object:
    """One strict exchange on a connection of its own: dial, send
    *message*, receive the reply (within *timeout*), close.

    How control traffic reaches a memo server — registration, heartbeats,
    anti-entropy pulls, the cluster's control messages.  Whatever the
    dial or the exchange raises propagates; each caller maps it.
    """
    conn = transport.connect(address)
    try:
        send_message(conn, message)
        return recv_message(conn, timeout=timeout)
    finally:
        conn.close()


def recv_tagged(
    conn: Connection, timeout: float | None = None
) -> tuple[object, int | None]:
    """Receive one protocol message plus its correlation id (None if id-less).

    Raises:
        ProtocolError: the bytes decoded to something that is not a
            registered protocol message, or could not be decoded at all.
    """
    return decode_protocol_frame(conn.recv(timeout))


def decode_protocol_frame(data: bytes | memoryview) -> tuple[object, int | None]:
    """Decode one frame into ``(protocol message, correlation id)``.

    The protocol-level validation shared by :func:`recv_tagged` and the
    receivers that unpack :class:`PipelineBatch` inner frames.

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


def iter_batch_frames(frames):
    """Decode a :class:`PipelineBatch`'s frames into ``(message, corr_id)``.

    A reply burst is dominated by byte-identical acknowledgement bodies
    that differ only in their correlation id, so the body bytes key a
    decode cache: one representative is decoded per distinct body and the
    (immutable) message object is reused for every byte-equal sibling.

    Raises:
        ProtocolError: a frame that is not a registered protocol message.
    """
    cache: dict[bytes, object] = {}
    for raw in frames:
        split = split_correlated(raw)
        if split is None:
            yield decode_protocol_frame(raw)
            continue
        corr_id, key = split
        msg = cache.get(key)
        if msg is None:
            msg = decode_protocol_frame(raw)[0]
            cache[key] = msg
        yield msg, corr_id
