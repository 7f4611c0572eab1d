"""Replication and fail-over for the memo space.

The paper hashes each folder to exactly one folder server (sections 4.1
and 5), so a host loss destroys memos and wedges every blocked ``get``.
This package turns single-owner placement into primary+backup *replica
chains* while preserving the cost-weighted placement semantics:

* :mod:`repro.replication.failure` — per-server heartbeat-driven
  :class:`FailureDetector` plus the :class:`HeartbeatMonitor` thread that
  probes every peer over the server's link to it.

The anti-entropy round a rejoining host runs to pull back what it missed
is the memo server's replicator
(:meth:`repro.servers.replicator.Replicator.handle_resync_request`).  The
chain itself comes from
:meth:`repro.servers.hashing.FolderPlacement.replica_chain` (a top-K
extension of weighted rendezvous hashing), the wire messages
(``ReplicatePut`` / ``Heartbeat`` / ``DeltaSyncPull``) live in
:mod:`repro.network.protocol`, and the memo server wires it all together.
With the default ``replication_factor = 1`` none of this machinery is
active and the system behaves exactly as the paper describes.
"""

from repro.replication.failure import FailureDetector, HeartbeatMonitor

__all__ = ["FailureDetector", "HeartbeatMonitor"]
