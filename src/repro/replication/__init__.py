"""Replication and fail-over for the memo space.

The paper hashes each folder to exactly one folder server (sections 4.1
and 5), so a host loss destroys memos and wedges every blocked ``get``.
This package turns single-owner placement into primary+backup *replica
chains* while preserving the cost-weighted placement semantics:

* :mod:`repro.replication.failure` — per-server heartbeat-driven
  :class:`FailureDetector` plus the :class:`HeartbeatMonitor` thread that
  feeds it;
* :mod:`repro.replication.resync` — the anti-entropy :class:`Resyncer` a
  rejoining host uses to pull back memos it missed while down.

The chain itself comes from
:meth:`repro.servers.hashing.FolderPlacement.replica_chain` (a top-K
extension of weighted rendezvous hashing), the wire messages
(``ReplicatePut`` / ``Heartbeat`` / ``DeltaSyncPull``) live in
:mod:`repro.network.protocol`, and the memo server wires it all together.
With the default ``replication_factor = 1`` none of this machinery is
active and the system behaves exactly as the paper describes.
"""

from repro.replication.failure import FailureDetector, HeartbeatMonitor
from repro.replication.resync import Resyncer

__all__ = ["FailureDetector", "HeartbeatMonitor", "Resyncer"]
