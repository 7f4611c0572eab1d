"""D-Memo servers (paper section 4.1).

Two server kinds cooperate to present the shared directory of unordered
queues:

* :class:`~repro.servers.folder_server.FolderServer` — maintains a set of
  folders it owns exclusively; 0, 1, or more per host.
* :class:`~repro.servers.memo_server.MemoServer` — exactly one per host;
  accepts connections from applications and other memo servers, routes each
  request to the folder server that owns the named folder (locally or by
  forwarding along the application's topology), and runs the registration
  protocol.  It is a composition of three parts, each a module here:
  :mod:`~repro.servers.session` (one inbound connection: reader, put lane,
  waiter table), :mod:`~repro.servers.router` (placement, the replica-chain
  walk, forwarding) and :mod:`~repro.servers.replicator` (the local stores,
  fan-out, migration, anti-entropy); :mod:`~repro.servers.relay` is the link
  a wait for a folder served elsewhere travels on.

Supporting pieces: :class:`~repro.servers.threadcache.ThreadCache` (the
paper's thread-caching scheme) and
:class:`~repro.servers.hashing.FolderPlacement` (the cost-weighted
folder-name hash of section 5).
"""

from repro.servers.threadcache import ThreadCache
from repro.servers.hashing import FolderPlacement, HashWeightPolicy, weighted_rendezvous
from repro.servers.folder_server import Folder, FolderServer
from repro.servers.memo_server import MemoServer, MEMO_PORT

__all__ = [
    "ThreadCache",
    "FolderPlacement",
    "HashWeightPolicy",
    "weighted_rendezvous",
    "Folder",
    "FolderServer",
    "MemoServer",
    "MEMO_PORT",
]
