"""Shared-memory foundation (paper section 3.1.2 and the section-3 example).

Operating systems "that support shared memory tend to do it differently":
the Encore Multimax requires the application to declare its maximum pool up
front and allocate pieces with specially named primitives; System V manages
it with ``shmget``-style keyed segments.  The commonality is extrapolated
into the abstract class :class:`SharedMemoryBase` — allocate a named
segment, attach to it, read/write bytes, free it, and release everything on
termination — and each platform style becomes a derived class:

* :class:`LocalSharedMemory` — heap-backed segments for threads sharing an
  address space (the intra-host fast path of Figure 1).
* :class:`PooledSharedMemory` — Encore-style: a fixed pool declared at
  construction, exhaustion raises :class:`OutOfSharedMemoryError`.
* :class:`PosixSharedMemory` — real OS shared memory via
  ``multiprocessing.shared_memory`` (System V analogue), usable across
  Python processes.

A caller only ever sees :class:`SharedMemoryBase`; the derivation is
chosen at run time through :func:`sharedmem_factory`.  No server module
imports this package (memos travel over the in-memory fabric or TCP);
where the same abstract base + run-time derivation pattern is
load-bearing today is :class:`~repro.network.connection.Transport` and
:class:`~repro.runtime.backends.ClusterBackend`.
"""

from repro.sharedmem.base import (
    Segment,
    SharedMemoryBase,
    available_sharedmem_kinds,
    register_sharedmem,
    sharedmem_factory,
)
from repro.sharedmem.local import LocalSharedMemory
from repro.sharedmem.pooled import PooledSharedMemory
from repro.sharedmem.posix import PosixSharedMemory

__all__ = [
    "Segment",
    "SharedMemoryBase",
    "sharedmem_factory",
    "register_sharedmem",
    "available_sharedmem_kinds",
    "LocalSharedMemory",
    "PooledSharedMemory",
    "PosixSharedMemory",
]
