"""Locking foundation (paper section 3.1.4).

Low-level locking mechanisms "tend to vary between platforms" — the paper
cites the Encore and Sequent machines as offering a zoo of options beyond the
standardized semaphore, some of which are cheaper when contention is short.
D-Memo therefore abstracts locking behind :class:`LockBase` and selects the
derived implementation at run time, just as it does for shared memory.

Derivations provided:

* :class:`MutexLock` — OS mutex (``threading.Lock``); the portable default.
* :class:`SpinLock` — busy-wait lock for very short critical sections
  (the Encore/Sequent "more efficient than a semaphore" case).
* :class:`FileLock` — filesystem-advisory lock usable across processes.
* :class:`CountingSemaphore` — the classic counting semaphore.
* :class:`ReaderWriterLock` — multiple readers / single writer.

A registry (:func:`lock_factory`) mirrors the paper's run-time virtual
dispatch: a caller asks for "a lock" by policy name, never by concrete
class.  No server module imports this package — the folder store's hot
lock is a bare ``threading.Lock`` — so it stands as the paper's pattern
in miniature; where abstract base + run-time derivation is load-bearing
today is :class:`~repro.network.connection.Transport` and
:class:`~repro.runtime.backends.ClusterBackend`.
"""

from repro.locking.base import (
    LockBase,
    available_lock_kinds,
    lock_factory,
    register_lock,
)
from repro.locking.threads import MutexLock, RLockLock
from repro.locking.spin import SpinLock
from repro.locking.filelock import FileLock
from repro.locking.semaphore import CountingSemaphore
from repro.locking.rwlock import ReaderWriterLock

__all__ = [
    "LockBase",
    "available_lock_kinds",
    "lock_factory",
    "register_lock",
    "MutexLock",
    "RLockLock",
    "SpinLock",
    "FileLock",
    "CountingSemaphore",
    "ReaderWriterLock",
]
