"""Core D-Memo abstractions: keys, memos, the ``Memo`` API (paper section 6),
and the shared data structures / synchronization mechanisms built on them
(sections 6.2 and 6.3).

* :mod:`repro.core.keys` — ``Symbol``, ``Key``, ``FolderName`` and the
  symbol factory.
* :mod:`repro.core.memo` — ``MemoRecord``, one memo as a server stores it.
* :mod:`repro.core.api` — the ``Memo`` API and the ``NIL`` sentinel.
* :mod:`repro.core.futures` — ``MemoFuture``, ``wait_any``, ``as_completed``.
* :mod:`repro.core.datastructures` / :mod:`repro.core.sync` /
  :mod:`repro.core.dataflow` — the section-6.2/6.3 structures built on it.

The package imports nothing and re-exports nothing: import the submodule
(a memo server needs only ``keys`` and ``memo``, and loads only those).
"""
