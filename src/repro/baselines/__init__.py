"""Faithful local reimplementations of the systems the paper compares against.

Section 7 positions D-Memo against Linda (tuple space) and PVM (low-level
message passing).  The originals are unavailable, so the ``sec7_*``
benches run against these reimplementations, which preserve the properties
the comparison hinges on:

* :mod:`repro.baselines.linda` — a generative-communication tuple space
  with structured matching (``out``/``in_``/``rd``/``inp``/``rdp``/
  ``eval``).  Matching is associative (linear scan with formal/actual
  parameters), which is exactly the cost D-Memo's "flat directory of
  unordered queues" avoids by hashing folder names.
* :mod:`repro.baselines.pvm` — task-id message passing (``send``/
  ``recv``/``mcast`` with tags), the level of abstraction PVM offers;
  the bench counts the extra coordination code an application needs
  compared to the Memo API.
"""

from repro.baselines.linda import ANY, TupleSpace, Formal
from repro.baselines.pvm import PVM, TaskHandle

__all__ = [
    "TupleSpace",
    "ANY",
    "Formal",
    "PVM",
    "TaskHandle",
]
