"""Distributed Memo (D-Memo) — ICPP 1994 reproduction.

A heterogeneously distributed and parallel software development
environment built around a *virtual shared directory of unordered queues*:
processes communicate by depositing **memos** (transferable messages) into
**folders** (unordered queues) that any process on any host can examine,
extract from, or add to.

Quick start::

    from repro import Cluster, system_default_adf

    adf = system_default_adf(["alpha", "beta"], app="hello")
    with Cluster(adf) as cluster:
        cluster.register()
        memo = cluster.memo_api("alpha", "hello")
        jar = memo.create_symbol("jar")
        memo.put(jar(0), {"task": "compute"})
        print(memo.get(jar(0)))

See README.md for the system inventory; ``benchmarks/`` reproduces the
paper's figures and tables, ``bench/`` measures the system itself.
"""

from repro.core.api import Memo, NIL
from repro.core.futures import MemoFuture, WaitCancelledError, as_completed, wait_any
from repro.core.keys import FolderName, Key, Symbol
from repro.core.datastructures import (
    Future,
    IStructure,
    JobJar,
    NamedObject,
    SharedArray,
    UnorderedQueue,
)
from repro.core.sync import MemoBarrier, MemoLock, MemoSemaphore, SharedRecord
from repro.core.dataflow import DataflowGraph, when_available
from repro.adf import parse_adf, parse_adf_file, system_default_adf
from repro.adf.model import ADF
from repro.runtime.cluster import Cluster
from repro.runtime.launcher import run_application
from repro.runtime.program import ProcessContext, ProgramRegistry
from repro.transferable import (
    Bool,
    Float32,
    Float64,
    Int8,
    Int16,
    Int32,
    Int64,
    String,
    UInt8,
    UInt16,
    UInt32,
    UInt64,
    transferable_struct,
)
from repro.errors import MemoError

__version__ = "1.0.0"

__all__ = [
    "Memo",
    "NIL",
    "MemoFuture",
    "WaitCancelledError",
    "wait_any",
    "as_completed",
    "Symbol",
    "Key",
    "FolderName",
    "NamedObject",
    "SharedArray",
    "UnorderedQueue",
    "JobJar",
    "Future",
    "IStructure",
    "SharedRecord",
    "MemoLock",
    "MemoSemaphore",
    "MemoBarrier",
    "DataflowGraph",
    "when_available",
    "ADF",
    "parse_adf",
    "parse_adf_file",
    "system_default_adf",
    "Cluster",
    "run_application",
    "ProgramRegistry",
    "ProcessContext",
    "transferable_struct",
    "Int8",
    "Int16",
    "Int32",
    "Int64",
    "UInt8",
    "UInt16",
    "UInt32",
    "UInt64",
    "Float32",
    "Float64",
    "Bool",
    "String",
    "MemoError",
    "__version__",
]
