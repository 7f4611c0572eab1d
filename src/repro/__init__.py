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

Every public name is imported from its home module on first access
(PEP 562), so ``import repro`` — and a memo server process, which never
touches these names — loads none of the client, cluster or ADF code.
See README.md for the system inventory; ``benchmarks/`` reproduces the
paper's figures and tables, ``bench/`` measures the system itself.
"""

import importlib

# Home module -> the public names it defines, in ``__all__`` order.
_HOMES = {
    "repro.core.api": ("Memo", "NIL"),
    "repro.core.futures": ("MemoFuture", "WaitCancelledError", "wait_any", "as_completed"),
    "repro.core.keys": ("Symbol", "Key", "FolderName"),
    "repro.core.datastructures": (
        "NamedObject",
        "SharedArray",
        "UnorderedQueue",
        "JobJar",
        "Future",
        "IStructure",
    ),
    "repro.core.sync": ("SharedRecord", "MemoLock", "MemoSemaphore", "MemoBarrier"),
    "repro.core.dataflow": ("DataflowGraph", "when_available"),
    "repro.adf.model": ("ADF",),
    "repro.adf.parser": ("parse_adf", "parse_adf_file"),
    "repro.adf.defaults": ("system_default_adf",),
    "repro.runtime.cluster": ("Cluster",),
    "repro.runtime.launcher": ("run_application",),
    "repro.runtime.program": ("ProgramRegistry", "ProcessContext"),
    "repro.transferable.registry": ("transferable_struct",),
    "repro.transferable.scalars": (
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
    ),
    "repro.errors": ("MemoError",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "1.0.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> list[str]:
    return list(__all__)
