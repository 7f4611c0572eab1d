"""The ``repro`` package's public names, pinned: each resolves lazily (PEP
562) to the object its home module defines, and ``import repro`` alone
loads none of them."""

import json
import subprocess
import sys

import repro

#: Each public name and the module that defines it, in ``__all__`` order.
HOMES = {
    "Memo": "repro.core.api",
    "NIL": "repro.core.api",
    "MemoFuture": "repro.core.futures",
    "WaitCancelledError": "repro.core.futures",
    "wait_any": "repro.core.futures",
    "as_completed": "repro.core.futures",
    "Symbol": "repro.core.keys",
    "Key": "repro.core.keys",
    "FolderName": "repro.core.keys",
    "NamedObject": "repro.core.datastructures",
    "SharedArray": "repro.core.datastructures",
    "UnorderedQueue": "repro.core.datastructures",
    "JobJar": "repro.core.datastructures",
    "Future": "repro.core.datastructures",
    "IStructure": "repro.core.datastructures",
    "SharedRecord": "repro.core.sync",
    "MemoLock": "repro.core.sync",
    "MemoSemaphore": "repro.core.sync",
    "MemoBarrier": "repro.core.sync",
    "DataflowGraph": "repro.core.dataflow",
    "when_available": "repro.core.dataflow",
    "ADF": "repro.adf.model",
    "parse_adf": "repro.adf.parser",
    "parse_adf_file": "repro.adf.parser",
    "system_default_adf": "repro.adf.defaults",
    "Cluster": "repro.runtime.cluster",
    "run_application": "repro.runtime.launcher",
    "ProgramRegistry": "repro.runtime.program",
    "ProcessContext": "repro.runtime.program",
    "transferable_struct": "repro.transferable.registry",
    "Int8": "repro.transferable.scalars",
    "Int16": "repro.transferable.scalars",
    "Int32": "repro.transferable.scalars",
    "Int64": "repro.transferable.scalars",
    "UInt8": "repro.transferable.scalars",
    "UInt16": "repro.transferable.scalars",
    "UInt32": "repro.transferable.scalars",
    "UInt64": "repro.transferable.scalars",
    "Float32": "repro.transferable.scalars",
    "Float64": "repro.transferable.scalars",
    "Bool": "repro.transferable.scalars",
    "String": "repro.transferable.scalars",
    "MemoError": "repro.errors",
}

# Runs in a fresh interpreter, so nothing this suite imported first can
# hide a name that only resolves through a side effect.
PROBE = """
import importlib, json, sys
import repro

HOMES = %r

report = {"all": list(repro.__all__), "eager": sorted(
    m for m in sys.modules if m.startswith("repro."))}
report["dir_missing"] = sorted(set(repro.__all__) - set(dir(repro)))
report["not_home"] = [
    name for name, home in HOMES.items()
    if getattr(repro, name) is not getattr(importlib.import_module(home), name)
]
try:
    repro.no_such_name
    report["missing_raises"] = False
except AttributeError:
    report["missing_raises"] = True
namespace = {}
exec("from repro import *", namespace)
report["star_missing"] = [name for name in repro.__all__ if name not in namespace]
print(json.dumps(report))
"""


def probe():
    out = subprocess.run(
        [sys.executable, "-c", PROBE % HOMES], capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


def test_public_names_resolve_lazily_to_their_home_objects():
    report = probe()
    assert report["all"] == [*HOMES, "__version__"]
    assert report["eager"] == []
    assert report["dir_missing"] == []
    assert report["not_home"] == []
    assert report["missing_raises"]
    assert report["star_missing"] == []
    assert repro.__version__ == "1.0.0"
