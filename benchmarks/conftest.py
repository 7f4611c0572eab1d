"""Shared bench fixtures and a tiny report helper.

Every bench prints the table/series it reproduces, so running
``pytest benchmarks/ --benchmark-only -s`` regenerates the paper's
figures and tables directly from the console output.
"""

from __future__ import annotations

import pytest

from repro import Cluster, system_default_adf


def report(title: str, rows: list[tuple]) -> None:
    """Print one experiment table in a uniform format."""
    print(f"\n=== {title} ===")
    for row in rows:
        print("   " + "  ".join(str(c) for c in row))


@pytest.fixture
def bench_cluster():
    """A small two-host cluster for microbenches."""
    adf = system_default_adf(["alpha", "beta"], app="bench")
    with Cluster(adf, idle_timeout=5.0) as cluster:
        cluster.register()
        yield cluster
