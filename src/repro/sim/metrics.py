"""Metrics the benches report: traffic, ownership distribution, fit tests.

Section 5 of the paper argues distribution quality qualitatively; the
reproduction quantifies it.  :class:`ClusterMetrics` aggregates fabric and
server counters into the rows the benches print, and the two statistics —
:func:`distribution_error` (total variation from the expected shares) and
:func:`chi_square_uniform` (goodness of fit against the uniform baseline)
— are what the SEC5A bench (``benchmarks/test_bench_sec5_distribution.py``)
asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.transport import NetworkFabric

__all__ = ["ClusterMetrics", "distribution_error", "chi_square_uniform"]


def distribution_error(observed: dict[str, int], expected_shares: dict[str, float]) -> float:
    """Total-variation distance between observed counts and expected shares.

    0.0 means the observed distribution matches the expected proportions
    exactly; 1.0 is maximal disagreement.
    """
    total = sum(observed.values())
    if total == 0:
        return 0.0
    tv = 0.0
    for sid, share in expected_shares.items():
        obs = observed.get(sid, 0) / total
        tv += abs(obs - share)
    # Keys observed but not expected count fully against the fit.
    for sid, count in observed.items():
        if sid not in expected_shares:
            tv += count / total
    return tv / 2.0


def chi_square_uniform(observed: dict[str, int]) -> float:
    """Pearson chi-square statistic against the uniform distribution.

    Large values reject uniformity — the SEC5A bench uses this to show the
    cost-weighted hash is decidedly *not* uniform while the unweighted
    baseline is.
    """
    counts = list(observed.values())
    n = sum(counts)
    k = len(counts)
    if n == 0 or k < 2:
        return 0.0
    expected = n / k
    return sum((c - expected) ** 2 / expected for c in counts)


@dataclass
class ClusterMetrics:
    """Aggregated counters for one experiment run."""

    #: (src, dst) → messages
    link_messages: dict[tuple[str, str], int] = field(default_factory=dict)
    #: (src, dst) → bytes
    link_bytes: dict[tuple[str, str], int] = field(default_factory=dict)
    #: folder server id → memos deposited
    server_puts: dict[str, int] = field(default_factory=dict)
    #: folder server id → live folders
    server_folders: dict[str, int] = field(default_factory=dict)
    broadcasts: int = 0

    @classmethod
    def from_fabric(cls, fabric: NetworkFabric) -> "ClusterMetrics":
        """Snapshot fabric-level traffic."""
        metrics = cls()
        for (src, dst), stats in fabric.traffic().items():
            metrics.link_messages[(src, dst)] = stats.messages
            metrics.link_bytes[(src, dst)] = stats.bytes
        metrics.broadcasts = fabric.broadcast_count
        return metrics

    def add_server_stats(self, stats: dict[str, int]) -> None:
        """Fold one memo server's stats reply into the aggregate.

        Recognizes the ``folder.<sid>.puts`` / ``folder.<sid>.live_folders``
        keys of a memo server's ``StatsRequest`` reply.
        """
        for key, value in stats.items():
            parts = key.split(".")
            if len(parts) == 3 and parts[0] == "folder":
                sid, metric = parts[1], parts[2]
                if metric == "puts":
                    self.server_puts[sid] = self.server_puts.get(sid, 0) + value
                elif metric == "live_folders":
                    self.server_folders[sid] = (
                        self.server_folders.get(sid, 0) + value
                    )

    def total_messages(self) -> int:
        """All messages that crossed any link."""
        return sum(self.link_messages.values())

    def total_bytes(self) -> int:
        """All bytes that crossed any link."""
        return sum(self.link_bytes.values())

    def inter_host_messages(self) -> int:
        """Messages between distinct hosts (excludes loopback)."""
        return sum(
            n for (src, dst), n in self.link_messages.items() if src != dst
        )
