"""Simulated host descriptors.

A :class:`SimHost` carries what the paper's ADF knows about a machine —
architecture type, processor count, processor cost — plus a *service rate*
used by the hashing ablation (ABL1) to model that a folder server on a
powerful host drains requests faster than one on a weak host.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adf.model import ADF
from repro.errors import MemoError

__all__ = ["SimHost", "hosts_from_adf"]


@dataclass(frozen=True)
class SimHost:
    """One simulated machine.

    Attributes:
        name: logical host name.
        arch: architecture label (``sun4``, ``sp1``, ...).
        num_procs: processor count.
        proc_cost: relative cost of one processor (ADF HOSTS column).
        word_bits: native word size, the width of the absolute domains a
            host holds natively (:func:`hosts_from_adf` derives it from
            the ADF's architecture name: 64 for an Alpha, 16 for an
            80486).
    """

    name: str
    arch: str = "generic"
    num_procs: int = 1
    proc_cost: float = 1.0
    word_bits: int = 64

    def __post_init__(self) -> None:
        if self.num_procs < 1:
            raise MemoError(f"{self.name}: num_procs must be >= 1")
        if self.proc_cost <= 0:
            raise MemoError(f"{self.name}: proc_cost must be > 0")
        if self.word_bits not in (16, 32, 64, 128):
            raise MemoError(f"{self.name}: unsupported word size {self.word_bits}")

    @property
    def power(self) -> float:
        """Effective processing power (#procs / cost), as the hash uses."""
        return self.num_procs / self.proc_cost

    def service_time(self, base_seconds: float) -> float:
        """How long one unit of server work takes on this host.

        A host with power *p* completes a base-cost operation in
        ``base_seconds / p`` — the model behind the ABL1 makespan bench.
        """
        return base_seconds / self.power


#: Word sizes the paper associates with common 1994 architectures.
_ARCH_WORD_BITS = {
    "sun4": 32,
    "sp1": 64,
    "alpha": 64,
    "i486": 16,  # the paper treats the 80486 as the 16-bit extreme
    "encore": 32,
    "transputer": 32,
}


def hosts_from_adf(adf: ADF) -> dict[str, SimHost]:
    """Build simulated hosts for every ADF HOSTS declaration."""
    return {
        h.name: SimHost(
            name=h.name,
            arch=h.arch,
            num_procs=h.num_procs,
            proc_cost=h.cost,
            word_bits=_ARCH_WORD_BITS.get(h.arch, 64),
        )
        for h in adf.hosts
    }
