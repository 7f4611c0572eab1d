"""Latency model: ADF link costs → wall-clock delay on the fabric.

ADF link costs are dimensionless ("the value represents the cost in using
this link.  This reflects distance and transmission speed", section 4.3).
The simulation gives them teeth by mapping cost *c* to a one-way message
latency ``base + c * per_cost`` seconds and installing it on the
:class:`~repro.network.transport.NetworkFabric`, so a topology with an
expensive SP-1 uplink really does slow round trips that cross it.  No
bench sets a model; ``tests/integration/test_system_behaviours.py``
checks the effect.
"""

from __future__ import annotations

import random
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.adf.model import ADF
from repro.errors import MemoError
from repro.network.transport import NetworkFabric

__all__ = [
    "LatencyModel",
    "apply_latency",
    "latency_spike",
    "partitioned",
    "random_link_fault",
]


@dataclass(frozen=True)
class LatencyModel:
    """Affine map from link cost to seconds of one-way latency."""

    base_seconds: float = 0.0
    seconds_per_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.base_seconds < 0 or self.seconds_per_cost < 0:
            raise MemoError("latency parameters must be >= 0")

    def latency_for_cost(self, cost: float) -> float:
        """One-way latency for a link of the given ADF cost."""
        return self.base_seconds + cost * self.seconds_per_cost

    @property
    def is_zero(self) -> bool:
        """True when the model adds no delay at all."""
        return self.base_seconds == 0 and self.seconds_per_cost == 0


def apply_latency(fabric: NetworkFabric, adf: ADF, model: LatencyModel) -> None:
    """Install per-link latencies for every PPC link of *adf*."""
    if model.is_zero:
        return
    for link in adf.links:
        fabric.set_latency(
            link.host_a, link.host_b, model.latency_for_cost(link.cost)
        )


# -- fault injection (chaos-test helpers) -----------------------------------------


@contextmanager
def latency_spike(
    fabric: NetworkFabric,
    host_a: str,
    host_b: str,
    seconds: float,
    *,
    rng: random.Random | None = None,
    jitter: float = 0.0,
) -> Iterator[float]:
    """Temporarily raise one link's one-way latency; restore on exit.

    A congestion event, not an outage: messages keep flowing, just late —
    late enough, with a heartbeat-sized spike, to trip the failure
    detector into a false suspicion, which is exactly what the recovery
    chaos tests want to provoke.

    With *rng* the spike magnitude is ``seconds + rng.uniform(0, jitter)``
    — an explicit generator rather than module-level randomness, so a
    scheduled fault sequence replays byte-identically from its seed.
    Yields the magnitude actually applied.  Spikes nest inside
    :func:`partitioned` (and vice versa): each injector restores only the
    state it changed, in LIFO order.
    """
    if jitter < 0:
        raise MemoError("latency jitter must be >= 0")
    applied = seconds + (rng.uniform(0.0, jitter) if rng is not None and jitter else 0.0)
    previous = fabric.latency(host_a, host_b)
    fabric.set_latency(host_a, host_b, applied)
    try:
        yield applied
    finally:
        fabric.set_latency(host_a, host_b, previous)


@contextmanager
def partitioned(
    fabric: NetworkFabric, host_a: str, host_b: str
) -> Iterator[None]:
    """Cut the link between two hosts for the duration of the block.

    Connects fail and live connections refuse sends in both directions
    (:class:`~repro.errors.ConnectionClosedError`); the link heals on
    exit even if the block raises.  Composable: a partition entered while
    the link is already cut leaves the outer cut in place on exit, and a
    :func:`latency_spike` opened inside the window survives it — each
    injector restores only the state it changed.
    """
    already_cut = fabric.is_partitioned(host_a, host_b)
    fabric.partition(host_a, host_b)
    try:
        yield
    finally:
        if not already_cut:
            fabric.heal(host_a, host_b)


@contextmanager
def random_link_fault(
    fabric: NetworkFabric,
    host_a: str,
    host_b: str,
    rng: random.Random,
    *,
    kinds: tuple[str, ...] = ("spike", "partition", "spike_in_partition"),
    spike_seconds: tuple[float, float] = (0.05, 0.25),
) -> Iterator[dict]:
    """One deterministically drawn fault on a link, active for the block.

    Draws a fault kind and (for spikes) a magnitude from the caller's
    *rng* — same generator state, same fault, which is what makes a
    seeded fault schedule replayable.  ``spike_in_partition`` composes
    both injectors: the link is cut *and* carries a spike that outlives
    nothing — both restore on exit in LIFO order.  Yields a description
    dict (``kind`` plus ``seconds`` for spikes) that a scheduler can
    serialize into its executed-schedule record.
    """
    if not kinds:
        raise MemoError("random_link_fault requires at least one kind")
    kind = rng.choice(list(kinds))
    lo, hi = spike_seconds
    described: dict = {"kind": kind, "link": (host_a, host_b)}
    with ExitStack() as stack:
        if kind in ("spike", "spike_in_partition"):
            # Draw the magnitude before entering anything so the rng
            # consumption order is fixed regardless of fabric state.
            magnitude = lo + rng.uniform(0.0, max(hi - lo, 0.0))
            described["seconds"] = magnitude
        if kind in ("partition", "spike_in_partition"):
            stack.enter_context(partitioned(fabric, host_a, host_b))
        if kind in ("spike", "spike_in_partition"):
            stack.enter_context(
                latency_spike(fabric, host_a, host_b, described["seconds"])
            )
        yield described
