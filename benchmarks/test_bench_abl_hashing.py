"""ABL1 — ablation: cost-weighted hashing under heterogeneous service rates.

The placement weights are the paper's central section-5 design
choice.  This ablation gives each host a *service rate* proportional to
its ADF power (a folder-server request on a host with power p takes
base/p seconds) and replays the same request stream under the weighted and
uniform policies.  Makespan = the slowest server's total service time.

With weighting, the fast host absorbs proportionally more folders, so all
servers finish together; uniform placement overloads the slow hosts.
"""

import pytest

from repro.core.keys import FolderName, Key, Symbol
from repro.network.routing import RoutingTable
from repro.servers.hashing import FolderPlacement, HashWeightPolicy
from repro.sim.host import SimHost

from benchmarks.conftest import report

pytestmark = pytest.mark.benchmark(group="abl1-hashing")

HOSTS = {
    "slow1": SimHost("slow1", num_procs=1, proc_cost=1.0),
    "slow2": SimHost("slow2", num_procs=1, proc_cost=1.0),
    "mid": SimHost("mid", num_procs=2, proc_cost=1.0),
    "fast": SimHost("fast", num_procs=8, proc_cost=0.5),  # power 16
}
SERVERS = [("0", "slow1"), ("1", "slow2"), ("2", "mid"), ("3", "fast")]
N_REQUESTS = 30_000
BASE_SECONDS = 1.0


def _routing():
    names = list(HOSTS)
    return RoutingTable({h: {o: 1.0 for o in names if o != h} for h in names})


def simulated_makespan(policy) -> tuple[float, dict[str, float]]:
    """Replay the request stream; return (makespan, per-server busy time)."""
    placement = FolderPlacement(
        SERVERS,
        {name: host.power for name, host in HOSTS.items()},
        _routing() if (policy is None or policy.use_link_cost) else None,
        policy,
    )
    busy = {sid: 0.0 for sid, _h in SERVERS}
    server_host = dict(SERVERS)
    for i in range(N_REQUESTS):
        name = FolderName("abl1", Key(Symbol("req"), (i,)))
        sid = placement.place(name)
        busy[sid] += HOSTS[server_host[sid]].service_time(BASE_SECONDS)
    return max(busy.values()), busy


def test_weighted_placement_speed(benchmark):
    placement = FolderPlacement(
        SERVERS, {n: h.power for n, h in HOSTS.items()}, _routing()
    )
    names = [FolderName("abl1", Key(Symbol("req"), (i,))) for i in range(64)]
    counter = [0]

    def op():
        counter[0] = (counter[0] + 1) % 64
        return placement.place(names[counter[0]])

    benchmark(op)


def test_makespan_ablation(benchmark):
    def both():
        return (
            simulated_makespan(None),
            simulated_makespan(HashWeightPolicy().uniform()),
        )

    (weighted_ms, weighted_busy), (uniform_ms, uniform_busy) = benchmark.pedantic(
        both, rounds=1, iterations=1, warmup_rounds=0
    )

    rows = [("policy", "makespan (s)", "per-server busy (s)")]
    rows.append(
        (
            "cost-weighted",
            f"{weighted_ms:.0f}",
            {k: round(v) for k, v in weighted_busy.items()},
        )
    )
    rows.append(
        (
            "uniform (ablated)",
            f"{uniform_ms:.0f}",
            {k: round(v) for k, v in uniform_busy.items()},
        )
    )
    rows.append(("uniform/weighted", f"{uniform_ms / weighted_ms:.2f}x", ""))
    report("ABL1: makespan under heterogeneous service rates", rows)

    # Uniform placement hands the power-1 hosts 25% of requests each; they
    # become the bottleneck.  Weighted placement balances busy time.
    assert uniform_ms > weighted_ms * 1.5
    spread = max(weighted_busy.values()) / max(min(weighted_busy.values()), 1e-9)
    assert spread < 1.6  # near-even finish under weighting


def test_link_cost_bias_knob(benchmark):
    """The locality discount is itself tunable (bias=0 disables it)."""
    links = {
        "slow1": {"slow2": 1.0, "mid": 1.0, "fast": 8.0},
        "slow2": {"slow1": 1.0, "mid": 1.0, "fast": 8.0},
        "mid": {"slow1": 1.0, "slow2": 1.0, "fast": 8.0},
        "fast": {"slow1": 8.0, "slow2": 8.0, "mid": 8.0},
    }
    routing = RoutingTable(links)
    powers = {n: h.power for n, h in HOSTS.items()}

    def shares():
        return (
            FolderPlacement(
                SERVERS, powers, routing, HashWeightPolicy(link_cost_bias=1.0)
            ).expected_shares(),
            FolderPlacement(
                SERVERS, powers, routing, HashWeightPolicy(use_link_cost=False)
            ).expected_shares(),
        )

    with_bias, no_bias = benchmark.pedantic(
        shares, rounds=1, iterations=1, warmup_rounds=0
    )

    rows = [
        ("server on fast (expensive link)", "share"),
        ("bias=1 (locality discount)", f"{with_bias['3']:.1%}"),
        ("no link cost", f"{no_bias['3']:.1%}"),
    ]
    report("ABL1: link-cost bias on the remote fast host", rows)
    assert with_bias["3"] < no_bias["3"]  # discount pulls folders closer
