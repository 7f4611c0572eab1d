"""Property-based tests on system invariants: placement, routing, folders."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.keys import FolderName, Key, Symbol
from repro.core.memo import MemoRecord
from repro.network.routing import RoutingTable
from repro.servers.folder_server import FolderServer
from repro.servers.hashing import FolderPlacement, weighted_rendezvous
from repro.transferable.wire import decode, encode

# -- strategies -------------------------------------------------------------------

host_names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    min_size=2,
    max_size=6,
    unique=True,
)

keys = st.builds(
    Key,
    st.builds(Symbol, st.text(alphabet="xyz", min_size=1, max_size=3)),
    st.lists(st.integers(0, 1000), max_size=3).map(tuple),
)


@given(
    st.binary(min_size=1, max_size=40),
    st.dictionaries(
        st.text(alphabet="ab012", min_size=1, max_size=3),
        st.floats(0.1, 10.0),
        min_size=1,
        max_size=8,
    ),
)
def test_rendezvous_total_and_deterministic(key_bytes, weights):
    """The hash always picks a member, and always the same one."""
    winner = weighted_rendezvous(key_bytes, weights)
    assert winner in weights
    assert weighted_rendezvous(key_bytes, weights) == winner


@given(
    st.binary(min_size=1, max_size=40),
    st.dictionaries(
        st.text(alphabet="ab01", min_size=1, max_size=3),
        st.floats(0.1, 10.0),
        min_size=2,
        max_size=8,
    ),
)
def test_rendezvous_monotone_under_removal(key_bytes, weights):
    """Removing a losing server never changes the winner (HRW property)."""
    winner = weighted_rendezvous(key_bytes, weights)
    losers = [sid for sid in weights if sid != winner]
    if losers:
        smaller = dict(weights)
        del smaller[losers[0]]
        assert weighted_rendezvous(key_bytes, smaller) == winner


@given(hosts=host_names, key=keys, data=st.data())
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_placement_agreement_across_instances(hosts, key, data):
    """Any two placement instances with the same ADF data agree (the
    exclusive-ownership precondition of section 4.1)."""
    servers = [(str(i), h) for i, h in enumerate(hosts)]
    power = {h: data.draw(st.floats(0.5, 8.0)) for h in hosts}
    links = {h: {o: 1.0 for o in hosts if o != h} for h in hosts}
    routing = RoutingTable(links)
    folder = FolderName("app", key)
    p1 = FolderPlacement(servers, power, routing)
    p2 = FolderPlacement(list(servers), dict(power), RoutingTable(links))
    assert p1.place(folder) == p2.place(folder)


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=25),
    st.floats(0.1, 5.0),
)
def test_routing_triangle_inequality(edges, scale):
    """Shortest-path costs satisfy the triangle inequality."""
    links: dict[str, dict[str, float]] = {}
    for a, b in edges:
        if a == b:
            continue
        links.setdefault(str(a), {})[str(b)] = scale
        links.setdefault(str(b), {})[str(a)] = scale
    if not links:
        return
    table = RoutingTable(links)
    hosts = table.hosts
    for x in hosts:
        for y in hosts:
            for z in hosts:
                if (
                    table.reachable(x, y)
                    and table.reachable(y, z)
                    and table.reachable(x, z)
                ):
                    assert (
                        table.cost(x, z)
                        <= table.cost(x, y) + table.cost(y, z) + 1e-9
                    )


@given(st.lists(st.integers(), min_size=1, max_size=30))
@settings(deadline=None)
def test_folder_is_a_multiset(values):
    """Whatever goes into a folder comes out: same multiset, no order."""
    fs = FolderServer("0")
    name = FolderName("app", Key(Symbol("q")))
    for v in values:
        fs.put(name, MemoRecord(encode(v)))
    out = [decode(fs.get(name).payload) for _ in values]
    assert sorted(out) == sorted(values)
    fs.shutdown()


@given(st.lists(st.integers(), min_size=1, max_size=15), st.integers(0, 14))
@settings(deadline=None)
def test_get_copy_never_consumes(values, copies):
    fs = FolderServer("0")
    name = FolderName("app", Key(Symbol("q")))
    for v in values:
        fs.put(name, MemoRecord(encode(v)))
    for _ in range(copies):
        fs.get_copy(name)
    assert fs.memo_count() == len(values)
    fs.shutdown()


@given(st.lists(st.tuples(st.integers(0, 3), st.integers()), max_size=30))
@settings(deadline=None)
def test_folders_never_leak_between_keys(ops):
    """Memos deposited under one key are never visible under another."""
    fs = FolderServer("0")
    deposited: dict[int, list[int]] = {i: [] for i in range(4)}
    for slot, v in ops:
        fs.put(FolderName("app", Key(Symbol("s"), (slot,))), MemoRecord(encode(v)))
        deposited[slot].append(v)
    for slot, expect in deposited.items():
        name = FolderName("app", Key(Symbol("s"), (slot,)))
        got = []
        while True:
            rec = fs.get_skip(name)
            if rec is None:
                break
            got.append(decode(rec.payload))
        assert sorted(got) == sorted(expect)
    fs.shutdown()
