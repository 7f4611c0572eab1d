"""Unit tests: top-K rendezvous ranking and replica chains.

The load-bearing property is byte-for-byte compatibility: with
``replication_factor=1`` the chain head must be exactly the seed
``weighted_rendezvous`` winner for every key, so existing placements (and
the hashing/distribution benches) are unchanged.
"""

import pytest

from repro.adf.defaults import merge_with_default, system_default_adf
from repro.adf.parser import parse_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.errors import ADFError, ServerError
from repro.network.routing import RoutingTable
from repro.servers.hashing import (
    FolderPlacement,
    weighted_rendezvous,
    weighted_rendezvous_ranked,
)

HOSTS = {"a": 1.0, "b": 2.0, "c": 0.5}
SERVERS = [("0", "a"), ("1", "b"), ("2", "c"), ("3", "c")]


def _routing():
    return RoutingTable({h: {o: 1.0 for o in HOSTS if o != h} for h in HOSTS})


def _name(i):
    return FolderName("chain", Key(Symbol("k"), (i,)))


class TestRankedRendezvous:
    def test_rank_head_is_the_top1_winner(self):
        weights = {"s0": 1.0, "s1": 2.5, "s2": 0.25}
        for i in range(2000):
            key = f"key-{i}".encode()
            assert weighted_rendezvous_ranked(key, weights)[0] == (
                weighted_rendezvous(key, weights)
            )

    def test_ranking_is_a_permutation_of_all_servers(self):
        weights = {"s0": 1.0, "s1": 2.0, "s2": 3.0}
        ranked = weighted_rendezvous_ranked(b"x", weights)
        assert sorted(ranked) == sorted(weights)

    def test_removing_the_winner_promotes_the_runner_up(self):
        """The consistency property replica chains rely on."""
        weights = {"s0": 1.0, "s1": 2.0, "s2": 3.0, "s3": 1.5}
        for i in range(500):
            key = f"key-{i}".encode()
            ranked = weighted_rendezvous_ranked(key, weights)
            rest = {sid: w for sid, w in weights.items() if sid != ranked[0]}
            assert weighted_rendezvous(key, rest) == ranked[1]


class TestReplicaChain:
    def test_factor_one_chain_is_exactly_the_single_owner(self):
        p = FolderPlacement(SERVERS, HOSTS, _routing())
        for i in range(1000):
            name = _name(i)
            assert p.replica_chain(name) == (p.place_host(name),)

    def test_chain_hosts_are_distinct(self):
        p = FolderPlacement(SERVERS, HOSTS, _routing(), replication_factor=3)
        for i in range(1000):
            chain = p.replica_chain(_name(i))
            hosts = [h for _s, h in chain]
            assert len(chain) == 3  # three distinct hosts exist
            assert len(set(hosts)) == len(hosts)

    def test_chain_head_matches_place_regardless_of_factor(self):
        p1 = FolderPlacement(SERVERS, HOSTS, _routing())
        p3 = FolderPlacement(SERVERS, HOSTS, _routing(), replication_factor=3)
        for i in range(1000):
            name = _name(i)
            assert p3.replica_chain(name)[0][0] == p1.place(name)

    def test_chain_clamps_to_available_hosts(self):
        p = FolderPlacement(SERVERS, HOSTS, _routing(), replication_factor=9)
        chain = p.replica_chain(_name(7))
        assert len(chain) == len(set(HOSTS))

    def test_bad_factor_rejected(self):
        with pytest.raises(ServerError):
            FolderPlacement(SERVERS, HOSTS, _routing(), replication_factor=0)


class TestADFKnob:
    def test_parse_replication_section(self):
        adf = parse_adf("APP a\nREPLICATION\nfactor 3\n")
        assert adf.replication_factor == 3

    def test_validate_rejects_bad_factor(self):
        adf = system_default_adf(["x"], app="r")
        adf.replication_factor = 0
        with pytest.raises(ADFError):
            adf.validate()

    def test_merge_inherits_system_factor(self):
        default = system_default_adf(["x", "y"], app="d", replication_factor=2)
        partial = parse_adf("APP mine\n")
        assert merge_with_default(partial, default).replication_factor == 2

    def test_merge_explicit_factor_wins(self):
        default = system_default_adf(["x", "y"], app="d", replication_factor=2)
        partial = parse_adf("APP mine\nREPLICATION\nfactor 3\n")
        assert merge_with_default(partial, default).replication_factor == 3
