import gc
import hashlib

import pytest

from erdos_rogers import (
    SeededRng,
    complete_graph,
    contains_subgraph,
    cycle_graph,
    is_hom_free,
    named_graph,
    petersen_graph,
)
from erdos_rogers.graphs import Graph
from erdos_rogers.hypergraphs import Hypergraph, find_loose_cycles
from erdos_rogers.search import list_k_cycles, max_f_free_subset, max_independent_set
from oracles import gnp_graph, perm_contains

SEEDS = list(range(12))


@pytest.mark.parametrize(
    "host,pattern,expect",
    [
        ("petersen", "c5", True),
        ("petersen", "k3", False),
        ("petersen", "c6", True),
        ("k4", "c4", True),
        ("c5", "p4", True),
        ("c5", "c4", False),
        ("k33", "c6", True),
        ("k33", "k3", False),
        ("wagner", "c4", True),
    ],
)
def test_known_pairs(host, pattern, expect):
    res = contains_subgraph(named_graph(host), named_graph(pattern))
    assert res.found is expect
    if expect:
        check_embedding(named_graph(host), named_graph(pattern), res.embedding)


def check_embedding(host, pattern, embedding):
    assert len(set(embedding)) == pattern.n
    for a, b in pattern.edges():
        assert host.has_edge(embedding[a], embedding[b])


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_permutation_oracle(seed):
    rng = SeededRng(seed, "pairs")
    host = gnp_graph(9, 0.4, rng.substream("host"))
    pattern = gnp_graph(4, 0.5, rng.substream("pattern"))
    res = contains_subgraph(host, pattern)
    assert res.status in ("found", "absent")
    assert res.found == perm_contains(host, pattern)
    if res.found:
        check_embedding(host, pattern, res.embedding)


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_exhaustive_route_agrees(seed):
    rng = SeededRng(seed, "exh")
    host = gnp_graph(8, 0.35, rng.substream("host"))
    pattern = gnp_graph(4, 0.5, rng.substream("pattern"))
    assert perm_contains(host, pattern) == contains_subgraph(host, pattern).found


def test_forced_vertex_restricts_embeddings():
    # C6 has one 6-cycle; forcing any vertex must still find it
    g = cycle_graph(6)
    for v in range(6):
        res = contains_subgraph(g, cycle_graph(6), forced_vertex=v)
        assert res.found and v in res.embedding


def test_forced_vertex_miss():
    from erdos_rogers import Graph

    host = Graph(4, [(0, 1), (1, 2), (0, 2)])  # triangle plus isolated vertex 3
    assert contains_subgraph(host, complete_graph(3), forced_vertex=3).found is False
    assert contains_subgraph(host, complete_graph(3), forced_vertex=0).found is True


def test_tiny_budget_reports_unknown():
    host = gnp_graph(40, 0.5, SeededRng(3, "big"))
    res = contains_subgraph(host, petersen_graph(), budget=5)
    assert res.status == "unknown"
    assert not res.found


# sha256 of (status, embedding, nodes) of every whole-host call below, as
# computed when whole-host scans still filtered the full ranked vertex list
# at every node; candidates sorted by rank must give the same bytes
UNMASKED_SHA256 = "052898b76904f05310dc8653be7869e39b3ee4d05502419255ba8a1e70f0a39f"


def test_unmasked_containment_pinned():
    digest = hashlib.sha256()
    patterns = [named_graph(name) for name in ("k3", "c4", "c5", "k4", "p3")]
    for n in (1, 2, 5, 8, 13, 21, 30, 40):
        for p in (0.1, 0.3, 0.6):
            host = gnp_graph(n, p, SeededRng(n, f"unmasked-pin-{p}"))
            for pattern in patterns:
                for budget in (3, 40, 10**6):
                    for forced in (None, 0, n // 2, n - 1):
                        res = contains_subgraph(host, pattern, budget=budget, forced_vertex=forced)
                        digest.update(repr((res.status, res.embedding, res.nodes)).encode())
    assert digest.hexdigest() == UNMASKED_SHA256


def test_empty_pattern_always_found():
    res = contains_subgraph(cycle_graph(4), named_graph("k2"))
    assert res.found


def test_searches_leave_no_reference_cycles():
    # a containment call must not leave garbage for the cyclic collector,
    # found, absent, masked, forced or budgeted, nor must a homomorphism
    # test run on the same core, nor a set search, the cycle lister or the
    # loose-cycle lister, finished, truncated or out of budget
    host, k3 = cycle_graph(8), complete_graph(3)
    triangle = Hypergraph(6, [(0, 1, 2), (2, 3, 4), (0, 4, 5)], 3)
    contains_subgraph(host, k3, forced_vertex=0)  # fill the plan cache
    gc.collect()
    gc.disable()
    try:
        for v in range(8):
            contains_subgraph(host, k3, forced_vertex=v)
        for v in range(7):
            contains_subgraph(host, named_graph("p4"), within=0b0111_1111, forced_vertex=v)
        contains_subgraph(host, k3)
        contains_subgraph(host, cycle_graph(8))
        contains_subgraph(petersen_graph(), cycle_graph(5), budget=3)
        assert is_hom_free(k3, cycle_graph(5))[0] is False
        assert is_hom_free(cycle_graph(5), k3) == (True, None)
        assert is_hom_free(k3, Graph(5, [(0, 1), (3, 4)])) == (False, (0, 1, 0, 0, 1))
        assert is_hom_free(Graph(0, []), k3) == (True, None)
        assert max_independent_set(petersen_graph()).size == 4
        assert max_independent_set(petersen_graph(), budget=2).status == "lower-bound"
        assert max_f_free_subset(petersen_graph(), cycle_graph(5)).status == "optimal"
        assert max_f_free_subset(petersen_graph(), cycle_graph(5), budget=3).status == "lower-bound"
        assert len(list_k_cycles(petersen_graph(), 5)[0]) == 12
        cycles, truncated = list_k_cycles(petersen_graph(), 6, through=0, cap=2)
        assert len(cycles) == 2 and truncated
        assert len(find_loose_cycles(triangle, 3)) == 1
        assert len(find_loose_cycles(triangle, 3, limit=1)) == 1
        assert gc.collect() == 0
    finally:
        gc.enable()
