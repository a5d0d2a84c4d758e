"""The masked containment core against naive oracles on small random hosts.

contains_subgraph(host, P, within=mask) must answer as a search of the
induced subgraph on the mask would, with and without a forced vertex, and
max_f_free_subset (which calls it at the branch steps its memo of copies
and free sets does not decide, and prunes with a packing of the copies it
found) must find the exhaustive maximum.  Wherever the unpruned per-step
search finishes, it must return that search's set in no more nodes; under
a budget, a set at least as large, and an upper bound on the optimum.  A
forced search keeps one anchor per automorphism orbit of the pattern.  The
pinned sets fix the output of `search max-ffree` on three 18-vertex hosts
to the values of the induced-subgraph search this core replaced.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdos_rogers import (
    Graph,
    InputError,
    contains_subgraph,
    max_f_free_subset,
    max_independent_set,
    named_graph,
)
from erdos_rogers.graphs import bits, induced_subgraph
from erdos_rogers.search import DEFAULT_SET_BUDGET
from erdos_rogers.subgraph import _placement_plans
from oracles import (
    brute_max_ffree,
    brute_mis,
    copy_vertex_masks,
    max_copy_free_size,
    per_step_max_f_free_subset,
    perm_contains,
)

PATTERNS = ["k2", "p3", "k3", "c4", "c5"]
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def hosts(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@st.composite
def masked_hosts(draw):
    host = draw(hosts())
    mask = draw(st.integers(0, host.full_mask()))
    return host, mask


@SETTINGS
@given(masked_hosts(), st.sampled_from(PATTERNS))
def test_mask_matches_induced_oracle(host_mask, name):
    host, mask = host_mask
    pattern = named_graph(name)
    res = contains_subgraph(host, pattern, within=mask)
    assert res.status in ("found", "absent")
    assert res.found == perm_contains(induced_subgraph(host, mask), pattern)
    if res.found:
        assert all((mask >> v) & 1 for v in res.embedding)
        assert len(set(res.embedding)) == pattern.n
        assert all(host.has_edge(res.embedding[a], res.embedding[b]) for a, b in pattern.edges())


@SETTINGS
@given(masked_hosts(), st.sampled_from(PATTERNS), st.data())
def test_forced_vertex_inside_mask(host_mask, name, data):
    host, mask = host_mask
    if not mask:
        return
    forced = data.draw(st.sampled_from(list(bits(mask))))
    pattern = named_graph(name)
    res = contains_subgraph(host, pattern, forced_vertex=forced, within=mask)
    sub = induced_subgraph(host, mask)
    through = list(bits(mask)).index(forced)
    assert res.found == perm_contains(sub, pattern, through=through)
    if res.found:
        assert forced in res.embedding
        assert all((mask >> v) & 1 for v in res.embedding)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hosts(max_n=8), st.sampled_from(PATTERNS))
def test_max_f_free_subset_matches_brute_force(host, name):
    pattern = named_graph(name)
    res = max_f_free_subset(host, pattern)
    assert res.status == "optimal"
    assert res.size == brute_max_ffree(host, pattern)
    assert not perm_contains(induced_subgraph(host, res.vertex_set.mask), pattern)


MEMO_PATTERNS = ["k2", "p3", "k3", "c4", "c5", "k4", "p4", "k22"]
BUDGETS = [3, 50, DEFAULT_SET_BUDGET]


def assert_same_search(host, name):
    # the packing bound prunes only subtrees that cannot beat the incumbent,
    # so the incumbents come in the unpruned search's order
    pattern = named_graph(name)
    for budget in BUDGETS:
        res = max_f_free_subset(host, pattern, budget=budget)
        ref_mask, ref_status, ref_nodes = per_step_max_f_free_subset(host, pattern, budget)
        if ref_status == "optimal":
            assert (res.vertex_set.mask, res.status) == (ref_mask, "optimal"), (name, budget)
            assert res.nodes <= ref_nodes, (name, budget)
        else:
            assert res.size >= ref_mask.bit_count(), (name, budget)
            assert res.nodes <= budget + 1, (name, budget)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hosts(max_n=16), st.sampled_from(MEMO_PATTERNS))
def test_memoised_ffree_search_matches_per_step_search(host, name):
    assert_same_search(host, name)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", MEMO_PATTERNS)
def test_memoised_ffree_search_matches_per_step_search_seeded(seed, name):
    rnd = random.Random(f"erdos-rogers-memo/{seed}/{name}")
    n = 16
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    assert_same_search(Graph(n, sorted(rnd.sample(pairs, rnd.randint(20, 60)))), name)


def seeded_host(label, n, m):
    rnd = random.Random(label)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Graph(n, sorted(rnd.sample(pairs, m)))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n,m,name", [(24, 110, "c4"), (26, 130, "k3")])
def test_packing_bound_cuts_the_nodes_of_denser_hosts(seed, n, m, name):
    host = seeded_host(f"erdos-rogers-pack/{seed}", n, m)
    res = max_f_free_subset(host, named_graph(name))
    ref_mask, ref_status, ref_nodes = per_step_max_f_free_subset(host, named_graph(name))
    assert (res.vertex_set.mask, res.status, ref_status) == (ref_mask, "optimal", "optimal")
    assert 5 * res.nodes <= ref_nodes


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("budget", [3, 50])
def test_upper_bounds_the_optimum(seed, budget):
    rnd = random.Random(f"erdos-rogers-upper/{seed}")
    n = rnd.randint(8, 16)
    host = seeded_host(f"erdos-rogers-upper/{seed}/host", n, rnd.randint(n, 4 * n))
    for name in MEMO_PATTERNS:
        pattern = named_graph(name)
        res = max_f_free_subset(host, pattern, budget=budget)
        optimum = max_copy_free_size(n, copy_vertex_masks(host, pattern))
        assert res.size <= optimum <= res.upper, name
        assert res.status == "lower-bound" or res.upper == res.size == optimum, name
    res = max_independent_set(host, budget=budget)
    optimum = brute_mis(host)
    assert res.size <= optimum <= res.upper
    assert res.status == "lower-bound" or res.upper == res.size == optimum


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hosts(max_n=12))
def test_ffree_search_with_k2_is_max_independent_set(host):
    # the two engines share no code, so each checks the other
    assert max_f_free_subset(host, named_graph("k2")).size == max_independent_set(host).size


@pytest.mark.parametrize(
    "name,anchors",
    [("k2", [0]), ("p3", [0, 1]), ("k3", [0]), ("c4", [0]), ("c5", [0]), ("petersen", [0]), ("wagner", [0])],
)
def test_forced_search_keeps_one_anchor_per_orbit(name, anchors):
    pattern = named_graph(name)
    plans = _placement_plans(pattern.n, pattern.upper_edges(), True)
    assert [order[0] for order, _ in plans] == anchors


def test_mask_and_forced_vertex_must_lie_in_the_host():
    host = named_graph("c5")
    with pytest.raises(InputError):
        contains_subgraph(host, named_graph("k2"), within=1 << 5)
    with pytest.raises(InputError):
        contains_subgraph(host, named_graph("k2"), forced_vertex=3, within=0b00111)


@pytest.mark.parametrize(
    "seed,name,nodes,members",
    [
        (1, "c4", 112, [0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 17]),
        (2, "k3", 57, [0, 1, 2, 3, 4, 6, 7, 9, 10, 12, 15, 16, 17]),
        (3, "c5", 299, [2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17]),
    ],
)
def test_max_ffree_sets_pinned(seed, name, nodes, members):
    res = max_f_free_subset(seeded_host(f"erdos-rogers-pin/{seed}", 18, 46), named_graph(name))
    assert res.status == "optimal"
    assert sorted(res.vertex_set.members()) == members
    assert res.nodes == nodes
