"""The masked containment core against naive oracles on small random hosts.

contains_subgraph(host, P, within=mask) must answer as a search of the
induced subgraph on the mask would, with and without a forced vertex, and
max_f_free_subset (which runs the same forced search at the branch steps
its memo of copies and free sets does not decide, and prunes with a
packing of the copies it found) must find the exhaustive maximum.  Its
per-step query must return the copy the forced contains_subgraph call
returns.  Wherever the unpruned per-step
search finishes, it must return that search's set in no more nodes; under
a budget, a set at least as large, and an upper bound on the optimum.  A
forced search keeps one anchor per automorphism orbit of the pattern.  The
pinned sets fix the output of `search max-ffree` on three 18-vertex hosts
to the values of the induced-subgraph search this core replaced.  The one
placement loop must give the status, map and node count of the recursive
search it replaced (oracles.recursive_run_plans), and the exact oracle's
found neighbourhoods must be the ones a forced search of each child finds.
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
from erdos_rogers.pipelines import _found_neighbourhoods
from erdos_rogers.search import DEFAULT_SET_BUDGET, _forced_step
from erdos_rogers.subgraph import (
    DEFAULT_BUDGET,
    _extension_masks,
    _pattern_order,
    _placement_plans,
    _plan,
    _run_plans,
)
from oracles import (
    brute_max_ffree,
    brute_mis,
    copy_vertex_masks,
    max_copy_free_size,
    per_step_max_f_free_subset,
    perm_contains,
    recursive_run_plans,
    unpruned_gfree_graph_reps,
)

PATTERNS = ["k2", "p3", "k3", "c4", "c5"]
# two disjoint edges, and an edge plus an isolated vertex
TWO_K2, K2_K1 = Graph(4, [(0, 1), (2, 3)]), Graph(3, [(0, 1)])
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hosts(max_n=16), st.sampled_from(MEMO_PATTERNS + ["2k2"]), st.data())
def test_forced_step_returns_the_copy_of_forced_containment(host, name, data):
    # the search's direct step finds the copy the forced contains_subgraph
    # call finds, so copies are found in the same order, and the packing
    # bound and the node counts, which read that order, are the same
    pattern = TWO_K2 if name == "2k2" else named_graph(name)
    step = _forced_step(host, pattern)
    for _ in range(4):
        i = data.draw(st.integers(0, host.n - 1))
        grown = data.draw(st.integers(0, host.full_mask())) | (1 << i)
        res = contains_subgraph(host, pattern, forced_vertex=i, within=grown)
        assert res.status in ("found", "absent")
        copy = sum(1 << v for v in res.embedding) if res.found else 0
        assert step(grown, i) == copy


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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(masked_hosts(), st.sampled_from(PATTERNS + ["k4", "2k2"]),
       st.sampled_from([1, 2, 3, 4, 5, DEFAULT_BUDGET]), st.data())
def test_placement_loop_matches_the_recursive_search(host_mask, name, budget, data):
    # the one placement loop gives the (status, plan, map, nodes) of the
    # recursive search it replaced: whole-host in rank order, masked,
    # forced (ranked and masked) and homomorphism runs, whatever the budget
    host, mask = host_mask
    pattern = TWO_K2 if name == "2k2" else named_graph(name)
    rows, full = host.rows(), host.full_mask()
    rank = [row.bit_count() * host.n + v for v, row in enumerate(rows)]
    unforced = _placement_plans(pattern.n, pattern.upper_edges(), False)
    anchored = _placement_plans(pattern.n, pattern.upper_edges(), True)
    runs = [(unforced, full, full, rank, -1), (unforced, mask, mask, None, -1)]
    forced = data.draw(st.sampled_from(range(host.n)))
    runs.append((anchored, 1 << forced, full, rank, -1))
    if (mask >> forced) & 1:
        runs.append((anchored, 1 << forced, mask, None, -1))
    hom = _plan(pattern, _pattern_order(pattern), injective=False)
    runs.append(((hom,), full, full, None, 0))
    for plans, start, within, order, distinct in runs:
        args = (rows, plans, budget, start, within, order, distinct)
        assert _run_plans(*args) == recursive_run_plans(*args)


@st.composite
def gfree_bases(draw, pattern):
    """A pattern-free graph on at most 7 vertices: drawn pairs in drawn
    order, each added unless it closes a copy of the pattern."""
    n = draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = []
    for pair in draw(st.permutations(pairs))[: draw(st.integers(0, len(pairs)))]:
        if not contains_subgraph(Graph(n, edges + [pair]), pattern).found:
            edges.append(pair)
    return Graph(n, edges)


MASK_PATTERNS = {name: named_graph(name) for name in ("k3", "c4", "c5", "p3", "k4")}
MASK_PATTERNS.update({"2k2": TWO_K2, "k2+k1": K2_K1})
# a star's leaves and an edgeless pattern's vertices are interchangeable;
# on a path and a chair, partial placements that use the same vertices
# differ in the vertices later steps join
MASK_PATTERNS.update({
    "k13": Graph(4, [(0, 1), (0, 2), (0, 3)]),
    "3k1": Graph(3, []),
    "p5": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "chair": Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)]),
})


def check_found_neighbourhoods(base, pattern):
    """Bit N of the found family is set exactly when the child with new
    vertex v = base.n joined to N holds a copy of the pattern through v."""
    size = base.n
    found = _found_neighbourhoods(base.rows(), pattern)
    assert found >> (1 << size) == 0
    for nbhd in range(1 << size):
        child = Graph(size + 1, base.edges() + [(u, size) for u in bits(nbhd)])
        expect = contains_subgraph(child, pattern, forced_vertex=size).found
        assert bool(found >> nbhd & 1) == expect, (base.edges(), nbhd)


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(MASK_PATTERNS)), st.data())
def test_found_neighbourhoods_match_forced_containment(name, data):
    # a base decides all its children at once
    pattern = MASK_PATTERNS[name]
    check_found_neighbourhoods(data.draw(gfree_bases(pattern)), pattern)


@pytest.mark.parametrize("name", sorted(MASK_PATTERNS))
def test_found_neighbourhoods_on_every_small_base(name):
    # every pattern-free graph on at most 6 vertices, up to isomorphism
    pattern = MASK_PATTERNS[name]
    for n in range(1, 7):
        for base in unpruned_gfree_graph_reps(pattern, n)[0]:
            check_found_neighbourhoods(base, pattern)


def test_an_isolated_anchor_has_the_empty_mask():
    # K2 + K1 through an isolated new vertex needs only an edge of the
    # base, so every neighbourhood is found, the empty one too
    edge = Graph(2, [(0, 1)])
    assert 0 in _extension_masks(edge.rows(), K2_K1)
    assert _found_neighbourhoods(edge.rows(), K2_K1) == 0b1111
    assert _extension_masks(edge.rows(), named_graph("k3")) == {0b11}
    assert _extension_masks(edge.rows(), named_graph("c4")) == set()
