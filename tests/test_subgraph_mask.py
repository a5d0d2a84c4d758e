"""The masked containment core against naive oracles on small random hosts.

contains_subgraph(host, P, within=mask) must answer as a search of the
induced subgraph on the mask would, with and without a forced vertex, and
max_f_free_subset (which calls it once per branch node) must find the
exhaustive maximum.  The pinned sets fix the output of `search max-ffree`
on three 18-vertex hosts to the values of the induced-subgraph search this
core replaced.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdos_rogers import Graph, InputError, contains_subgraph, max_f_free_subset, named_graph
from erdos_rogers.graphs import bits, induced_subgraph
from oracles import brute_max_ffree, perm_contains

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


def test_mask_and_forced_vertex_must_lie_in_the_host():
    host = named_graph("c5")
    with pytest.raises(InputError):
        contains_subgraph(host, named_graph("k2"), within=1 << 5)
    with pytest.raises(InputError):
        contains_subgraph(host, named_graph("k2"), forced_vertex=3, within=0b00111)


def gnm_host(seed, n=18, m=46):
    rnd = random.Random(f"erdos-rogers-pin/{seed}")
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Graph(n, sorted(rnd.sample(pairs, m)))


@pytest.mark.parametrize(
    "seed,name,nodes,members",
    [
        (1, "c4", 1957, [0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 17]),
        (2, "k3", 1442, [0, 1, 2, 3, 4, 6, 7, 9, 10, 12, 15, 16, 17]),
        (3, "c5", 1853, [2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17]),
    ],
)
def test_max_ffree_sets_pinned(seed, name, nodes, members):
    res = max_f_free_subset(gnm_host(seed), named_graph(name))
    assert res.status == "optimal"
    assert sorted(res.vertex_set.members()) == members
    assert res.nodes == nodes
