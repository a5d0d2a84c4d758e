"""The exact oracle's canonical form against the permutation oracle.

canonical_form minimises the upper-triangle integer level by level over the
placements that respect the refinement classes; perm_canonical_form tries
every such permutation.  The two must return the same key on every graph,
since gfree_graph_reps orders its representatives, and so the printed
witness, by that key.

gfree_graph_reps skips a child whose _degree_relabelling rows an earlier
child had, without a canonical form: that is sound only when equal rows
mean equal keys.
"""

import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from erdos_rogers import Graph, named_graph
from erdos_rogers.graphs import bits, complete_graph, cycle_graph
from erdos_rogers.pipelines import _degree_relabelling, _refinement_classes, canonical_form
from oracles import perm_canonical_form


def oracle_key(g):
    return perm_canonical_form(g, _refinement_classes([list(bits(row)) for row in g.rows()]))


def cube_graph():
    return Graph(8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)])


def relabel(g, perm):
    return Graph(g.n, [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()])


def test_every_labelled_graph_up_to_six_vertices():
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        keys = set()
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pair for i, pair in enumerate(pairs) if (mask >> i) & 1])
            key = canonical_form(g)
            assert key == oracle_key(g), (n, mask)
            keys.add(key)
        if n == 6:
            assert len(keys) == 156  # graphs on 6 vertices up to isomorphism, OEIS A000088


@st.composite
def graphs_on_7_or_8(draw):
    n = draw(st.integers(7, 8))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(graphs_on_7_or_8())
@example(Graph(8))
@example(complete_graph(8))
@example(cycle_graph(8))
@example(cube_graph())
@example(named_graph("wagner"))
def test_seven_and_eight_vertices_match_the_permutation_oracle(g):
    assert canonical_form(g) == oracle_key(g)


def test_petersen_relabellings_share_one_key():
    g = named_graph("petersen")
    rnd = random.Random("erdos-rogers-canonical/petersen")
    keys = set()
    for _ in range(20):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        keys.add(canonical_form(relabel(g, perm)))
    assert keys == {canonical_form(g)}


def switched(g, a, b, c, d):
    """g with edges ab, cd swapped for ac, bd where that keeps it simple: the
    degrees stay, the isomorphism class often does not."""
    if not (g.has_edge(a, b) and g.has_edge(c, d)) or len({a, b, c, d}) < 4:
        return g
    if g.has_edge(a, c) or g.has_edge(b, d):
        return g
    edges = set(g.edges()) - {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
    edges |= {(min(a, c), max(a, c)), (min(b, d), max(b, d))}
    return Graph(g.n, sorted(edges))


@st.composite
def graph_triples(draw):
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    perm = draw(st.permutations(range(n)))
    ends = draw(st.lists(st.integers(0, n - 1), min_size=4, max_size=4))
    return g, relabel(g, perm), switched(g, *ends)


def label_of(g):
    return _degree_relabelling(g.rows())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graph_triples())
@example((cycle_graph(6), cycle_graph(6), Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])))
@example((cube_graph(), relabel(cube_graph(), [7, 6, 5, 4, 3, 2, 1, 0]), named_graph("wagner")))
def test_equal_relabellings_mean_equal_keys(case):
    # the relabelled rows are an isomorphic copy, so a label shared by two
    # graphs, a relabelling or a degree-preserving switch, shares the key
    for h in case:
        assert canonical_form(Graph.from_rows(label_of(h))) == canonical_form(h)
    for a, b in itertools.combinations(case, 2):
        if label_of(a) == label_of(b):
            assert canonical_form(a) == canonical_form(b)
