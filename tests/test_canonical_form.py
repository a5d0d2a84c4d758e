"""The exact oracle's canonical form against the permutation oracle.

canonical_form minimises the upper-triangle integer level by level over the
placements that respect the refinement classes; perm_canonical_form tries
every such permutation.  The two must return the same key on every graph,
since gfree_graph_reps orders its representatives, and so the printed
witness, by that key.
"""

import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from erdos_rogers import Graph, named_graph
from erdos_rogers.graphs import bits, complete_graph, cycle_graph
from erdos_rogers.pipelines import _refinement_classes, canonical_form
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
