from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdos_rogers import (
    FormatError,
    Hypergraph,
    InputError,
    SeededRng,
    find_loose_cycles,
    hypergraph_girth_at_least,
    hypergraph_is_linear,
    hypergraph_is_triangle_free,
    line_intersection_graph,
)
from erdos_rogers.covers import _first_shared_pair, _incidence, _later_sets, _shares_a_pair
from erdos_rogers.hypergraphs import hypergraph_from_text, hypergraph_to_text, vertex_clique_cover
from oracles import all_pairs_loose_cycles, first_loose_triangle, naive_loose_cycles, seeded_sample

# three 3-edges pairwise meeting in distinct single vertices: a loose triangle
LOOSE_TRIANGLE = Hypergraph(9, [(0, 1, 2), (2, 3, 4), (0, 4, 5)], 3)

# shares two vertices between the first two edges
NOT_LINEAR = Hypergraph(6, [(0, 1, 2), (1, 2, 3), (3, 4, 5)], 3)


def test_linearity():
    assert hypergraph_is_linear(LOOSE_TRIANGLE).passed
    audit = hypergraph_is_linear(NOT_LINEAR)
    assert not audit.passed
    assert audit.witness is not None


def _random_hypergraph(seed):
    """Distinct r-edges, r in 2..5, drawn on 8 to 27 vertices."""
    rng = SeededRng(seed, "linear")
    n = 8 + rng.randrange(20)
    r = 2 + rng.randrange(4)
    edges = []
    for _ in range(rng.randrange(30)):
        e = tuple(sorted(seeded_sample(rng, range(n), r)))
        if e not in edges:
            edges.append(e)
    return Hypergraph(n, edges, r)


def test_linearity_matches_the_shared_pair_sweep():
    outcomes = set()
    for seed in range(60):
        h = _random_hypergraph(seed)
        _, shared = _first_shared_pair(h.edges)
        audit = hypergraph_is_linear(h)
        if shared is None:
            assert (audit.passed, audit.witness) == (True, None)
        else:
            i, j, pair = shared
            assert (audit.passed, audit.witness) == (False, {"edges": [i, j], "shared_vertices": list(pair)})
        outcomes.add(audit.passed)
    assert outcomes == {False, True}


def test_triangle_detection():
    audit = hypergraph_is_triangle_free(LOOSE_TRIANGLE)
    assert not audit.passed
    chain = Hypergraph(9, [(0, 1, 2), (2, 3, 4), (4, 5, 6)], 3)
    assert hypergraph_is_triangle_free(chain).passed


def test_triangle_free_rejects_nonlinear_input():
    with pytest.raises(InputError):
        hypergraph_is_triangle_free(NOT_LINEAR)


@st.composite
def three_graphs(draw, linear=True):
    """A 3-graph on at most 10 vertices: the distinct drawn triples in draw
    order; with linear set, each is kept unless it shares two vertices with
    a kept one."""
    n = draw(st.integers(3, 10))
    triple = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    kept = []
    for t in draw(st.lists(triple, max_size=14)):
        e = tuple(sorted(t))
        if e not in kept and (not linear or all(len(set(e) & set(f)) <= 1 for f in kept)):
            kept.append(e)
    return Hypergraph(n, kept, 3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(three_graphs())
def test_triangle_audit_matches_first_loose_triangle(h):
    audit = hypergraph_is_triangle_free(h)
    expected = first_loose_triangle(h)
    assert audit.passed == (expected is None)
    assert audit.witness == expected


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(three_graphs(linear=False))
def test_triangle_audit_refuses_nonlinear_with_the_linearity_witness(h):
    linear = hypergraph_is_linear(h)
    if linear.passed:
        assert hypergraph_is_triangle_free(h).witness == first_loose_triangle(h)
    else:
        with pytest.raises(InputError) as exc:
            hypergraph_is_triangle_free(h)
        assert exc.value.witness == linear.witness


def test_triangle_reported_at_the_vertex_of_its_two_smallest_edges():
    # edges 1, 2 meet at vertex 0 and edges 0, 2 at vertex 3, both below
    # vertex 5 where edges 0, 1 meet; the scan through vertex 0 or 3 only
    # finds the third edge below the pair's larger one, so the triangle
    # belongs to vertex 5
    h = Hypergraph(9, [(3, 5, 6), (0, 5, 7), (0, 3, 8), (1, 2, 4)], 3)
    audit = hypergraph_is_triangle_free(h)
    assert audit.witness == {"edges": [0, 1, 2], "pairwise_vertices": [5, 3, 0]}
    assert audit.witness == first_loose_triangle(h)


def _cycle_lists(cycles):
    return [(c.edge_indices, c.vertices) for c in cycles]


@pytest.mark.parametrize("length", [2, 3, 4])
def test_loose_cycles_match_naive(length):
    h = Hypergraph(
        10,
        [(0, 1, 2), (2, 3, 4), (0, 4, 5), (4, 6, 7), (0, 7, 8), (1, 3, 9)],
        3,
    )
    cycles = [c for c in find_loose_cycles(h, length) if c.length == length]
    assert len(cycles) == naive_loose_cycles(h, length)
    assert _cycle_lists(cycles) == _cycle_lists(all_pairs_loose_cycles(h, length))
    for cyc in cycles:
        assert len(cyc.edge_indices) == length


def _random_loose_hypergraph(seed, uniform, linear):
    """A seeded hypergraph on 6-15 vertices with up to 24 edges, all of 2
    or all of 3 vertices, or of 1-4 vertices each when not uniform; with
    linear set, an edge sharing two vertices with an earlier one is
    dropped."""
    rng = SeededRng(seed, f"loose-{uniform}-{linear}")
    n = 6 + rng.randrange(10)
    r = 2 + rng.randrange(2) if uniform else None
    edges = []
    for _ in range(4 + rng.randrange(21)):
        e = tuple(sorted(seeded_sample(rng, range(n), r or 1 + rng.randrange(4))))
        if e in edges or (linear and any(len(set(e) & set(f)) >= 2 for f in edges)):
            continue
        edges.append(e)
    return Hypergraph(n, edges, r)


def _loose_hypergraphs():
    for seed in range(40):
        for uniform in (True, False):
            for linear in (True, False):
                yield (seed, uniform, linear), _random_loose_hypergraph(seed, uniform, linear)


@pytest.mark.parametrize("longest", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("limit", [None, 1, 2, 5])
def test_loose_cycles_match_all_pairs_reference(longest, limit):
    found = 0
    for key, h in _loose_hypergraphs():
        expected = [c for length in range(2, longest + 1) for c in all_pairs_loose_cycles(h, length)]
        cycles = _cycle_lists(find_loose_cycles(h, longest, limit))
        assert cycles == _cycle_lists(expected[:limit]), key
        found += bool(cycles)
    assert found >= 20 or longest < 2


def test_girth_audit_matches_the_per_length_reference():
    failed = 0
    for key, h in _loose_hypergraphs():
        for g in range(2, 8):
            shorter = [all_pairs_loose_cycles(h, length, 1) for length in range(2, g)]
            witness = next((found[0].witness() for found in shorter if found), None)
            audit = hypergraph_girth_at_least(h, g)
            assert (audit.passed, audit.witness) == (witness is None, witness), (key, g)
            failed += not audit.passed
    assert failed >= 100


def test_loose_cycle_lengths_stop_at_the_edge_and_pair_counts():
    # one edge, and 100,000 disjoint edges: no two edges meet, so no
    # length past 2 is walked however long a cycle is asked for
    for h in (Hypergraph(3, [(0, 1, 2)], 3), Hypergraph(300_000, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(100_000)], 3)):
        assert find_loose_cycles(h, 10**12) == []
        assert hypergraph_girth_at_least(h, 10**12).passed
    # three edges and three such pairs: the cap keeps the triangle
    assert _cycle_lists(find_loose_cycles(LOOSE_TRIANGLE, 10**12)) == [((0, 1, 2), (2, 4, 0))]


def test_girth_audit():
    assert hypergraph_girth_at_least(LOOSE_TRIANGLE, 3).passed
    audit = hypergraph_girth_at_least(LOOSE_TRIANGLE, 4)
    assert not audit.passed


def test_line_intersection_graph_petersen_style():
    g, cover = line_intersection_graph(LOOSE_TRIANGLE)
    assert g.n == 3 and g.m == 3  # three edges, pairwise intersecting
    assert cover.validate().passed


def test_line_graph_cover_maps_every_edge():
    h = Hypergraph(10, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 6, 7), (1, 8, 9)], 3)
    g, cover = line_intersection_graph(h)
    seen = set()
    for cl in cover.cliques:
        members = sorted(cl)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                seen.add((a, b))
    assert seen == set(g.edges())


def test_uniformity_enforced():
    with pytest.raises(InputError):
        Hypergraph(5, [(0, 1, 2), (3, 4)], 3)


@pytest.mark.parametrize(
    "edges,fragment,bad",
    [
        ([(0, 1, 2), (1, 2, 5)], "out of range", (1, 2, 5)),
        ([(-1, 1, 2)], "out of range", (-1, 1, 2)),
        ([(0, 2, 1), (1, 2, 9)], "strictly increasing", (0, 2, 1)),
        ([(0, 1, 1)], "strictly increasing", (0, 1, 1)),
        ([(0, 1, 2), (2, 3, 4), (0, 1, 2)], "duplicate", (0, 1, 2)),
        ([(0, 1, 2), (3, 4), (0, 1, 9)], "uniformity", (3, 4)),
        # uniform inputs, every edge of size r: each kind of refusal, and
        # the first of two faults
        ([(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 1, 4), (0, 2, 4), (1, 3, 5)], "out of range", (1, 3, 5)),
        ([(0, 1, 2), (1, 2, 3), (-2, 3, 4)], "out of range", (-2, 3, 4)),
        ([(0, 1, 2), (1, 3, 2), (2, 3, 4)], "strictly increasing", (1, 3, 2)),
        ([(0, 1, 2), (1, 2, 3), (2, 3, 3)], "strictly increasing", (2, 3, 3)),
        ([(0, 1, 2), (1, 2, 3), (2, 3, 4), (1, 2, 3)], "duplicate", (1, 2, 3)),
        ([(0, 1, 2), (0, 1, 2), (1, 2, 9)], "duplicate", (0, 1, 2)),
        ([(0, 1, 2), (4, 3, 9), (0, 1, 2)], "strictly increasing", (4, 3, 9)),
        ([(0, 1, 2), (0, 1, 2, 3)], "uniformity", (0, 1, 2, 3)),
        # a vertex whose type is not int, found in one pass over every
        # vertex before the per-edge checks
        ([(0.5, 1, 2), (True, 2, 3)], "must be integers", (0.5, 1, 2)),
        ([(0, 1, 2), (True, 2, 3)], "must be integers", (True, 2, 3)),
        ([(0.5,), (1, 2, 3)], "must be integers", (0.5,)),
        ([(0, 1, 2), ("2", "3", "4")], "must be integers", ("2", "3", "4")),
        ([(2, 1, 0), (0, 1, 9), (0, 1, 2), (0, 1, 2), (1, 2, 3.0)], "must be integers", (1, 2, 3.0)),
    ],
)
def test_edge_checks_name_the_first_bad_edge(edges, fragment, bad):
    with pytest.raises(InputError) as exc:
        Hypergraph(5, edges, 3)
    assert fragment in str(exc.value)
    assert exc.value.witness == {"edge": list(bad)}


def _hypergraph_text_by_lines(h):
    """hypergraph_to_text as it was written before: one joined string per
    line."""
    head = f"{h.n} {h.m}" if h.r is None else f"{h.n} {h.m} {h.r}"
    return "\n".join([head] + [" ".join(map(str, e)) for e in h.edges]) + "\n"


def test_text_matches_the_line_by_line_reference():
    hypergraphs = [Hypergraph(0, []), Hypergraph(4, [], 3), Hypergraph(5, [(4,), (0, 3)]), LOOSE_TRIANGLE]
    for seed in range(40):
        h = _random_hypergraph(seed)
        rng = SeededRng(seed, "mixed")
        # the same vertex sets with mixed sizes: drop a random tail from each
        mixed = {e[: 1 + rng.randrange(len(e))] for e in h.edges}
        hypergraphs += [h, Hypergraph(h.n, h.edges), Hypergraph(h.n, sorted(mixed))]
    assert any(h.r is None and len(set(map(len, h.edges))) > 1 for h in hypergraphs)
    for h in hypergraphs:
        assert hypergraph_to_text(h) == _hypergraph_text_by_lines(h)


def test_incidence_lists_only_where_edges_meet():
    # a vertex in fewer than two edges gets no slice of covers._incidence:
    # it adds no pair, no meeting edge and no clique
    degrees = set()
    for seed in range(60):
        h = _random_hypergraph(seed)
        through = [[i for i, e in enumerate(h.edges) if v in e] for v in range(h.n)]
        degrees.update(map(len, through))
        meeting, starts, flat = _incidence(h.edges, h.n)
        assert meeting == [v for v, t in enumerate(through) if len(t) > 1]
        assert [flat[a:b] for a, b in zip(starts, starts[1:])] == [t for t in through if len(t) > 1]
        assert (starts[0], starts[-1]) == (0, len(flat))
        assert vertex_clique_cover(h).cliques == tuple(tuple(t) for t in through if len(t) > 1)
        up = _later_sets(starts, flat, h.m)
        for i, e in enumerate(h.edges):
            later = [k for v in e if len(through[v]) > 1 for k in through[v] if k > i]
            assert sorted(up[i]) == sorted(later)
            assert set(up[i]) == {k for k in range(i + 1, h.m) if set(h.edges[k]) & set(e)}
        assert _shares_a_pair(h.edges, h.n) == (_first_shared_pair(h.edges)[1] is not None)
    assert {0, 1, 2, 3} <= degrees
    # one int object per edge index, past the cached small ints, shared by
    # the slices and so by the cliques cut from them
    path = Hypergraph(601, [(i, i + 1) for i in range(600)], 2)
    _, _, flat = _incidence(path.edges, path.n)
    cliques = vertex_clique_cover(path).cliques
    for indices in (flat, list(chain.from_iterable(cliques))):
        assert len(indices) == 2 * 599 and len(set(map(id, indices))) == 600


def test_text_round_trip():
    text = hypergraph_to_text(LOOSE_TRIANGLE)
    back = hypergraph_from_text(text)
    assert back.n == LOOSE_TRIANGLE.n
    assert back.edges == LOOSE_TRIANGLE.edges


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("3 1 3\n0 1\n", "line 2"),
        ("3 2 3\n0 1 2\n", "edge lines"),
        ("-3 0\n", "line 1"),
        ("1000000000 0 3\n", "line 1"),
    ],
)
def test_text_errors(text, fragment):
    with pytest.raises(FormatError) as exc:
        hypergraph_from_text(text)
    assert fragment in str(exc.value)
