from itertools import combinations

import pytest

from erdos_rogers import (
    CliqueCover,
    InputError,
    SeededRng,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    efr_hypergraph,
    is_hom_free,
    line_intersection_graph,
    named_graph,
    path_graph,
    random_blowup,
    square_clique_cover,
    theorem1_failure_bound,
    vertex_clique_cover,
)
from erdos_rogers.graphs import Graph, triangle_witness
from oracles import blowup_hom_oracle, gnp_graph, hom_exists

SEEDS = [0, 1, 5, 17, 99]

# line-graph-of-a-matching style host: two disjoint triangles as cliques
HOST = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
COVER = CliqueCover(HOST, [(0, 1, 2), (3, 4, 5)])


@pytest.mark.parametrize("seed", SEEDS)
def test_blowup_subset_of_cover_edges(seed):
    g, coloring = random_blowup(COVER, cycle_graph(5), SeededRng(seed, "b"))
    assert g.n == HOST.n
    for u, v in g.edges():
        assert HOST.has_edge(u, v)


@pytest.mark.parametrize("seed", SEEDS)
def test_blowup_replay_identical(seed):
    pattern = cycle_graph(5)
    g, coloring = random_blowup(COVER, pattern, SeededRng(seed, "b"))
    # the colorings alone re-derive the graph: a cover edge survives
    # exactly when its clique colors its ends pattern-adjacently
    again = Graph(HOST.n, [
        (u, v)
        for clique, col in zip(COVER.cliques, coloring.colorings)
        for u, v in combinations(clique, 2)
        if pattern.has_edge(col[u], col[v])
    ])
    assert list(again.edges()) == list(g.edges())


def test_blowup_respects_pattern_adjacency():
    # within a clique, vertices meet exactly when their colors do
    pattern = named_graph("k2")
    g, coloring = random_blowup(COVER, pattern, SeededRng(3, "b"))
    for col in coloring.colorings:
        verts = sorted(col)
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                assert g.has_edge(u, v) == pattern.has_edge(col[u], col[v])


def test_blowup_triangle_free_when_pattern_is():
    rng = SeededRng(11, "tri")
    big = complete_graph(12)
    cover = CliqueCover(big, [tuple(range(12))])
    g, _ = random_blowup(cover, cycle_graph(5), rng)
    assert triangle_witness(g) is None


def test_square_clique_cover_on_c6():
    # bipartite C6 with left {0,2,4}: squares to two triangles worth of cliques
    c6 = cycle_graph(6)
    cover = square_clique_cover(c6, [0, 2, 4])
    assert cover.validate().passed
    assert all(len(cl) >= 2 for cl in cover.cliques)


def test_square_clique_cover_rejects_four_cycles():
    with pytest.raises(InputError) as exc:
        square_clique_cover(complete_bipartite(2, 2), [0, 1])
    assert exc.value.witness is not None


def test_square_clique_cover_rejects_an_edge_inside_the_left_part():
    # C6 with left {0,2,3}: (2,3) is the first edge that does not cross
    with pytest.raises(InputError) as exc:
        square_clique_cover(cycle_graph(6), [0, 2, 3])
    assert str(exc.value) == "graph is not bipartite with the given left part"
    assert exc.value.witness == {"edge": [2, 3]}


@pytest.mark.parametrize(
    "pattern,source,expect",
    [
        ("c5", "k3", True),   # no hom K3 -> C5
        ("k3", "c5", False),  # C5 -> K3 exists (5-cycle is 3-colorable)
        ("c5", "c5", False),
        ("k2", "p3", False),
        ("c4", "k3", True),
        ("petersen", "k4", True),
    ],
)
def test_is_hom_free_known_pairs(pattern, source, expect):
    free, hom = is_hom_free(named_graph(pattern), named_graph(source))
    assert free is expect
    if not expect:
        src = named_graph(source)
        pat = named_graph(pattern)
        for a, b in src.edges():
            assert pat.has_edge(hom[a], hom[b])


@pytest.mark.parametrize("seed", range(15))
def test_is_hom_free_matches_product_oracle(seed):
    rng = SeededRng(seed, "homs")
    pattern = gnp_graph(4, 0.5, rng.substream("p"))
    source = gnp_graph(5, 0.4, rng.substream("s"))
    free, _ = is_hom_free(pattern, source)
    assert free == (not hom_exists(pattern, source))
    assert free == blowup_hom_oracle(pattern, source)


def test_failure_bound_monotone_in_R():
    small = theorem1_failure_bound(5, 20, 1000)
    big = theorem1_failure_bound(5, 200, 1000)
    assert big.log_expected < small.log_expected


def test_failure_bound_guarantee_flag():
    # generous R drives the union bound below one
    fb = theorem1_failure_bound(3, 4000, 10**6)
    assert fb.guaranteed
    assert theorem1_failure_bound(3, 1, 10**6).guaranteed is False


def test_blowup_rejects_non_clique_cover():
    bad = CliqueCover(path_graph(3), [(0, 1, 2)])
    with pytest.raises(InputError):
        random_blowup(bad, named_graph("k2"), SeededRng(0, "x"))


@pytest.mark.parametrize(
    "cover",
    [
        CliqueCover(complete_graph(4), [(0, 1, 2), (1, 2, 3)]),
        CliqueCover.union(4, [(0, 1, 2), (1, 2, 3)]),
    ],
    ids=["host", "union"],
)
def test_blowup_rejects_overlapping_cliques(cover):
    with pytest.raises(InputError) as exc:
        random_blowup(cover, named_graph("k2"), SeededRng(0, "x"))
    assert str(exc.value) == "cover cliques are not edge-disjoint"
    assert exc.value.witness == {"cliques": [0, 1], "shared_pair": [1, 2]}


def test_union_cover_blowup_matches_hosted_cover():
    h = efr_hypergraph(2, 25, 5).hypergraph
    union = vertex_clique_cover(h)
    line, hosted = line_intersection_graph(h)
    assert union.host is None and union.n == line.n
    assert union.cliques == hosted.cliques
    assert union.validate().passed and hosted.validate().passed
    a, ca = random_blowup(union, cycle_graph(5), SeededRng(4, "u"))
    b, cb = random_blowup(hosted, cycle_graph(5), SeededRng(4, "u"))
    assert a == b
    assert ca.colorings == cb.colorings


def test_union_cover_rejects_out_of_range_vertex():
    with pytest.raises(InputError):
        CliqueCover.union(3, [(0, 1, 3)])
