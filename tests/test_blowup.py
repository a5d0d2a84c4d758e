import hashlib
import json
import random
from itertools import combinations

import pytest

from erdos_rogers import (
    CliqueCover,
    Hypergraph,
    InputError,
    SeededRng,
    complete_bipartite,
    cycle_graph,
    hypergraph_is_linear,
    is_hom_free,
    named_graph,
    random_blowup,
    square_clique_cover,
    theorem1_failure_bound,
)
from erdos_rogers.graphs import Graph, triangle_witness
from erdos_rogers.efr import efr_hypergraph
from erdos_rogers.hypergraphs import line_intersection_graph
from oracles import blowup_hom_oracle, gnp_graph, hom_exists, set_triangle_witness

SEEDS = [0, 1, 5, 17, 99]

# line-graph-of-a-matching style cover: two disjoint triangles
COVER = CliqueCover(6, [(0, 1, 2), (3, 4, 5)])
COVER_EDGES = {pair for clique in COVER.cliques for pair in combinations(clique, 2)}


def clique_colorings(cover, pattern, seed):
    """The substream contract: clique i draws one color per vertex, in
    ascending vertex order, from substream clique-i of SeededRng(seed, "b")."""
    rng = SeededRng(seed, "b")
    colorings = []
    for i, clique in enumerate(cover.cliques):
        stream = rng.substream(f"clique-{i}")
        colorings.append({v: stream.randrange(pattern.n) for v in clique})
    return colorings


@pytest.mark.parametrize("seed", SEEDS)
def test_blowup_subset_of_cover_edges(seed):
    g = random_blowup(COVER, cycle_graph(5), SeededRng(seed, "b"))
    assert g.n == COVER.n
    assert set(g.edges()) <= COVER_EDGES


@pytest.mark.parametrize("seed", SEEDS)
def test_blowup_replay_identical(seed):
    pattern = cycle_graph(5)
    g = random_blowup(COVER, pattern, SeededRng(seed, "b"))
    # the colorings alone re-derive the graph: a cover edge survives
    # exactly when its clique colors its ends pattern-adjacently
    again = Graph(COVER.n, [
        (u, v)
        for clique, col in zip(COVER.cliques, clique_colorings(COVER, pattern, seed))
        for u, v in combinations(clique, 2)
        if pattern.has_edge(col[u], col[v])
    ])
    assert list(again.edges()) == list(g.edges())


def test_blowup_respects_pattern_adjacency():
    # within a clique, vertices meet exactly when their colors do
    pattern = named_graph("k2")
    g = random_blowup(COVER, pattern, SeededRng(3, "b"))
    for col in clique_colorings(COVER, pattern, 3):
        for u, v in combinations(sorted(col), 2):
            assert g.has_edge(u, v) == pattern.has_edge(col[u], col[v])


def test_blowup_triangle_free_when_pattern_is():
    rng = SeededRng(11, "tri")
    cover = CliqueCover(12, [tuple(range(12))])
    g = random_blowup(cover, cycle_graph(5), rng)
    assert triangle_witness(g) is None


def test_triangle_scan_matches_the_edge_set_reference_on_efr_blowups():
    # the (2,50,6) line graph and its blowups: triangle-free ones, and
    # K3 and K4 blowups, whose first triangle the two scans must agree on
    line, cover = line_intersection_graph(efr_hypergraph(2, 50, 6).hypergraph)
    graphs = [line] + [random_blowup(cover, named_graph(f), SeededRng(1, "theorem1")) for f in ("k2", "c4", "k3", "k4")]
    witnesses = [triangle_witness(g) for g in graphs]
    assert witnesses == [set_triangle_witness(g) for g in graphs]
    assert witnesses[1:3] == [None, None] and None not in witnesses[3:]


def test_square_clique_cover_on_c6():
    # bipartite C6 with left {0,2,4}: squares to two triangles worth of cliques
    c6 = cycle_graph(6)
    cover = square_clique_cover(c6, [0, 2, 4])
    assert cover.validate().passed
    assert all(len(cl) >= 2 for cl in cover.cliques)


def test_square_clique_cover_rejects_four_cycles():
    # the first pair two neighbourhoods share, with their right vertices
    for a, witness in [(2, [0, 2, 1, 3]), (3, [0, 3, 1, 4])]:
        with pytest.raises(InputError) as exc:
            square_clique_cover(complete_bipartite(a, a), range(a))
        assert str(exc.value) == "girth must exceed 4"
        assert exc.value.witness == {"four_cycle": witness}


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


HOM_NAMES = ["k2", "k3", "k4", "k5", "k6", "p3", "p4", "c4", "c5", "c6", "c7", "k22", "k33", "petersen", "wagner"]


def test_is_hom_free_witnesses_pinned():
    # verdict and witness of every ordered named pair: the witness is
    # printed by theorem4-part1's refusal, so its bytes are part of the
    # output; 140 of the 225 pairs have a homomorphism
    rows = []
    for a in HOM_NAMES:
        for b in HOM_NAMES:
            free, w = is_hom_free(named_graph(a), named_graph(b))
            rows.append([a, b, free, None if w is None else list(w)])
    assert sum(not free for _, _, free, _ in rows) == 140
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "cd0b1742e566d7333da4d0cc0091ef7042b59888515e4fa442397ef6b79db355"
    # seeded pairs, sources often disconnected, against the blowup oracle
    for i in range(150):
        r = SeededRng(i, "hom-pin")
        pattern = gnp_graph(1 + r.randrange(5), r.random(), r.substream("f"))
        source = gnp_graph(1 + r.randrange(7), r.random() * 0.6, r.substream("g"))
        free, w = is_hom_free(pattern, source)
        assert free == blowup_hom_oracle(pattern, source), (i, pattern.edges(), source.edges())
        if not free:
            assert all(pattern.has_edge(w[a], w[b]) for a, b in source.edges())


def test_failure_bound_monotone_in_R():
    small = theorem1_failure_bound(5, 20, 1000)
    big = theorem1_failure_bound(5, 200, 1000)
    assert big["log_expected"] < small["log_expected"]


def test_failure_bound_guarantee_flag():
    # generous R drives the union bound below one
    fb = theorem1_failure_bound(3, 4000, 10**6)
    assert fb["guaranteed"]
    assert theorem1_failure_bound(3, 1, 10**6)["guaranteed"] is False


def test_blowup_rejects_overlapping_cliques():
    cover = CliqueCover(4, [(0, 1, 2), (1, 2, 3)])
    with pytest.raises(InputError) as exc:
        random_blowup(cover, named_graph("k2"), SeededRng(0, "x"))
    assert str(exc.value) == "cover cliques are not edge-disjoint"
    assert exc.value.witness == {"cliques": [0, 1], "shared_pair": [1, 2]}
    assert cover.validate().witness == {"kind": "overlap", "cliques": [0, 1], "shared_pair": [1, 2]}


def test_validate_agrees_with_the_pair_sweep():
    # validate and hypergraph_is_linear decide by counting meeting sets and
    # take their witness from the pair sweep; on random families, many of
    # them overlapping, both must agree with the sweep written out here
    rnd = random.Random("erdos-rogers-covers/shared-pair")
    overlaps = linear_checks = linear_overlaps = 0
    for _ in range(2000):
        n = rnd.randint(1, 9)
        cliques = [rnd.sample(range(n), rnd.randint(1, n)) for _ in range(rnd.randint(0, 5))]
        cover = CliqueCover(n, cliques)
        seen = {}
        shared = None
        for j, clique in enumerate(cover.cliques):
            for pair in combinations(clique, 2):
                if pair in seen and shared is None:
                    shared = {"kind": "overlap", "cliques": [seen[pair], j], "shared_pair": list(pair)}
                seen.setdefault(pair, j)
        audit = cover.validate()
        assert audit.passed is (shared is None)
        assert audit.witness == shared
        overlaps += shared is not None
        # a hypergraph refuses a repeated edge, so only families without one
        if len(set(cover.cliques)) == len(cover.cliques):
            lin = hypergraph_is_linear(Hypergraph(n, cover.cliques))
            assert lin.passed is (shared is None)
            if shared is not None:
                assert lin.witness == {"edges": shared["cliques"], "shared_vertices": shared["shared_pair"]}
            linear_checks += 1
            linear_overlaps += not lin.passed
    assert 500 < overlaps < 1500
    assert linear_checks > 1000 and linear_overlaps > 300


def test_union_cover_rejects_out_of_range_vertex():
    for cliques, bad in [([(0, 1, 3)], 0), ([(0, 1), (0, 1, 3)], 1), ([(-1, 2)], 0), ([[2, 0], [3, 1, 0]], 1)]:
        with pytest.raises(InputError) as exc:
            CliqueCover(3, cliques)
        assert str(exc.value) == "cover clique vertex out of range"
        assert exc.value.witness == {"clique": bad, "n": 3}


def test_cover_keeps_increasing_tuples_and_sorts_the_rest():
    given = [(0, 2, 5), [5, 0, 2], (5, 2, 0), (1, 1, 3), (), (4,), {3, 1}]
    cover = CliqueCover(6, given)
    assert cover.cliques == ((0, 2, 5), (0, 2, 5), (0, 2, 5), (1, 3), (), (4,), (1, 3))
    assert all(cover.cliques[i] is given[i] for i in (0, 4, 5))
