import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdos_rogers import (
    FormatError,
    Graph,
    InputError,
    SeededRng,
    VertexSet,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph_from_text,
    graph_to_text,
    named_graph,
    path_graph,
    petersen_graph,
)
from erdos_rogers.graphs import (
    _root_cycle,
    bipartition_violation,
    bits,
    connected_components,
    find_short_cycle,
    has_cycle,
    induced_subgraph,
    induced_subgraph_with_map,
    is_biconnected,
    is_clique,
    mask_of,
    prune_short_cycles,
    random_regular_bipartite,
    triangle_witness,
    wagner_graph,
)
from erdos_rogers.pipelines import _child_rows
from oracles import (
    all_roots_short_cycle,
    bipartite_gnp,
    blowup_graph,
    gnp_graph,
    numpy_rng,
    rebuild_prune_short_cycles,
    set_triangle_witness,
)

SEEDS = [0, 1, 7, 42, 1234]


def check_graph_invariants(g):
    for u, v in g.edges():
        assert u < v
        assert g.has_edge(u, v) and g.has_edge(v, u)
        assert not g.has_edge(u, u)
    assert sum(map(g.degree, range(g.n))) == 2 * g.m


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_complete_graph_counts(n):
    g = complete_graph(n)
    assert g.m == n * (n - 1) // 2
    check_graph_invariants(g)


@pytest.mark.parametrize("n,expect_m", [(3, 3), (4, 4), (7, 7)])
def test_cycle_graph(n, expect_m):
    g = cycle_graph(n)
    assert g.m == expect_m
    assert all(g.degree(v) == 2 for v in range(n))
    assert has_cycle(g)


def test_path_graph_is_acyclic():
    g = path_graph(6)
    assert g.m == 5
    assert not has_cycle(g)
    assert connected_components(g) == [[0, 1, 2, 3, 4, 5]]


def test_complete_bipartite_structure():
    g = complete_bipartite(3, 4)
    assert g.n == 7 and g.m == 12
    assert bipartition_violation(g, range(3)) is None
    # moving one vertex across the split must surface a violating edge
    assert bipartition_violation(g, [0, 1]) is not None


def test_petersen_facts():
    g = petersen_graph()
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert triangle_witness(g) is None
    assert is_biconnected(g)


def test_biconnected_counts_match_oeis_a013922():
    # 2-connected labelled graphs on n = 1..6 vertices
    counts = []
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        counts.append(sum(
            is_biconnected(Graph(n, [p for i, p in enumerate(pairs) if code >> i & 1]))
            for code in range(1 << len(pairs))
        ))
    assert counts == [0, 0, 1, 10, 238, 11368]


@pytest.mark.parametrize(
    "g,expect",
    [
        (wagner_graph(), True),
        (named_graph("k33"), True),
        (named_graph("p4"), False),
        (named_graph("k2"), False),
        (Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), False),
    ],
    ids=["wagner", "k33", "p4", "k2", "two-triangles"],
)
def test_is_biconnected_named_cases(g, expect):
    assert is_biconnected(g) is expect


def test_wagner_facts():
    g = wagner_graph()
    assert g.n == 8 and g.m == 12
    assert triangle_witness(g) is None


@pytest.mark.parametrize(
    "name,n,m",
    [
        ("k2", 2, 1),
        ("k4", 4, 6),
        ("p3", 3, 2),
        ("p4", 4, 3),
        ("c5", 5, 5),
        ("k22", 4, 4),
        ("k33", 6, 9),
        ("petersen", 10, 15),
        ("wagner", 8, 12),
    ],
)
def test_named_graph_table(name, n, m):
    g = named_graph(name)
    assert (g.n, g.m) == (n, m)
    check_graph_invariants(g)


def test_named_graph_rejects_unknown():
    with pytest.raises(InputError):
        named_graph("k99")


def test_blowup_graph_sizes():
    g = blowup_graph(cycle_graph(5), [2, 2, 2, 2, 2])
    assert g.n == 10
    assert g.m == 5 * 4  # each C5 edge becomes a K_{2,2}
    assert triangle_witness(g) is None


def test_blowup_with_empty_part():
    g = blowup_graph(complete_graph(3), [2, 0, 1])
    assert g.n == 3
    assert g.m == 2


def test_induced_subgraph_edges():
    g = cycle_graph(6)
    sub = induced_subgraph(g, [0, 1, 2, 4])
    assert sub.n == 4 and sub.m == 2


def test_is_clique():
    assert is_clique(complete_graph(5))
    assert is_clique(induced_subgraph(complete_graph(5), [0, 2, 4]))
    assert not is_clique(cycle_graph(5))


def test_find_short_cycle_lengths():
    g = cycle_graph(7)
    assert find_short_cycle(g, 6) is None
    cyc = find_short_cycle(g, 7)
    assert cyc is not None and len(cyc) == 7


def _short_cycle_hosts():
    for seed in SEEDS:
        for n, p in [(8, 0.4), (14, 0.2), (24, 0.1), (30, 0.3)]:
            yield gnp_graph(n, p, SeededRng(seed, "short-cycle"))
        yield random_regular_bipartite(10, 3, SeededRng(seed, "short-cycle"))
        yield random_regular_bipartite(16, 4, SeededRng(seed, "short-cycle"))
    # forests, disconnected graphs and the empty graph
    yield Graph(0)
    yield Graph(5)
    yield path_graph(7)
    yield Graph(9, [(0, 1), (1, 2), (1, 3), (5, 6), (6, 7), (6, 8)])
    yield Graph(12, [(i, (i + 1) % 5) for i in range(5)] + [(6, 7), (7, 8), (8, 9), (9, 6)])
    yield Graph(13, [(i, i + 1) for i in range(5)] + [(7 + i, 7 + (i + 1) % 6) for i in range(6)])
    yield blowup_graph(petersen_graph(), 2)


def test_find_short_cycle_matches_all_roots_reference():
    hosts = list(_short_cycle_hosts())
    assert any(triangle_witness(g) is not None for g in hosts)
    for g in hosts:
        full = all_roots_short_cycle(g, g.n)
        girth = len(full) if full else 3
        for max_len in range(girth - 2, girth + 3):
            assert find_short_cycle(g, max_len) == all_roots_short_cycle(g, max_len)


@pytest.mark.parametrize("n,d,girth", [(48, 5, 10), (60, 5, 8)])
def test_find_short_cycle_matches_reference_through_pruning(n, d, girth):
    """Every intermediate graph of theorem4_part1_build's pruning loop."""
    bip = random_regular_bipartite(n, d, SeededRng(1, "theorem4-part1").substream("bipartite"))
    while True:
        cyc = find_short_cycle(bip, girth)
        assert cyc == all_roots_short_cycle(bip, girth)
        if cyc is None:
            break
        ring = list(zip(cyc, cyc[1:] + cyc[:1]))
        drop = min((min(e), max(e)) for e in ring)
        bip = Graph(bip.n, [e for e in bip.edges() if e != drop])


def _assert_prunes_like_rebuild(g, max_len):
    pruned, deletions = prune_short_cycles(g, max_len)
    ref, ref_deletions = rebuild_prune_short_cycles(g, max_len)
    assert (pruned.n, pruned.upper_edges(), deletions) == (ref.n, ref.upper_edges(), ref_deletions)
    assert pruned.rows() == ref.rows()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n,d,girth", [(40, 4, 10), (48, 5, 10), (60, 5, 8), (120, 5, 10)])
def test_prune_short_cycles_matches_rebuild_reference(n, d, girth, seed):
    bip = random_regular_bipartite(n, d, SeededRng(seed, "theorem4-part1").substream("bipartite"))
    _assert_prunes_like_rebuild(bip, girth)


def test_prune_short_cycles_matches_rebuild_reference_on_short_cycle_hosts():
    for g in _short_cycle_hosts():
        full = all_roots_short_cycle(g, g.n)
        girth = len(full) if full else 3
        for max_len in range(girth, girth + 3):
            _assert_prunes_like_rebuild(g, max_len)


def _clean_tree_edge_deletions(g, max_len):
    """The deletions of the rebuild pruning that remove a BFS tree edge of
    a root before the cycle's root, one whose BFS closed no cycle of the
    girth: each makes a clean root dirty."""
    hits = 0
    while (cyc := find_short_cycle(g, max_len)) is not None:
        nbrs = [tuple(bits(row)) for row in g.rows()]
        clean_trees = []
        for root in range(g.n):
            found, parent = _root_cycle(nbrs, root, len(cyc))
            if found is not None:
                break
            clean_trees.append(parent)
        assert found == cyc
        u, v = min((min(e), max(e)) for e in zip(cyc, cyc[1:] + cyc[:1]))
        hits += any(parent[u] == v or parent[v] == u for parent in clean_trees)
        g = Graph(g.n, [e for e in g.edges() if e != (u, v)])
    return hits


def test_prune_short_cycles_redoes_a_clean_root_whose_tree_lost_an_edge():
    # a pruner that kept such a root clean deletes 25 edges here, not 24
    bip = random_regular_bipartite(16, 4, SeededRng(1, "short-cycle"))
    assert _clean_tree_edge_deletions(bip, 6) > 0
    _assert_prunes_like_rebuild(bip, 6)
    assert prune_short_cycles(bip, 6)[1] == 24


# sha256 of graph_to_text of each seeded test graph, so that no test's
# random input can change unnoticed
GNP_SHA256 = {
    0: "b21d352bbbc9f29072cfdd331067941a16cc76e94546b161050e743fd4f9609a",
    1: "2b5a3723850307deaa2fcced039060b7778918f324addd23cc48216536c8d297",
    7: "dd9f2e30698c5d15b91f7c8aa57174c26bf7efcfce32e56fcd455ef9ddc1173d",
    42: "071d1e24a920024185bf604549f246399709b5b2ae62e06dbb9e101196abca26",
    1234: "112bc56946af597d6974b686104f8536ea573a03603736204498ac3b07d75990",
}
BIPARTITE_GNP_SHA256 = {
    0: "5ed8e9e90631114373b9346863a7dc06605a1e6a5fcf7f8d93cc851c17a9181d",
    1: "53b82e1d5bfb4224cf8aa33160fafca873c5cd2389cca4cb8215f1e256089378",
    7: "b506b1eff8cc67e7db59b890890f3ed66b37489bd2cef0d8273fffb36408682e",
    42: "3cd8242e5c31e09cc55d54583ad3c870f7c77657cb91c6ade2a95743f1ed2166",
    1234: "1aae5c4d0a4a6cc684b440542bb7e0e24dc8a9253d55f8b4ef8abec29be5b7de",
}


def _sha256(g):
    return hashlib.sha256(graph_to_text(g).encode()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_gnp_graph_determinism(seed):
    a = gnp_graph(30, 0.3, SeededRng(seed, "gnp"))
    b = gnp_graph(30, 0.3, SeededRng(seed, "gnp"))
    assert list(a.edges()) == list(b.edges())
    check_graph_invariants(a)
    assert _sha256(a) == GNP_SHA256[seed]
    bip = bipartite_gnp(20, 20, 0.3, SeededRng(seed, "bipartite-gnp"))
    check_graph_invariants(bip)
    assert bipartition_violation(bip, range(20)) is None
    assert _sha256(bip) == BIPARTITE_GNP_SHA256[seed]


def test_numpy_rng_deterministic():
    a = numpy_rng(SeededRng(9, "np")).random(5)
    b = numpy_rng(SeededRng(9, "np")).random(5)
    assert (a == b).all()


@pytest.mark.parametrize("seed", SEEDS)
def test_random_regular_bipartite_caps_degree(seed):
    g = random_regular_bipartite(12, 4, SeededRng(seed, "bip"))
    assert g.n == 24
    assert bipartition_violation(g, range(12)) is None
    assert g.max_degree() <= 4


def test_vertex_set_round_trip():
    vs = VertexSet(mask_of([5, 1, 3]))
    assert sorted(vs.members()) == [1, 3, 5]
    assert len(vs) == 3


def test_text_round_trip():
    g = petersen_graph()
    back = graph_from_text(graph_to_text(g))
    assert back.n == g.n and list(back.edges()) == list(g.edges())


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("2\n", "header"),
        ("2 1\n0 1\n0 1\n", "line 3"),
        ("2 1\n0 2\n", "line 2"),
        ("3 2\n0 1\n", "edge lines"),
        ("2 1\nx y\n", "line 2"),
        ("-3 0\n", "line 1"),
        ("1000000000 0\n", "line 1"),
    ],
)
def test_text_errors_mention_location(text, fragment):
    with pytest.raises(FormatError) as exc:
        graph_from_text(text)
    assert fragment in str(exc.value)


def test_graph_rejects_self_loop():
    with pytest.raises(InputError, match="self-loop") as exc:
        Graph(3, [(1, 1)])
    assert exc.value.witness == {"vertex": 1}


@pytest.mark.parametrize(
    "edges,message,witness",
    [
        ([(0, 1), (2, 5), (1, 1)], "out of range", {"edge": [2, 5]}),
        ([(0, 1), (2, 2), (2, 5)], "self-loop", {"vertex": 2}),
        ([(-1, 0)], "out of range", {"edge": [-1, 0]}),
        ([(0, 5), (0.5, 1)], "out of range", {"edge": [0, 5]}),
        # an endpoint whose type is not int, checked first within a pair
        ([(0.5, 1)], "must be integers", {"edge": [0.5, 1]}),
        ([(0, 1), (True, 2)], "must be integers", {"edge": [True, 2]}),
        ([(1, 0), ("1", 2)], "must be integers", {"edge": ["1", 2]}),
        ([(0, 1), (1.0, 1.0), (0.5, 1)], "must be integers", {"edge": [1.0, 1.0]}),
        ([(0, 1), (0.5, 7), (2, 5)], "must be integers", {"edge": [0.5, 7]}),
    ],
)
def test_graph_refusal_names_the_first_bad_pair(edges, message, witness):
    with pytest.raises(InputError, match=message) as exc:
        Graph(3, edges)
    assert exc.value.witness == witness


def test_empty_graph():
    g = Graph(4)
    assert g.n == 4 and g.m == 0
    assert len(connected_components(g)) == 4


@st.composite
def small_graphs(draw):
    """A graph on 0..14 vertices from drawn pairs in either orientation,
    repeats allowed; vertices no pair names stay isolated."""
    n = draw(st.integers(0, 14))
    if n < 2:
        return Graph(n)
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), max_size=40))
    return Graph(n, pairs)


def first_triangle_by_pairs(g):
    """The first edge (u, v) in lexicographic order with a common
    neighbour, and its least common neighbour w."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                for w in range(g.n):
                    if g.has_edge(u, w) and g.has_edge(v, w):
                        return (u, v, w)
    return None


def check_forms_agree(g):
    """g rebuilt from its edges, from its edges reversed, from them with
    repeats, and from rows made here off the edge list, is one graph in
    every form: equal with equal hashes (the edge-built ones compared
    before their rows exist), with the same m, edge tuple, rows and
    adjacency."""
    edges = g.edges()
    rows = [0] * g.n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    forms = [
        Graph(g.n, edges),
        Graph(g.n, [(v, u) for u, v in reversed(edges)]),
        Graph(g.n, edges + [(v, u) for u, v in edges[::2]] + edges[1::3]),
        Graph.from_rows(rows),
    ]
    for h in forms:
        assert h == g and hash(h) == hash(g)
    # given tuples (u, v), u < v, are kept as they are; other pairs become
    # new tuples
    assert all(a is b for a, b in zip(forms[0].upper_edges(), edges))
    forms.append(Graph(g.n, [list(e) for e in edges]))
    for h in forms:
        assert h.n == g.n and h.m == len(edges)
        assert h.upper_edges() == tuple(edges)
        assert h.rows() == tuple(rows)
        assert all(h.has_edge(u, v) == bool((rows[u] >> v) & 1) for u in range(g.n) for v in range(g.n))
    assert Graph.from_rows(rows + [0]) != g
    if edges:
        assert Graph(g.n, edges[1:]) != g


def induced_by_edge_list(g, mask):
    """The induced subgraph on mask built from an edge list, members
    renumbered in increasing order."""
    members = list(bits(mask))
    index = {v: i for i, v in enumerate(members)}
    edges = [(index[u], index[v]) for u, v in g.edges() if (mask >> u) & 1 and (mask >> v) & 1]
    return Graph(len(members), edges), tuple(members)


def _edge_scan_hosts():
    yield Graph(0)
    yield Graph(1)
    yield Graph(6, [(4, 1)])
    yield from _short_cycle_hosts()
    for seed in SEEDS:
        yield gnp_graph(40, 0.15, SeededRng(seed, "edge-scan"))


@pytest.mark.parametrize("g", list(_edge_scan_hosts()), ids=repr)
def test_edges_match_pair_scan(g):
    expected = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]
    assert g.edges() == expected
    assert len(expected) == g.m
    assert triangle_witness(g) == first_triangle_by_pairs(g) == set_triangle_witness(g)
    check_forms_agree(g)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs(), st.integers(0, (1 << 14) - 1))
def test_edges_and_triangle_witness_match_pair_scans(g, mask):
    expected = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]
    assert g.edges() == expected
    assert triangle_witness(g) == first_triangle_by_pairs(g) == set_triangle_witness(g)
    check_forms_agree(g)
    mask &= g.full_mask()
    sub, members = induced_subgraph_with_map(g, mask)
    expected = induced_by_edge_list(g, mask)
    assert (sub, members) == expected and sub.rows() == expected[0].rows()


@pytest.mark.parametrize(
    "base",
    [Graph(1), path_graph(4), cycle_graph(5), wagner_graph(), petersen_graph()],
    ids=repr,
)
def test_oracle_child_matches_edge_list_child(base):
    for nbhd in range(1 << base.n):
        child = Graph.from_rows(_child_rows(base.rows(), nbhd))
        expected = Graph(base.n + 1, base.edges() + [(u, base.n) for u in bits(nbhd)])
        assert child == expected and hash(child) == hash(expected)
        assert child.m == expected.m and child.rows() == expected.rows()
        assert child.upper_edges() == expected.upper_edges()


def _graph_text_by_lines(g):
    """graph_to_text as it was written before: one f-string per line."""
    return "\n".join([f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.upper_edges()]) + "\n"


def test_graph_text_matches_the_line_by_line_reference():
    graphs = [Graph(0), Graph(1), Graph(7), Graph(2, [(1, 0)]), petersen_graph()]
    for seed in SEEDS:
        rng = SeededRng(seed, "text")
        for n, p in [(1, 0.5), (12, 0.0), (12, 0.4), (60, 0.1), (300, 0.02)]:
            g = gnp_graph(n, p, rng)
            graphs += [g, Graph.from_rows(g.rows())]
    assert any(g.m == 0 for g in graphs) and max(g.m for g in graphs) > 500
    for g in graphs:
        assert graph_to_text(g) == _graph_text_by_lines(g)


def test_edges_returns_a_new_list_each_call():
    g = petersen_graph()
    first = g.edges()
    expected = list(first)
    first.clear()
    first.append((0, 9))
    assert g.edges() == expected
    assert g.edges() is not g.edges()
    assert graph_to_text(g).splitlines()[1:] == [f"{u} {v}" for u, v in expected]
