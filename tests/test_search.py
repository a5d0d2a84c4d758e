import inspect
import math
import sys

import pytest

from erdos_rogers import (
    Graph,
    Hypergraph,
    InputError,
    SeededRng,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    greedy_independent_set,
    induced_subgraph,
    list_k_cycles,
    max_f_free_subset,
    max_independent_set,
    named_graph,
    path_graph,
    petersen_graph,
    spencer_independent_set,
)
from erdos_rogers.search import (
    count_edges_between,
    ckprop_dense_pair,
    dependent_random_choice,
    erdos_rado_sunflower,
    hypergraph_independence_violation,
    validate_sunflower,
)
from erdos_rogers.search import DEFAULT_SET_BUDGET
from oracles import (
    brute_max_ffree,
    brute_mis,
    circulant_regular,
    copy_vertex_masks,
    disjoint_cycles,
    find_any_sunflower,
    gnp_graph,
    max_copy_free_size,
    perm_contains,
    recursive_list_k_cycles,
    recursive_max_independent_set,
    rescan_greedy_independent_set,
    seeded_sample,
)

SEEDS = list(range(10))


def check_independent(g, members):
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            assert not g.has_edge(u, v)


# ---------------------------------------------------------------------------
# independent sets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_greedy_respects_floor(seed):
    g = gnp_graph(40, 0.2, SeededRng(seed, "greedy"))
    vs = greedy_independent_set(g)
    members = sorted(vs.members())
    check_independent(g, members)
    dmax = g.max_degree()
    assert len(members) >= math.ceil(g.n / (dmax + 1))


def test_heap_greedy_matches_the_rescan_reference():
    graphs = [Graph(0), Graph(1), Graph(30), complete_graph(1), complete_graph(2), complete_graph(30)]
    for seed in range(300):
        rng = SeededRng(seed, "greedy-heap")
        n = rng.randrange(61)
        graphs.append(gnp_graph(n, rng.randrange(101) / 100, rng))
    for g in graphs:
        assert greedy_independent_set(g) == rescan_greedy_independent_set(g), g


@pytest.mark.parametrize("seed", SEEDS)
def test_mis_matches_brute_force(seed):
    g = gnp_graph(14, 0.35, SeededRng(seed, "mis"))
    res = max_independent_set(g)
    assert res.status == "optimal"
    assert res.size == brute_mis(g)
    check_independent(g, sorted(res.vertex_set.members()))


@pytest.mark.parametrize(
    "build,expect",
    [
        (lambda: petersen_graph(), 4),
        (lambda: cycle_graph(7), 3),
        (lambda: complete_graph(6), 1),
        (lambda: complete_bipartite(4, 7), 7),
        (lambda: path_graph(9), 5),
    ],
)
def test_mis_known_values(build, expect):
    assert max_independent_set(build()).size == expect


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("budget", [3, 50, DEFAULT_SET_BUDGET])
def test_mis_matches_recursive_reference(seed, budget):
    for n, p in [(12, 0.2), (16, 0.3), (16, 0.5)]:
        g = gnp_graph(n, p, SeededRng(seed, f"mis-ref-{n}-{p}"))
        res = max_independent_set(g, budget=budget)
        assert (res.vertex_set.mask, res.status, res.nodes) == recursive_max_independent_set(g, budget)


@pytest.mark.parametrize("budget", [3, 50, 500])
def test_mis_matches_recursive_reference_200_deep(budget):
    g = disjoint_cycles(200, 3)
    res = max_independent_set(g, budget=budget)
    assert (res.vertex_set.mask, res.status, res.nodes) == recursive_max_independent_set(g, budget)


def test_set_searches_keep_their_stack_depth():
    # the searches go 300 deep with the interpreter held to a few dozen
    # frames above this test, so no frame may be spent per included vertex
    triangles, squares = disjoint_cycles(300, 3), disjoint_cycles(300, 4)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        mis = max_independent_set(triangles, budget=1000)
        ffree = max_f_free_subset(squares, cycle_graph(4), budget=1000)
    finally:
        sys.setrecursionlimit(limit)
    assert (mis.size, mis.status, mis.nodes) == (300, "lower-bound", 1001)
    assert (ffree.size, ffree.status, ffree.nodes) == (900, "lower-bound", 1001)


def test_mis_budget_exhaustion_is_labeled():
    g = gnp_graph(60, 0.1, SeededRng(2, "big"))
    res = max_independent_set(g, budget=30)
    assert res.status == "lower-bound"
    check_independent(g, sorted(res.vertex_set.members()))


# ---------------------------------------------------------------------------
# F-free subsets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "host,pattern,expect",
    [
        ("c5", "p3", 3),
        ("petersen", "k3", 10),
        ("k4", "k3", 2),
        ("c6", "p4", 4),
        ("k33", "c4", 4),
    ],
)
def test_ffree_known_values(host, pattern, expect):
    res = max_f_free_subset(named_graph(host), named_graph(pattern))
    assert res.status == "optimal"
    assert res.size == expect


@pytest.mark.parametrize("seed", SEEDS)
def test_ffree_matches_brute_force(seed):
    rng = SeededRng(seed, "ffree")
    g = gnp_graph(9, 0.45, rng.substream("host"))
    pattern = named_graph("p3") if seed % 2 else named_graph("k3")
    res = max_f_free_subset(g, pattern)
    assert res.size == brute_max_ffree(g, pattern)
    # returned set must itself be pattern-free
    sub = induced_subgraph(g, sorted(res.vertex_set.members()))
    assert not perm_contains(sub, pattern)


@pytest.mark.parametrize("seed", SEEDS)
def test_ffree_decision_search(seed):
    # at_least = k answers whether a pattern-free set of k vertices exists:
    # yes with such a set, no with the empty set and upper = k - 1
    rng = SeededRng(seed, "ffree-decide")
    n = 8 + seed % 4
    g = gnp_graph(n, 0.4, rng.substream("host"))
    pattern = named_graph(["k2", "p3", "k3", "c4", "c5"][seed % 5])
    opt = max_copy_free_size(n, copy_vertex_masks(g, pattern))
    for k in range(1, n + 2):
        res = max_f_free_subset(g, pattern, at_least=k)
        assert (res.size >= k) == (opt >= k), k
        assert res.size <= opt and res.upper >= opt
        if res.size < k:
            assert (res.size, res.status, res.upper) == (0, "lower-bound", k - 1)
        elif res.status == "optimal":
            assert res.size == opt
        sub = induced_subgraph(g, sorted(res.vertex_set.members()))
        assert not perm_contains(sub, pattern)


# ---------------------------------------------------------------------------
# k-cycle enumeration
# ---------------------------------------------------------------------------

def test_petersen_five_cycles():
    cycles, truncated = list_k_cycles(petersen_graph(), 5)
    assert not truncated
    assert len(cycles) == 12
    assert len(list_k_cycles(petersen_graph(), 5, through=0)[0]) == 6  # 12 * 5 / 10


def test_c6_six_cycles():
    cycles, truncated = list_k_cycles(cycle_graph(6), 6)
    assert len(cycles) == 1 and not truncated


def test_k4_triangles_through_vertex():
    assert len(list_k_cycles(complete_graph(4), 3, through=0)[0]) == 3


def test_list_k_cycles_through_filter():
    cycles, _ = list_k_cycles(petersen_graph(), 5, through=0)
    assert len(cycles) == 6
    assert all(0 in c for c in cycles)


def test_list_k_cycles_cap():
    cycles, truncated = list_k_cycles(complete_graph(8), 4, cap=5)
    assert truncated and len(cycles) == 5


@pytest.mark.parametrize("n", range(17))
def test_list_k_cycles_matches_recursive_reference(n):
    # same tuples, order and truncation as the DFS that tests each path's
    # end for closing, for every root choice and cap
    g = gnp_graph(n, 0.35, SeededRng(n, "cycle-list"))
    for k in range(3, 9):
        for through in [None, *range(n)]:
            for cap in (None, 1, 3, 17):
                assert list_k_cycles(g, k, through, cap) == recursive_list_k_cycles(g, k, through, cap)


def test_cycles_are_genuine():
    g = gnp_graph(12, 0.5, SeededRng(4, "cyc"))
    cycles, _ = list_k_cycles(g, 4)
    for cyc in cycles:
        for i in range(4):
            assert g.has_edge(cyc[i], cyc[(i + 1) % 4])
        assert len(set(cyc)) == 4


# ---------------------------------------------------------------------------
# Spencer deletion
# ---------------------------------------------------------------------------

def random_hypergraph(n, m, r, seed):
    rng = SeededRng(seed, "hg")
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(seeded_sample(rng, range(n), r))))
    return Hypergraph(n, sorted(edges), r)


@pytest.mark.parametrize("seed", SEEDS)
def test_spencer_output_is_independent(seed):
    h = random_hypergraph(60, 120, 3, seed)
    res = spencer_independent_set(h, SeededRng(seed, "sp"), trials=10)
    assert hypergraph_independence_violation(h, res.vertex_set.mask) is None
    assert res.size >= 1


def test_spencer_expectation_floor():
    h = random_hypergraph(100, 200, 3, 3)
    res = spencer_independent_set(h, SeededRng(0, "sp"), trials=50)
    n, k, m = 100, 3, 200
    bound = (2 / 3) * n * (n / (k * m)) ** (1 / (k - 1))
    assert res.expectation_bound >= bound - 1e-9
    assert res.size >= 26


@pytest.mark.parametrize("trials", [0, -1])
def test_spencer_refuses_no_trials(trials):
    h = random_hypergraph(50, 100, 3, 9)
    with pytest.raises(InputError) as exc:
        spencer_independent_set(h, SeededRng(5, "sp"), trials=trials)
    assert exc.value.witness == {"trials": trials}


def test_spencer_deterministic():
    h = random_hypergraph(50, 100, 3, 9)
    a = spencer_independent_set(h, SeededRng(5, "sp"), trials=8)
    b = spencer_independent_set(h, SeededRng(5, "sp"), trials=8)
    assert a.vertex_set.mask == b.vertex_set.mask


# ---------------------------------------------------------------------------
# dependent random choice
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_drc_clean_sets_verified(seed):
    g = gnp_graph(80, 0.3, SeededRng(seed, "drc-host"))
    xs, ys = list(range(40)), list(range(40, 80))
    res = dependent_random_choice(g, xs, ys, 2, SeededRng(seed, "drc"))
    assert res.status in ("ok", "target-missed")
    # clean set lives in Y; every pair has many common neighbors back in X
    members = sorted(res.vertex_set.members())
    assert set(members) <= set(ys)
    from itertools import combinations

    xmask = 0
    for x in xs:
        xmask |= 1 << x
    threshold = res.gamma * len(xs) * len(ys) ** (-1.0 / 2)
    for u, v in combinations(members, 2):
        codeg = (g.row(u) & g.row(v) & xmask).bit_count()
        assert codeg >= threshold


def test_drc_on_complete_bipartite_hits_target():
    g = complete_bipartite(20, 20)
    res = dependent_random_choice(g, list(range(20)), list(range(20, 40)), 3, SeededRng(1, "drc"))
    assert res.status == "ok"
    assert res.gamma == pytest.approx(1.0)
    assert res.size >= res.target


@pytest.mark.parametrize("retries", [0, -3])
def test_drc_refuses_no_retries(retries):
    g = complete_bipartite(20, 20)
    with pytest.raises(InputError) as exc:
        dependent_random_choice(g, range(20), range(20, 40), 3, SeededRng(1, "drc"), retries=retries)
    assert exc.value.witness == {"retries": retries}


def test_count_edges_between_ordered_pairs():
    g = complete_bipartite(3, 5)
    assert count_edges_between(g, range(3), range(3, 8)) == 15
    # overlapping sets count both orientations
    h = complete_graph(4)
    assert count_edges_between(h, [0, 1], [0, 1]) == 2


# ---------------------------------------------------------------------------
# dense pairs
# ---------------------------------------------------------------------------

def test_ckprop_levels_and_bounds():
    g = circulant_regular(64, range(1, 9))  # 16-regular
    res = ckprop_dense_pair(g, 0, 4)
    assert res.edges_between >= 1
    assert 0 < res.delta <= 1
    assert res.gamma == res.edges_between / (len(res.X) * len(res.Y))


def test_ckprop_frozen_circulant_values():
    g = circulant_regular(64, range(1, 9))
    res = ckprop_dense_pair(g, 0, 4)
    assert res.delta == pytest.approx(1008 / 16**3)
    assert (len(res.X), len(res.Y)) == (10, 15)
    assert res.gamma == pytest.approx(0.74)


def test_ckprop_requires_cycles():
    with pytest.raises(Exception):
        ckprop_dense_pair(path_graph(6), 0, 4)


# ---------------------------------------------------------------------------
# sunflowers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_sunflower_found_above_threshold(seed):
    rng = SeededRng(seed, "sun")
    t, m = 2, 3
    family = []
    seenset = set()
    # more than t! (m - 1)^t sets of size t hold an m-petal sunflower
    while len(family) < math.factorial(t) * (m - 1) ** t + 1:
        s = frozenset(seeded_sample(rng, range(12), t))
        if s not in seenset:
            seenset.add(s)
            family.append(set(s))
    flower = erdos_rado_sunflower(family, m)
    assert flower is not None
    validate_sunflower(family, flower, m)


def test_sunflower_agrees_with_exhaustive_absence():
    # pairwise-overlapping family with no common core: below threshold, absent
    family = [{0, 1}, {1, 2}, {2, 0}]
    assert erdos_rado_sunflower(family, 3) is None
    assert find_any_sunflower(family, 3) is None


def test_sunflower_result_validated_when_oracle_finds_one():
    family = [{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5}]
    flower = erdos_rado_sunflower(family, 3)
    oracle = find_any_sunflower(family, 3)
    assert oracle is not None
    assert flower is not None
    validate_sunflower(family, flower, 3)


def test_disjoint_sets_form_sunflower_with_empty_core():
    family = [{i, i + 100} for i in range(9)]
    flower = erdos_rado_sunflower(family, 4)
    assert flower is not None
    assert flower.core == set()
    validate_sunflower(family, flower, 4)
