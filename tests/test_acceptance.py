"""Acceptance suite: one test per release criterion, each with a wall-clock
budget.  Every test prints a single PASS line (label, elapsed, limit) so a
plain run reads as a checklist; a failed assertion or a blown budget shows
up as the usual pytest failure for that criterion.
"""

import itertools
import random
import time

import numpy as np
import pytest

from erdos_rogers import (
    Hypergraph,
    SeededRng,
    brute_force_f,
    ckfree_subset,
    complete_bipartite,
    contains_subgraph,
    dependent_random_choice,
    efr_certificate,
    efr_hypergraph,
    erdos_rado_sunflower,
    graph_to_text,
    hypergraph_girth_at_least,
    hypergraph_independence_violation,
    hypergraph_is_linear,
    hypergraph_is_triangle_free,
    induced_subgraph,
    is_hom_free,
    list_k_cycles,
    named_graph,
    petersen_graph,
    ramsey_witness_check,
    random_girth_hypergraph,
    spencer_independent_set,
    theorem1_build,
    theorem4_part2_build,
    validate_sunflower,
)

from oracles import (
    bipartite_gnp,
    blowup_graph,
    blowup_hom_oracle,
    count_triangles,
    gnp_graph,
    hypergraph_independent,
    perm_contains,
)


class Budget:
    """Timer that reports one PASS line when the body finishes in time."""

    def __init__(self, capsys, label, limit_s):
        self.capsys = capsys
        self.label = label
        self.limit = limit_s
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, (
            f"{self.label}: exceeded budget ({elapsed:.1f}s >= {self.limit}s)"
        )
        with self.capsys.disabled():
            print(f"\n{self.label}: PASS ({elapsed:.2f}s, limit {self.limit:.0f}s)")


def scan_triangle(g):
    # row intersection over every edge: exhaustive, independent of
    # triangle_witness's traversal order
    for u, v in g.edges():
        if g.row(u) & g.row(v):
            return True
    return False


def test_criterion_01_efr_audit_grid(capsys):
    budget = Budget(capsys, "criterion 01 efr audit grid", 30)
    grid = [(2, 5, 3), (2, 10, 4), (3, 3, 3), (2, 25, 5)]
    edge_counts = {}
    for d, r, R in grid:
        inst = efr_hypergraph(d, r, R)
        h = inst.hypergraph
        assert hypergraph_is_linear(h).passed
        assert hypergraph_is_triangle_free(h).passed
        assert h.m == len(inst.sphere) * r**d
        edge_counts[(d, r, R)] = h.m
    assert edge_counts[(2, 5, 3)] == 2 * 25 == 50
    assert edge_counts[(2, 25, 5)] == 4 * 625 == 2500
    budget.done()


def test_criterion_02_sphere_full_scan(capsys):
    budget = Budget(capsys, "criterion 02 sphere full scan", 10)
    from erdos_rogers import sphere_points

    sq = np.arange(1, 61, dtype=np.int32) ** 2
    sums = None
    for d in range(1, 5):
        sums = sq if sums is None else sums[..., None] + sq
        counts = np.bincount(sums.ravel(), minlength=60 * 60 * 4 + 1)
        for r in range(1, 61):
            pts = list(sphere_points(d, r))
            # sorted without repeats, on the sphere, strictly positive:
            # together with the count this pins the exact point set
            assert pts == sorted(set(pts))
            for p in pts:
                assert len(p) == d and min(p) >= 1
                assert sum(c * c for c in p) == r * r
            assert len(pts) == int(counts[r * r]), (d, r)
    assert [p for p in sphere_points(2, 5)] == [(3, 4), (4, 3)]
    assert list(sphere_points(2, 4)) == []
    assert len(list(sphere_points(3, 3))) == 3
    budget.done()


def test_criterion_03_theorem1_triangle_scan(capsys):
    budget = Budget(capsys, "criterion 03 theorem1 triangle scan", 60)
    patterns = [named_graph("k2"), named_graph("c5"), complete_bipartite(2, 2)]
    runs = 0
    for d, r, R in [(2, 5, 3), (2, 25, 5)]:
        for pi, pattern in enumerate(patterns):
            for seed in range(5):
                g, cert = theorem1_build(d, r, R, pattern, SeededRng(seed, f"acc3-{pi}"))
                assert not scan_triangle(g)
                assert cert.passed("triangle_free")
                if g.n <= 60:
                    assert count_triangles(g) == 0
                runs += 1
    assert runs == 30
    budget.done()


def random_triple_system(seed, n=100, m=200):
    r = random.Random(seed)
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(r.sample(range(n), 3))))
    return Hypergraph(n, sorted(edges), 3)


def test_criterion_04_spencer_floor(capsys):
    budget = Budget(capsys, "criterion 04 spencer floor", 30)
    floor = 26  # 0.95 * (2/3) * 100 / sqrt(6) = 25.86...
    for i in range(20):
        h = random_triple_system(900 + i)
        res = spencer_independent_set(h, SeededRng(i, "acc4"), trials=50)
        assert res.size >= floor, (i, res.size)
        members = list(res.vertex_set.members())
        assert hypergraph_independent(h, members)
        assert hypergraph_independence_violation(h, res.vertex_set.mask) is None
    budget.done()


def test_criterion_05_drc_audit(capsys):
    budget = Budget(capsys, "criterion 05 drc audit", 60)
    statuses = {"ok": 0, "target-missed": 0}
    xs = list(range(200))
    ys = list(range(200, 400))
    xmask = (1 << 200) - 1
    for i in range(50):
        g = bipartite_gnp(200, 200, 0.3, SeededRng(500 + i, "acc5-g"))
        res = dependent_random_choice(g, xs, ys, 3, SeededRng(i, "acc5"))
        members = list(res.vertex_set.members())
        assert all(v >= 200 for v in members)
        threshold = res.gamma * len(xs) * len(ys) ** (-1.0 / 3)
        for u, v in itertools.combinations(members, 2):
            assert (g.row(u) & g.row(v) & xmask).bit_count() >= threshold
        statuses[res.status] += 1
    assert sum(statuses.values()) == 50
    budget.done()


def test_criterion_06_sunflower_totality(capsys):
    budget = Budget(capsys, "criterion 06 sunflower totality", 20)
    pair_pool = list(itertools.combinations(range(24), 2))
    for i in range(1000):
        fam = [set(s) for s in random.Random(i).sample(pair_pool, 9)]
        flower = erdos_rado_sunflower(fam, 3)
        assert flower is not None
        validate_sunflower(fam, flower, 3)
    triple_pool = list(itertools.combinations(range(20), 3))
    for i in range(200):
        fam = [set(s) for s in random.Random(5000 + i).sample(triple_pool, 49)]
        flower = erdos_rado_sunflower(fam, 3)
        assert flower is not None
        validate_sunflower(fam, flower, 3)
    budget.done()


def test_criterion_07_hom_oracle_equivalence(capsys):
    budget = Budget(capsys, "criterion 07 hom oracle equivalence", 60)
    ok, _ = is_hom_free(named_graph("c5"), named_graph("k3"))
    assert ok is True
    ok, mapping = is_hom_free(named_graph("k3"), named_graph("c5"))
    assert ok is False and mapping is not None
    for i in range(500):
        r = SeededRng(i, "acc7")
        f = gnp_graph(1 + r.randrange(5), r.random(), r.substream("f"))
        g = gnp_graph(1 + r.randrange(5), r.random(), r.substream("g"))
        mine, _ = is_hom_free(f, g)
        assert mine == blowup_hom_oracle(f, g), (i, f.edges(), g.edges())
    budget.done()


def k4free_inputs():
    graphs = [petersen_graph()]
    for b in (2, 3, 4):
        graphs.append(blowup_graph(named_graph("c5"), [b] * 5))
    i = 0
    while len(graphs) < 20:
        a = 40 + 5 * (i % 4)
        b = 40 + 5 * ((i + 1) % 4)
        graphs.append(bipartite_gnp(a, b, 0.12 + 0.02 * (i % 3), SeededRng(100 + i, "acc8-in")))
        i += 1
    return graphs


def test_criterion_08_ckfree_pipeline(capsys):
    budget = Budget(capsys, "criterion 08 ckfree pipeline", 120)
    for idx, g in enumerate(k4free_inputs()):
        floor = -(g.n // -(g.max_degree() + 1))
        for k in (3, 4, 5):
            res, cert = ckfree_subset(g, k, SeededRng(7 * idx + k, "acc8"))
            assert len(res) >= floor, (idx, k, len(res), floor)
            sub = induced_subgraph(g, list(res.members()))
            cycles, truncated = list_k_cycles(sub, k)
            assert not truncated
            assert cycles == [], (idx, k)
    budget.done()


FIVE_PATTERNS = ["k2", "p3", "k3", "c4", "c5"]


def test_criterion_09_brute_force_table(capsys):
    budget = Budget(capsys, "criterion 09 brute force table", 600)
    k2, k3 = named_graph("k2"), named_graph("k3")
    assert brute_force_f(k2, k3, 2).value == 1
    assert brute_force_f(k2, k3, 5).value == 2
    eight = brute_force_f(k2, k3, 8)
    assert eight.value == 3 and eight.exact

    table = {}
    for fn in FIVE_PATTERNS:
        for gn in FIVE_PATTERNS:
            for n in range(1, 7):
                res = brute_force_f(named_graph(fn), named_graph(gn), n)
                assert res.exact
                table[(fn, gn, n)] = res.value

    for fn in FIVE_PATTERNS:
        for gn in FIVE_PATTERNS:
            for n in range(1, 6):
                assert table[(fn, gn, n)] <= table[(fn, gn, n + 1)], (fn, gn, n)

    # F' containing F as a subgraph only loosens the freeness constraint
    for fa, fb in itertools.permutations(FIVE_PATTERNS, 2):
        if not perm_contains(named_graph(fb), named_graph(fa)):
            continue
        for gn in FIVE_PATTERNS:
            for n in range(1, 7):
                assert table[(fa, gn, n)] <= table[(fb, gn, n)], (fa, fb, gn, n)
    budget.done()


def test_criterion_10_theorem4_part2(capsys):
    budget = Budget(capsys, "criterion 10 theorem4 part2", 120)
    for gname in ("c4", "c5"):
        g = named_graph(gname)
        r = g.n - 1
        for t in (30, 40):
            for seed in range(5):
                h, params = random_girth_hypergraph(t, r, SeededRng(seed, f"acc10-{gname}-{t}"))
                assert hypergraph_girth_at_least(h, r + 2).passed
                built, cert = theorem4_part2_build(g, t, SeededRng(seed, f"acc10b-{gname}-{t}"))
                assert cert.passed("girth") and cert.passed("pattern_absent")
                assert contains_subgraph(built, g).status == "absent"
    budget.done()


def test_criterion_11_ramsey_witness(capsys):
    budget = Budget(capsys, "criterion 11 ramsey witness", 1)
    cert = ramsey_witness_check(named_graph("c5"), named_graph("k2"), named_graph("k3"), 3, 3)
    assert cert.passed("g_free")
    assert cert.passed("independence_below_t")
    assert cert.passed("f_free_below_ramsey")
    assert cert.all_passed()
    budget.done()


def test_criterion_12_determinism(capsys):
    budget = Budget(capsys, "criterion 12 determinism", 120)

    def t1():
        g, cert = theorem1_build(2, 5, 3, named_graph("c5"), SeededRng(7, "det"))
        return graph_to_text(g), cert.to_json_bytes()

    assert t1() == t1()

    def efr():
        return efr_certificate(efr_hypergraph(2, 5, 3)).to_json_bytes()

    assert efr() == efr()

    def spencer():
        res = spencer_independent_set(random_triple_system(901), SeededRng(3, "det"), trials=50)
        return res.vertex_set.mask, res.expectation_bound

    assert spencer() == spencer()

    def drc():
        g = bipartite_gnp(200, 200, 0.3, SeededRng(501, "det-g"))
        res = dependent_random_choice(g, list(range(200)), list(range(200, 400)), 3, SeededRng(3, "det"))
        return res.vertex_set.mask, res.status, res.gamma, res.target

    assert drc() == drc()

    def ck():
        res, cert = ckfree_subset(petersen_graph(), 5, SeededRng(11, "det"))
        return res.mask, cert.to_json_bytes()

    assert ck() == ck()

    def t4():
        built, cert = theorem4_part2_build(named_graph("c4"), 30, SeededRng(5, "det"))
        return graph_to_text(built), cert.to_json_bytes()

    assert t4() == t4()

    def gh():
        h, params = random_girth_hypergraph(40, 3, SeededRng(2, "det"))
        return h.edges, tuple(sorted(vars(params).items()))

    assert gh() == gh()

    def rw():
        return ramsey_witness_check(
            named_graph("c5"), named_graph("k2"), named_graph("k3"), 3, 3
        ).to_json_bytes()

    assert rw() == rw()
    budget.done()
