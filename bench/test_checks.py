"""Each output check must reject a known-bad output and accept a good one.

    python3 -m pytest bench/test_checks.py
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from erdos_rogers import Graph, cycle_graph, graph_to_text, petersen_graph  # noqa: E402

C5 = (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K4 = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def text(n, edges):
    return graph_to_text(Graph(n, edges)).encode()


def test_triangle_scan():
    assert checks.find_triangle(*C5) is None
    assert checks.find_triangle(5, C5[1] + [(0, 2)]) is not None


def test_cycle_scan_finds_c4_and_c5_copies():
    assert checks.find_cycle(*K4, 4) is not None
    assert checks.find_cycle(*C5, 4) is None
    assert checks.find_cycle(*C5, 5) is not None
    # a C5 plus a chord holds a C4 copy, but not among the chord-free vertices
    chorded = C5[1] + [(0, 2)]
    assert checks.find_cycle(5, chorded, 4) is not None
    assert checks.find_cycle(5, chorded, 4, within=[0, 1, 2, 3]) is None
    assert checks.find_cycle(5, chorded, 3, within=[0, 1, 2]) is not None


def test_copy_enumeration_and_free_subsets():
    assert len(checks.copy_masks(*K4, checks.PATTERNS["c4"])) == 1
    assert checks.has_copy(*C5, checks.PATTERNS["p3"])
    assert not checks.has_copy(*C5, checks.PATTERNS["p3"], within=[0, 1, 3])
    # Petersen: largest induced C5-free set has 7 vertices
    pet = petersen_graph()
    masks = checks.copy_masks(pet.n, pet.edges(), checks.PATTERNS["c5"])
    assert checks.max_free_subset_size(pet.n, masks) == 7


def test_independence_number():
    pet = petersen_graph()
    assert checks.independence_number(pet.n, pet.edges()) == 4
    assert checks.independence_number(*C5) == 2
    assert checks.independence_number(3, []) == 3


def test_efr_counts_and_linearity():
    assert checks.sphere_direction_count(2, 5) == 2
    assert checks.sphere_direction_count(2, 65) == 8
    edges = checks.efr_edges(2, 5, 3)
    assert len(edges) == 2 * 25
    assert checks.shared_vertex_pair(edges) is None
    assert checks.shared_vertex_pair([(0, 1, 2), (1, 2, 3)]) == (1, 2)
    assert checks.edge_between_disjoint([(0, 1)], [(0, 1), (2, 3)]) == (0, 1)
    assert checks.edge_between_disjoint([(0, 1)], [(0, 1), (1, 3)]) is None


def test_clone_graph_edge_count():
    assert checks.clone_graph_edge_count(checks.PATTERNS["c4"]) == 2
    assert checks.clone_graph_edge_count(checks.PATTERNS["c5"]) == 4


def test_oracle_check():
    c5 = [list(e) for e in C5[1]]
    good = {"exact": True, "level_counts": [1, 2, 3, 7, 14], "witness_edges": c5}
    assert checks.oracle_failures("k2", "k3", 5, 2, good) == []
    off_by_one = dict(good, level_counts=[1, 2, 3, 7, 15])
    assert checks.oracle_failures("k2", "k3", 5, 2, off_by_one)
    inexact = dict(good, exact=False)
    assert checks.oracle_failures("k2", "k3", 5, 2, inexact)
    # wrong value: the witness has an independent set of 2, not 1
    assert checks.oracle_failures("k2", "k3", 5, 1, good)
    # a witness whose largest F-free set exceeds the value
    empty = dict(good, witness_edges=[])
    assert any("largest" in p for p in checks.oracle_failures("k2", "k3", 5, 2, empty))
    # a witness that contains G
    triangle = dict(good, witness_edges=c5 + [[0, 2]])
    assert any("contains k3" in p for p in checks.oracle_failures("p3", "k3", 5, 2, triangle))


def test_theorem1_job_rejects_a_triangle():
    job = workloads._construct_theorem1(2, 5, 3, "c5", 1)
    out = job.run()
    assert job.check(out) == []
    n, edges = checks.parse_graph(out["instance"])
    u, v = edges[0]
    w = next(x for x in range(n) if x not in (u, v))
    bad = dict(out, instance=text(n, edges + [(u, w), (v, w)]))
    assert any("triangle" in p for p in job.check(bad))


def test_theorem4_part2_job_rejects_a_pattern_copy():
    job = workloads._construct_theorem4_part2("c4", 40, 2)
    out = job.run()
    assert job.check(out) == []
    n, edges = checks.parse_graph(out["instance"])
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    bad = dict(out, instance=text(n, sorted(set(edges) | set(square))))
    assert any("copy of c4" in p for p in job.check(bad))


def test_theorem4_part1_job_rejects_a_c5_and_a_wrong_independence_number():
    job = workloads._construct_theorem4_part1("c5", "k2", 20, 3, 10, 1)
    out = job.run()
    assert job.check(out) == []
    n, edges = checks.parse_graph(out["instance"])
    pentagon = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    problems = job.check(dict(out, instance=text(n, edges + pentagon)))
    assert any("copy of c5" in p for p in problems)
    assert any("independence number" in p for p in problems)


def test_max_ffree_job_rejects_a_set_with_a_copy():
    host = cycle_graph(5)
    job = workloads._search_max_ffree("c5", host, "c4")
    out = job.run()
    assert job.check(out) == []
    job = workloads._search_max_ffree("c5", host, "p3")
    wrong = {"stdout": b"4 optimal\nset=[0, 1, 2, 3]\n"}
    problems = job.check(wrong)
    assert any("copy of p3" in p for p in problems)
    assert job.check({"stdout": b"2 lower-bound\nset=[0, 2]\n"})
    # the largest induced P3-free set of C5 has 3 vertices, not 2
    job = workloads._search_max_ffree("c5", host, "p3", exhaustive=True)
    assert any("exhaustive" in p for p in job.check({"stdout": b"2 optimal\nset=[0, 2]\n"}))


def test_ckfree_job_rejects_an_induced_cycle():
    host = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5)])
    job = workloads._pipeline_ckfree("h", host, 5, 1)
    assert job.check(job.run()) == []
    assert job.check({"stdout": b"size=5\nset=[0, 1, 2, 3, 4]\n", "cert": b"{}"})
    assert job.check({"stdout": b"size=1\nset=[5]\n", "cert": b"{}"})
