import gc
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import pytest

import erdos_rogers

from erdos_rogers import (
    InputError,
    SeededRng,
    brute_force_f,
    ckfree_subset,
    clone_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    efr_hypergraph,
    erdos_rado_sunflower,
    gfree_graph_reps,
    graph_to_text,
    ksfree_recursion,
    line_intersection_graph,
    list_k_cycles,
    named_graph,
    path_graph,
    petersen_graph,
    ramsey_witness_check,
    random_girth_hypergraph,
    theorem1_build,
    theorem4_part1_build,
    theorem4_part2_build,
)
from erdos_rogers.graphs import Graph, induced_subgraph, triangle_witness
from erdos_rogers.hypergraphs import hypergraph_girth_at_least
from erdos_rogers import pipelines
from erdos_rogers.pipelines import _unrank_subset, canonical_form, sunflower_budget
from erdos_rogers.subgraph import contains_subgraph
from oracles import (
    complete_multipartite,
    full_search_brute_force_f,
    gnp_graph,
    islice_subsets,
    perm_contains,
    unpruned_gfree_graph_reps,
)

SEEDS = [0, 1, 2, 3, 4]


def bipartite_circulant(half, deg):
    # 2*half vertices, left i meets right half + ((i + j) % half); K4-free
    edges = [(i, half + (i + j) % half) for i in range(half) for j in range(deg)]
    return Graph(2 * half, edges)


# ---------------------------------------------------------------------------
# theorem1_build
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_theorem1_triangle_free(seed):
    g, cert = theorem1_build(2, 5, 3, named_graph("c5"), SeededRng(seed, "t1"))
    assert triangle_witness(g) is None
    assert cert.passed("triangle_free")
    assert cert.measurements["declared_n"] == 350


def test_theorem1_rejects_triangle_pattern():
    with pytest.raises(InputError):
        theorem1_build(2, 5, 3, complete_graph(3), SeededRng(0, "t1"))


def test_theorem1_rejects_edgeless_pattern():
    with pytest.raises(InputError):
        theorem1_build(2, 5, 3, Graph(3, []), SeededRng(0, "t1"))


def test_theorem1_deterministic():
    a, ca = theorem1_build(2, 5, 3, named_graph("k2"), SeededRng(3, "t1"))
    b, cb = theorem1_build(2, 5, 3, named_graph("k2"), SeededRng(3, "t1"))
    assert list(a.edges()) == list(b.edges())
    assert ca.to_json_bytes() == cb.to_json_bytes()


def test_theorem1_k2_blowup_measurement():
    g, cert = theorem1_build(2, 5, 3, named_graph("k2"), SeededRng(0, "t1"), ffree_budget=10**6)
    measured = cert.measurements["max_pattern_free"]
    assert measured["status"] == "optimal"
    assert measured["size"] >= g.n // 2


# sha256 of graph_to_text(g) and of the certificate bytes of theorem1_build
# with SeededRng(5, "pin"); the blowup must not change with its data layout
THEOREM1_SHA256 = {
    ((2, 5, 3), "k2"): (
        "ad85fad08a2dd7835ab4c5b068c4378c721bbd5dae9b7927f37376e3c86a7572",
        "988d4ae19019f7bbab4d1269dfbc5c9d063f4150a27076cfe15280a4e9b5418c",
    ),
    ((2, 5, 3), "c5"): (
        "b5a8aa2d14daa9a307f939e2020c49794a7c0fd4a683a5f2fb0cac7ff4e95eb6",
        "745c699f3b0b650f8954def0aeae88e83ef9a650ba4f838f6b8513a7cc5aa942",
    ),
    ((2, 5, 3), "c4"): (
        "ad85fad08a2dd7835ab4c5b068c4378c721bbd5dae9b7927f37376e3c86a7572",
        "8fb1b91ce5c3b615360bc60b3fd97716d4f360303135bad4f396cc28cd783488",
    ),
    ((2, 25, 5), "k2"): (
        "470483d155824feb61e2436d0d0eb8a9d781bb8f12b3e069e10a3250e67c5383",
        "67ed983e89fb46118ea13d8d736d4c4d2cd812ea61956601df8bf249913fa502",
    ),
    ((2, 25, 5), "c5"): (
        "4d3d814604c6beadf5054cd32e1503887c134290c27b358f6dc537a9e74c91c6",
        "08cb691e9f2e7a9b191fe366d944a10529b678d4da2c10a0c8e321c8082ddec5",
    ),
    ((2, 25, 5), "c4"): (
        "470483d155824feb61e2436d0d0eb8a9d781bb8f12b3e069e10a3250e67c5383",
        "b304df45b5dc5faa08758d5929b2089843645444d1ef964a753db6519b9a5488",
    ),
}


@pytest.mark.parametrize("params,f", sorted(THEOREM1_SHA256))
def test_theorem1_bytes_pinned(params, f):
    g, cert = theorem1_build(*params, named_graph(f), SeededRng(5, "pin"))
    graph_sha, cert_sha = THEOREM1_SHA256[(params, f)]
    assert hashlib.sha256(graph_to_text(g).encode()).hexdigest() == graph_sha
    assert hashlib.sha256(cert.to_json_bytes()).hexdigest() == cert_sha
    # the blowup, its triangle audit and its text walk the edge tuple only
    assert g._rows is None
    line, cover = line_intersection_graph(efr_hypergraph(*params).hypergraph)
    assert cert.measurements["line_graph_edges"] == line.m
    assert cert.measurements["cover_cliques"] == len(cover.cliques)


try:
    import resource
except ImportError:
    resource = None

# on Linux a child keeps its parent's ru_maxrss across exec, so the test
# runner's own peak would count; VmHWM is the probe's own high-water mark
PEAK_RSS_READING = """
try:
    with open("/proc/self/status") as fh:
        print(next(int(line.split()[1]) / 1024 for line in fh if line.startswith("VmHWM:")))
except OSError:
    unit = 1 << 20 if sys.platform == "darwin" else 1 << 10
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit)
"""

PEAK_RSS_PROBE = """
import hashlib, resource, sys
from erdos_rogers import SeededRng, graph_to_text, named_graph, theorem1_build
g, cert = theorem1_build(2, 65, 6, named_graph("c5"), SeededRng(1, "theorem1"))
""" + PEAK_RSS_READING + """
print(hashlib.sha256(graph_to_text(g).encode()).hexdigest())
print(hashlib.sha256(cert.to_json_bytes()).hexdigest())
"""

# the efr job of the benchmark at the same size: build, audit, write
EFR_PEAK_RSS_PROBE = """
import hashlib, resource, sys
from erdos_rogers.efr import efr_certificate, efr_hypergraph
from erdos_rogers.hypergraphs import hypergraph_to_text
inst = efr_hypergraph(2, 65, 6)
cert = efr_certificate(inst)
text = hypergraph_to_text(inst.hypergraph)
""" + PEAK_RSS_READING + """
print(hashlib.sha256(text.encode()).hexdigest())
print(hashlib.sha256(cert.to_json_bytes()).hexdigest())
"""

# sha256 of graph_to_text and of the certificate bytes of the probe's build,
# the referee-size theorem-1 instance (33,800 vertices)
THEOREM1_REFEREE_SHA256 = (
    "0eb0b8534ad6480b1df31b1a58b7604c2132990fd1f94483e42239c02a4ce8f3",
    "7a0d7562a418c7435608a70219d89b6f8bc2a179550ecf3019fb2dc7e83c7b71",
)

# sha256 of hypergraph_to_text and of the efr_certificate bytes at (2,65,6)
EFR_REFEREE_SHA256 = (
    "3a0a37998c1ed59608d1e4e17f93d573d5ac164e263d795a8e9c4521614b77b9",
    "3324238c3975c8eba6c51e140eef795a262919cb043d676d977afd2f4739707a",
)


def _probe(code):
    """(VmHWM in MB, output sha256s) of the probe run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(erdos_rogers.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    peak_mb, *shas = out.stdout.split()
    return float(peak_mb), tuple(shas)


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_theorem1_peak_memory():
    # 33,800 hyperedges: the output graph keeps its 97,168 edges and builds
    # no rows, the hypergraph is gone before the blowup, and the build
    # peaked at 34.4-34.6 MB on Python 3.10.13, 39.1-39.3 MB on 3.11.7 and
    # 37.1 MB on 3.12.1 (the bound is the largest plus 20%);
    # 33,800-bit rows for the output alone would add about 100 MB
    peak_mb, shas = _probe(PEAK_RSS_PROBE)
    assert peak_mb < 47.1
    assert shas == THEOREM1_REFEREE_SHA256


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_efr_peak_memory():
    # 33,800 edges on 384,475 declared vertices, 98,575 of them used: one
    # int object per vertex id and one flat incidence for the triangle
    # audit; the job peaked at 34.6-34.7 MB on Python 3.10.13, 39.4-39.5 MB
    # on 3.11.7 and 37.2 MB on 3.12.1 (the bound is the largest plus 20%)
    peak_mb, shas = _probe(EFR_PEAK_RSS_PROBE)
    assert peak_mb < 47.3
    assert shas == EFR_REFEREE_SHA256


# ---------------------------------------------------------------------------
# ckfree branches
# ---------------------------------------------------------------------------

def check_no_k_cycle(g, members, k):
    sub = induced_subgraph(g, sorted(members))
    cycles, _ = list_k_cycles(sub, k, cap=1)
    assert not cycles


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_ckfree_low_degree_inputs(k, seed):
    g = petersen_graph() if seed == 0 else gnp_graph(24, 0.12, SeededRng(seed, "in"))
    vs, cert = ckfree_subset(g, k, SeededRng(seed, "ck"))
    check_no_k_cycle(g, vs.members(), k)
    assert len(vs) >= cert.measurements["turan_floor"] if "turan_floor" in cert.measurements else len(vs) >= 1


def test_ckfree_rejects_k4():
    with pytest.raises(InputError) as exc:
        ckfree_subset(complete_graph(5), 4, SeededRng(0, "ck"))
    assert exc.value.witness is not None


def test_ckfree_neighborhood_branch():
    g = complete_bipartite(20, 20)
    vs, cert = ckfree_subset(g, 4, SeededRng(1, "ck"))
    assert cert.measurements["degree_case"] == "neighborhood"
    assert cert.measurements["branch"] == "neighborhood_star"
    assert len(vs) == 21
    check_no_k_cycle(g, vs.members(), 4)


def test_ckfree_middle_branch_spencer_route():
    g = bipartite_circulant(32, 16)
    vs, cert = ckfree_subset(g, 4, SeededRng(0, "ck"))
    assert cert.measurements["degree_case"] == "middle"
    assert "cycle_spencer" in cert.measurements["candidate_sizes"]
    check_no_k_cycle(g, vs.members(), 4)
    # the paper's dense-pair step needs delta >= cutoff = n^(-1/25) >= 1/2
    density = cert.measurements["cycle_density"]
    assert density["delta"] < 0.5 <= density["cutoff"]


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("seed", SEEDS[:4])
def test_k_cycles_through_a_vertex_bound(k, seed):
    # the bound behind delta < 1/2: after v and a neighbour (d ways) each
    # later step has d - 1 ways, and each cycle is walked in two directions;
    # triangles in a clique (seed 0) attain it
    g = complete_graph(7) if seed == 0 else gnp_graph(14, 0.45, SeededRng(seed, "cyc"))
    d = g.max_degree()
    cycles, truncated = list_k_cycles(g, k)
    assert cycles and not truncated
    per_vertex = [0] * g.n
    for c in cycles:
        for u in c:
            per_vertex[u] += 1
    assert 2 * max(per_vertex) <= d * (d - 1) ** (k - 2)


def test_ckfree_no_cycles_shortcut():
    g = path_graph(8)
    vs, cert = ckfree_subset(g, 4, SeededRng(0, "ck"))
    assert len(vs) == 8
    assert cert.measurements["branch"] == "whole_set"


def test_ckfree_turan_floor_respected():
    g = gnp_graph(30, 0.15, SeededRng(2, "in"))  # seed chosen K4-free
    vs, cert = ckfree_subset(g, 5, SeededRng(5, "ck"))
    davg = 2 * g.m / g.n
    assert len(vs) >= math.ceil(g.n / (davg + 1))


# sha256 of the chosen set (JSON list of its members) and of the
# certificate bytes, for the branches the benchmark's low-degree ckfree
# jobs never take and for one K_s-free recursion
CKFREE_SHA256 = {
    "middle": (
        "02631793446ba2fdec361263e03697504cacc7f408974ff620ae7843df37b843",
        "e78531cb13d774c1cad26d3629025376da169b9d013cb49c9c7107412cb9d827",
    ),
    "neighborhood": (
        "337a9f90641751195e850c8c9f0f7d7bc17c6e46b8c20e20b692dbe043e61d77",
        "3bdeb7fde4f0041c25e44c9d30bc97b25b52f1d1d964389f22d46e6376857055",
    ),
    "no-k-cycles": (
        "809d533fc370950a0e8c21b32c9e303611bc2ea742fe8532180a1ce64075835f",
        "165d10f78de674432c28a00a8036486d54c42307adb7480e0fb97a1ccdc4de78",
    ),
    "edgeless": (
        "b0229c06acf4d5c98db175d4d054cd39e7fff51d8c37754b4a4b424f7967710d",
        "cf8b3f20b79411083be2031dc42efada66696bec58418ee716ca05f3a5d8df87",
    ),
    "ksfree-recursion": (
        "aa246b9ef9eafbe73c80d3dc027bcf3a26e2a3777aa0b38f02c9a1c9cc792a3f",
        "ff503acb884a4abd0f21a105f90e691e749c4db9412dbfc172538486f2e3882f",
    ),
}


@pytest.mark.parametrize("case", list(CKFREE_SHA256))
def test_ckfree_bytes_pinned(case):
    if case == "ksfree-recursion":
        vs, cert = ksfree_recursion(complete_multipartite([5, 5, 5, 5]), 5, 3, SeededRng(0, "ks"))
    else:
        g = {
            "middle": lambda: bipartite_circulant(32, 16),
            "neighborhood": lambda: complete_bipartite(20, 20),
            "no-k-cycles": lambda: path_graph(8),
            "edgeless": lambda: Graph(6),
        }[case]()
        vs, cert = ckfree_subset(g, 4, SeededRng(1 if case == "neighborhood" else 0, "ck"))
        assert cert.measurements["degree_case"] == case
    set_sha, cert_sha = CKFREE_SHA256[case]
    assert hashlib.sha256(json.dumps(sorted(vs.members())).encode()).hexdigest() == set_sha
    assert hashlib.sha256(cert.to_json_bytes()).hexdigest() == cert_sha


def test_k_cycle_audit_past_its_budget_is_refused_not_passed(monkeypatch):
    # the whole Petersen graph is C4-free; certifying that walks 100
    # placements, so a budget of 50 leaves the audit undecided
    g = petersen_graph()
    assert contains_subgraph(g, cycle_graph(4), budget=math.inf).nodes == 100
    monkeypatch.setattr(pipelines, "K_CYCLE_AUDIT_BUDGET", 50)
    with pytest.raises(InputError, match="could not certify absence of C4 within budget"):
        ckfree_subset(g, 4, SeededRng(0, "ck"))
    monkeypatch.setattr(pipelines, "K_CYCLE_AUDIT_BUDGET", 100)
    vs, cert = ckfree_subset(g, 4, SeededRng(0, "ck"))
    assert (cert.measurements["branch"], len(vs)) == ("whole_set", 10)


# ---------------------------------------------------------------------------
# ksfree recursion
# ---------------------------------------------------------------------------

def test_ksfree_delegates_when_already_sparse():
    g = complete_bipartite(6, 6)  # K3-free, so K4-free too
    vs, cert = ksfree_recursion(g, 5, 3, SeededRng(0, "ks"))
    assert cert.measurements["trace"][0]["action"] == "delegate"
    check_no_k_cycle(g, vs.members(), 3)


def test_ksfree_descends_on_multipartite():
    g = complete_multipartite([5, 5, 5, 5])
    vs, cert = ksfree_recursion(g, 5, 3, SeededRng(0, "ks"))
    assert len(vs) == 6
    check_no_k_cycle(g, vs.members(), 3)
    actions = [step["action"] for step in cert.measurements["trace"]]
    assert "descend" in actions


def test_ksfree_rejects_ks():
    with pytest.raises(InputError):
        ksfree_recursion(complete_graph(6), 5, 3, SeededRng(0, "ks"))


def test_ksfree_requires_s_at_least_4():
    with pytest.raises(InputError):
        ksfree_recursion(cycle_graph(5), 3, 3, SeededRng(0, "ks"))


def test_recursive_extractors_leave_no_reference_cycles():
    # the ksfree descent and the sunflower extraction recurse through
    # module-level helpers, so a call leaves nothing for the cyclic collector,
    # whether it descends, delegates, finds a flower with a core or none;
    # nor does the EFR build, whose sphere scan is one loop over heads
    ksfree_recursion(complete_bipartite(6, 6), 5, 3, SeededRng(0, "ks"))  # fill the plan cache
    gc.collect()
    gc.disable()
    try:
        assert len(ksfree_recursion(complete_multipartite([5, 5, 5, 5]), 5, 3, SeededRng(0, "ks"))[0]) == 6
        ksfree_recursion(complete_bipartite(6, 6), 5, 3, SeededRng(0, "ks"))
        flower = erdos_rado_sunflower([{0, 1, 2}, {0, 3, 4}, {0, 5, 6}], 3)
        assert flower.core == {0}
        assert erdos_rado_sunflower([{0, 1}, {0, 2}, {1, 2}], 3) is None
        assert efr_hypergraph(2, 5, 3).hypergraph.m == 2 * 5**2
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# clone graphs
# ---------------------------------------------------------------------------

def test_gplus_on_c5_frozen():
    # G+ adds 03 and 24; dropping 2 relabels 3, 4 as 2, 3
    assert clone_graph(cycle_graph(5), 0, 2).edges() == [(0, 1), (0, 2), (0, 3), (2, 3)]


def test_gplus_on_p4():
    # G+ adds 03; dropping 2 relabels 3 as 2
    assert clone_graph(path_graph(4), 0, 2).edges() == [(0, 1), (0, 2)]


def test_gplus_rejects_clique():
    # a clique has no nonadjacent pair; nor may v = w or a vertex be missing
    for v, w in [(0, 1), (1, 3), (2, 2), (0, 4), (-1, 2)]:
        with pytest.raises(InputError):
            clone_graph(complete_graph(4), v, w)


# ---------------------------------------------------------------------------
# girth hypergraphs and s-property statistics
# ---------------------------------------------------------------------------

class _NoDraws:
    def substream(self, label):
        raise AssertionError("drew from the stream")


@pytest.mark.parametrize(
    "t,r,expected",
    # 10^17: C(t, 20) passes the float range while p = 2.5e-323 does not
    # underflow yet, and at r = 21 p is 0
    [(30, 9, 2.634e-5), (7, 3, 0.9879), (12, 4, 0.3908), (10**17, 20, 0.1015), (10**17, 21, 0.0)],
)
def test_random_girth_hypergraph_refuses_fewer_than_one_expected_edge(t, r, expected):
    with pytest.raises(InputError) as err:
        random_girth_hypergraph(t, r, _NoDraws())
    assert err.value.witness["expected_edges"] == pytest.approx(expected, rel=1e-3)
    assert f"{err.value.witness['expected_edges']:.3g}" in str(err.value)


def test_random_girth_hypergraph_samples_from_one_expected_edge():
    # C(8, 3) 8^(-2 + 1/6) = 1.24 expected edges: sampled, not refused
    h, params = random_girth_hypergraph(8, 3, SeededRng(0, "gh"))
    assert params.initial_edges >= h.m


@pytest.mark.parametrize("seed", SEEDS)
def test_random_girth_hypergraph_properties(seed):
    h, params = random_girth_hypergraph(40, 3, SeededRng(seed, "gh"))
    assert h.r == 3
    assert hypergraph_girth_at_least(h, 5).passed
    assert params.p == pytest.approx(40 ** (1 - 3 + 1 / 6))


def test_girth_hypergraph_params_record():
    # the namespace the benchmark reads is the record theorem4-part2 certifies
    _, params = random_girth_hypergraph(200, 3, SeededRng(1, "t42").substream("hypergraph"))
    record = vars(params)
    assert set(record) == {
        "t", "r", "p", "delta", "initial_edges", "final_edges", "pruning_log", "seed_record",
    }
    _, cert = theorem4_part2_build(named_graph("c4"), 200, SeededRng(1, "t42"))
    assert json.loads(cert.to_json_bytes())["measurements"]["girth_hypergraph"] == record
    assert params.initial_edges >= params.final_edges


def test_girth_hypergraph_deterministic():
    a, _ = random_girth_hypergraph(30, 3, SeededRng(7, "gh"))
    b, _ = random_girth_hypergraph(30, 3, SeededRng(7, "gh"))
    assert a.edges == b.edges


def test_unrank_subset_is_combinations_order():
    for t in range(13):
        for r in range(t + 1):
            subsets = list(itertools.combinations(range(t), r))
            assert [_unrank_subset(i, t, r) for i in range(len(subsets))] == subsets


@pytest.mark.parametrize("t,r,seed", [(40, 3, 0), (200, 3, 1), (80, 4, 1), (30, 2, 3), (12, 3, 2)])
def test_unrank_subset_matches_the_islice_walk_on_kept_indices(t, r, seed):
    # the indices random_girth_hypergraph keeps, at its own p
    p = float(t) ** (1.0 - r + 1.0 / (2.0 * r))
    kept = SeededRng(seed, "gh").substream("edges").bernoulli_indices(math.comb(t, r), p)
    assert kept
    assert [_unrank_subset(i, t, r) for i in kept] == islice_subsets(kept, t, r)


def test_sunflower_budget_values():
    budget = sunflower_budget(30, 4, uniformity_t=4)
    assert budget["R"] == 25  # 4! + 1
    assert budget["T"] == 24 * (25 * math.comb(29, 3) - 1) ** 4
    assert budget["b"] == pytest.approx(30 ** (1 - 1 / 80))


# ---------------------------------------------------------------------------
# theorem4 builders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gname,t", [("c4", 30), ("c5", 30)])
def test_theorem4_part2_builds(gname, t):
    g = named_graph(gname)
    built, cert = theorem4_part2_build(g, t, SeededRng(0, "t42"))
    assert built.n == t
    assert cert.passed("pattern_absent")
    assert cert.passed("girth")
    assert not contains_subgraph(built, g).found


# sha256 of graph_to_text and of the certificate bytes of the theorem-4
# builders at the CLI's seed labels, seed 1; the short-cycle scan and the
# edge sampler must not change a byte
THEOREM4_SHA256 = {
    ("part2", "c4", 200): (
        "d36566318499234f6885069a25f9de6140efe4453fd043bf3d576aa260d712e7",
        "82b62b4bbf386c229172aa621a4cf323cd41f6e877e52cf08ace0a298be97de5",
    ),
    ("part2-all-pairs", "c4", 200): (
        "fbad18692e46b0486d931877686a750ac157746ff80d519d7cbbc1ca67c3f330",
        "68aeaee01ac9c31049dbddd687dc8e710522c899a9faea37b3a4b99e98fd9626",
    ),
    ("part2", "c5", 80): (
        "d1736b75548cfe3bb4d6e7b55595d947e52856f3ea6131b57e2fd99de0d1bf6f",
        "68cac5b3606949abec6c9b0fc5a65b31f1a61224943cbeb7315a55cb2f719c52",
    ),
    ("part1", 48, 5, 10): (
        "7fd2298b56f65141404e12fa8099012ceab9babad81c712af01a574605299a79",
        "6c56a524c81481d8304cd7af666024180c1739a0e5addd5d277d76fd04c7b13c",
    ),
    ("part1", 120, 5, 10): (
        "e20c4cbb1891722772ce54db65b9574f17c1d4045b0d7beb0a16b95944ead72f",
        "317004e30da0bd5f0852927a4d6395e9be4b8964fc8d5e780a7db8ef8c40861c",
    ),
    ("part1", 250, 5, 10): (
        "d7464cc316dba2e7e371698b09b8eb02e985c8e3d16dbfa51bde0bab44131cba",
        "029ab8320a0bff2348cadcd1c7124d7ee005372578a31efc383350d6f77895dc",
    ),
}


@pytest.mark.parametrize("case", list(THEOREM4_SHA256), ids=["-".join(map(str, c)) for c in THEOREM4_SHA256])
def test_theorem4_bytes_pinned(case):
    if case[0].startswith("part2"):
        rng = SeededRng(1, "theorem4-part2")
        built, cert = theorem4_part2_build(named_graph(case[1]), case[2], rng, try_all_pairs=case[0] != "part2")
    else:
        built, cert = theorem4_part1_build(
            named_graph("c5"), named_graph("k2"), *case[1:], SeededRng(1, "theorem4-part1")
        )
    graph_sha, cert_sha = THEOREM4_SHA256[case]
    assert hashlib.sha256(graph_to_text(built).encode()).hexdigest() == graph_sha
    assert hashlib.sha256(cert.to_json_bytes()).hexdigest() == cert_sha


def test_theorem4_part2_rejects_cliques_and_cut_vertices():
    with pytest.raises(InputError):
        theorem4_part2_build(complete_graph(4), 20, SeededRng(0, "t42"))
    with pytest.raises(InputError):
        theorem4_part2_build(path_graph(4), 20, SeededRng(0, "t42"))


def test_theorem4_part2_try_all_pairs_records_counts():
    built, cert = theorem4_part2_build(
        cycle_graph(4), 25, SeededRng(2, "t42"), try_all_pairs=True
    )
    assert "pair_edge_counts" in cert.measurements
    assert cert.passed("pattern_absent")


def test_theorem4_part1_builds_c5_free():
    built, cert = theorem4_part1_build(
        named_graph("c5"), named_graph("k2"), 40, 3, 12, SeededRng(9, "t41")
    )
    assert cert.passed("g_absent")
    assert cert.passed("cover")
    assert not contains_subgraph(built, named_graph("c5")).found


def test_theorem4_part1_rejects_hom_target():
    # C5 -> C5 identity hom exists, so pattern C5 cannot shield against C5
    with pytest.raises(InputError) as exc:
        theorem4_part1_build(cycle_graph(5), cycle_graph(5), 20, 3, 12, SeededRng(0, "x"))
    assert "homomorphism" in str(exc.value)


def test_theorem4_part1_rejects_girth_target_below_twice_g():
    # with target 8 the pruned bipartite graph keeps 10-cycles, which
    # square and blow up into copies of C5
    with pytest.raises(InputError) as exc:
        theorem4_part1_build(cycle_graph(5), named_graph("k2"), 48, 5, 8, SeededRng(3, "x"))
    assert exc.value.witness == {"girth_target": 8, "required": 10}


def test_theorem4_part1_rejects_degree_above_n():
    # a left vertex has only n right vertices to meet, so degree d > n
    # cannot be reached and the yardstick 2 n |V(F)| ln|V(F)| / d is void
    with pytest.raises(InputError) as exc:
        theorem4_part1_build(cycle_graph(5), named_graph("k2"), 3, 5, 10, SeededRng(1, "x"))
    assert exc.value.witness == {"n": 3, "d": 5}
    built, _ = theorem4_part1_build(cycle_graph(5), named_graph("k2"), 5, 5, 10, SeededRng(1, "x"))
    assert built.n == 5


def test_theorem4_part1_rejects_acyclic_g():
    with pytest.raises(InputError):
        theorem4_part1_build(path_graph(4), named_graph("k2"), 20, 3, 12, SeededRng(0, "x"))


# ---------------------------------------------------------------------------
# ramsey-style witnesses
# ---------------------------------------------------------------------------

def test_ramsey_witness_on_c5():
    cert = ramsey_witness_check(cycle_graph(5), named_graph("k2"), named_graph("k3"), 3, 3)
    assert cert.passed("g_free")
    assert cert.passed("independence_below_t")
    assert cert.passed("f_free_below_ramsey")
    assert cert.all_passed()


def test_ramsey_witness_fails_on_k3_host():
    cert = ramsey_witness_check(complete_graph(3), named_graph("k2"), named_graph("k3"), 3, 3)
    assert not cert.passed("g_free")


def test_ramsey_witness_alpha_violation():
    host = Graph(6, [])  # alpha = 6 >= t
    cert = ramsey_witness_check(host, named_graph("k2"), named_graph("k3"), 3, 3)
    assert cert.passed("g_free")
    assert not cert.passed("independence_below_t")


# ---------------------------------------------------------------------------
# canonical forms and the brute-force oracle
# ---------------------------------------------------------------------------

def test_canonical_form_invariant_under_relabeling():
    g = named_graph("wagner")
    perm = [3, 1, 4, 0, 7, 5, 2, 6]
    relabeled = Graph(8, [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()])
    assert canonical_form(g) == canonical_form(relabeled)
    assert canonical_form(g) != canonical_form(cycle_graph(8))


def test_canonical_form_separates_same_degree_sequence():
    # C6 and two triangles share the degree sequence but not the form
    two_triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert canonical_form(cycle_graph(6)) != canonical_form(two_triangles)


@pytest.mark.parametrize(
    "n,count",
    [(1, 1), (2, 2), (3, 3), (4, 7), (5, 14), (6, 38), (7, 107), (8, 410)],
)
def test_triangle_free_rep_counts(n, count):
    reps, exact, counts = gfree_graph_reps(named_graph("k3"), n)
    assert exact
    assert len(reps) == count


@pytest.mark.parametrize(
    "pattern",
    [named_graph("k2"), named_graph("p3"), named_graph("k3"), named_graph("c4"),
     named_graph("c5"), complete_bipartite(1, 3), Graph(3, [(0, 1)]),
     Graph(4, [(0, 1), (2, 3)]), named_graph("k4")],
    ids=["k2", "p3", "k3", "c4", "c5", "k13", "k2+k1", "2k2", "k4"],
)
def test_gfree_graph_reps_skips_change_nothing(pattern):
    # the neighbourhoods the extension masks find, the twin swaps and the
    # relabel filter skip still count against the budget, and the first
    # g-free child per key is still the one kept
    cases = [(n, budget) for n in range(1, 8) for budget in (1, 7, 50, 300, 2000, None)]
    if pattern in (named_graph("k3"), named_graph("c4")):
        cases.append((8, None))
    # budgets that end exactly at the end of a level, or of its first base
    _, _, counts = unpruned_gfree_graph_reps(pattern, 6)
    level_end = 0
    for size in range(1, 6):
        level_end += counts[size - 1] << size
        cases += [(6, level_end), (6, level_end + (2 << size))]
    for n, budget in cases:
        reps, exact, counts = gfree_graph_reps(pattern, n, budget=budget)
        ref_reps, ref_exact, ref_counts = unpruned_gfree_graph_reps(pattern, n, budget=budget)
        assert [h.edges() for h in reps] == [h.edges() for h in ref_reps], (n, budget)
        assert (exact, counts) == (ref_exact, ref_counts), (n, budget)


def test_k4_free_level_counts():
    # the K4-free graphs on 1..8 vertices (up to 7 vertices the k4 case of
    # test_gfree_graph_reps_skips_change_nothing matches the unpruned
    # enumeration graph by graph)
    reps, exact, counts = gfree_graph_reps(named_graph("k4"), 8)
    assert exact and counts == [1, 2, 4, 10, 29, 120, 685, 6431]
    assert unpruned_gfree_graph_reps(named_graph("k4"), 7)[2] == counts[:7]


def test_relabel_filter_bounds_the_canonical_forms(monkeypatch):
    # every triangle-free graph on at most 8 vertices is keyed, 581 classes,
    # but of the 3,370 absent children the relabel filter lets through 1,027
    calls = []

    def counting(g):
        calls.append(g.n)
        return canonical_form(g)

    monkeypatch.setattr(pipelines, "canonical_form", counting)
    reps, exact, counts = gfree_graph_reps(named_graph("k3"), 8)
    assert exact and counts == [1, 2, 3, 7, 14, 38, 107, 410]
    assert sum(counts[1:]) <= len(calls) <= 1_050


@pytest.mark.parametrize("g,value,level_count", [("k3", 4, 1897), ("c4", 3, 1230)])
def test_brute_force_f_at_nine_vertices(g, value, level_count):
    # f_{K2,K3}(9) = 4 as R(3,4) = 9, and f_{K2,C4}(9) = 3 as R(C4,K4) = 10;
    # 1897 triangle-free (OEIS A006785) and 1230 C4-free (A006786) graphs
    res = brute_force_f(named_graph("k2"), named_graph(g), 9)
    assert res.exact
    assert res.value == value
    assert res.level_counts[-1] == level_count


@pytest.mark.parametrize("g", ["k3", "c4"])
@pytest.mark.parametrize("f", ["k2", "p3", "c4", "c5"])
def test_brute_force_f_matches_the_full_search(f, g):
    # the decision searches give the value, witness and counts of a full
    # search on every representative of the unpruned enumeration
    for n in range(1, 8):
        res = brute_force_f(named_graph(f), named_graph(g), n)
        ref = full_search_brute_force_f(named_graph(f), named_graph(g), n)
        assert res.exact
        assert (res.value, res.witness_edges, res.level_counts) == ref, n


@pytest.mark.parametrize("n,value", [(2, 1), (5, 2), (8, 3)])
def test_brute_force_f_k2_k3(n, value):
    res = brute_force_f(named_graph("k2"), named_graph("k3"), n)
    assert res.exact
    assert res.value == value


def test_brute_force_f_witness_is_extremal():
    res = brute_force_f(named_graph("k2"), named_graph("k3"), 5)
    host = Graph(5, [tuple(e) for e in res.witness_edges])
    assert not perm_contains(host, named_graph("k3"))
    from oracles import brute_mis

    assert brute_mis(host) == res.value


def test_brute_force_f_monotone_in_n():
    vals = [brute_force_f(named_graph("k2"), named_graph("k3"), n).value for n in range(2, 7)]
    assert vals == sorted(vals)


def test_brute_force_f_known_small_cells():
    assert brute_force_f(named_graph("k2"), named_graph("p3"), 6).value == 3
    assert brute_force_f(named_graph("k2"), named_graph("k2"), 6).value == 6
    assert brute_force_f(named_graph("p3"), named_graph("k3"), 5).value == 3
    assert brute_force_f(named_graph("c5"), named_graph("c4"), 5).value == 4
