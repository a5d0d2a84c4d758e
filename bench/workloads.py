"""The benchmark's four workloads.

A workload is a fixed list of jobs built from a seed.  Each job makes the
public calls that one CLI handler makes, with the handler's seed label and
default budgets, and returns the bytes that handler would write or print
(instance text, certificate JSON, result lines).  Nothing is written to
disk.  Each job also carries a check that parses those bytes and tests
them with the independent computations in checks.py.

Inputs come from random.Random streams keyed by the seed, so they do not
depend on the package's own RNG; the package receives only the generated
graphs (as the text a user would hand the CLI) and parameters.
"""

import json
import random

from erdos_rogers import (
    SeededRng,
    brute_force_f,
    ckfree_subset,
    efr_certificate,
    efr_hypergraph,
    graph_from_text,
    graph_to_text,
    max_f_free_subset,
    named_graph,
    theorem1_build,
    theorem4_part1_build,
    theorem4_part2_build,
)
from erdos_rogers.graphs import Graph
from erdos_rogers.hypergraphs import hypergraph_to_text
from erdos_rogers.search import DEFAULT_SET_BUDGET

import checks


class Job:
    """One CLI-equivalent call: `run()` is timed and returns {name: bytes};
    `check(outputs)` is not timed and returns a list of failure messages."""

    __slots__ = ("name", "command", "run", "check")

    def __init__(self, name, command, run, check):
        self.name = name
        self.command = command
        self.run = run
        self.check = check


def _cert(data):
    return json.loads(data.decode())


def _failed_predicates(cert, keys):
    return [f"certificate predicate {k} failed" for k in keys if not cert["predicates"][k]["passed"]]


def _stream(workload, seed, label):
    return random.Random(f"erdos-rogers-bench/{workload}/{seed}/{label}")


# ---------------------------------------------------------------------------
# efr-blowup: construct efr, construct theorem1
# ---------------------------------------------------------------------------

def _construct_efr(d, r, R):
    def run():
        inst = efr_hypergraph(d, r, R)
        cert = efr_certificate(inst)
        return {"instance": hypergraph_to_text(inst.hypergraph).encode(), "cert": cert.to_json_bytes()}

    def check(out):
        _, edges = checks.parse_hypergraph(out["instance"])
        bad = []
        expected = checks.sphere_direction_count(d, r) * r**d
        if len(edges) != expected:
            bad.append(f"|E| = {len(edges)}, expected |A| r^d = {expected}")
        pair = checks.shared_vertex_pair(edges)
        if pair is not None:
            bad.append(f"not linear: vertex pair {pair} lies in two edges")
        if set(edges) != set(checks.efr_edges(d, r, R)):
            bad.append("edge set differs from the EFR construction")
        cert = _cert(out["cert"])
        bad += _failed_predicates(cert, cert["predicates"])
        return bad

    return Job(f"efr d={d} r={r} R={R}", f"construct efr --d {d} --r {r} --R {R}", run, check)


def _construct_theorem1(d, r, R, f, seed):
    def run():
        gstar, cert = theorem1_build(d, r, R, named_graph(f), SeededRng(seed, "theorem1"))
        return {"instance": graph_to_text(gstar).encode(), "cert": cert.to_json_bytes()}

    def check(out):
        n, edges = checks.parse_graph(out["instance"])
        hyperedges = checks.efr_edges(d, r, R)
        bad = []
        expected = checks.sphere_direction_count(d, r) * r**d
        if n != expected or len(hyperedges) != expected:
            bad.append(f"{n} vertices, expected |E| = {expected}")
        tri = checks.find_triangle(n, edges)
        if tri is not None:
            bad.append(f"triangle {tri}")
        if n == len(hyperedges):
            edge = checks.edge_between_disjoint(edges, hyperedges)
            if edge is not None:
                bad.append(f"edge {edge} joins disjoint hyperedges")
        bad += _failed_predicates(_cert(out["cert"]), ["triangle_free"])
        return bad

    return Job(
        f"theorem1 d={d} r={r} R={R} f={f}",
        f"construct theorem1 --d {d} --r {r} --R {R} --f {f} --seed {seed}",
        run,
        check,
    )


def efr_blowup(seed):
    return [
        _construct_efr(2, 65, 6),
        _construct_theorem1(2, 65, 6, "c5", seed),
        _construct_efr(2, 50, 6),
        _construct_theorem1(2, 50, 6, "k2", seed),
        _construct_theorem1(2, 50, 6, "c4", seed),
    ]


# ---------------------------------------------------------------------------
# girth-clones: construct theorem4-part2, construct theorem4-part1
# ---------------------------------------------------------------------------

def _construct_theorem4_part2(g, t, seed):
    def run():
        built, cert = theorem4_part2_build(named_graph(g), t, SeededRng(seed, "theorem4-part2"))
        return {"instance": graph_to_text(built).encode(), "cert": cert.to_json_bytes()}

    def check(out):
        n, edges = checks.parse_graph(out["instance"])
        cert = _cert(out["cert"])
        pattern = checks.PATTERNS[g]
        bad = []
        if n != t:
            bad.append(f"{n} vertices, expected t = {t}")
        cyc = checks.find_cycle(n, edges, pattern[0])
        if cyc is not None:
            bad.append(f"copy of {g}: {cyc}")
        # girth >= r+2 lets two hyperedges share at most one vertex, so the
        # placed clone copies are edge-disjoint
        placed = cert["measurements"]["girth_hypergraph"]["final_edges"]
        expected = placed * checks.clone_graph_edge_count(pattern)
        if len(edges) != expected:
            bad.append(f"{len(edges)} edges, expected final_edges * |E(G*)| = {expected}")
        bad += _failed_predicates(cert, ["pattern_absent", "girth"])
        return bad

    return Job(
        f"theorem4-part2 g={g} t={t}",
        f"construct theorem4-part2 --g {g} --t {t} --seed {seed}",
        run,
        check,
    )


def _construct_theorem4_part1(g, f, n, d, girth, seed):
    def run():
        built, cert = theorem4_part1_build(
            named_graph(g), named_graph(f), n, d, girth, SeededRng(seed, "theorem4-part1")
        )
        return {"instance": graph_to_text(built).encode(), "cert": cert.to_json_bytes()}

    def check(out):
        nv, edges = checks.parse_graph(out["instance"])
        cert = _cert(out["cert"])
        bad = []
        if nv != n:
            bad.append(f"{nv} vertices, expected n = {n}")
        cyc = checks.find_cycle(nv, edges, checks.PATTERNS[g][0])
        if cyc is not None:
            bad.append(f"copy of {g}: {cyc}")
        measured = cert["measurements"]["max_pattern_free"]
        alpha = checks.independence_number(nv, edges)
        if measured["status"] != "optimal" or measured["size"] != alpha:
            bad.append(f"max_pattern_free {measured}, independence number {alpha}")
        bad += _failed_predicates(cert, ["g_absent", "cover"])
        return bad

    return Job(
        f"theorem4-part1 g={g} f={f} n={n} d={d}",
        f"construct theorem4-part1 --g {g} --f {f} --n {n} --d {d} --girth-target {girth} --seed {seed}",
        run,
        check,
    )


def girth_clones(seed):
    return [
        _construct_theorem4_part2("c4", 200, seed),
        _construct_theorem4_part2("c5", 80, seed),
        # girth target 2|V(G)| = 10: with 6 or 8, 8- and 10-cycles of the
        # bipartite graph survive and the output can hold a C5
        _construct_theorem4_part1("c5", "k2", 48, 5, 10, seed),
        _construct_theorem4_part1("c5", "k2", 40, 4, 10, seed),
    ]


# ---------------------------------------------------------------------------
# exact-oracle: oracle brute-force-f
# ---------------------------------------------------------------------------

def _relabeled_text(name, rnd):
    """The named pattern under a random vertex relabeling, as graph text."""
    n, edges = checks.PATTERNS[name]
    perm = list(range(n))
    rnd.shuffle(perm)
    return graph_to_text(Graph(n, [(perm[u], perm[v]) for u, v in edges])).encode()


def _oracle_brute_force_f(f, g, n, seed):
    rnd = _stream("exact-oracle", seed, f"{f}-{g}-{n}")
    f_text, g_text = _relabeled_text(f, rnd), _relabeled_text(g, rnd)

    def run():
        res = brute_force_f(graph_from_text(f_text.decode()), graph_from_text(g_text.decode()), n)
        detail = {
            "exact": res.exact,
            "level_counts": res.level_counts,
            "witness_edges": [list(e) for e in res.witness_edges],
        }
        return {"stdout": f"{res.value}\n".encode(), "result": json.dumps(detail, sort_keys=True).encode()}

    def check(out):
        value = int(out["stdout"])
        return checks.oracle_failures(f, g, n, value, json.loads(out["result"]))

    return Job(f"brute-force-f f={f} g={g} n={n}", f"oracle brute-force-f --f {f} --g {g} --n {n}", run, check)


def exact_oracle(seed):
    return [
        _oracle_brute_force_f("k2", "k3", 8, seed),
        _oracle_brute_force_f("p3", "k3", 7, seed),
        _oracle_brute_force_f("c4", "k3", 7, seed),
        _oracle_brute_force_f("c5", "k3", 7, seed),
        _oracle_brute_force_f("k2", "c4", 7, seed),
        _oracle_brute_force_f("p3", "c4", 7, seed),
        _oracle_brute_force_f("c5", "c4", 7, seed),
    ]


# ---------------------------------------------------------------------------
# ffree-search: search max-ffree, pipeline ckfree
# ---------------------------------------------------------------------------

def random_graph(n, m, rnd):
    """Uniform random graph with exactly m edges."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Graph(n, sorted(rnd.sample(pairs, m)))


def random_k4_free_graph(n, m, rnd):
    """Random K4-free graph: vertex pairs in random order, each added unless
    it would close a K4, until m edges are in."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rnd.shuffle(pairs)
    rows = [0] * n
    edges = []
    for a, b in pairs:
        if len(edges) == m:
            break
        common = rows[a] & rows[b]
        rest = common
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if rows[u] & common:
                break
        else:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
            edges.append((a, b))
    return Graph(n, edges)


def _search_max_ffree(label, host, f, exhaustive=False):
    text = graph_to_text(host).encode()
    n, edges = host.n, host.edges()

    def run():
        res = max_f_free_subset(graph_from_text(text.decode()), named_graph(f), budget=DEFAULT_SET_BUDGET)
        lines = f"{res.size} {res.status}\nset={json.dumps(sorted(res.vertex_set.members()))}\n"
        return {"stdout": lines.encode()}

    def check(out):
        head = out["stdout"].decode().split("\n")[0].split()
        size, status = int(head[0]), head[1]
        members = checks.parse_vertex_line(out["stdout"])
        pattern = checks.PATTERNS[f]
        bad = []
        if status != "optimal":
            bad.append(f"status {status}")
        if len(members) != size:
            bad.append(f"set has {len(members)} vertices, size line says {size}")
        if checks.has_copy(n, edges, pattern, within=members):
            bad.append(f"returned set contains a copy of {f}")
        alpha = checks.independence_number(n, edges)
        if size < alpha:
            bad.append(f"size {size} below the independence number {alpha}")
        if exhaustive:
            best = checks.max_free_subset_size(n, checks.copy_masks(n, edges, pattern))
            if size != best:
                bad.append(f"size {size}, exhaustive maximum {best}")
        return bad

    return Job(f"max-ffree {label} f={f}", f"search max-ffree --in {label}.g --f {f}", run, check)


def _pipeline_ckfree(label, host, k, seed):
    text = graph_to_text(host).encode()
    n, edges = host.n, host.edges()

    def run():
        vs, cert = ckfree_subset(
            graph_from_text(text.decode()), k, SeededRng(seed, "ckfree"), budget=DEFAULT_SET_BUDGET
        )
        lines = f"branch={cert.measurements['branch']} size={len(vs)}\nset={json.dumps(sorted(vs.members()))}\n"
        return {"stdout": lines.encode(), "cert": cert.to_json_bytes()}

    def check(out):
        members = checks.parse_vertex_line(out["stdout"])
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        floor = -(-n // (max(degree) + 1))
        bad = []
        cyc = checks.find_cycle(n, edges, k, within=members)
        if cyc is not None:
            bad.append(f"set induces a {k}-cycle {cyc}")
        if len(members) < floor:
            bad.append(f"{len(members)} vertices, below ceil(n/(D+1)) = {floor}")
        return bad

    return Job(f"ckfree {label} k={k}", f"pipeline ckfree --in {label}.g --k {k} --seed {seed}", run, check)


def ffree_search(seed):
    jobs = []
    # Search effort varies several-fold between random hosts, so a pass
    # holds many cheap searches: their total varies little from seed to seed.
    for f, count in FFREE_MIX:
        for i in range(count):
            label = f"gnm-18-46-{f}-{i}"
            host = random_graph(18, 46, _stream("ffree-search", seed, label))
            jobs.append(_search_max_ffree(label, host, f))
    label = "gnm-14-30"
    jobs.append(_search_max_ffree(label, random_graph(14, 30, _stream("ffree-search", seed, label)), "c5", True))
    for k in (4, 5):
        label = f"k4free-120-480-{k}"
        host = random_k4_free_graph(120, 480, _stream("ffree-search", seed, label))
        jobs.append(_pipeline_ckfree(label, host, k, seed))
    return jobs


FFREE_MIX = [("c4", 42), ("k3", 18), ("c5", 6)]

WORKLOADS = {
    "efr-blowup": efr_blowup,
    "girth-clones": girth_clones,
    "exact-oracle": exact_oracle,
    "ffree-search": ffree_search,
}
