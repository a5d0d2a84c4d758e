"""End-to-end pipelines: triangle-free blowups of EFR line graphs, the
C_k-free subset extractors, clone families, high-girth random hypergraphs
with placed clone copies, witness certificates, and the exact small-n
Erdős–Rogers oracle.

Every pipeline re-verifies its headline claim on the concrete output
(exhaustive scans at desk scale) and emits a Certificate; randomized steps
draw only from labeled substreams so a (seed, parameters) pair pins every
byte of the output.
"""

import math
from itertools import combinations, islice

from .blowup import (
    is_hom_free,
    random_blowup,
    square_clique_cover,
    theorem1_failure_bound,
)
from .certificates import Certificate
from .efr import efr_hypergraph
from .errors import InputError, SelfCheckError
from .graphs import (
    Graph,
    VertexSet,
    bits,
    complete_graph,
    cycle_graph,
    has_cycle,
    induced_subgraph_with_map,
    is_biconnected,
    is_clique,
    find_short_cycle,
    random_regular_bipartite,
    triangle_witness,
)
from .hypergraphs import (
    Hypergraph,
    find_loose_cycles,
    hypergraph_girth_at_least,
    vertex_clique_cover,
)
from .search import (
    DEFAULT_SET_BUDGET,
    count_edges_between,
    ckprop_dense_pair,
    dependent_random_choice,
    greedy_independent_set,
    list_k_cycles,
    max_f_free_subset,
    max_independent_set,
    spencer_independent_set,
)
from .subgraph import contains_subgraph


def _pattern_descr(g):
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def _require_absent(host, pattern, what):
    """K_s / G-freeness precondition: reject with the found embedding."""
    res = contains_subgraph(host, pattern)
    if res.status == "found":
        raise InputError(f"input contains {what}", witness={"embedding": list(res.embedding)})
    if res.status == "unknown":
        raise InputError(f"could not certify absence of {what} within budget")


def _has_k_cycle(g, mask, k):
    """Does the subgraph induced on mask contain a k-cycle?  The audit runs
    without a node budget: it must decide, whatever the input size."""
    return contains_subgraph(g, cycle_graph(k), budget=math.inf, within=mask).found


def _measure_ffree(host, pattern, budget):
    """Max pattern-free subset size as a measurement dict.  A single-edge
    pattern means plain independence, where the bitset solver is far
    faster than the generic subset search."""
    if pattern.n == 2 and pattern.m == 1:
        res = max_independent_set(host, budget=budget)
    else:
        res = max_f_free_subset(host, pattern, budget=budget)
    return {"size": res.size, "status": res.status}


# ---------------------------------------------------------------------------
# theorem1_build: EFR -> K_v cover of the line graph -> blowup
# ---------------------------------------------------------------------------

def theorem1_build(d, r, R, pattern, rng, ffree_budget=None):
    """Blow the pattern up along the clique cover of the EFR line graph.

    The pattern must be triangle-free with at least one edge; the output
    graph (one vertex per hyperedge) is scanned exhaustively for triangles.
    The certificate evaluates the union-bound failure probability at
    N = declared vertex count and checks the R >= ceil(3 t ln t ln N)
    parameter rule without enforcing it.

    The cover is the union cover of the cliques K_v (`vertex_clique_cover`),
    so the line graph itself is never stored; its edge count is
    sum_v C(deg v, 2).  On a non-linear hypergraph, where that sum would
    count a pair twice, the blowup's edge-disjointness check fails first."""
    if pattern.m < 1:
        raise InputError("pattern needs at least one edge")
    tri = contains_subgraph(pattern, complete_graph(3))
    if tri.status == "found":
        raise InputError("pattern contains a triangle", witness={"embedding": list(tri.embedding)})

    inst = efr_hypergraph(d, r, R)
    cover = vertex_clique_cover(inst.hypergraph)
    gstar = random_blowup(cover, pattern, rng.substream("blowup"))

    cert = Certificate("theorem1_build")
    cert.set_param("d", d)
    cert.set_param("r", r)
    cert.set_param("R", R)
    cert.set_param("pattern", _pattern_descr(pattern))
    cert.record_rng(rng)

    witness = triangle_witness(gstar)
    cert.add_predicate(
        "triangle_free", witness is None, None if witness is None else {"triangle": list(witness)}
    )

    t = pattern.n
    n_declared = inst.declared_n
    fb = theorem1_failure_bound(t, R, n_declared)
    cert.add_measurement("failure_bound", fb)
    cert.add_predicate("failure_bound_guaranteed", fb["guaranteed"])
    required_r = math.ceil(3 * t * math.log(t) * math.log(n_declared)) if t >= 2 else 0
    cert.add_predicate(
        "parameter_rule_R",
        R >= required_r,
        {"required": required_r, "given": R},
    )
    cert.add_predicate("vertices_within_N_squared", gstar.n <= n_declared**2)

    cert.add_measurement("vertices", gstar.n)
    cert.add_measurement("edges", gstar.m)
    cert.add_measurement("line_graph_edges", sum(len(c) * (len(c) - 1) // 2 for c in cover.cliques))
    cert.add_measurement("cover_cliques", len(cover.cliques))
    cert.add_measurement("declared_n", n_declared)

    if gstar.n != inst.hypergraph.m:
        raise SelfCheckError("blowup vertex count disagrees with the hyperedge count")
    if ffree_budget is not None:
        measured = _measure_ffree(gstar, pattern, ffree_budget)
        measured["target_N"] = n_declared
        cert.add_measurement("max_pattern_free", measured)
    return gstar, cert


# ---------------------------------------------------------------------------
# C_k-free subsets of K4-free graphs
# ---------------------------------------------------------------------------

CYCLE_LIST_CAP = 250_000


def ckfree_subset(g, k, rng, budget=DEFAULT_SET_BUDGET, delta_cutoff=None):
    """Large vertex subset of a K4-free graph inducing no k-cycle.

    Case split on the maximum degree d against n^(2/3 +- eps): low degree
    takes the greedy Turan set, high degree a star inside a max-degree
    neighborhood, and the middle range plays the sample-and-delete bound on
    the k-cycle hypergraph against the dense-pair + dependent-random-choice
    route (only attempted while the measured cycle density stays above
    n^(-1/25)).  Every candidate is checked exhaustively for induced
    k-cycles; the largest checked candidate wins, and the greedy Turan
    floor ceil(n/(d+1)) always holds.

    delta_cutoff overrides the n^(-1/25) density floor for the dense-pair
    route.  Since any graph has at most ~d^(k-1)/2 k-cycles through one
    vertex, delta <= 1/2 < n^(-1/25) for every n below 2^25, so the default
    rule disables that route on every desk-size input; passing 0.0 forces
    it on for plumbing exercises."""
    if k < 3:
        raise InputError("k >= 3 required")
    _require_absent(g, complete_graph(4), "K4")

    n = g.n
    d = g.max_degree()
    eps = 1.0 / (100 * (k - 1))
    cert = Certificate("ckfree_subset")
    cert.set_param("k", k)
    cert.set_param("n", n)
    cert.set_param("max_degree", d)
    cert.set_param("eps_k", eps)
    cert.record_rng(rng)

    candidates = {"turan_greedy": greedy_independent_set(g).mask}
    full = g.full_mask()
    case = None

    if g.m == 0:
        case = "edgeless"
        candidates["whole_set"] = full
    else:
        cycles, truncated = list_k_cycles(g, k, cap=CYCLE_LIST_CAP)
        cert.add_measurement("k_cycles", {"count": len(cycles), "truncated": truncated})
        if not cycles and not truncated:
            case = "no-k-cycles"
            candidates["whole_set"] = full
        else:
            low, high = n ** (2.0 / 3.0 - eps), n ** (2.0 / 3.0 + 2.0 * eps)
            cert.add_measurement("degree_thresholds", {"low": low, "high": high})
            if d <= low:
                case = "low-degree"
            elif d >= high:
                case = "neighborhood"
                v = max(range(n), key=lambda u: (g.degree(u), -u))
                sub, mapping = induced_subgraph_with_map(g, g.row(v))
                inner = max_independent_set(sub, budget=budget)
                star = 1 << v
                for u in inner.vertex_set:
                    star |= 1 << mapping[u]
                candidates["neighborhood_star"] = star
                cert.add_measurement(
                    "neighborhood", {"vertex": v, "inner_size": inner.size, "inner_status": inner.status}
                )
            else:
                case = "middle"
                if not truncated:
                    cycle_sets = sorted({tuple(sorted(c)) for c in cycles})
                    ch = Hypergraph(n, cycle_sets, r=k)
                    sp = spencer_independent_set(ch, rng.substream("spencer"), trials=20)
                    candidates["cycle_spencer"] = sp.vertex_set.mask
                    cert.add_measurement(
                        "cycle_spencer",
                        {"distinct_vertex_sets": ch.m, "bound": sp.expectation_bound, "size": sp.size},
                    )
                per_vertex = [0] * n
                for c in cycles:
                    for u in c:
                        per_vertex[u] += 1
                delta_max = max(per_vertex)
                v0 = per_vertex.index(delta_max)
                delta = delta_max / d ** (k - 1)
                cutoff = n ** (-1.0 / 25.0) if delta_cutoff is None else delta_cutoff
                cert.add_measurement(
                    "cycle_density", {"v0": v0, "max_through": delta_max, "delta": delta, "cutoff": cutoff}
                )
                if delta >= cutoff and d >= 2 and delta_max > 0:
                    dp = ckprop_dense_pair(g, v0, k)
                    xm = dp.X.mask & ~dp.Y.mask
                    ym = dp.Y.mask & ~dp.X.mask
                    cert.add_measurement(
                        "dense_pair",
                        {
                            "X": len(dp.X),
                            "Y": len(dp.Y),
                            "gamma": dp.gamma,
                            "disjoint_X": xm.bit_count(),
                            "disjoint_Y": ym.bit_count(),
                        },
                    )
                    if xm and ym and count_edges_between(g, xm, ym) >= 1:
                        drc = dependent_random_choice(g, xm, ym, 3, rng.substream("drc"))
                        z = drc.vertex_set.mask
                        edge = None
                        for u in bits(z):
                            inside = g.row(u) & z
                            if inside:
                                edge = (u, next(bits(inside)))
                                break
                        if edge is None:
                            candidates["drc_independent"] = z
                        else:
                            x, y = edge
                            w = g.row(x) & g.row(y)
                            for u in bits(w):
                                if g.row(u) & w:
                                    raise SelfCheckError(
                                        "common neighborhood of an edge is not independent; K4 missed"
                                    )
                            candidates["common_neighborhood"] = w
                        cert.add_measurement(
                            "drc", {"size": drc.size, "status": drc.status, "z_independent": edge is None}
                        )

    best_label, best_mask = None, 0
    sizes = {}
    for label in sorted(candidates):
        mask = candidates[label]
        if _has_k_cycle(g, mask, k):
            raise SelfCheckError(f"candidate {label} induces a {k}-cycle")
        sizes[label] = mask.bit_count()
        if mask.bit_count() > best_mask.bit_count():
            best_label, best_mask = label, mask

    floor = -(-n // (d + 1))
    if best_mask.bit_count() < floor:
        raise SelfCheckError("output fell below the Turan floor")
    cert.add_measurement("candidate_sizes", sizes)
    cert.add_measurement("degree_case", case)
    cert.add_measurement("branch", best_label)
    cert.add_measurement("size", best_mask.bit_count())
    cert.add_predicate("no_induced_k_cycle", True)
    cert.add_predicate("turan_floor", True, {"floor": floor})
    return VertexSet(best_mask), cert


def ksfree_recursion(g, s, k, rng, budget=DEFAULT_SET_BUDGET):
    """C_k-free subset of a K_s-free graph by neighborhood descent.

    If the graph is already K_{s-1}-free the problem delegates downward;
    otherwise the descent recurses into a maximum-degree neighborhood
    (K_{s-1}-free inside a K_s-free graph) and races the Turan greedy set.
    Base case s=4 is ckfree_subset."""
    if s < 4:
        raise InputError("s >= 4 required")
    _require_absent(g, complete_graph(s), f"K{s}")

    cert = Certificate("ksfree_recursion")
    cert.set_param("s", s)
    cert.set_param("k", k)
    cert.set_param("n", g.n)
    cert.record_rng(rng)
    trace = []

    def solve(h, level, stream):
        if level == 4:
            vs, sub_cert = ckfree_subset(h, k, stream, budget=budget)
            trace.append(
                {
                    "s": 4,
                    "action": "base",
                    "n": h.n,
                    "size": len(vs),
                    "branch": sub_cert.measurements["branch"],
                }
            )
            return vs.mask
        lower = contains_subgraph(h, complete_graph(level - 1))
        if lower.status == "absent":
            trace.append({"s": level, "action": "delegate", "n": h.n})
            return solve(h, level - 1, stream)
        v = max(range(h.n), key=lambda u: (h.degree(u), -u))
        sub, mapping = induced_subgraph_with_map(h, h.row(v))
        inner_mask = solve(sub, level - 1, stream.substream(f"descend-{level}"))
        mapped = 0
        for u in bits(inner_mask):
            mapped |= 1 << mapping[u]
        greedy = greedy_independent_set(h).mask
        chosen = mapped if mapped.bit_count() >= greedy.bit_count() else greedy
        trace.append(
            {
                "s": level,
                "action": "descend",
                "vertex": v,
                "degree": h.degree(v),
                "n": h.n,
                "descent_size": mapped.bit_count(),
                "greedy_size": greedy.bit_count(),
            }
        )
        return chosen

    mask = solve(g, s, rng)
    if _has_k_cycle(g, mask, k):
        raise SelfCheckError("recursion output induces a k-cycle")
    cert.add_measurement("trace", trace)
    cert.add_measurement("size", mask.bit_count())
    cert.add_predicate("no_induced_k_cycle", True)
    return VertexSet(mask), cert


# ---------------------------------------------------------------------------
# clone families
# ---------------------------------------------------------------------------

class GPlusFamily:
    """Base graph with a nonadjacent pair turned into clones.

    gplus adds every edge between {v, w} and N(v) | N(w); gstar drops w;
    gstarstar drops both.  star_map / starstar_map send the relabeled
    vertices back to base labels."""

    __slots__ = ("base", "v", "w", "gplus", "gstar", "gstarstar", "star_map", "starstar_map")

    def __init__(self, base, v, w, gplus, gstar, gstarstar, star_map, starstar_map):
        self.base = base
        self.v = v
        self.w = w
        self.gplus = gplus
        self.gstar = gstar
        self.gstarstar = gstarstar
        self.star_map = star_map
        self.starstar_map = starstar_map

    def __repr__(self):
        return f"GPlusFamily(v={self.v}, w={self.w}, gstar_n={self.gstar.n})"


def lex_least_nonadjacent_pair(g):
    for v in range(g.n):
        for w in range(v + 1, g.n):
            if not g.has_edge(v, w):
                return v, w
    return None


def gplus_family(g, v=None, w=None):
    if v is None or w is None:
        pair = lex_least_nonadjacent_pair(g)
        if pair is None:
            raise InputError("graph has no nonadjacent pair")
        v, w = pair
    if v == w or not (0 <= v < g.n and 0 <= w < g.n):
        raise InputError("need two distinct vertices", witness={"v": v, "w": w})
    if g.has_edge(v, w):
        raise InputError("vertices are adjacent", witness={"v": v, "w": w})

    joint = (g.row(v) | g.row(w)) & ~(1 << v) & ~(1 << w)
    edges = list(g.edges())
    for u in bits(joint):
        for x in (v, w):
            if not g.has_edge(x, u):
                edges.append((min(x, u), max(x, u)))
    gplus = Graph(g.n, edges)

    off = ~((1 << v) | (1 << w))
    if gplus.row(v) & off != gplus.row(w) & off:
        raise SelfCheckError("v and w are not clones off {v, w}")
    if gplus.has_edge(v, w):
        raise SelfCheckError("clone pair became adjacent")

    full = gplus.full_mask()
    gstar, star_map = induced_subgraph_with_map(gplus, full & ~(1 << w))
    gstarstar, starstar_map = induced_subgraph_with_map(gplus, full & ~(1 << v) & ~(1 << w))
    return GPlusFamily(g, v, w, gplus, gstar, gstarstar, star_map, starstar_map)


# ---------------------------------------------------------------------------
# high-girth random hypergraphs
# ---------------------------------------------------------------------------

class GirthHypergraphParams:
    __slots__ = ("t", "r", "p", "delta", "initial_edges", "final_edges", "pruning_log", "seed_record")

    def __init__(self, t, r, p, delta, initial_edges, final_edges, pruning_log, seed_record):
        self.t = t
        self.r = r
        self.p = p
        self.delta = delta
        self.initial_edges = initial_edges
        self.final_edges = final_edges
        self.pruning_log = pruning_log
        self.seed_record = seed_record

    def to_dict(self):
        return {
            "t": self.t,
            "r": self.r,
            "p": self.p,
            "delta": self.delta,
            "initial_edges": self.initial_edges,
            "final_edges": self.final_edges,
            "pruning_log": self.pruning_log,
            "seed_record": dict(self.seed_record),
        }

    def __repr__(self):
        return f"GirthHypergraphParams(t={self.t}, r={self.r}, edges={self.final_edges})"


def random_girth_hypergraph(t, r, rng):
    """Binomial r-uniform hypergraph at p = t^(1-r+1/(2r)), then for each
    length 2..r+1 a greedy maximal edge-disjoint family of loose cycles of
    the *sampled* hypergraph is removed wholesale.  Maximality makes the
    survivor girth at least r+2, which is re-audited.

    The sample takes one random() draw of the "edges" substream per
    r-subset, in `combinations(range(t), r)` order, and keeps the subset
    when the draw falls below p; `bernoulli_indices` finds those draws and
    the kept indices are unranked in the same order."""
    if r < 2:
        raise InputError("uniformity r >= 2 required")
    if t < r:
        raise InputError("need at least r vertices")
    p = float(t) ** (1.0 - r + 1.0 / (2.0 * r))
    if p > 1.0:
        raise InputError("edge probability exceeds 1", witness={"p": p})

    stream = rng.substream("edges")
    subsets = combinations(range(t), r)
    edges = []
    prev = -1
    for i in stream.bernoulli_indices(math.comb(t, r), p):
        edges.append(next(islice(subsets, i - prev - 1, None)))
        prev = i
    h0 = Hypergraph(t, edges, r=r)

    removed = set()
    pruning_log = []
    for length in range(2, r + 2):
        cycles = find_loose_cycles(h0, length)
        used = set()
        family = []
        for cyc in cycles:
            if not (set(cyc.edge_indices) & used):
                family.append(sorted(cyc.edge_indices))
                used.update(cyc.edge_indices)
        removed.update(used)
        pruning_log.append(
            {
                "length": length,
                "cycles_found": len(cycles),
                "family_size": len(family),
                "edge_indices": [list(f) for f in family],
            }
        )

    survivors = [e for i, e in enumerate(h0.edges) if i not in removed]
    hstar = Hypergraph(t, survivors, r=r)
    audit = hypergraph_girth_at_least(hstar, r + 2)
    if not audit.passed:
        raise SelfCheckError(f"girth audit failed after pruning: {audit.witness}")

    params = GirthHypergraphParams(
        t, r, p, 1.0 / (5.0 * r * r), h0.m, hstar.m, pruning_log, rng.state()
    )
    return hstar, params


def sunflower_budget(t, r, uniformity_t):
    """The bookkeeping constants of the counting stage: R = r!+1, the
    family-size threshold T = t'!(R C(t-1, r-1) - 1)^{t'} with t' the
    sunflower uniformity, and b = t^(1-delta)."""
    R = math.factorial(r) + 1
    T = math.factorial(uniformity_t) * (R * math.comb(t - 1, r - 1) - 1) ** uniformity_t
    b = t ** (1.0 - 1.0 / (5.0 * r * r))
    return {"R": R, "T": T, "b": b}


# ---------------------------------------------------------------------------
# theorem4_part2_build: place clone copies inside hyperedges
# ---------------------------------------------------------------------------

def _place_copies(hstar, gstar, stream):
    placements = []
    union_edges = set()
    for idx, e in enumerate(hstar.edges):
        perm = list(range(len(e)))
        stream.substream(f"place-{idx}").shuffle(perm)
        placements.append(perm)
        for a, b in gstar.edges():
            u, v = e[perm[a]], e[perm[b]]
            union_edges.add((min(u, v), max(u, v)))
    return sorted(union_edges), placements


def theorem4_part2_build(g, t, rng, try_all_pairs=False):
    """Union of uniformly placed copies of the clone graph gstar, one per
    hyperedge of a girth >= r+2 random hypergraph on t vertices, r = n(g)-1.

    g must be 2-connected and not a clique.  The output is scanned for
    copies of g; girth plus the clone structure should keep it g-free, and
    the certificate records the verdict with a witness on failure."""
    if is_clique(g):
        raise InputError("pattern is a clique; the construction needs a nonadjacent pair")
    if not is_biconnected(g):
        raise InputError("pattern must be 2-connected")
    r = g.n - 1

    hstar, params = random_girth_hypergraph(t, r, rng.substream("hypergraph"))

    if try_all_pairs:
        pairs = [
            (v, w) for v in range(g.n) for w in range(v + 1, g.n) if not g.has_edge(v, w)
        ]
    else:
        pairs = [lex_least_nonadjacent_pair(g)]
    if not pairs or pairs[0] is None:
        raise InputError("graph has no nonadjacent pair")

    best = None
    pair_edge_counts = {}
    for v, w in pairs:
        fam = gplus_family(g, v, w)
        stream = rng.substream(f"pair-{v}-{w}") if try_all_pairs else rng.substream("place")
        union_edges, placements = _place_copies(hstar, fam.gstar, stream)
        built = Graph(t, union_edges)
        pair_edge_counts[f"{v},{w}"] = built.m
        if best is None or built.m > best[0].m:
            best = (built, fam, placements, (v, w))

    built, fam, placements, chosen = best
    cert = Certificate("theorem4_part2_build")
    cert.set_param("t", t)
    cert.set_param("r", r)
    cert.set_param("pattern", _pattern_descr(g))
    cert.set_param("pair", list(chosen))
    cert.set_param("try_all_pairs", try_all_pairs)
    cert.record_rng(rng)
    cert.add_measurement("girth_hypergraph", params.to_dict())
    cert.add_measurement("placements", [list(p) for p in placements])
    cert.add_measurement("gstar_edges", [list(e) for e in fam.gstar.edges()])
    cert.add_measurement("edges", built.m)
    if try_all_pairs:
        cert.add_measurement("pair_edge_counts", pair_edge_counts)
    cert.add_measurement("sunflower_budget", sunflower_budget(t, r, uniformity_t=r))

    audit = hypergraph_girth_at_least(hstar, r + 2)
    cert.add_audit(audit, "girth")
    res = contains_subgraph(built, g)
    cert.add_predicate(
        "pattern_absent",
        res.status == "absent",
        None if res.status == "absent" else {"status": res.status, "embedding": list(res.embedding or ())},
    )
    return built, cert


# ---------------------------------------------------------------------------
# theorem4_part1_build: blowups over high-girth bipartite squares
# ---------------------------------------------------------------------------

# node budget of the max pattern-free subset search on the part-1 blowup
PART1_FFREE_BUDGET = 200_000


def theorem4_part1_build(g, pattern, n, d, girth_target, rng):
    """Near-d-regular bipartite graph, pruned of short cycles, squared into
    a clique cover, then blown up with the pattern.

    Requires n >= 1, d >= 1, no homomorphism from g into the pattern
    (witnessed otherwise) and that g contains a cycle.  The output is
    scanned for copies of g; the measured max pattern-free subset is
    reported against the 2 n |V(F)| ln|V(F)| / d yardstick."""
    if n < 1 or d < 1:
        raise InputError("need n >= 1 and d >= 1", witness={"n": n, "d": d})
    ok, hom = is_hom_free(pattern, g)
    if not ok:
        raise InputError(
            "a homomorphism into the pattern exists; blowups would contain g",
            witness={"homomorphism": list(hom)},
        )
    if not has_cycle(g):
        raise InputError("g must contain a cycle")
    # a copy of g in the blowup comes from a closed walk of length at most
    # 2|V(g)| in the bipartite graph, and pruning leaves girth > girth_target
    if girth_target < 2 * g.n:
        raise InputError(
            "girth target too small for g: the square blowup could contain g",
            witness={"girth_target": girth_target, "required": 2 * g.n},
        )

    bip = random_regular_bipartite(n, n, d, rng.substream("bipartite"))
    deletions = 0
    while True:
        cyc = find_short_cycle(bip, girth_target)
        if cyc is None:
            break
        drop = min(
            (min(cyc[i], cyc[(i + 1) % len(cyc)]), max(cyc[i], cyc[(i + 1) % len(cyc)]))
            for i in range(len(cyc))
        )
        bip = Graph(bip.n, [e for e in bip.edges() if e != drop])
        deletions += 1

    min_deg = min(bip.degree(v) for v in range(bip.n))
    cover = square_clique_cover(bip, range(n))
    built = random_blowup(cover, pattern, rng.substream("blowup"))

    cert = Certificate("theorem4_part1_build")
    cert.set_param("n", n)
    cert.set_param("d", d)
    cert.set_param("girth_target", girth_target)
    cert.set_param("pattern", _pattern_descr(pattern))
    cert.set_param("g", _pattern_descr(g))
    cert.record_rng(rng)
    cert.add_measurement("bipartite_edges", bip.m)
    cert.add_measurement("cycle_edge_deletions", deletions)
    cert.add_measurement("realized_min_degree", min_deg)
    cert.add_predicate(
        "not_degenerate", bip.m > 0, None if bip.m else {"deletions": deletions}
    )
    cert.add_audit(cover.validate(), "cover")
    cert.add_measurement("vertices", built.n)
    cert.add_measurement("edges", built.m)

    res = contains_subgraph(built, g)
    cert.add_predicate(
        "g_absent",
        res.status == "absent",
        None if res.status == "absent" else {"status": res.status, "embedding": list(res.embedding or ())},
    )
    if pattern.m >= 1:
        measured = _measure_ffree(built, pattern, PART1_FFREE_BUDGET)
        measured["yardstick"] = 2.0 * n * pattern.n * math.log(pattern.n) / d
        cert.add_measurement("max_pattern_free", measured)
    return built, cert


# ---------------------------------------------------------------------------
# witness certificates and the exact oracle
# ---------------------------------------------------------------------------

def ramsey_witness_check(host, f_pattern, g_pattern, t, rf_t):
    """Three audited verdicts: host is g-free, its independence number is
    below t, and its max f-free subset is below the supplied Ramsey value."""
    cert = Certificate("ramsey_witness_check")
    cert.set_param("t", t)
    cert.set_param("rf_t", rf_t)
    cert.set_param("host", _pattern_descr(host))
    cert.set_param("f", _pattern_descr(f_pattern))
    cert.set_param("g", _pattern_descr(g_pattern))

    res = contains_subgraph(host, g_pattern)
    cert.add_predicate(
        "g_free",
        res.status == "absent",
        None if res.status == "absent" else {"embedding": list(res.embedding or ())},
    )
    mis = max_independent_set(host)
    cert.add_predicate(
        "independence_below_t",
        mis.status == "optimal" and mis.size < t,
        {"alpha": mis.size, "status": mis.status, "set": sorted(mis.vertex_set.members())},
    )
    sub = max_f_free_subset(host, f_pattern)
    cert.add_predicate(
        "f_free_below_ramsey",
        sub.status == "optimal" and sub.size < rf_t,
        {"max_f_free": sub.size, "status": sub.status, "set": sorted(sub.vertex_set.members())},
    )
    return cert


def _refinement_classes(g):
    """Iterated degree refinement; returns the class index per vertex with
    classes ordered by their invariant signatures."""
    color = [g.degree(v) for v in range(g.n)]
    # normalize to ranks
    ranks = {c: i for i, c in enumerate(sorted(set(color)))}
    color = [ranks[c] for c in color]
    while True:
        sigs = []
        for v in range(g.n):
            nbr = sorted(color[u] for u in bits(g.row(v)))
            sigs.append((color[v], tuple(nbr)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if new == color:
            return color
        color = new


def canonical_form(g):
    """Canonical upper-triangle bitstring: the minimum, over all permutations
    that respect the refinement classes (vertices of class i occupy the
    positions of class i), of the integer whose bit (i, j), i < j, counted
    row-major, is set when the vertices at positions i and j are adjacent.

    Row n-2 holds the most significant bit, then row n-3, and so on, so the
    minimum is found level by level: positions are filled from n-1 down to
    0, placing a vertex at position k fixes row k (its adjacency to the
    vertices above k), and each level keeps only the placements whose row k
    is minimal.  A placement is stored as its state, per vertex the mask of
    filled positions it is adjacent to, or -1 once placed; placements with
    the same state have the same futures, so each state is kept once."""
    n = g.n
    color = _refinement_classes(g)
    classes = {}
    for v, c in enumerate(color):
        classes.setdefault(c, []).append(v)
    slots = []  # the members of the class that owns each position
    for c in sorted(classes):
        slots += [classes[c]] * len(classes[c])

    # lists: a tuple built from a generator is resized, and when freed it
    # parks in the tuple free list; over an oracle run that held 0.5 MB
    nbrs = [list(bits(row)) for row in g.rows()]
    states = {(0,) * n}
    key = 0
    offset = n * (n - 1) // 2
    for k in range(n - 1, -1, -1):
        offset -= n - 1 - k
        members = slots[k]
        best = min(st[v] for st in states for v in members if st[v] >= 0)
        key |= (best >> (k + 1)) << offset
        bit = 1 << k
        nxt = set()
        for st in states:
            for v in members:
                if st[v] == best:
                    child = list(st)
                    child[v] = -1
                    for u in nbrs[v]:
                        if child[u] >= 0:
                            child[u] |= bit
                    nxt.add(tuple(child))
        states = nxt
    return (n, key)


class BruteForceResult:
    __slots__ = ("value", "exact", "graphs_seen", "level_counts", "witness_edges")

    def __init__(self, value, exact, graphs_seen, level_counts, witness_edges):
        self.value = value
        self.exact = exact
        self.graphs_seen = graphs_seen
        self.level_counts = level_counts
        self.witness_edges = witness_edges

    def __repr__(self):
        return f"BruteForceResult(value={self.value}, exact={self.exact})"


def gfree_graph_reps(g_pattern, n, budget=None):
    """All g-free graphs on exactly n vertices up to isomorphism, built by
    vertex-by-vertex augmentation with canonical-form deduplication.
    Returns (list of Graphs, exact flag, per-level counts)."""
    if n < 1:
        raise InputError("n >= 1 required")
    reps = [Graph(1, [])]
    counts = [1]
    steps = 0
    exact = True
    for size in range(1, n):
        seen = {}
        for base in reps:
            base_edges = base.edges()
            for nbhd in range(1 << size):
                steps += 1
                if budget is not None and steps > budget:
                    exact = False
                    break
                cand = Graph(size + 1, base_edges + [(u, size) for u in bits(nbhd)])
                hit = contains_subgraph(cand, g_pattern, forced_vertex=size)
                if hit.status == "found":
                    continue
                if hit.status == "unknown":
                    exact = False
                    continue
                key = canonical_form(cand)
                if key not in seen:
                    seen[key] = cand
            if not exact and budget is not None and steps > budget:
                break
        reps = [seen[k] for k in sorted(seen)]
        counts.append(len(reps))
        if not exact:
            break
    return reps, exact, counts


def brute_force_f(f_pattern, g_pattern, n, budget=None):
    """Exact f_{F,G}(n) for n <= 8: the minimum over all g-free graphs on n
    vertices (up to isomorphism) of the maximum f-free induced subset.

    When the enumeration budget runs out below n vertices, the value is
    None: a minimum over smaller graphs says nothing about n.  When it runs
    out inside level n, the value is an upper bound, the minimum over the
    n-vertex graphs seen.  exact is False in both cases."""
    if f_pattern.m < 1:
        raise InputError("f needs at least one edge")
    if n > 8:
        raise InputError("n <= 8 only; enumeration is exact desk scale")
    reps, exact, counts = gfree_graph_reps(g_pattern, n, budget=budget)
    if len(counts) < n:
        return BruteForceResult(None, False, len(reps), counts, [])
    best = None
    witness = None
    for h in reps:
        res = max_f_free_subset(h, f_pattern)
        if res.status != "optimal":
            raise SelfCheckError("subset search ran out of budget on a graph of at most 8 vertices")
        if best is None or res.size < best:
            best, witness = res.size, h
    return BruteForceResult(
        best, exact, len(reps), counts, witness.edges() if witness is not None else []
    )
