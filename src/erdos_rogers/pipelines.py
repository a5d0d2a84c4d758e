"""End-to-end pipelines: triangle-free blowups of EFR line graphs, the
C_k-free subset extractors, clone graphs, high-girth random hypergraphs
with placed clone copies, witness certificates, and the exact small-n
Erdős–Rogers oracle.

Every pipeline re-verifies its headline claim on the concrete output
(exhaustive scans at desk scale) and emits a Certificate; randomized steps
draw only from labeled substreams so a (seed, parameters) pair pins every
byte of the output.
"""

import math
from types import SimpleNamespace

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
    MAX_FILE_VERTICES,
    Graph,
    VertexSet,
    _odd_cycle_part,
    bits,
    complete_graph,
    cycle_graph,
    has_cycle,
    induced_subgraph,
    induced_subgraph_with_map,
    is_biconnected,
    is_clique,
    prune_short_cycles,
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
    CYCLE_LIST_CAP,
    DEFAULT_SET_BUDGET,
    greedy_independent_set,
    list_k_cycles,
    max_f_free_subset,
    max_independent_set,
    spencer_independent_set,
)
from .subgraph import _extension_masks, contains_subgraph


def _pattern_descr(g):
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def _require_absent(host, pattern, what):
    """K_s / G-freeness precondition: reject with the found embedding."""
    res = contains_subgraph(host, pattern)
    if res.status == "found":
        raise InputError(f"input contains {what}", witness={"embedding": list(res.embedding)})
    if res.status == "unknown":
        raise InputError(f"could not certify absence of {what} within budget")


# candidate placements one k-cycle audit may walk before it gives up
K_CYCLE_AUDIT_BUDGET = 2_000_000


def _has_k_cycle(g, mask, k):
    """Does the subgraph induced on mask contain a k-cycle?  An odd k
    searches only the components whose part in mask is not 2-colourable.
    An audit that walks K_CYCLE_AUDIT_BUDGET placements undecided is never
    a pass: it raises the InputError of an uncertified absence."""
    if k % 2:
        mask = _odd_cycle_part(g, mask)
    res = contains_subgraph(g, cycle_graph(k), budget=K_CYCLE_AUDIT_BUDGET, within=mask)
    if res.status == "unknown":
        raise InputError(f"could not certify absence of C{k} within budget")
    return res.found


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

    # only these numbers of the hypergraph and its cover are reported, so
    # the hypergraph is gone before the blowup builds the graph
    inst = efr_hypergraph(d, r, R)
    m, n_declared = inst.hypergraph.m, inst.declared_n
    cover = vertex_clique_cover(inst.hypergraph)
    del inst
    line_graph_edges = sum(len(c) * (len(c) - 1) // 2 for c in cover.cliques)
    cover_cliques = len(cover.cliques)
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
    cert.add_measurement("line_graph_edges", line_graph_edges)
    cert.add_measurement("cover_cliques", cover_cliques)
    cert.add_measurement("declared_n", n_declared)

    if gstar.n != m:
        raise SelfCheckError("blowup vertex count disagrees with the hyperedge count")
    if ffree_budget is not None:
        measured = _measure_ffree(gstar, pattern, ffree_budget)
        measured["target_N"] = n_declared
        cert.add_measurement("max_pattern_free", measured)
    return gstar, cert


# ---------------------------------------------------------------------------
# C_k-free subsets of K4-free graphs
# ---------------------------------------------------------------------------

def ckfree_subset(g, k, rng, budget=DEFAULT_SET_BUDGET):
    """Large vertex subset of a K4-free graph inducing no k-cycle.

    Case split on the maximum degree d against n^(2/3 +- eps): low degree
    takes the greedy Turan set, high degree a star inside a max-degree
    neighborhood, and the middle range runs the sample-and-delete bound
    (Spencer) on the k-cycle hypergraph.  Every candidate is checked
    exhaustively for induced k-cycles; the largest checked candidate wins,
    and the greedy Turan floor ceil(n/(d+1)) always holds.

    The middle range also records `cycle_density`: the vertex v0 on the
    most k-cycles, their number, delta = that number / d^(k-1), and the
    paper's cutoff n^(-1/25), with "partial": true when the cycle list
    stopped at its cap and these count only the cycles listed.  The paper
    takes its dense-pair and dependent-random-choice step only when
    delta >= n^(-1/25), and that never happens here: a vertex lies on at
    most d (d-1)^(k-2) / 2 < d^(k-1) / 2 k-cycles, so delta < 1/2, while
    n^(-1/25) >= 1/2 for every n <= 2^25, above the 10^7 vertices a graph
    file may declare.  Both engines of that step remain as `search ckprop`
    and `search drc`."""
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
                density = {"v0": v0, "max_through": delta_max, "delta": delta, "cutoff": n ** (-1.0 / 25.0)}
                if truncated:
                    density["partial"] = True
                cert.add_measurement("cycle_density", density)

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


def _ksfree_solve(h, level, stream, k, budget, trace):
    """The mask of a C_k-free set of the K_level-free graph h, descending
    as ksfree_recursion describes; each step appends its record to trace."""
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
        return _ksfree_solve(h, level - 1, stream, k, budget, trace)
    v = max(range(h.n), key=lambda u: (h.degree(u), -u))
    sub, mapping = induced_subgraph_with_map(h, h.row(v))
    inner_mask = _ksfree_solve(sub, level - 1, stream.substream(f"descend-{level}"), k, budget, trace)
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
    mask = _ksfree_solve(g, s, rng, k, budget, trace)
    if _has_k_cycle(g, mask, k):
        raise SelfCheckError("recursion output induces a k-cycle")
    cert.add_measurement("trace", trace)
    cert.add_measurement("size", mask.bit_count())
    cert.add_predicate("no_induced_k_cycle", True)
    return VertexSet(mask), cert


# ---------------------------------------------------------------------------
# clone graphs
# ---------------------------------------------------------------------------

def clone_graph(g, v, w):
    """The clone graph G* of the nonadjacent pair v, w of g.

    G+ adds every edge between {v, w} and N(v) | N(w), which makes v and w
    clones; G* is G+ without w, relabeled densely in increasing order."""
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
    return induced_subgraph(gplus, gplus.full_mask() & ~(1 << w))


# ---------------------------------------------------------------------------
# high-girth random hypergraphs
# ---------------------------------------------------------------------------

# the most r-subsets a girth sample draws for, one random() draw each
MAX_SAMPLE_DRAWS = 2**28


def _unrank_subset(index, t, r):
    """The subset at position index of combinations(range(t), r).  The
    complements t-1-x of its members, least member first, are the digits
    of C(t, r) - 1 - index in the combinatorial number system; each digit
    is found by bisection with math.comb."""
    rest = math.comb(t, r) - 1 - index
    members = []
    top = t  # each digit lies below the one before
    for k in range(r, 0, -1):
        # the largest d < top with C(d, k) <= rest; C(k - 1, k) = 0
        lo, hi = k - 1, top
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if math.comb(mid, k) <= rest:
                lo = mid
            else:
                hi = mid
        members.append(t - 1 - lo)
        rest -= math.comb(lo, k)
        top = lo
    return tuple(members)


def random_girth_hypergraph(t, r, rng):
    """Binomial r-uniform hypergraph at p = t^(1-r+1/(2r)), then for each
    length 2..r+1 a greedy maximal edge-disjoint family of loose cycles of
    the *sampled* hypergraph is removed wholesale.  Maximality makes the
    survivor girth at least r+2, which is re-audited.  Returns (hstar, a
    namespace of the sampling and pruning record).

    The sample takes one random() draw of the "edges" substream per
    r-subset, in `combinations(range(t), r)` order, and keeps the subset
    when the draw falls below p; `bernoulli_indices` finds those draws and
    `_unrank_subset` turns each kept index into its subset directly.  An
    expected edge count C(t, r) p below 1 is refused before any draw: the
    sample would be empty or nearly so, and an edgeless h* passes every
    audit.  A t above MAX_FILE_VERTICES is refused next, then a draw count
    C(t, r) above MAX_SAMPLE_DRAWS, before the sample allocates or draws
    anything."""
    if r < 2:
        raise InputError("uniformity r >= 2 required")
    if t < r:
        raise InputError("need at least r vertices")
    p = float(t) ** (1.0 - r + 1.0 / (2.0 * r))
    if p > 1.0:
        raise InputError("edge probability exceeds 1", witness={"p": p})
    draws = math.comb(t, r)
    # in logs: C(t, r) can pass the float range while p is still above 0
    log_expected = math.log(draws) + math.log(p) if p > 0.0 else -math.inf
    if log_expected < 0.0:
        expected = math.exp(log_expected)
        raise InputError(
            f"expected edge count C(t, r) p = {expected:.3g} is below 1",
            witness={"t": t, "r": r, "p": p, "expected_edges": expected},
        )
    if t > MAX_FILE_VERTICES:
        raise InputError(
            f"vertex count t exceeds {MAX_FILE_VERTICES}",
            witness={"t": t, "max_vertices": MAX_FILE_VERTICES},
        )
    if draws > MAX_SAMPLE_DRAWS:
        raise InputError(
            f"draw count C(t, r) = {draws} exceeds {MAX_SAMPLE_DRAWS}",
            witness={"t": t, "r": r, "draws": draws, "max_draws": MAX_SAMPLE_DRAWS},
        )

    kept = rng.substream("edges").bernoulli_indices(draws, p)
    h0 = Hypergraph(t, [_unrank_subset(i, t, r) for i in kept], r=r)

    by_length = {length: [] for length in range(2, r + 2)}
    for cyc in find_loose_cycles(h0, r + 1):
        by_length[cyc.length].append(cyc)
    removed = set()
    pruning_log = []
    for length, cycles in by_length.items():
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

    params = SimpleNamespace(t=t, r=r, p=p, delta=1.0 / (5.0 * r * r), initial_edges=h0.m,
                             final_edges=hstar.m, pruning_log=pruning_log, seed_record=rng.state())
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
    union_edges = []
    for idx, e in enumerate(hstar.edges):
        perm = list(range(len(e)))
        stream.substream(f"place-{idx}").shuffle(perm)
        placements.append(perm)
        union_edges.extend((e[perm[a]], e[perm[b]]) for a, b in gstar.upper_edges())
    return union_edges, placements


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

    # g is not a clique, so pairs is not empty; pairs[0] is the lex-least one
    pairs = [(v, w) for v in range(g.n) for w in range(v + 1, g.n) if not g.has_edge(v, w)]
    if not try_all_pairs:
        pairs = pairs[:1]

    best = None
    pair_edge_counts = {}
    for v, w in pairs:
        gstar = clone_graph(g, v, w)
        stream = rng.substream(f"pair-{v}-{w}") if try_all_pairs else rng.substream("place")
        union_edges, placements = _place_copies(hstar, gstar, stream)
        built = Graph(t, union_edges)
        pair_edge_counts[f"{v},{w}"] = built.m
        if best is None or built.m > best[0].m:
            best = (built, gstar, placements, (v, w))

    built, gstar, placements, chosen = best
    cert = Certificate("theorem4_part2_build")
    cert.set_param("t", t)
    cert.set_param("r", r)
    cert.set_param("pattern", _pattern_descr(g))
    cert.set_param("pair", list(chosen))
    cert.set_param("try_all_pairs", try_all_pairs)
    cert.record_rng(rng)
    cert.add_measurement("girth_hypergraph", vars(params))
    cert.add_measurement("placements", [list(p) for p in placements])
    cert.add_measurement("gstar_edges", [list(e) for e in gstar.edges()])
    cert.add_measurement("edges", built.m)
    if try_all_pairs:
        cert.add_measurement("pair_edge_counts", pair_edge_counts)
    cert.add_measurement("sunflower_budget", sunflower_budget(t, r, uniformity_t=r))

    # random_girth_hypergraph raises SelfCheckError on an hstar failing this audit
    cert.add_predicate("girth", True)
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

    Requires 1 <= d <= n (a vertex of one n-vertex side has at most n
    neighbours), no homomorphism from g into the pattern (witnessed
    otherwise) and that g contains a cycle.  The output is
    scanned for copies of g; the measured max pattern-free subset is
    reported against the 2 n |V(F)| ln|V(F)| / d yardstick."""
    if n < 1 or d < 1:
        raise InputError("need n >= 1 and d >= 1", witness={"n": n, "d": d})
    if d > n:
        raise InputError("degree d exceeds the side size n", witness={"n": n, "d": d})
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

    bip = random_regular_bipartite(n, d, rng.substream("bipartite"))
    bip, deletions = prune_short_cycles(bip, girth_target)

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
    # square_clique_cover has refused any cover whose cliques share a pair
    cert.add_predicate("cover", True)
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


def _refinement_classes(nbrs):
    """Iterated degree refinement of the graph with these neighbour lists;
    returns the class index per vertex with classes ordered by their
    invariant signatures."""
    color = [len(nbr) for nbr in nbrs]
    # normalize to ranks
    ranks = {c: i for i, c in enumerate(sorted(set(color)))}
    color = [ranks[c] for c in color]
    while True:
        sigs = [(c, tuple(sorted([color[u] for u in nbr]))) for c, nbr in zip(color, nbrs)]
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
    # lists: a tuple built from a generator is resized, and when freed it
    # parks in the tuple free list; over an oracle run that held 0.5 MB
    nbrs = [list(bits(row)) for row in g.rows()]
    color = _refinement_classes(nbrs)
    classes = {}
    for v, c in enumerate(color):
        classes.setdefault(c, []).append(v)
    slots = []  # the members of the class that owns each position
    for c in sorted(classes):
        slots += [classes[c]] * len(classes[c])

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
    __slots__ = ("value", "exact", "level_counts", "witness_edges")

    def __init__(self, value, exact, level_counts, witness_edges):
        self.value = value
        self.exact = exact
        self.level_counts = level_counts
        self.witness_edges = witness_edges

    def __repr__(self):
        return f"BruteForceResult(value={self.value}, exact={self.exact})"


def _child_rows(rows, nbhd):
    """The rows of the graph with these rows plus vertex len(rows) joined
    to the vertices of the mask nbhd: each neighbour's row gains the new
    bit, and nbhd is the new row."""
    bit = 1 << len(rows)
    return [r | bit if nbhd >> u & 1 else r for u, r in enumerate(rows)] + [nbhd]


def _degree_relabelling(rows):
    """The graph with these rows relabelled in order of the multiset of
    each vertex's neighbour degrees (which holds its degree), then index:
    the tuple of the new rows, row i for the i-th vertex of that order.
    The multiset is one integer, the count of neighbours of degree d in
    digit d of base 2^b; 2^b > n exceeds every count, so no digit carries.
    The index sits in the low b bits of the sort key."""
    n = len(rows)
    b = n.bit_length()
    weight = [1 << b * r.bit_count() for r in rows]
    order = []
    for v, row in enumerate(rows):
        s = 0
        rest = row
        while rest:
            low = rest & -rest
            s += weight[low.bit_length() - 1]
            rest ^= low
        order.append(s << b | v)
    order.sort()
    mask = (1 << b) - 1
    order = [key & mask for key in order]
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    label = []
    for v in order:
        rest = rows[v]
        row = 0
        while rest:
            low = rest & -rest
            row |= 1 << pos[low.bit_length() - 1]
            rest ^= low
        label.append(row)
    return tuple(label)


def _found_neighbourhoods(rows, pattern):
    """The neighbourhoods N for which the graph with these rows plus a new
    vertex joined to N holds a copy of the pattern through that vertex, as
    one 2^len(rows)-bit integer with bit N set for each.  They are the N
    containing an extension mask, so the masks' bits are closed upwards,
    one shift-or step per vertex j: every found N without j finds N + j."""
    found = 0
    for mask in _extension_masks(rows, pattern):
        found |= 1 << mask
    if not found:
        return 0
    for j in range(len(rows)):
        found |= (found & _neighbourhoods_without(len(rows), j)) << (1 << j)
    return found


def _neighbourhoods_without(size, j):
    """The neighbourhoods N of a new vertex over `size` vertices that miss
    vertex j, as one 2^size-bit integer with bit N set for each: runs of
    2^j ones, 2^(j+1) apart."""
    step = 1 << j
    return ((1 << step) - 1) * (((1 << (1 << size)) - 1) // ((1 << 2 * step) - 1))


def gfree_graph_reps(g_pattern, n, budget=None):
    """All g-free graphs on exactly n vertices up to isomorphism, built by
    vertex-by-vertex augmentation with canonical-form deduplication.
    Returns (list of Graphs, exact flag, per-level counts).

    Each base B on `size` vertices decides all its children B + v(N) at
    once: _found_neighbourhoods gives, from B's extension masks, the N
    whose child holds a copy of g through v, as one 2^size-bit integer
    with bit N set for each.  An N holding the larger of two twins u < w
    of B but not the smaller joins the skipped bits: swapping the twins
    gives an isomorphic, smaller child, already tried.  The other N are
    tried in increasing order.  Every N, skipped or tried, counts against
    the budget, so the budget cuts a base at a neighbourhood index.

    An absent child is then relabelled by _degree_relabelling.  A
    relabelling is an isomorphism, so two children with the same relabelled
    rows are isomorphic, whatever the order was built from: the invariants
    only decide how often isomorphic children meet.  A child whose
    relabelled rows an earlier child of this level had is therefore a
    duplicate, its key already in `seen`, and it is skipped.  Only the
    others become a Graph keyed by canonical_form.  So the graphs kept are
    the ones trying every neighbourhood would keep: the first child per
    key, in the order of the keys.  Bucketing by an invariant would save no
    call, since every class needs its key for that order and every
    duplicate a proof."""
    if n < 1:
        raise InputError("n >= 1 required")
    reps = [Graph(1, [])]
    counts = [1]
    steps = 0
    exact = True
    for size in range(1, n):
        seen = {}
        labels = set()
        without = [_neighbourhoods_without(size, j) for j in range(size)]
        for base in reps:
            limit = 1 << size
            if budget is not None and steps + limit > budget:
                limit = max(budget - steps, 0)
                exact = False
            steps += limit
            base_rows = base.rows()
            skip = _found_neighbourhoods(base_rows, g_pattern)
            for w in range(size):
                for u in range(w):
                    if base_rows[u] & ~(1 << w) == base_rows[w] & ~(1 << u):
                        # twins u < w: N holding w but not u
                        skip |= without[u] & ~without[w]
            for nbhd in bits(~skip & ((1 << limit) - 1)):
                rows = _child_rows(base_rows, nbhd)
                label = _degree_relabelling(rows)
                if label in labels:
                    continue
                labels.add(label)
                cand = Graph.from_rows(rows)
                key = canonical_form(cand)
                if key not in seen:
                    seen[key] = cand
            if not exact:
                break
        reps = [seen[k] for k in sorted(seen)]
        counts.append(len(reps))
        if not exact:
            break
    return reps, exact, counts


def brute_force_f(f_pattern, g_pattern, n, budget=None):
    """Exact f_{F,G}(n) for n <= 9: the minimum over all g-free graphs on n
    vertices (up to isomorphism) of the maximum f-free induced subset.

    When the enumeration budget runs out below n vertices, the value is
    None: a minimum over smaller graphs says nothing about n.  When it runs
    out inside level n, the value is an upper bound, the minimum over the
    n-vertex graphs seen.  exact is False in both cases.

    The minimum needs each graph's optimum only where it beats the running
    minimum best.  So after the first graph a decision search asks whether
    an f-free set of best vertices exists (max_f_free_subset with
    at_least=best); a graph that has one cannot lower the minimum.  Only a
    "no" runs the full search, and it sets the new minimum.  The witness is
    still the first graph with the smallest value."""
    if f_pattern.m < 1:
        raise InputError("f needs at least one edge")
    if n > 9:
        raise InputError("n <= 9 only; enumeration is exact desk scale")
    reps, exact, counts = gfree_graph_reps(g_pattern, n, budget=budget)
    if len(counts) < n:
        return BruteForceResult(None, False, counts, [])
    best = None
    witness = None
    for h in reps:
        if best is not None and max_f_free_subset(h, f_pattern, at_least=best).size >= best:
            continue
        res = max_f_free_subset(h, f_pattern)
        if res.status != "optimal":
            raise SelfCheckError("subset search ran out of budget on a graph of at most 9 vertices")
        if best is None or res.size < best:
            best, witness = res.size, h
    return BruteForceResult(best, exact, counts, witness.edges() if witness is not None else [])
