"""Reference implementations used to cross-check the package, and the
seeded random test graphs.

Everything here is deliberately naive: masks and itertools over all
candidates, no pruning beyond feasibility.  Tests compare package output
against these on inputs small enough for exhaustion.  The G(n, p) test
graphs draw from numpy's Philox generator, so numpy is a test dependency
only; the package itself needs nothing beyond the standard library.
"""

import hashlib
import itertools

import numpy as np

from erdos_rogers import Graph, InputError, VertexSet, contains_subgraph, max_f_free_subset
from erdos_rogers.graphs import bits, find_short_cycle
from erdos_rogers.hypergraphs import LooseCycle
from erdos_rogers.pipelines import canonical_form


def seeded_sample(rng, population, k):
    """k distinct items of population drawn from a SeededRng, order
    randomized by a partial Fisher-Yates shuffle."""
    items = list(population)
    if k > len(items):
        raise ValueError("sample larger than population")
    for i in range(k):
        j = i + rng.randrange(len(items) - i)
        items[i], items[j] = items[j], items[i]
    return items[:k]


def rescan_greedy_independent_set(g):
    """greedy_independent_set by rescanning every live vertex for each
    pick: take the least vertex of least live degree, discard its
    neighbours, repeat."""
    rows = g.rows()
    alive = g.full_mask()
    chosen = 0
    while alive:
        best = -1
        best_deg = None
        for v in bits(alive):
            dv = (rows[v] & alive).bit_count()
            if best_deg is None or dv < best_deg:
                best, best_deg = v, dv
        chosen |= 1 << best
        alive &= ~(rows[best] | (1 << best))
    return VertexSet(chosen)


def brute_mis(g):
    """Maximum independent set size by branching on the first live vertex."""
    rows = [g.row(v) for v in range(g.n)]

    def go(mask):
        if not mask:
            return 0
        v = (mask & -mask).bit_length() - 1
        skip = go(mask & ~(1 << v))
        take = 1 + go(mask & ~(1 << v) & ~rows[v])
        return max(skip, take)

    return go((1 << g.n) - 1)


def perm_contains(host, pattern, through=None):
    """Subgraph containment by trying every injection of the pattern; with
    through set, only injections whose image holds that host vertex."""
    if pattern.n > host.n:
        return False
    pedges = list(pattern.edges())
    for combo in itertools.permutations(range(host.n), pattern.n):
        if through is not None and through not in combo:
            continue
        if all(host.has_edge(combo[a], combo[b]) for a, b in pedges):
            return True
    return False


def count_triangles(g):
    total = 0
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if not g.has_edge(a, b):
                continue
            for c in range(b + 1, g.n):
                if g.has_edge(a, c) and g.has_edge(b, c):
                    total += 1
    return total


def sphere_count(d, r):
    """Number of positive integer points with squared norm r*r, by
    convolving per-coordinate square counts instead of enumerating."""
    target = r * r
    one = np.zeros(target + 1, dtype=np.int64)
    x = 1
    while x * x <= target:
        one[x * x] = 1
        x += 1
    acc = one.copy()
    for _ in range(d - 1):
        acc = np.convolve(acc, one)[: target + 1]
    return int(acc[target])


def efr_vertex_id(inst, part, point):
    """The id of an EFR lattice point, the labelling its certificate
    states: part is 1-based, point has coordinates in [part * r], and part
    i lists its points lexicographically from part_offsets[i - 1]."""
    side = part * inst.r
    idx = 0
    for c in point:
        idx = idx * side + (c - 1)
    return inst.part_offsets[part - 1] + idx


def hom_exists(pattern, source):
    """Any map V(source) -> V(pattern) carrying edges to edges."""
    for phi in itertools.product(range(pattern.n), repeat=source.n):
        if all(pattern.has_edge(phi[a], phi[b]) for a, b in source.edges()):
            return True
    return False


def complete_multipartite(sizes):
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for u in range(sizes[i]):
                for v in range(sizes[j]):
                    edges.append((offsets[i] + u, offsets[j] + v))
    return Graph(total, edges)


def blowup_graph(base, sizes):
    """Replace vertex i of base by an independent class of sizes[i] clones;
    classes are fully joined exactly when the base vertices are adjacent."""
    if isinstance(sizes, int):
        sizes = [sizes] * base.n
    if len(sizes) != base.n:
        raise InputError("one class size per base vertex required")
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    edges = []
    for u, v in base.upper_edges():
        for i in range(sizes[u]):
            for j in range(sizes[v]):
                edges.append((offsets[u] + i, offsets[v] + j))
    return Graph(total, edges)


def blowup_hom_oracle(f, g):
    """hom-freeness via an explicit blowup: no homomorphism g -> f iff the
    blowup of f with parts of size |V(g)| contains no copy of g."""
    if g.n == 0:
        return False
    if f.n == 0:
        return True
    host = blowup_graph(f, [g.n] * f.n)
    return not contains_subgraph(host, g).found


def brute_max_ffree(g, pattern):
    """Largest vertex subset whose induced subgraph has no copy of pattern."""
    from erdos_rogers.graphs import induced_subgraph

    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if not perm_contains(induced_subgraph(g, list(combo)), pattern):
                return size
    return 0


def copy_vertex_masks(g, pattern):
    """The vertex masks of every copy of pattern in g: each injection of the
    pattern's vertices 0, 1, ..., grown one vertex at a time, keeping the
    pattern's edges back to the vertices already placed."""
    rows, prows = g.rows(), pattern.rows()
    masks = set()

    def grow(image):
        k = len(image)
        if k == pattern.n:
            masks.add(sum(1 << v for v in image))
            return
        for v in range(g.n):
            if v not in image and all((rows[v] >> image[a]) & 1 for a in bits(prows[k] & ((1 << k) - 1))):
                grow(image + [v])

    grow([])
    return masks


def max_copy_free_size(n, masks):
    """Size of a largest subset of range(n) holding no mask of masks whole,
    over all 2^n subsets: a subset is bad when it holds a mask or a bad
    subset one vertex smaller."""
    bad = np.zeros(1 << n, dtype=bool)
    bad[sorted(masks)] = True
    sizes = np.zeros(1 << n, dtype=np.int64)
    every = np.arange(1 << n)
    for b in range(n):
        view = bad.reshape(-1, 2, 1 << b)
        view[:, 1, :] |= view[:, 0, :]
        sizes += (every >> b) & 1
    return int(sizes[~bad].max())


def per_step_max_f_free_subset(g, pattern, budget=2_000_000):
    """(mask, status, nodes) of max_f_free_subset the per-step way: the
    same greedy seed, order and bound, with one recursive branch per
    vertex and a forced containment call at every step, nothing memoised."""
    def free_through(mask, v):
        res = contains_subgraph(g, pattern, forced_vertex=v, within=mask)
        assert res.status != "unknown"
        return not res.found

    def branch(i, cur_mask, cur_size):
        if cur_size + (g.n - i) <= best[0]:
            return True
        if i == g.n:
            best[0], best[1] = cur_size, cur_mask
            return True
        best[2] += 1
        if best[2] > budget:
            return False
        grown = cur_mask | (1 << i)
        if free_through(grown, i) and not branch(i + 1, grown, cur_size + 1):
            return False
        return branch(i + 1, cur_mask, cur_size)

    seed_mask = 0
    for v in sorted(range(g.n), key=lambda v: (g.degree(v), v)):
        if free_through(seed_mask | (1 << v), v):
            seed_mask |= 1 << v
    best = [seed_mask.bit_count(), seed_mask, 0]
    status = "optimal" if branch(0, 0, 0) else "lower-bound"
    return best[1], status, best[2]


def recursive_max_independent_set(g, budget=2_000_000):
    """(mask, status, nodes) of max_independent_set with one recursive
    call per included pivot: the same greedy seed, low-degree rule, pivot
    and bound."""
    rows = g.rows()

    def branch(alive, cur_mask, cur_size):
        while True:
            best[2] += 1
            if best[2] > budget:
                return False
            count = alive.bit_count()
            if cur_size + count <= best[0]:
                return True
            if count == 0:
                best[0], best[1] = cur_size, cur_mask
                return True
            pivot, pivot_deg, low = -1, -1, -1
            for v in bits(alive):
                dv = (rows[v] & alive).bit_count()
                if dv <= 1:
                    low = v
                    break
                if dv > pivot_deg:
                    pivot_deg, pivot = dv, v
            if low >= 0:
                cur_mask |= 1 << low
                cur_size += 1
                alive &= ~(rows[low] | (1 << low))
                continue
            taken = alive & ~(rows[pivot] | (1 << pivot))
            if not branch(taken, cur_mask | (1 << pivot), cur_size + 1):
                return False
            alive &= ~(1 << pivot)

    seed = rescan_greedy_independent_set(g)
    best = [len(seed), seed.mask, 0]
    status = "optimal" if branch(g.full_mask(), 0, 0) else "lower-bound"
    return best[1], status, best[2]


def recursive_list_k_cycles(g, k, through=None, cap=None):
    """(cycles, truncated) of list_k_cycles by a DFS that extends every
    path to k - 1 vertices after the root and then tests whether its end
    closes the cycle: the same roots, orientation, order and cap."""
    rows = g.rows()
    out = []
    roots = [through] if through is not None else range(g.n)
    restrict = through is None
    for root in roots:
        for s in bits(rows[root]):
            if restrict and s < root:
                continue
            if _extend_path(rows, k, root, s, (1 << root) | (1 << s), [s], restrict, out, cap):
                return out, True
    return out, False


def _extend_path(rows, k, root, last, visited, path, restrict_gt, out, cap):
    if len(path) == k - 1:
        if (rows[last] >> root) & 1 and path[-1] > path[0]:
            out.append((root,) + tuple(path))
            return cap is not None and len(out) >= cap
        return False
    for w in bits(rows[last] & ~visited):
        if w == root or (restrict_gt and w < root):
            continue
        path.append(w)
        full = _extend_path(rows, k, root, w, visited | (1 << w), path, restrict_gt, out, cap)
        path.pop()
        if full:
            return True
    return False


def disjoint_cycles(count, length):
    """count vertex-disjoint cycles of the given length, cycle c on the
    vertices c * length to c * length + length - 1."""
    return Graph(count * length, [
        (c * length + j, c * length + (j + 1) % length) for c in range(count) for j in range(length)
    ])


def circulant_regular(n, jumps):
    """The circulant graph on Z_n joining i to i + j for each jump j; with
    distinct jumps below n / 2 it is 2 |jumps|-regular."""
    return Graph(n, sorted({tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps}))


def find_any_sunflower(family, m):
    """Exhaustive search for m sets with a common pairwise intersection."""
    for combo in itertools.combinations(range(len(family)), m):
        sets = [family[i] for i in combo]
        core = set.intersection(*sets)
        ok = True
        for i in range(m):
            for j in range(i + 1, m):
                if sets[i] & sets[j] != core:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return [family[i] for i in combo]
    return None


def naive_loose_cycles(h, length):
    """Count loose cycles of the given length by trying every edge tuple.

    Length 2 means two edges sharing at least two vertices.  Longer cycles
    need cyclically consecutive edges to share exactly one vertex, all link
    vertices distinct, and non-consecutive edges disjoint.
    """
    edges = [set(e) for e in h.edges]
    if length == 2:
        return sum(
            1
            for i in range(len(edges))
            for j in range(i + 1, len(edges))
            if len(edges[i] & edges[j]) >= 2
        )
    found = set()
    for combo in itertools.permutations(range(len(edges)), length):
        if combo[0] != min(combo):
            continue
        es = [edges[i] for i in combo]
        ok = True
        for i in range(length):
            for j in range(i + 1, length):
                inter = es[i] & es[j]
                consecutive = j - i == 1 or (i == 0 and j == length - 1)
                if consecutive and len(inter) != 1:
                    ok = False
                elif not consecutive and inter:
                    ok = False
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        links = [next(iter(es[i] & es[(i + 1) % length])) for i in range(length)]
        if len(set(links)) == length:
            found.add(frozenset(combo))
    return len(found)


def all_pairs_loose_cycles(h, length, limit=None):
    """find_loose_cycles by intersecting every pair of edge sets: length 2
    is the pairs sharing at least two vertices, and longer cycles grow from
    the pairs sharing exactly one, in the package's canonical order."""
    out = []
    if length < 2:
        raise InputError("loose cycles have length at least 2")
    esets = [frozenset(e) for e in h.edges]
    if length == 2:
        for i in range(h.m):
            for j in range(i + 1, h.m):
                inter = esets[i] & esets[j]
                if len(inter) >= 2:
                    out.append(LooseCycle((i, j), tuple(sorted(inter))))
                    if limit is not None and len(out) >= limit:
                        return out
        return out

    meet = [[] for _ in range(h.m)]
    for i in range(h.m):
        for j in range(i + 1, h.m):
            inter = esets[i] & esets[j]
            if len(inter) == 1:
                v = next(iter(inter))
                meet[i].append((j, v))
                meet[j].append((i, v))

    def extend(path, verts, union):
        if limit is not None and len(out) >= limit:
            return
        last = path[-1]
        first = path[0]
        if len(path) == length - 1:
            for j, v in meet[last]:
                if j <= first or j in path:
                    continue
                if j <= path[1]:
                    continue
                if v in verts or not esets[j].isdisjoint(union - esets[last] - esets[first]):
                    continue
                closing = esets[j] & esets[first]
                if len(closing) != 1:
                    continue
                u = next(iter(closing))
                if u == v or u in verts:
                    continue
                if esets[j] & esets[last] != {v}:
                    continue
                out.append(LooseCycle(path + (j,), verts + (v, u)))
                if limit is not None and len(out) >= limit:
                    return
            return
        for j, v in meet[last]:
            if j <= first or j in path or v in verts:
                continue
            if not esets[j].isdisjoint(union - esets[last]):
                continue
            extend(path + (j,), verts + (v,), union | esets[j])

    for i in range(h.m):
        for j, v in meet[i]:
            if j <= i:
                continue
            extend((i, j), (v,), esets[i] | esets[j])
            if limit is not None and len(out) >= limit:
                return out
    return out


def first_loose_triangle(h):
    """First loose triangle of a linear hypergraph, or None, scanning the
    shared vertex v of the first two edges ascending, then the pairs i < j
    of edges through v, then every third edge k > j ascending.  Returns
    {"edges": [i, j, k], "pairwise_vertices": [v, v_ik, v_jk]}."""
    edges = [set(e) for e in h.edges]
    for v in range(h.n):
        through = [i for i, e in enumerate(edges) if v in e]
        for i, j in itertools.combinations(through, 2):
            for k in range(j + 1, len(edges)):
                ik = edges[i] & edges[k]
                jk = edges[j] & edges[k]
                if len(ik) != 1 or len(jk) != 1:
                    continue
                (vik,), (vjk,) = ik, jk
                if not v == vik == vjk:
                    return {"edges": [i, j, k], "pairwise_vertices": [v, vik, vjk]}
    return None


def set_triangle_witness(g):
    """triangle_witness by a set of all edges: for u ascending, the first
    pair v < w of u's neighbours above u that is an edge, the pairs taken
    in lexicographic order."""
    edges = g.upper_edges()
    present = set(edges)
    for u, group in itertools.groupby(edges, lambda e: e[0]):
        above = [v for _, v in group]
        if len(above) > 1 and not present.isdisjoint(itertools.combinations(above, 2)):
            return next((u, v, w) for v, w in itertools.combinations(above, 2) if (v, w) in present)
    return None


def all_roots_short_cycle(g, max_len):
    """A shortest cycle of length <= max_len as a vertex list, else None.

    BFS from every root; each non-tree edge closes a cycle through the BFS
    tree whose length after stripping the common root path is genuine.
    The first cycle of the least length, in root then BFS order, is kept.
    """
    best = None
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in bits(g.row(u)):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and dist[w] >= dist[u]:
                        # collision edge (u,w): walk up to the meeting point
                        pu, pw = u, w
                        path_u, path_w = [u], [w]
                        while dist[pu] > dist[pw]:
                            pu = parent[pu]
                            path_u.append(pu)
                        while dist[pw] > dist[pu]:
                            pw = parent[pw]
                            path_w.append(pw)
                        while pu != pw:
                            pu = parent[pu]
                            pw = parent[pw]
                            path_u.append(pu)
                            path_w.append(pw)
                        cyc = path_u + path_w[-2::-1]
                        if len(set(cyc)) == len(cyc):
                            if best is None or len(cyc) < len(best):
                                best = cyc
            frontier = nxt
        if best is not None and len(best) == 3:
            break
    if best is not None and len(best) <= max_len:
        return best
    return None


def rebuild_prune_short_cycles(g, max_len):
    """(pruned graph, deletions) the slow way: while `find_short_cycle`
    finds a cycle of length <= max_len, delete the cycle's least edge and
    rebuild the graph from the edges left."""
    deletions = 0
    while True:
        cyc = find_short_cycle(g, max_len)
        if cyc is None:
            return g, deletions
        drop = min((min(e), max(e)) for e in zip(cyc, cyc[1:] + cyc[:1]))
        g = Graph(g.n, [e for e in g.edges() if e != drop])
        deletions += 1


def hypergraph_independent(h, vertices):
    s = set(vertices)
    return all(not set(e) <= s for e in h.edges)


def perm_canonical_form(g, classes):
    """The canonical form by exhaustion: the minimum upper-triangle integer
    over every permutation that keeps each refinement class on its own
    positions.  `classes` is the class index per vertex."""
    by_class = {}
    for v, c in enumerate(classes):
        by_class.setdefault(c, []).append(v)
    groups = [by_class[c] for c in sorted(by_class)]
    best = None
    for parts in itertools.product(*(itertools.permutations(grp) for grp in groups)):
        perm = [v for part in parts for v in part]
        key = 0
        bit = 0
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if g.has_edge(perm[i], perm[j]):
                    key |= 1 << bit
                bit += 1
        if best is None or key < best:
            best = key
    return (g.n, best if best is not None else 0)


def recursive_place(rows, steps, image, i, used, start, within, rank, budget, nodes, distinct):
    """The recursive placement search that subgraph._place replaced: place
    steps i, i+1, ... of a plan by backtracking; nodes[0] counts candidate
    placements.  True once placed, False when exhausted, None when the
    budget runs out.  Placed vertices join `used` through the `distinct`
    mask.  Candidates come in index order, or by rank[v] when rank is
    given."""
    earlier, need = steps[i]
    allowed = start if i == 0 else within & ~used
    for j in earlier:
        allowed &= rows[image[j]]
    candidates = bits(allowed) if rank is None else sorted(bits(allowed), key=rank.__getitem__)
    last = i + 1 == len(steps)
    for v in candidates:
        if (rows[v] & within).bit_count() < need:
            continue
        nodes[0] += 1
        if nodes[0] > budget:
            return None
        image[i] = v
        if last:
            return True
        sub = recursive_place(rows, steps, image, i + 1, used | (1 << v) & distinct,
                              start, within, rank, budget, nodes, distinct)
        if sub is not False:
            return sub
    return False


def recursive_run_plans(rows, plans, budget, start, within, rank, distinct):
    """subgraph._run_plans on recursive_place: (status, plan index, map
    indexed by pattern vertex, nodes)."""
    nodes = [0]
    for index, (order, steps) in enumerate(plans):
        image = [-1] * len(order)
        ok = recursive_place(rows, steps, image, 0, 0, start, within, rank, budget, nodes, distinct)
        if ok:
            mapping = [-1] * len(order)
            for p, v in zip(order, image):
                mapping[p] = v
            return "found", index, tuple(mapping), nodes[0]
        if ok is None:
            return "unknown", None, None, nodes[0]
    return "absent", None, None, nodes[0]


def unpruned_gfree_graph_reps(g_pattern, n, budget=None):
    """gfree_graph_reps without its skip rules: every base tries every
    neighbourhood of the new vertex with a forced containment search, and
    every g-free child is keyed by canonical_form.  Returns (reps, exact,
    counts) as the package does."""
    reps = [Graph(1, [])]
    counts = [1]
    steps = 0
    exact = True
    for size in range(1, n):
        seen = {}
        for base in reps:
            for nbhd in range(1 << size):
                steps += 1
                if budget is not None and steps > budget:
                    exact = False
                    break
                cand = Graph(size + 1, base.edges() + [(u, size) for u in bits(nbhd)])
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


def full_search_brute_force_f(f_pattern, g_pattern, n):
    """f_{F,G}(n) as (value, witness edges, level counts) from a full
    max_f_free_subset search on every representative of
    unpruned_gfree_graph_reps; the witness is the first representative of
    the smallest value."""
    reps, _, counts = unpruned_gfree_graph_reps(g_pattern, n)
    best = witness = None
    for h in reps:
        res = max_f_free_subset(h, f_pattern)
        assert res.status == "optimal"
        if best is None or res.size < best:
            best, witness = res.size, h
    return best, witness.edges(), counts


def numpy_rng(rng):
    """A numpy Generator on a Philox stream keyed by a SeededRng's (seed,
    label).

    Philox is itself counter based, so bulk draws stay platform stable.
    The key is derived from a disjoint hash domain, so scalar draws from the
    same SeededRng cannot alias it.
    """
    raw = hashlib.blake2b(b"numpy", key=rng._key, digest_size=32).digest()
    key = int.from_bytes(raw[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def gnp_graph(n, p, rng):
    gen = numpy_rng(rng)
    edges = []
    if n >= 2:
        u = gen.random(n * (n - 1) // 2)
        k = 0
        for a in range(n):
            for b in range(a + 1, n):
                if u[k] < p:
                    edges.append((a, b))
                k += 1
    return Graph(n, edges)


def bipartite_gnp(a, b, p, rng):
    """Binomial bipartite graph; left part is 0..a-1."""
    gen = numpy_rng(rng)
    u = gen.random((a, b))
    edges = [(i, a + j) for i in range(a) for j in range(b) if u[i, j] < p]
    return Graph(a + b, edges)


def islice_subsets(indices, t, r):
    """The subsets at the increasing positions indices of
    combinations(range(t), r), by walking the one iterator forward from
    each kept subset to the next."""
    subsets = itertools.combinations(range(t), r)
    out = []
    prev = -1
    for i in indices:
        out.append(next(itertools.islice(subsets, i - prev - 1, None)))
        prev = i
    return out
