"""Search engines: exact independent / pattern-free subsets, cycle
counting, and the probabilistic lemma engines (sample-and-delete
independent sets, dependent random choice, dense-pair extraction from
cycle families, sunflower extraction).

Every engine re-validates its answer with an independent check before
returning; a failed re-check raises SelfCheckError.  Budgets are counted
in search steps, not wall-clock time, so results are reproducible.
"""

import math
from itertools import combinations

from .errors import InputError, SelfCheckError
from .graphs import VertexSet, as_mask, bits
from .hypergraphs import Hypergraph
from .subgraph import contains_subgraph


def greedy_independent_set(g):
    """Repeatedly take a minimum-degree vertex and discard its neighbors.
    Always returns at least ceil(n / (max_degree + 1)) vertices."""
    alive = g.full_mask()
    chosen = 0
    while alive:
        best = -1
        best_deg = None
        for v in bits(alive):
            dv = (g.row(v) & alive).bit_count()
            if best_deg is None or dv < best_deg:
                best, best_deg = v, dv
        chosen |= 1 << best
        alive &= ~(g.row(best) | (1 << best))
    return VertexSet(chosen)


def _verify_independent(g, mask):
    for v in bits(mask):
        if g.row(v) & mask:
            w = next(bits(g.row(v) & mask))
            raise SelfCheckError(f"set is not independent: edge ({v}, {w})")


class SetSearchResult:
    """A vertex set plus whether the search proved optimality."""

    __slots__ = ("vertex_set", "status", "nodes")

    def __init__(self, vertex_set, status, nodes=0):
        self.vertex_set = vertex_set
        self.status = status  # "optimal" | "lower-bound"
        self.nodes = nodes

    @property
    def size(self):
        return len(self.vertex_set)

    def __repr__(self):
        return f"SetSearchResult(size={self.size}, status={self.status!r})"


DEFAULT_SET_BUDGET = 2_000_000


def max_independent_set(g, budget=DEFAULT_SET_BUDGET):
    """Branch-and-bound maximum independent set over bit rows.

    Vertices of degree <= 1 in the live subgraph are taken greedily (always
    safe), otherwise we branch on a maximum-degree vertex.  On budget
    exhaustion the incumbent is returned with status "lower-bound"; it is
    never smaller than the greedy Turan floor."""
    seed = greedy_independent_set(g)
    best_mask = seed.mask
    best_size = len(seed)
    nodes = 0
    exhausted = False

    def bb(alive, cur_mask, cur_size):
        nonlocal best_mask, best_size, nodes, exhausted
        while True:
            nodes += 1
            if nodes > budget:
                exhausted = True
                return
            count = alive.bit_count()
            if cur_size + count <= best_size:
                return
            if count == 0:
                if cur_size > best_size:
                    best_size, best_mask = cur_size, cur_mask
                return
            pivot = -1
            pivot_deg = -1
            low = -1
            for v in bits(alive):
                dv = (g.row(v) & alive).bit_count()
                if dv <= 1:
                    low = v
                    break
                if dv > pivot_deg:
                    pivot_deg, pivot = dv, v
            if low >= 0:
                cur_mask |= 1 << low
                cur_size += 1
                alive &= ~(g.row(low) | (1 << low))
                continue
            # branch: include pivot, then exclude it
            bb(alive & ~(g.row(pivot) | (1 << pivot)), cur_mask | (1 << pivot), cur_size + 1)
            if exhausted:
                return
            alive &= ~(1 << pivot)

    bb(g.full_mask(), 0, 0)
    _verify_independent(g, best_mask)
    status = "lower-bound" if exhausted else "optimal"
    return SetSearchResult(VertexSet(best_mask), status, nodes)


def _is_f_free(host, sub_mask, pattern, new_vertex=None):
    """Does the subgraph induced on sub_mask avoid pattern copies?  With
    new_vertex set, only copies through that vertex are checked (valid for
    incremental growth of an already pattern-free set)."""
    res = contains_subgraph(host, pattern, forced_vertex=new_vertex, within=sub_mask)
    if res.status == "unknown":
        raise SelfCheckError("pattern check exceeded its budget on a desk-size input")
    return res.status == "absent"


def max_f_free_subset(g, pattern, budget=DEFAULT_SET_BUDGET):
    """Largest vertex set whose induced subgraph contains no copy of the
    pattern.  With pattern K2 this coincides with max_independent_set but
    runs through the generic machinery (the two are cross-checked in the
    tests rather than sharing code)."""
    if pattern.n < 1 or pattern.m < 1:
        raise InputError("pattern needs at least one edge")
    n = g.n
    # greedy seed in ascending-degree order
    seed_mask = 0
    for v in sorted(range(n), key=lambda v: (g.degree(v), v)):
        if _is_f_free(g, seed_mask | (1 << v), pattern, new_vertex=v):
            seed_mask |= 1 << v
    best_mask = seed_mask
    best_size = seed_mask.bit_count()
    nodes = 0
    exhausted = False

    def bb(i, cur_mask, cur_size):
        nonlocal best_mask, best_size, nodes, exhausted
        if exhausted:
            return
        if cur_size + (n - i) <= best_size:
            return
        if i == n:
            if cur_size > best_size:
                best_size, best_mask = cur_size, cur_mask
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if _is_f_free(g, cur_mask | (1 << i), pattern, new_vertex=i):
            bb(i + 1, cur_mask | (1 << i), cur_size + 1)
        bb(i + 1, cur_mask, cur_size)

    bb(0, 0, 0)
    if not _is_f_free(g, best_mask, pattern):
        raise SelfCheckError("returned set contains a pattern copy")
    status = "lower-bound" if exhausted else "optimal"
    return SetSearchResult(VertexSet(best_mask), status, nodes)


# ---------------------------------------------------------------------------
# cycle counting
# ---------------------------------------------------------------------------

def _check_cycle_args(g, k):
    if not (3 <= k <= 12):
        raise InputError("cycle length must lie in 3..12")


def count_k_cycles_through(g, v0, k):
    """Exact number of k-cycles containing v0.

    Each cycle is counted once via its canonical traversal: start at v0 and
    walk toward the smaller of v0's two cycle neighbors."""
    _check_cycle_args(g, k)
    count = 0
    row0 = g.row(v0)

    def dfs(last, visited, depth, first):
        nonlocal count
        if depth == k - 1:
            if (row0 >> last) & 1 and last > first:
                count += 1
            return
        for w in bits(g.row(last) & ~visited):
            if w == v0:
                continue
            dfs(w, visited | (1 << w), depth + 1, first)

    for s in bits(row0):
        dfs(s, (1 << v0) | (1 << s), 1, s)
    return count


def list_k_cycles(g, k, through=None, cap=None):
    """Enumerate k-cycles as vertex tuples, canonically oriented.

    With through=v0, cycles containing v0 (tuples start at v0); otherwise
    all cycles, each rooted at its minimum vertex.  With cap set, stops
    after cap cycles and reports truncation.
    Returns (cycles, truncated)."""
    _check_cycle_args(g, k)
    out = []
    truncated = False

    def dfs(root, last, visited, path, restrict_gt):
        nonlocal truncated
        if truncated:
            return
        if len(path) == k - 1:
            if g.has_edge(last, root) and path[-1] > path[0]:
                out.append((root,) + tuple(path))
                if cap is not None and len(out) >= cap:
                    truncated = True
            return
        for w in bits(g.row(last) & ~visited):
            if w == root or (restrict_gt and w < root):
                continue
            path.append(w)
            dfs(root, w, visited | (1 << w), path, restrict_gt)
            path.pop()
            if truncated:
                return

    roots = [through] if through is not None else range(g.n)
    restrict = through is None
    for root in roots:
        for s in bits(g.row(root)):
            if restrict and s < root:
                continue
            dfs(root, s, (1 << root) | (1 << s), [s], restrict)
            if truncated:
                return out, True
    return out, False


# ---------------------------------------------------------------------------
# sample-and-delete independent sets in uniform hypergraphs
# ---------------------------------------------------------------------------

def hypergraph_independence_violation(h, mask):
    """Index of an edge fully inside mask, or None."""
    for i, e in enumerate(h.edges):
        if all((mask >> v) & 1 for v in e):
            return i
    return None


class SpencerResult:
    __slots__ = ("vertex_set", "expectation_bound", "trial_sizes", "best_trial", "p")

    def __init__(self, vertex_set, expectation_bound, trial_sizes, best_trial, p):
        self.vertex_set = vertex_set
        self.expectation_bound = expectation_bound
        self.trial_sizes = trial_sizes
        self.best_trial = best_trial
        self.p = p

    @property
    def size(self):
        return len(self.vertex_set)

    def __repr__(self):
        return f"SpencerResult(size={self.size}, bound={self.expectation_bound:.2f})"


def spencer_independent_set(h, rng, trials=50):
    """Sample each vertex with probability p = min(1, (n/(k|E|))^(1/(k-1))),
    then delete one vertex from every surviving edge; best of `trials`.

    The expected size is at least (1 - 1/k) n / d^(1/(k-1)) with d = k|E|/n.
    The returned set is re-validated as independent."""
    if h.r is None or h.r < 2:
        raise InputError("a uniform hypergraph with r >= 2 is required")
    k, n, m = h.r, h.n, h.m
    if n == 0:
        return SpencerResult(VertexSet(0), 0.0, [], None, 0.0)
    if m == 0:
        full = (1 << n) - 1
        return SpencerResult(VertexSet(full), float(n), [n], 0, 1.0)
    d = k * m / n
    p = min(1.0, (n / (k * m)) ** (1.0 / (k - 1)))
    bound = (1.0 - 1.0 / k) * n / d ** (1.0 / (k - 1))

    best_mask = 0
    best_trial = None
    sizes = []
    for trial in range(trials):
        stream = rng.substream(f"trial-{trial}")
        mask = 0
        for v in range(n):
            if stream.random() < p:
                mask |= 1 << v
        for e in h.edges:
            if all((mask >> v) & 1 for v in e):
                mask &= ~(1 << e[-1])
        sizes.append(mask.bit_count())
        if mask.bit_count() > best_mask.bit_count():
            best_mask, best_trial = mask, trial
    if best_mask == 0 and n >= 1:
        best_mask = 1  # a single vertex is always independent (k >= 2)
    viol = hypergraph_independence_violation(h, best_mask)
    if viol is not None:
        raise SelfCheckError(f"sample-and-delete left edge {viol} uncovered")
    return SpencerResult(VertexSet(best_mask), bound, sizes, best_trial, p)


# ---------------------------------------------------------------------------
# dependent random choice
# ---------------------------------------------------------------------------

def count_edges_between(g, xs, ys):
    """Ordered count: pairs (x, y) in X x Y with an edge.  Equals the plain
    edge count when X and Y are disjoint."""
    xm, ym = as_mask(xs), as_mask(ys)
    return sum((g.row(x) & ym).bit_count() for x in bits(xm))


class DrcResult:
    __slots__ = ("vertex_set", "status", "gamma", "threshold", "target", "retries_used", "seed_record")

    def __init__(self, vertex_set, status, gamma, threshold, target, retries_used, seed_record):
        self.vertex_set = vertex_set
        self.status = status  # "ok" | "target-missed"
        self.gamma = gamma
        self.threshold = threshold
        self.target = target
        self.retries_used = retries_used
        self.seed_record = seed_record

    @property
    def size(self):
        return len(self.vertex_set)

    def __repr__(self):
        return f"DrcResult(size={self.size}, status={self.status!r})"


def dependent_random_choice(g, xs, ys, s, rng, retries=20):
    """Dependent random choice with cleaning.

    Draw s vertices of X uniformly with replacement, take their common
    neighborhood inside Y, then repeatedly delete the vertex lying in the
    most bad pairs (pairs with fewer than gamma |X| |Y|^(-1/s) common
    neighbors in X).  The pair condition of the surviving set is verified
    exhaustively before returning: aiming for |Z| >= gamma^s |Y| / 2, and
    reporting "target-missed" if no retry reached it."""
    xm, ym = as_mask(xs), as_mask(ys)
    if xm & ym:
        raise InputError("X and Y must be disjoint", witness={"shared": next(bits(xm & ym))})
    if s < 1:
        raise InputError("s >= 1 required")
    x_list = list(bits(xm))
    y_list = list(bits(ym))
    nx, ny = len(x_list), len(y_list)
    edges = count_edges_between(g, xm, ym)
    if nx == 0 or ny == 0 or edges == 0:
        raise InputError("need at least one edge between X and Y")
    gamma = edges / (nx * ny)
    threshold = gamma * nx * ny ** (-1.0 / s)
    target = 0.5 * gamma**s * ny

    def clean(wmask):
        while True:
            bad_counts = {}
            wl = list(bits(wmask))
            for a in range(len(wl)):
                for b in range(a + 1, len(wl)):
                    u, v = wl[a], wl[b]
                    codeg = (g.row(u) & g.row(v) & xm).bit_count()
                    if codeg < threshold:
                        bad_counts[u] = bad_counts.get(u, 0) + 1
                        bad_counts[v] = bad_counts.get(v, 0) + 1
            if not bad_counts:
                return wmask
            worst = max(bad_counts, key=lambda v: (bad_counts[v], -v))
            wmask &= ~(1 << worst)

    best_mask = 0
    used = 0
    for attempt in range(retries):
        used = attempt + 1
        stream = rng.substream(f"try-{attempt}")
        sample = [x_list[stream.randrange(nx)] for _ in range(s)]
        common = ym
        for x in sample:
            common &= g.row(x)
        z = clean(common)
        if z.bit_count() > best_mask.bit_count():
            best_mask = z
        if best_mask.bit_count() >= target:
            break

    # exhaustive pair audit of the surfaced set
    zl = list(bits(best_mask))
    for a in range(len(zl)):
        for b in range(a + 1, len(zl)):
            codeg = (g.row(zl[a]) & g.row(zl[b]) & xm).bit_count()
            if codeg < threshold:
                raise SelfCheckError(
                    f"pair ({zl[a]}, {zl[b]}) has {codeg} common neighbors < {threshold}"
                )
    status = "ok" if best_mask.bit_count() >= target else "target-missed"
    return DrcResult(VertexSet(best_mask), status, gamma, threshold, target, used, rng.state())


# ---------------------------------------------------------------------------
# dense pair extraction from the k-cycles through a vertex
# ---------------------------------------------------------------------------

class DensePair:
    __slots__ = (
        "X", "Y", "edges_between", "gamma", "delta", "d", "k", "cycle_count",
        "surviving_cycles", "trace", "flags",
    )

    def __init__(self, X, Y, edges_between, gamma, delta, d, k, cycle_count, surviving_cycles, trace, flags):
        self.X = X
        self.Y = Y
        self.edges_between = edges_between
        self.gamma = gamma
        self.delta = delta
        self.d = d
        self.k = k
        self.cycle_count = cycle_count
        self.surviving_cycles = surviving_cycles
        self.trace = trace
        self.flags = flags

    def __repr__(self):
        return f"DensePair(|X|={len(self.X)}, |Y|={len(self.Y)}, gamma={self.gamma:.4f})"


def ckprop_dense_pair(g, v0, k):
    """Extract a dense pair (X, Y) from the k-cycles through v0.

    Cycles are canonically ordered (v0, s1, ..., s_{k-1}) with s1 < s_{k-1}.
    The i-th trace sets X_i = {s_i}.  For i = 2..k-2 the vertices of X_i are
    bucketed dyadically by their degree into the previous refined level (a
    vertex with degree deg lands in bucket j with d/2^(j+1) < deg <= d/2^j),
    the bucket retaining the most surviving cycles wins (ties toward smaller
    j), and cycles whose s_i fell outside it are dropped.  X is the last
    refined interior level, Y the trace of the survivors one step further.

    The dyadic degree invariant of every chosen bucket is asserted.  The
    guarantees from the underlying counting argument are evaluated as
    pass/fail flags (both published forms of the density bound), never
    assumed; downstream users take the measured gamma.
    """
    _check_cycle_args(g, k)
    d = g.max_degree()
    if d < 2:
        raise InputError("maximum degree must be at least 2")
    cycles, _ = list_k_cycles(g, k, through=v0)
    if not cycles:
        raise InputError("no k-cycles through the root vertex", witness={"v0": v0, "k": k})

    delta = len(cycles) / d ** (k - 1)
    log2d = math.log2(d)

    level_mask = {1: 0}
    for cyc in cycles:
        level_mask[1] |= 1 << cyc[1]

    survivors = cycles
    trace = []
    prev_mask = level_mask[1]
    for i in range(2, k - 1):
        xi = set(cyc[i] for cyc in cycles)
        # count surviving cycles per dyadic degree bucket
        bucket_cycles = {}
        for cyc in survivors:
            v = cyc[i]
            deg = (g.row(v) & prev_mask).bit_count()
            if deg == 0:
                continue
            j = int(math.floor(math.log2(d / deg)))
            bucket_cycles.setdefault(j, []).append(cyc)
        if not bucket_cycles:
            raise SelfCheckError("refinement emptied the cycle family")
        best_j = min(bucket_cycles, key=lambda j: (-len(bucket_cycles[j]), j))
        survivors = bucket_cycles[best_j]
        a_i = d / 2.0**best_j
        chosen_mask = 0
        for v in xi:
            deg = (g.row(v) & prev_mask).bit_count()
            if deg == 0:
                continue
            if int(math.floor(math.log2(d / deg))) == best_j:
                chosen_mask |= 1 << v
        # per-level dyadic degree invariant
        for v in bits(chosen_mask):
            deg = (g.row(v) & prev_mask).bit_count()
            if not (a_i / 2.0 <= deg <= a_i):
                raise SelfCheckError(
                    f"level {i}: vertex {v} degree {deg} outside [{a_i / 2}, {a_i}]"
                )
        trace.append(
            {
                "level": i,
                "bucket_j": best_j,
                "a_i": a_i,
                "bucket_size": chosen_mask.bit_count(),
                "surviving_cycles": len(survivors),
            }
        )
        prev_mask = chosen_mask

    x_mask = prev_mask
    y_mask = 0
    for cyc in survivors:
        y_mask |= 1 << cyc[k - 1]

    X, Y = VertexSet(x_mask), VertexSet(y_mask)
    e_xy = count_edges_between(g, x_mask, y_mask)
    gamma = e_xy / (len(X) * len(Y)) if len(X) and len(Y) else 0.0
    denom_stated = (2.0 * log2d) ** k
    denom_proof = 2.0 ** (k - 1) * log2d ** (k - 3)
    size_floor = delta * d / log2d ** (k - 3) if log2d > 0 else 0.0
    flags = {
        "edge_bound_stated": e_xy >= delta * len(X) * len(Y) / denom_stated,
        "edge_bound_proof": e_xy >= delta * len(X) * len(Y) / denom_proof,
        "edge_bound_stated_value": delta * len(X) * len(Y) / denom_stated,
        "edge_bound_proof_value": delta * len(X) * len(Y) / denom_proof,
        "size_bound": min(len(X), len(Y)) >= size_floor,
        "size_bound_value": size_floor,
    }
    return DensePair(
        X, Y, e_xy, gamma, delta, d, k, len(cycles), len(survivors), trace, flags
    )


# ---------------------------------------------------------------------------
# sunflowers
# ---------------------------------------------------------------------------

class Sunflower:
    __slots__ = ("core", "petals")

    def __init__(self, core, petals):
        self.core = frozenset(core)
        self.petals = tuple(sorted(petals, key=sorted))

    def __repr__(self):
        return f"Sunflower(core={sorted(self.core)}, petals={[sorted(p) for p in self.petals]})"


def validate_sunflower(family, flower, m):
    """Check petals come from the family, are m many and pairwise meet
    exactly in the core.  Raises SelfCheckError on violation."""
    fam = {frozenset(s) for s in family}
    if len(flower.petals) != m:
        raise SelfCheckError("wrong petal count")
    for p in flower.petals:
        if frozenset(p) not in fam:
            raise SelfCheckError("petal not a member of the family")
        if not flower.core <= frozenset(p):
            raise SelfCheckError("core not contained in a petal")
    for a, b in combinations(flower.petals, 2):
        if frozenset(a) & frozenset(b) != flower.core:
            raise SelfCheckError("two petals intersect outside the core")


def erdos_rado_sunflower(family, m):
    """Find a sunflower with m petals, or None.

    Recursive sunflower extraction: a maximal pairwise-disjoint subfamily
    either already has m petals (core empty), or its union U is small and
    some element of U lies in many sets; recurse on the link of that
    element.  For t-uniform families larger than t! (m-1)^t this always
    succeeds; below the threshold None is a legitimate answer."""
    if m < 2:
        raise InputError("need m >= 2 petals")
    fam = sorted({frozenset(s) for s in family}, key=sorted)
    if fam and len(set(len(s) for s in fam)) != 1:
        raise InputError("family must be uniform (equal set sizes)")

    def extract(sets):
        disjoint = []
        for s in sets:
            if all(s.isdisjoint(t) for t in disjoint):
                disjoint.append(s)
                if len(disjoint) == m:
                    return Sunflower(frozenset(), disjoint)
        universe = set()
        for s in disjoint:
            universe |= s
        if not universe:
            return None
        counts = {x: 0 for x in universe}
        for s in sets:
            for x in s:
                if x in counts:
                    counts[x] += 1
        x = min(counts, key=lambda el: (-counts[el], el))
        link = [s - {x} for s in sets if x in s]
        inner = extract(link)
        if inner is None:
            return None
        return Sunflower(inner.core | {x}, [p | {x} for p in inner.petals])

    flower = extract(fam)
    if flower is not None:
        validate_sunflower(fam, flower, m)
    return flower


def sunflower_threshold(t, m):
    """Family size above which an m-petal sunflower is guaranteed."""
    return math.factorial(t) * (m - 1) ** t
