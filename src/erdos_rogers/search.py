"""Search engines: exact independent / pattern-free subsets, cycle
counting, and the probabilistic lemma engines (sample-and-delete
independent sets, dependent random choice, dense-pair extraction from
cycle families, sunflower extraction).

Every engine re-validates its answer with an independent check before
returning; a failed re-check raises SelfCheckError.  Budgets are counted
in search steps, not wall-clock time, so results are reproducible.
"""

import math
from heapq import heappop, heappush
from itertools import combinations

from .errors import InputError, SelfCheckError
from .graphs import VertexSet, _odd_cycle_part, as_mask, bits
from .subgraph import DEFAULT_BUDGET, _placement_plans, _run_plans, _verify_embedding, contains_subgraph


def greedy_independent_set(g):
    """Repeatedly take a vertex of least live degree, the least such index,
    and discard its neighbors.  A heap holds (live degree, vertex) entries;
    an entry whose vertex died or whose degree fell since is stale and
    skipped.  Always returns at least ceil(n / (max_degree + 1)) vertices."""
    nbrs = [list(bits(row)) for row in g.rows()]
    degree = list(map(len, nbrs))
    heap = sorted(zip(degree, range(g.n)))
    alive = [True] * g.n
    chosen = 0
    while heap:
        d, v = heappop(heap)
        if not alive[v] or d != degree[v]:
            continue
        chosen |= 1 << v
        alive[v] = False
        dropped = [u for u in nbrs[v] if alive[u]]
        for u in dropped:
            alive[u] = False
        for u in dropped:
            for w in nbrs[u]:
                if alive[w]:
                    degree[w] -= 1
                    heappush(heap, (degree[w], w))
    return VertexSet(chosen)


def _verify_independent(g, mask):
    rows = g.rows()
    for v in bits(mask):
        if rows[v] & mask:
            w = next(bits(rows[v] & mask))
            raise SelfCheckError(f"set is not independent: edge ({v}, {w})")


class SetSearchResult:
    """A vertex set, whether the search proved optimality, its node count
    and upper, a bound on the optimum: the set's size when optimal, else
    the largest bound of any subtree the budget left open."""

    __slots__ = ("vertex_set", "status", "nodes", "upper")

    def __init__(self, vertex_set, status, nodes, upper):
        self.vertex_set = vertex_set
        self.status = status  # "optimal" | "lower-bound"
        self.nodes = nodes
        self.upper = upper

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
    best = [len(seed), seed.mask, 0]
    upper = _mis_branch(g.rows(), g.full_mask(), best, budget)
    _verify_independent(g, best[1])
    return _set_result(best, upper)


def _set_result(best, upper):
    """The result of a set search whose branch loop left best = [size,
    mask, nodes] and returned upper, None when it ended."""
    size, mask, nodes = best
    if upper is None:
        return SetSearchResult(VertexSet(mask), "optimal", nodes, size)
    return SetSearchResult(VertexSet(mask), "lower-bound", nodes, upper)


def _mis_branch(rows, alive, best, budget):
    """Search the independent sets inside alive, each branch taking its
    pivot first and leaving it out afterwards; best = [size, mask, nodes]
    is updated in place.  The leave-out branches wait on an explicit
    stack, so the depth is not bounded by the interpreter's recursion
    limit.  None when the search ends; once the node budget runs out, the
    largest cur + live bound among the incumbent, the current node and
    the open branches."""
    stack = []
    cur_mask = cur_size = 0
    while True:
        best[2] += 1
        if best[2] > budget:
            stack.append((alive, cur_mask, cur_size))  # this node is open too
            return max(best[0], *(size + live.bit_count() for live, _, size in stack))
        count = alive.bit_count()
        if cur_size + count <= best[0] or count == 0:
            if cur_size > best[0]:
                best[0], best[1] = cur_size, cur_mask
            if not stack:
                return None
            alive, cur_mask, cur_size = stack.pop()
            continue
        pivot = -1
        pivot_deg = -1
        low = -1
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
        # branch: include pivot now, exclude it once that is done
        stack.append((alive & ~(1 << pivot), cur_mask, cur_size))
        alive &= ~(rows[pivot] | (1 << pivot))
        cur_mask |= 1 << pivot
        cur_size += 1


def _forced_step(g, pattern):
    """The per-step query of the F-free search, set up once per search:
    step(grown, i) is the vertex mask of a copy of the pattern through i
    inside the subgraph induced on grown (a mask holding i), or 0 when
    there is none.  It runs the placement loop of contains_subgraph on the
    host's rows and the pattern's anchored plans, so it finds the copy
    contains_subgraph(g, pattern, forced_vertex=i, within=grown) finds, and
    checks it with the same verifier; an undecided search is a
    SelfCheckError."""
    rows = g.rows()
    edges = pattern.upper_edges()
    plans = _placement_plans(pattern.n, edges, True)
    size = pattern.n

    def step(grown, i):
        if grown.bit_count() < size:
            return 0
        status, _, mapping, _ = _run_plans(rows, plans, DEFAULT_BUDGET, 1 << i, grown, None, -1)
        if status == "absent":
            return 0
        if status == "unknown":
            raise SelfCheckError("pattern check exceeded its budget on a desk-size input")
        return _verify_embedding(rows, edges, mapping, grown, i)

    return step


def max_f_free_subset(g, pattern, budget=DEFAULT_SET_BUDGET, at_least=None):
    """Largest vertex set whose induced subgraph contains no copy of the
    pattern.  With pattern K2 this coincides with max_independent_set; the
    two engines share no code and are cross-checked in the tests.

    A greedy seed in ascending-degree order gives the first incumbent.  The
    branch search then decides vertices 0, 1, ... in order, taking each
    vertex i when it closes no copy through i.  Whether it does is answered
    first from what earlier searches at i proved: a grown set holding a
    copy kept in copies[i] closes one, and a grown set inside free[i], the
    last set i was found free in, closes none.  Only the other steps run a
    forced search through i, on the containment core's placement loop set
    up once per search (_forced_step), and record its answer.  A node is
    pruned when a packing of the copies found so far shows that no set
    below it beats the incumbent.  The returned set is re-checked whole by
    contains_subgraph before it is returned.

    With at_least = k, the search decides only whether a pattern-free set
    of k vertices exists.  It skips the greedy seed, starts from an
    incumbent of size k - 1 that holds no set, and stops at the first set
    of at least k vertices it finds.  The result holds that set, or, when
    the search ends without one, the empty set with upper = k - 1; it is
    "optimal" only when the set found closed the last open branch."""
    if pattern.n < 1 or pattern.m < 1:
        raise InputError("pattern needs at least one edge")
    n = g.n
    step = _forced_step(g, pattern)
    if at_least is None:
        # greedy seed in ascending-degree order
        seed_mask = 0
        for v in sorted(range(n), key=lambda v: (g.degree(v), v)):
            if not step(seed_mask | (1 << v), v):
                seed_mask |= 1 << v
        best = [seed_mask.bit_count(), seed_mask, 0]
        goal = n + 1
    else:
        best = [at_least - 1, 0, 0]
        goal = at_least
    upper = _ffree_branch(n, step, best, budget, goal)
    if upper is None and best[1].bit_count() < best[0]:
        upper = best[0]  # ended below the given incumbent: no set of at_least
    check = contains_subgraph(g, pattern, within=best[1])
    if check.status == "unknown":
        raise SelfCheckError("pattern check exceeded its budget on a desk-size input")
    if check.found:
        raise SelfCheckError("returned set contains a pattern copy")
    return _set_result(best, upper)


def _packing_bound(found, n, i, cur_mask, cur_size, floor):
    """An upper bound on the sets cur_mask | S, S inside {i, ..., n-1}, that
    hold no copy in found: cur_size + (n - i), less one for each copy of a
    greedy packing.  A copy joins it when it lies inside cur_mask and the
    undecided vertices and shares none of the undecided vertices that
    earlier members use; every such set misses a distinct undecided vertex
    of each member, since cur_mask holds no whole copy.  The packing stops
    once the bound is down to floor."""
    room = cur_size + n - i
    undecided = -1 << i
    blocked = ~cur_mask & ~undecided  # vertices below i left out
    for copy in found:
        if room <= floor:
            break
        if not copy & blocked:
            blocked |= copy & undecided
            room -= 1
    return room


def _ffree_branch(n, step, best, budget, goal):
    """Decide vertices 0, 1, ..., n - 1, each taken when it closes no pattern
    copy and then left out; best = [size, mask, nodes] is updated in place.
    The leave-out branches wait on an explicit stack, so the depth is not
    bounded by the interpreter's recursion limit.  None when the search
    ends; once the node budget runs out, or the incumbent reaches goal
    with branches still open, the largest packing bound among the
    incumbent, the current node and the open branches.

    Whether grown = cur_mask | {i} holds a copy through i is answered from
    earlier steps at i when they decide it: copies[i] keeps the vertex
    masks of the copies found through i (a grown set holding one holds a
    copy), and free[i] the last grown set found to have none (a grown set
    inside it has none).  Otherwise step(grown, i), the search's forced
    query, decides, and its answer is recorded.  found keeps every copy in
    the order found, for the packing bound that prunes a node before it is
    counted."""
    copies = [[] for _ in range(n)]
    free = [0] * n
    found = []
    stack = []
    i = cur_mask = cur_size = 0
    while True:
        if i == n or _packing_bound(found, n, i, cur_mask, cur_size, best[0]) <= best[0]:
            if cur_size > best[0]:
                best[0], best[1] = cur_size, cur_mask
            if not stack:
                return None
            if best[0] >= goal:
                return max(best[0], *(_packing_bound(found, n, *node, best[0]) for node in stack))
            i, cur_mask, cur_size = stack.pop()
            continue
        best[2] += 1
        if best[2] > budget:
            stack.append((i, cur_mask, cur_size))  # this node is open too
            return max(best[0], *(_packing_bound(found, n, *node, best[0]) for node in stack))
        grown = cur_mask | (1 << i)
        copy = 0  # the vertex mask of a copy through i inside grown
        if grown & ~free[i]:
            for copy in copies[i]:
                if copy & grown == copy:
                    break
            else:
                copy = step(grown, i)
                if copy:
                    copies[i].append(copy)
                    found.append(copy)
                else:
                    free[i] = grown
        if not copy:
            # include i now, exclude it once that is done
            stack.append((i + 1, cur_mask, cur_size))
            cur_mask = grown
            cur_size += 1
        i += 1


# ---------------------------------------------------------------------------
# cycle counting
# ---------------------------------------------------------------------------

CYCLE_LIST_CAP = 250_000


def _check_cycle_args(k):
    if not (3 <= k <= 12):
        raise InputError("cycle length must lie in 3..12")


def list_k_cycles(g, k, through=None, cap=None):
    """Enumerate k-cycles as vertex tuples, canonically oriented.

    With through=v0, cycles containing v0 (tuples start at v0); otherwise
    all cycles, each rooted at its minimum vertex.  With cap set, stops
    after cap cycles and reports truncation.  The paths from each root are
    walked in one loop over per-depth int masks (_cycles_from).  A
    connected component that is 2-colourable holds no cycle of odd length,
    so an odd k walks no path from a root in one.
    Returns (cycles, truncated)."""
    _check_cycle_args(k)
    rows = g.rows()
    live = _odd_cycle_part(g, g.full_mask()) if k % 2 else g.full_mask()
    out = []
    roots = [through] if through is not None else range(g.n)
    for root in roots:
        if not live >> root & 1:
            continue
        # the vertices a cycle through root may use after it
        allowed = ~(1 << root) if through is not None else -2 << root
        if _cycles_from(rows, k, root, allowed, out, cap):
            return out, True
    return out, False


def _cycles_from(rows, k, root, allowed, out, cap):
    """Append to out the k-cycles root, p[0], ..., p[k-3], w on vertices of
    allowed with p[0] < w (one orientation per cycle), in the order of a
    depth-first walk of the paths from root; True once out holds cap
    cycles.  The walk is one loop: cand[d] holds the untried candidates
    for p[d] as an int mask, taken lowest bit first, and rest[d] the
    allowed vertices that p[0..d-1] leave; a path of k - 2 vertices is
    closed by the common neighbours of its end and root above p[0]."""
    end = k - 3
    path = [0] * (k - 2)
    cand = [0] * (k - 2)
    rest = [0] * (k - 2)
    cand[0], rest[0] = rows[root] & allowed, allowed
    limit = math.inf if cap is None else cap
    d = 0
    while True:
        c = cand[d]
        if not c:
            if not d:
                return False
            d -= 1
            continue
        low = c & -c
        cand[d] = c ^ low
        v = path[d] = low.bit_length() - 1
        left = rest[d] ^ low
        if not d:
            closers = rows[root] & -(2 << v)
        if d < end:
            d += 1
            cand[d], rest[d] = rows[v] & left, left
            continue
        c = rows[v] & closers & left
        while c:
            low = c & -c
            c ^= low
            out.append((root, *path, low.bit_length() - 1))
            if len(out) >= limit:
                return True


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
    __slots__ = ("vertex_set", "expectation_bound")

    def __init__(self, vertex_set, expectation_bound):
        self.vertex_set = vertex_set
        self.expectation_bound = expectation_bound

    @property
    def size(self):
        return len(self.vertex_set)

    def __repr__(self):
        return f"SpencerResult(size={self.size}, bound={self.expectation_bound:.2f})"


def spencer_independent_set(h, rng, trials=50):
    """Sample each vertex with probability p = min(1, (n/(k|E|))^(1/(k-1))),
    then delete one vertex from every surviving edge; best of `trials` >= 1,
    the first strictly largest trial winning.

    The expected size is at least (1 - 1/k) n / d^(1/(k-1)) with d = k|E|/n.
    The returned set is re-validated as independent."""
    if h.r is None or h.r < 2:
        raise InputError("a uniform hypergraph with r >= 2 is required")
    if trials < 1:
        raise InputError("trials >= 1 required", witness={"trials": trials})
    k, n, m = h.r, h.n, h.m
    if n == 0:
        return SpencerResult(VertexSet(0), 0.0)
    if m == 0:
        full = (1 << n) - 1
        return SpencerResult(VertexSet(full), float(n))
    d = k * m / n
    p = min(1.0, (n / (k * m)) ** (1.0 / (k - 1)))
    bound = (1.0 - 1.0 / k) * n / d ** (1.0 / (k - 1))

    best_mask = 0
    for trial in range(trials):
        stream = rng.substream(f"trial-{trial}")
        mask = 0
        for v in stream.bernoulli_indices(n, p):
            mask |= 1 << v
        for e in h.edges:
            if all((mask >> v) & 1 for v in e):
                mask &= ~(1 << e[-1])
        if mask.bit_count() > best_mask.bit_count():
            best_mask = mask
    if best_mask == 0 and n >= 1:
        best_mask = 1  # a single vertex is always independent (k >= 2)
    viol = hypergraph_independence_violation(h, best_mask)
    if viol is not None:
        raise SelfCheckError(f"sample-and-delete left edge {viol} uncovered")
    return SpencerResult(VertexSet(best_mask), bound)


# ---------------------------------------------------------------------------
# dependent random choice
# ---------------------------------------------------------------------------

def count_edges_between(g, xs, ys):
    """Ordered count: pairs (x, y) in X x Y with an edge.  Equals the plain
    edge count when X and Y are disjoint."""
    xm, ym = as_mask(xs), as_mask(ys)
    rows = g.rows()
    return sum((rows[x] & ym).bit_count() for x in bits(xm))


class DrcResult:
    __slots__ = ("vertex_set", "status", "gamma", "target")

    def __init__(self, vertex_set, status, gamma, target):
        self.vertex_set = vertex_set
        self.status = status  # "ok" | "target-missed"
        self.gamma = gamma
        self.target = target

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
    reporting "target-missed" if no retry reached it.  A vertex of X or Y
    outside range(n) is refused, naming the least such vertex."""
    xm, ym = as_mask(xs), as_mask(ys)
    for outside in (xm >> g.n, ym >> g.n):
        if outside:
            vertex = g.n + (outside & -outside).bit_length() - 1
            raise InputError("vertex out of range", witness={"vertex": vertex, "n": g.n})
    if xm & ym:
        raise InputError("X and Y must be disjoint", witness={"shared": next(bits(xm & ym))})
    if s < 1:
        raise InputError("s >= 1 required")
    if retries < 1:
        raise InputError("retries >= 1 required", witness={"retries": retries})
    rows = g.rows()
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
                    codeg = (rows[u] & rows[v] & xm).bit_count()
                    if codeg < threshold:
                        bad_counts[u] = bad_counts.get(u, 0) + 1
                        bad_counts[v] = bad_counts.get(v, 0) + 1
            if not bad_counts:
                return wmask
            worst = max(bad_counts, key=lambda v: (bad_counts[v], -v))
            wmask &= ~(1 << worst)

    best_mask = 0
    for attempt in range(retries):
        stream = rng.substream(f"try-{attempt}")
        sample = [x_list[stream.randrange(nx)] for _ in range(s)]
        common = ym
        for x in sample:
            common &= rows[x]
        z = clean(common)
        if z.bit_count() > best_mask.bit_count():
            best_mask = z
        if best_mask.bit_count() >= target:
            break

    # exhaustive pair audit of the surfaced set
    zl = list(bits(best_mask))
    for a in range(len(zl)):
        for b in range(a + 1, len(zl)):
            codeg = (rows[zl[a]] & rows[zl[b]] & xm).bit_count()
            if codeg < threshold:
                raise SelfCheckError(
                    f"pair ({zl[a]}, {zl[b]}) has {codeg} common neighbors < {threshold}"
                )
    status = "ok" if best_mask.bit_count() >= target else "target-missed"
    return DrcResult(VertexSet(best_mask), status, gamma, target)


# ---------------------------------------------------------------------------
# dense pair extraction from the k-cycles through a vertex
# ---------------------------------------------------------------------------

class DensePair:
    __slots__ = ("X", "Y", "edges_between", "gamma", "delta")

    def __init__(self, X, Y, edges_between, gamma, delta):
        self.X = X
        self.Y = Y
        self.edges_between = edges_between
        self.gamma = gamma
        self.delta = delta

    def __repr__(self):
        return f"DensePair(|X|={len(self.X)}, |Y|={len(self.Y)}, gamma={self.gamma:.4f})"


def ckprop_dense_pair(g, v0, k):
    """Extract a dense pair (X, Y) from the k-cycles through v0, a vertex
    of g (one outside range(n) is refused).

    Cycles are canonically ordered (v0, s1, ..., s_{k-1}) with s1 < s_{k-1}.
    The i-th trace sets X_i = {s_i}.  For i = 2..k-2 the vertices of X_i are
    bucketed dyadically by their degree into the previous refined level (a
    vertex with degree deg lands in bucket j with d/2^(j+1) < deg <= d/2^j),
    the bucket retaining the most surviving cycles wins (ties toward smaller
    j), and cycles whose s_i fell outside it are dropped.  X is the last
    refined interior level, Y the trace of the survivors one step further.

    The dyadic degree invariant of every chosen bucket is asserted.  The
    result carries the measured edge count and density gamma of (X, Y) and
    delta = (number of cycles) / d^(k-1), with d the maximum degree.
    """
    _check_cycle_args(k)
    if not 0 <= v0 < g.n:
        raise InputError("root vertex out of range", witness={"v0": v0, "n": g.n})
    rows = g.rows()
    d = g.max_degree()
    if d < 2:
        raise InputError("maximum degree must be at least 2")
    cycles, truncated = list_k_cycles(g, k, through=v0, cap=CYCLE_LIST_CAP)
    if truncated:
        raise InputError("too many k-cycles through the root vertex to list",
                         witness={"v0": v0, "k": k, "cap": CYCLE_LIST_CAP})
    if not cycles:
        raise InputError("no k-cycles through the root vertex", witness={"v0": v0, "k": k})

    delta = len(cycles) / d ** (k - 1)

    prev_mask = 0
    for cyc in cycles:
        prev_mask |= 1 << cyc[1]

    survivors = cycles
    for i in range(2, k - 1):
        xi = set(cyc[i] for cyc in cycles)
        # count surviving cycles per dyadic degree bucket
        bucket_cycles = {}
        for cyc in survivors:
            v = cyc[i]
            deg = (rows[v] & prev_mask).bit_count()
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
            deg = (rows[v] & prev_mask).bit_count()
            if deg == 0:
                continue
            if int(math.floor(math.log2(d / deg))) == best_j:
                chosen_mask |= 1 << v
        # per-level dyadic degree invariant
        for v in bits(chosen_mask):
            deg = (rows[v] & prev_mask).bit_count()
            if not (a_i / 2.0 <= deg <= a_i):
                raise SelfCheckError(
                    f"level {i}: vertex {v} degree {deg} outside [{a_i / 2}, {a_i}]"
                )
        prev_mask = chosen_mask

    x_mask = prev_mask
    y_mask = 0
    for cyc in survivors:
        y_mask |= 1 << cyc[k - 1]

    X, Y = VertexSet(x_mask), VertexSet(y_mask)
    e_xy = count_edges_between(g, x_mask, y_mask)
    gamma = e_xy / (len(X) * len(Y)) if len(X) and len(Y) else 0.0
    return DensePair(X, Y, e_xy, gamma, delta)


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


def _extract_sunflower(sets, m):
    """A sunflower with m petals among sets, or None: a maximal pairwise
    disjoint subfamily, else the link of the most frequent element of its
    union, searched the same way."""
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
    inner = _extract_sunflower(link, m)
    if inner is None:
        return None
    return Sunflower(inner.core | {x}, [p | {x} for p in inner.petals])


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

    flower = _extract_sunflower(fam, m)
    if flower is not None:
        validate_sunflower(fam, flower, m)
    return flower
