"""Output checks that share no code with the package.

Every function here works on plain Python data parsed from the bytes a job
produced (graph and hypergraph text, certificate JSON) and recomputes the
property it checks from scratch: small backtracking searches over
adjacency sets and bitmasks, the benchmark's own EFR edge list, exhaustive
subset scans on hosts small enough for them.  Nothing is compared with a
stored copy of earlier output.
"""

import json
from itertools import combinations

# Pattern graphs as (vertex count, edge list), written out here so that the
# checks do not lean on the package's named_graph table.
PATTERNS = {
    "k2": (2, [(0, 1)]),
    "p3": (3, [(0, 1), (1, 2)]),
    "k3": (3, [(0, 1), (1, 2), (0, 2)]),
    "c4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "c5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
}

# Numbers of graphs on 1..8 vertices, up to isomorphism, with no triangle
# (OEIS A006785) and with no 4-cycle (OEIS A006786).
GFREE_COUNTS = {
    "k3": [1, 2, 3, 7, 14, 38, 107, 410],
    "c4": [1, 2, 4, 8, 18, 44, 117, 351],
}

# Small Ramsey numbers R(G, K_k): R(3,2)=3, R(3,3)=6, R(3,4)=9 and
# R(C4,K2)=4, R(C4,K3)=7, R(C4,K4)=10.
RAMSEY = {
    "k3": {2: 3, 3: 6, 4: 9},
    "c4": {2: 4, 3: 7, 4: 10},
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_graph(data):
    """(n, edge list) from graph text: an "n m" header, then "u v" lines."""
    lines = data.decode().split("\n")
    n, m = (int(x) for x in lines[0].split())
    edges = [tuple(int(x) for x in ln.split()) for ln in lines[1 : m + 1]]
    if len(edges) != m:
        raise ValueError(f"header announces {m} edges, body has {len(edges)}")
    return n, edges


def parse_hypergraph(data):
    """(n, edge list) from hypergraph text: an "n m [r]" header, one edge a line."""
    lines = data.decode().split("\n")
    head = [int(x) for x in lines[0].split()]
    n, m = head[0], head[1]
    edges = [tuple(int(x) for x in ln.split()) for ln in lines[1 : m + 1]]
    if len(edges) != m:
        raise ValueError(f"header announces {m} edges, body has {len(edges)}")
    return n, edges


def parse_vertex_line(data):
    """The vertex list from a "set=[...]" line."""
    for line in data.decode().split("\n"):
        if line.startswith("set="):
            return json.loads(line[4:])
    raise ValueError("no set= line")


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# ---------------------------------------------------------------------------
# EFR sphere-direction hypergraphs
# ---------------------------------------------------------------------------

def sphere_direction_count(d, r):
    """|A|: the ways to write r^2 as an ordered sum of d positive squares,
    counted by a table over partial sums."""
    target = r * r
    ways = [0] * (target + 1)
    ways[0] = 1
    for _ in range(d):
        nxt = [0] * (target + 1)
        for total, count in enumerate(ways):
            if not count:
                continue
            x = 1
            while total + x * x <= target:
                nxt[total + x * x] += count
                x += 1
        ways = nxt
    return ways[target]


def efr_edges(d, r, R):
    """The EFR edge list in its documented labeling: part i (1-based) lists
    the points of [i*r]^d in lexicographic order after the points of the
    earlier parts; edge (x, a) is x, x+a, ..., x+(R-1)a for x in [r]^d and a
    on the positive sphere of radius r, x outer and a inner, both in
    lexicographic order."""

    def grid(side):
        if d == 0:
            return [()]
        out = [()]
        for _ in range(d):
            out = [p + (c,) for p in out for c in range(1, side + 1)]
        return out

    directions = [p for p in grid(r) if sum(c * c for c in p) == r * r]
    offsets = [0]
    for i in range(1, R):
        offsets.append(offsets[-1] + (i * r) ** d)

    def label(part, point):
        side = part * r
        idx = 0
        for c in point:
            idx = idx * side + (c - 1)
        return offsets[part - 1] + idx

    edges = []
    for x in grid(r):
        for a in directions:
            edges.append(
                tuple(label(i + 1, tuple(x[j] + i * a[j] for j in range(d))) for i in range(R))
            )
    return edges


def shared_vertex_pair(edges):
    """A vertex pair lying in two edges (so the hypergraph is not linear), or None."""
    seen = set()
    for e in edges:
        for pair in combinations(sorted(e), 2):
            if pair in seen:
                return pair
            seen.add(pair)
    return None


def edge_between_disjoint(graph_edges, hyperedges):
    """A graph edge whose two endpoint hyperedges share no vertex, or None."""
    for u, v in graph_edges:
        if set(hyperedges[u]).isdisjoint(hyperedges[v]):
            return (u, v)
    return None


# ---------------------------------------------------------------------------
# subgraphs of graphs
# ---------------------------------------------------------------------------

def find_triangle(n, edges):
    adj = adjacency(n, edges)
    for u, v in edges:
        common = adj[u] & adj[v]
        if common:
            return (u, v, min(common))
    return None


def find_cycle(n, edges, k, within=None):
    """A k-cycle (as a subgraph, not necessarily induced) among the vertices
    of `within` (all vertices when None), as a vertex tuple, or None.  Paths
    start at their smallest vertex."""
    allowed = set(range(n)) if within is None else set(within)
    adj = adjacency(n, edges)
    for start in sorted(allowed):
        stack = [(start, (start,))]
        while stack:
            last, path = stack.pop()
            if len(path) == k:
                if start in adj[last]:
                    return path
                continue
            for w in adj[last]:
                if w > start and w in allowed and w not in path:
                    stack.append((w, path + (w,)))
    return None


def copy_masks(n, edges, pattern):
    """Vertex bitmasks of all copies of the pattern (vertex count, edge list)."""
    pn, pedges = pattern
    adj = adjacency(n, edges)
    earlier = [[q for q in range(p) if (p, q) in pedges or (q, p) in pedges] for p in range(pn)]
    masks = set()
    image = []

    def place(p):
        if p == pn:
            masks.add(sum(1 << v for v in image))
            return
        for v in range(n):
            if v in image or any(image[q] not in adj[v] for q in earlier[p]):
                continue
            image.append(v)
            place(p + 1)
            image.pop()

    place(0)
    return masks


def has_copy(n, edges, pattern, within=None):
    """Does the subgraph induced on `within` (all vertices when None) hold a
    copy of the pattern?"""
    if within is not None:
        keep = set(within)
        edges = [(u, v) for u, v in edges if u in keep and v in keep]
    return bool(copy_masks(n, edges, pattern))


def max_free_subset_size(n, masks):
    """Largest vertex set containing none of the given masks, by trying
    removal sets in increasing size."""
    for k in range(n + 1):
        for removed in combinations(range(n), k):
            rm = sum(1 << v for v in removed)
            if all(mask & rm for mask in masks):
                return n - k
    return 0


def independence_number(n, edges):
    """Maximum independent set size: components solved apart, vertices of
    degree at most one taken outright, otherwise branch on a vertex of
    largest degree, with the answer for each live set remembered."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    memo = {}

    def component(alive):
        start = alive & -alive
        comp = start
        frontier = start
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = nbr[v] & alive & ~comp
            comp |= new
            frontier |= new
        return comp

    def solve(alive):
        if not alive:
            return 0
        if alive in memo:
            return memo[alive]
        comp = component(alive)
        if comp != alive:
            result = solve(comp) + solve(alive & ~comp)
        else:
            best_v, best_deg = -1, -1
            low = -1
            rest = alive
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                deg = (nbr[v] & alive).bit_count()
                if deg <= 1:
                    low = v
                    break
                if deg > best_deg:
                    best_v, best_deg = v, deg
            if low >= 0:
                result = 1 + solve(alive & ~(nbr[low] | (1 << low)))
            else:
                without = solve(alive & ~(1 << best_v))
                with_v = 1 + solve(alive & ~(nbr[best_v] | (1 << best_v)))
                result = max(without, with_v)
        memo[alive] = result
        return result

    return solve((1 << n) - 1)


def clone_graph_edge_count(pattern):
    """|E(G*)|: turn the lexicographically least nonadjacent pair (v, w)
    into clones by joining both to N(v) | N(w), then drop w."""
    n, edges = pattern
    es = {frozenset(e) for e in edges}
    v, w = next((a, b) for a in range(n) for b in range(a + 1, n) if frozenset((a, b)) not in es)
    joint = {u for e in es for u in e if v in e or w in e} - {v, w}
    for x in (v, w):
        for u in joint:
            es.add(frozenset((x, u)))
    return sum(1 for e in es if w not in e)


def k2_value(g_name, n):
    """f_{K2,G}(n) read off the Ramsey table: the largest k with R(G,K_k) <= n."""
    return max(k for k, rk in RAMSEY[g_name].items() if rk <= n)


def oracle_failures(f, g, n, value, detail):
    """Check one f_{F,G}(n) answer: an exact run, level counts equal to the
    OEIS counts of G-free graphs, the Ramsey value when F = K2 and a lower
    bound otherwise, and a witness that is G-free with largest induced
    F-free set of exactly `value` vertices."""
    bad = []
    if not detail["exact"]:
        bad.append("run reports itself inexact")
    counts = GFREE_COUNTS[g][:n]
    if detail["level_counts"] != counts:
        bad.append(f"level counts {detail['level_counts']}, expected {counts}")
    floor = k2_value(g, n)
    if f == "k2" and value != floor:
        bad.append(f"value {value}, Ramsey numbers give {floor}")
    if value < floor:
        bad.append(f"value {value} below f_(K2,{g})({n}) = {floor}")
    witness = [tuple(e) for e in detail["witness_edges"]]
    if copy_masks(n, witness, PATTERNS[g]):
        bad.append(f"witness contains {g}")
    best = max_free_subset_size(n, copy_masks(n, witness, PATTERNS[f]))
    if best != value:
        bad.append(f"witness has a largest {f}-free set of {best} vertices, value is {value}")
    return bad
