"""Reference implementations used to cross-check the package.

Everything here is deliberately naive: masks and itertools over all
candidates, no pruning beyond feasibility.  Tests compare package output
against these on inputs small enough for exhaustion.
"""

import itertools

import numpy as np


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


def hom_exists(pattern, source):
    """Any map V(source) -> V(pattern) carrying edges to edges."""
    for phi in itertools.product(range(pattern.n), repeat=source.n):
        if all(pattern.has_edge(phi[a], phi[b]) for a, b in source.edges()):
            return True
    return False


def blowup_hom_oracle(f, g):
    """hom-freeness via an explicit blowup: no homomorphism g -> f iff the
    blowup of f with parts of size |V(g)| contains no copy of g."""
    from erdos_rogers import blowup_graph, contains_subgraph

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


def hypergraph_independent(h, vertices):
    s = set(vertices)
    return all(not set(e) <= s for e in h.edges)
