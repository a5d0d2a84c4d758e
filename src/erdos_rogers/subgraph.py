"""Budgeted subgraph-copy search, in place under a vertex mask.

contains_subgraph looks for a (not necessarily induced) copy of a pattern
inside a host: an injective map sending pattern edges to host edges.  With
within=mask only the host vertices in the mask may be used, so a copy inside
an induced subgraph is found without building that subgraph; with
forced_vertex=v only copies through v count.  This is the one containment
core: F-free subset search, the C_k audits of the pipelines, the exact
oracle's augmentation and every whole-host scan call it.

The search is backtracking over bit rows.  A pattern vertex's candidates are
the common neighbors of its already placed pattern neighbors, inside the
mask and not yet used, and a candidate needs at least the pattern vertex's
degree inside the mask.  Pattern vertices are placed in a static order: the
max-degree vertex first (or, with a forced vertex, each pattern vertex in
turn as the anchor placed on it), then repeatedly the vertex with most
placed neighbors, ties to higher degree then lower index.  Those placement
plans depend only on the pattern, so they are computed once per pattern and
kept in a small LRU cache keyed on the (immutable, hashable) Graph.

Whole-host scans (within=None) try host candidates in ascending (degree,
index) order, which fixes the embedding they report as a witness; masked
scans, whose callers read only found/absent, take candidates in index order.
A node budget makes "unknown" a first-class outcome: the search never lies
about exhaustiveness.
"""

from functools import lru_cache
from itertools import permutations

from .errors import InputError, SelfCheckError
from .graphs import bits

DEFAULT_BUDGET = 2_000_000


class SubgraphResult:
    """status is one of "found", "absent", "unknown"."""

    __slots__ = ("status", "embedding", "nodes")

    def __init__(self, status, embedding=None, nodes=0):
        self.status = status
        self.embedding = embedding
        self.nodes = nodes

    @property
    def found(self):
        return self.status == "found"

    def __repr__(self):
        return f"SubgraphResult({self.status!r}, embedding={self.embedding!r})"


def _pattern_order(pattern, first=None):
    """Static placement order: seed with the max-degree vertex (or `first`),
    then repeatedly take the vertex with most placed neighbors, breaking
    ties by higher degree then lower index."""
    n = pattern.n
    remaining = set(range(n))
    order = []
    if first is not None:
        order.append(first)
        remaining.discard(first)
    while remaining:
        if not order:
            nxt = max(remaining, key=lambda v: (pattern.degree(v), -v))
        else:
            placed_mask = 0
            for v in order:
                placed_mask |= 1 << v
            nxt = max(
                remaining,
                key=lambda v: (
                    (pattern.row(v) & placed_mask).bit_count(),
                    pattern.degree(v),
                    -v,
                ),
            )
        order.append(nxt)
        remaining.discard(nxt)
    return order


@lru_cache(maxsize=64)
def _placement_plans(pattern, anchored):
    """The unforced placement plan of a pattern, or with `anchored` one plan
    per pattern vertex placed first.  A plan is (order, steps): step i holds
    the earlier steps that place pattern neighbors of order[i], and the
    degree of order[i]."""
    plans = []
    for first in range(pattern.n) if anchored else (None,):
        order = tuple(_pattern_order(pattern, first))
        step_of = {p: i for i, p in enumerate(order)}
        steps = tuple(
            (tuple(step_of[q] for q in bits(pattern.row(p)) if step_of[q] < i), pattern.degree(p))
            for i, p in enumerate(order)
        )
        plans.append((order, steps))
    return tuple(plans)


def _verify_embedding(host, pattern, mapping, within, forced_vertex):
    if len(set(mapping)) != pattern.n:
        raise SelfCheckError("embedding is not injective")
    for u, v in pattern.edges():
        if not host.has_edge(mapping[u], mapping[v]):
            raise SelfCheckError("embedding does not preserve an edge")
    if any(not (within >> v) & 1 for v in mapping):
        raise SelfCheckError("embedding leaves the vertex mask")
    if forced_vertex is not None and forced_vertex not in mapping:
        raise SelfCheckError("embedding misses the forced vertex")


def contains_subgraph(host, pattern, budget=DEFAULT_BUDGET, forced_vertex=None, within=None):
    """Search for a copy of pattern in host.

    Returns SubgraphResult with a verified embedding tuple (pattern vertex
    i -> host vertex embedding[i]) on "found".  With within set (a vertex
    bitmask; None means the whole host), only host vertices in the mask are
    used, as if searching the induced subgraph on it.  With forced_vertex
    set (a vertex of the mask), only embeddings whose image contains that
    host vertex are considered.  The budget counts candidate placements;
    exhausting it yields "unknown".
    """
    if pattern.n < 1:
        raise InputError("pattern needs at least one vertex")
    if within is None:
        within = host.full_mask()
        ranked = sorted(range(host.n), key=lambda v: (host.degree(v), v))
    elif within >> host.n:
        raise InputError("vertex mask names a vertex outside the host")
    else:
        ranked = None
    if forced_vertex is not None and not (within >> forced_vertex) & 1:
        raise InputError("forced vertex lies outside the vertex mask")
    if pattern.n > within.bit_count():
        return SubgraphResult("absent")

    rows = host.rows()
    start = within if forced_vertex is None else 1 << forced_vertex
    nodes = 0

    def place(steps, image, i, used):
        nonlocal nodes
        earlier, need = steps[i]
        allowed = start if i == 0 else within & ~used
        for j in earlier:
            allowed &= rows[image[j]]
        if ranked is None:
            candidates = bits(allowed)
        else:
            candidates = [v for v in ranked if (allowed >> v) & 1]
        last = i + 1 == len(steps)
        for v in candidates:
            if (rows[v] & within).bit_count() < need:
                continue
            nodes += 1
            if nodes > budget:
                return None
            image[i] = v
            if last:
                return True
            sub = place(steps, image, i + 1, used | (1 << v))
            if sub is not False:
                return sub
        return False

    for order, steps in _placement_plans(pattern, forced_vertex is not None):
        image = [-1] * pattern.n
        ok = place(steps, image, 0, 0)
        if ok:
            mapping = [-1] * pattern.n
            for p, v in zip(order, image):
                mapping[p] = v
            mapping = tuple(mapping)
            _verify_embedding(host, pattern, mapping, within, forced_vertex)
            return SubgraphResult("found", mapping, nodes)
        if ok is None:
            return SubgraphResult("unknown", None, nodes)
    return SubgraphResult("absent", None, nodes)


def exhaustive_contains(host, pattern):
    """Oracle: try every injective placement.  Only for desk-size inputs."""
    if pattern.n > 6 or host.n > 12:
        raise InputError("exhaustive oracle limited to pattern<=6, host<=12")
    pedges = pattern.edges()
    for image in permutations(range(host.n), pattern.n):
        if all(host.has_edge(image[u], image[v]) for u, v in pedges):
            return True
    return False
