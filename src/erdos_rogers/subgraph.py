"""Budgeted subgraph-copy search, in place under a vertex mask.

contains_subgraph looks for a (not necessarily induced) copy of a pattern
inside a host: an injective map sending pattern edges to host edges.  With
within=mask only the host vertices in the mask may be used, so a copy inside
an induced subgraph is found without building that subgraph; with
forced_vertex=v only copies through v count.  This is the one containment
core: F-free subset search, the C_k audits of the pipelines, the exact
oracle's augmentation, every whole-host scan and the homomorphism test
blowup.is_hom_free call it.  The F-free search first consults what its
earlier forced searches at a vertex proved, the copies found through it
and the last set it was free in, and calls the core only when they do not
decide.  A placed host vertex is used up through the
`distinct` mask: -1 for a copy, 0 for a homomorphism, whose map may repeat.

The search is backtracking over bit rows.  A pattern vertex's candidates are
the common neighbors of its already placed pattern neighbors, inside the
mask and not yet used, and a copy's candidate needs at least the pattern
vertex's degree inside the mask.  Pattern vertices are placed in a static
order: the max-degree vertex first (or, with a forced vertex, an anchor
placed on it), then repeatedly the vertex with most placed neighbors, ties
to higher degree then lower index.  Anchors in one automorphism orbit of
the pattern decide the same answer, so a forced search tries one anchor
per orbit in turn.
Those placement plans depend only on the pattern, so they are computed once
per pattern and kept in a small LRU cache keyed on its vertex count and
edge tuple: a lookup then hashes and compares plain tuples, with no call
back into Graph, and patterns built apart (every named_graph call builds a
new one) share their plans.

Whole-host scans (within=None) try host candidates in ascending (degree,
index) order, sorting only each node's candidates, which fixes the
embedding they report as a witness; masked scans, whose callers read only
found/absent, take candidates in index order.
A node budget makes "unknown" a first-class outcome: the search never lies
about exhaustiveness.
"""

from functools import lru_cache

from .errors import InputError, SelfCheckError
from .graphs import Graph, bits

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
    return tuple(order)


def _plan(pattern, order, injective=True):
    """A placement plan (order, steps): step i holds the earlier steps that
    place pattern neighbors of order[i], and the host degree a candidate
    needs, the degree of order[i] for a copy and 0 for a homomorphism."""
    step_of = {p: i for i, p in enumerate(order)}
    steps = tuple(
        (tuple(step_of[q] for q in bits(pattern.row(p)) if step_of[q] < i),
         pattern.degree(p) if injective else 0)
        for i, p in enumerate(order)
    )
    return order, steps


@lru_cache(maxsize=64)
def _placement_plans(n, edges, anchored):
    """The placement plans of the pattern Graph(n, edges): its unforced
    plan or, with `anchored`, one plan per automorphism orbit of anchors,
    each placing its anchor first.

    An embedding of the pattern into itself is an automorphism, so anchor b
    shares an orbit with an earlier anchor exactly when a search of the
    pattern forced through b succeeds on an earlier anchor's plan; the
    first plan to succeed is then the least anchor of b's orbit.  Anchor b
    is kept when that first plan is its own, or when the self-search runs
    out of budget."""
    pattern = Graph(n, edges)
    if not anchored:
        return (_plan(pattern, _pattern_order(pattern)),)
    plans = tuple(_plan(pattern, _pattern_order(pattern, b)) for b in range(pattern.n))
    rows, full = pattern.rows(), pattern.full_mask()
    kept = []
    for b, plan in enumerate(plans):
        status, index, _, _ = _run_plans(rows, plans, DEFAULT_BUDGET, 1 << b, full, None, -1)
        if status == "unknown" or index == b:
            kept.append(plan)
    return tuple(kept)


def _verify_embedding(host, edges, mapping, within, forced_vertex):
    if len(set(mapping)) != len(mapping):
        raise SelfCheckError("embedding is not injective")
    for u, v in edges:
        if not host.has_edge(mapping[u], mapping[v]):
            raise SelfCheckError("embedding does not preserve an edge")
    if any(not (within >> v) & 1 for v in mapping):
        raise SelfCheckError("embedding leaves the vertex mask")
    if forced_vertex is not None and forced_vertex not in mapping:
        raise SelfCheckError("embedding misses the forced vertex")


def _place(rows, steps, image, i, used, start, within, rank, budget, nodes, distinct):
    """Place steps i, i+1, ... of a plan by backtracking; nodes[0] counts
    candidate placements.  True once placed, False when exhausted, None
    when the budget runs out.  Placed vertices join `used` through the
    `distinct` mask.  Candidates come in index order, or by rank[v] when
    rank is given."""
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
        sub = _place(rows, steps, image, i + 1, used | (1 << v) & distinct,
                     start, within, rank, budget, nodes, distinct)
        if sub is not False:
            return sub
    return False


def _run_plans(rows, plans, budget, start, within, rank, distinct):
    """Try the placement plans in turn on a host given by its bit rows: the
    first step of a plan picks from `start`, every later one from `within`.
    Returns (status, index of the plan that placed the pattern, its map as
    a tuple indexed by pattern vertex, nodes)."""
    nodes = [0]
    for index, (order, steps) in enumerate(plans):
        image = [-1] * len(order)
        ok = _place(rows, steps, image, 0, 0, start, within, rank, budget, nodes, distinct)
        if ok:
            mapping = [-1] * len(order)
            for p, v in zip(order, image):
                mapping[p] = v
            return "found", index, tuple(mapping), nodes[0]
        if ok is None:
            return "unknown", None, None, nodes[0]
    return "absent", None, None, nodes[0]


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
    rows = host.rows()
    if within is None:
        within = host.full_mask()
        # (degree, index) order as one integer per vertex
        rank = [row.bit_count() * host.n + v for v, row in enumerate(rows)]
    elif within >> host.n:
        raise InputError("vertex mask names a vertex outside the host")
    else:
        rank = None
    if forced_vertex is not None and not (within >> forced_vertex) & 1:
        raise InputError("forced vertex lies outside the vertex mask")
    if pattern.n > within.bit_count():
        return SubgraphResult("absent")

    plans = _placement_plans(pattern.n, pattern.upper_edges(), forced_vertex is not None)
    start = within if forced_vertex is None else 1 << forced_vertex
    status, _, mapping, nodes = _run_plans(rows, plans, budget, start, within, rank, -1)
    if status != "found":
        return SubgraphResult(status, None, nodes)
    _verify_embedding(host, pattern.upper_edges(), mapping, within, forced_vertex)
    return SubgraphResult("found", mapping, nodes)
