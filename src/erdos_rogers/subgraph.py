"""Budgeted subgraph-copy search, in place under a vertex mask.

contains_subgraph looks for a (not necessarily induced) copy of a pattern
inside a host: an injective map sending pattern edges to host edges.  With
within=mask only the host vertices in the mask may be used, so a copy inside
an induced subgraph is found without building that subgraph; with
forced_vertex=v only copies through v count.  This is the one containment
core: the C_k audits of the pipelines and every whole-host scan call it,
and F-free subset search, the homomorphism test blowup.is_hom_free and the
exact oracle's augmentation run its placement loop.  The F-free search
first consults what its earlier forced searches at a vertex proved, the
copies found through it and the last set it was free in.  Only when they
do not decide does it run a forced search, through _run_plans on the host
rows and anchored plans it sets up once per search, and it checks each
copy found with _verify_embedding, as contains_subgraph does; its final
set is re-checked whole by contains_subgraph.  A placed host vertex is
used up through the `distinct` mask: -1 for a copy, 0 for a homomorphism,
whose map may repeat.

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
The backtracking is one loop that keeps the untried candidates of each
level as an int mask, taken lowest bit first, as in bit-parallel branch and
bound (San Segundo et al., Comput. Oper. Res. 38, 2011); only a ranked
whole-host scan keeps a sorted iterator per level.  A search stops at the
first complete placement.  The exact
oracle's extension masks visit every placement instead, on the forced plans
with their anchor taken off: a new vertex joined to a neighbourhood N of
the host closes a copy through it exactly when N contains the images of the
anchor's neighbours under some placement.  That visit enters a partial
placement only once per state (used vertices, mask so far, the vertices
later steps join), so the orders of interchangeable vertices, such as the
leaves of a star, are not enumerated.

Whole-host scans (within=None) try host candidates in ascending (degree,
index) order, sorting only each node's candidates, which fixes the
embedding they report as a witness; masked scans, whose callers read only
found/absent, take candidates in index order.
A node budget makes "unknown" a first-class outcome: the search never lies
about exhaustiveness.
"""

import math
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


def _verify_embedding(rows, edges, mapping, within, forced_vertex):
    """Check a found map against the host's bit rows: injective, every
    pattern edge on a host edge, inside the `within` mask and, unless
    forced_vertex is None, through it.  Returns the map's vertex mask."""
    copy = 0
    for v in mapping:
        copy |= 1 << v
    if copy.bit_count() != len(mapping):
        raise SelfCheckError("embedding is not injective")
    for u, v in edges:
        if not rows[mapping[u]] >> mapping[v] & 1:
            raise SelfCheckError("embedding does not preserve an edge")
    if copy & ~within:
        raise SelfCheckError("embedding leaves the vertex mask")
    if forced_vertex is not None and not copy >> forced_vertex & 1:
        raise SelfCheckError("embedding misses the forced vertex")
    return copy


def _place(rows, steps, start, within, rank, budget, distinct, nodes=0, visit=None):
    """Place the steps of a plan in turn by backtracking, in one loop that
    keeps each level's untried candidates: level 0 picks from `start`,
    level i from `within`, minus the vertices used through the `distinct`
    mask, inside the rows of the earlier steps it names.  Candidates are
    held as an int mask and taken lowest bit first, or, when rank is
    given, as an iterator in rank[v] order; one below the step's needed
    degree inside `within` is passed over.  Each placement counts one node
    on top of `nodes`; past `budget` the search stops with "unknown".

    Without `visit`, the search stops at the first complete placement and
    returns ("found", the host vertex per step, nodes), or ("absent", None,
    nodes) once every candidate is tried.  With visit = (out, marked,
    refs), it visits every complete placement and adds to the set `out` the
    mask of the host vertices taken by the steps with marked[i] set; it
    ends "absent" (or "unknown").  refs[i] names the steps before i that
    steps from i on join, so a level-i state is its used vertices, its mask
    so far and those steps' vertices: a state met before has the same
    masks below it and is not entered again.  Nor is one whose mask so far
    holds a mask of `out`: every mask below it holds that one too."""
    last = len(steps) - 1
    image = [0] * len(steps)
    used = [0] * len(steps)  # used[i]: what the steps before i used up
    if visit is not None:
        out, marked, refs = visit
        acc = [0] * len(steps)  # acc[i]: the marked vertices of the steps before i
        states = set()
    cand = [0] * len(steps)  # cand[i]: the untried candidates of level i
    cand[0] = start if rank is None else iter(sorted(bits(start), key=rank.__getitem__))
    i = 0
    while True:
        need = steps[i][1]
        if rank is None:
            c = cand[i]
            while c:
                low = c & -c
                c ^= low
                v = low.bit_length() - 1
                if (rows[v] & within).bit_count() >= need:
                    break
            else:
                v = -1
            cand[i] = c
        else:
            for v in cand[i]:
                if (rows[v] & within).bit_count() >= need:
                    break
            else:
                v = -1
        if v < 0:
            if not i:
                return "absent", None, nodes
            i -= 1
            continue
        nodes += 1
        if nodes > budget:
            return "unknown", None, nodes
        image[i] = v
        if visit is None:
            if i == last:
                return "found", image, nodes
        else:
            mask = acc[i] | (1 << v if marked[i] else 0)
            if i == last:
                out.add(mask)
                continue
            state = (i, used[i] | (1 << v) & distinct, mask, *[image[j] for j in refs[i + 1]])
            if state in states or any(m & mask == m for m in out):
                continue
            states.add(state)
            acc[i + 1] = mask
        i += 1
        used[i] = used[i - 1] | (1 << v) & distinct
        allowed = within & ~used[i]
        for j in steps[i][0]:
            allowed &= rows[image[j]]
        cand[i] = allowed if rank is None else iter(sorted(bits(allowed), key=rank.__getitem__))


def _run_plans(rows, plans, budget, start, within, rank, distinct):
    """Try the placement plans in turn on a host given by its bit rows: the
    first step of a plan picks from `start`, every later one from `within`.
    Returns (status, index of the plan that placed the pattern, its map as
    a tuple indexed by pattern vertex, nodes)."""
    nodes = 0
    for index, (order, steps) in enumerate(plans):
        status, image, nodes = _place(rows, steps, start, within, rank, budget, distinct, nodes)
        if status == "found":
            mapping = [-1] * len(order)
            for p, v in zip(order, image):
                mapping[p] = v
            return "found", index, tuple(mapping), nodes
        if status == "unknown":
            return "unknown", None, None, nodes
    return "absent", None, None, nodes


@lru_cache(maxsize=64)
def _extension_plans(n, edges):
    """Each anchored plan of the pattern Graph(n, edges) with its anchor a
    taken off: the steps that place the pattern less a, each needing one
    degree less per edge to a; per step, whether its vertex neighbours a;
    and per step i, the steps before i that steps from i on join."""
    out = []
    for order, steps in _placement_plans(n, edges, True):
        rest = tuple(
            (tuple(j - 1 for j in earlier if j), need - (0 in earlier))
            for earlier, need in steps[1:]
        )
        marked = tuple(0 in earlier for earlier, _ in steps[1:])
        refs = tuple(
            tuple(sorted({j for earlier, _ in rest[i:] for j in earlier if j < i}))
            for i in range(len(rest))
        )
        out.append((rest, marked, refs))
    return tuple(out)


def _extension_masks(rows, pattern):
    """The extension masks of the pattern over the graph with these rows:
    for each anchor a (one per automorphism orbit of the pattern) and each
    embedding phi of the pattern less a, the vertex mask phi(N(a)).  The
    graph plus a new vertex joined to a mask N holds a copy of the pattern
    through the new vertex exactly when N contains one of these masks."""
    if pattern.n < 1:
        raise InputError("pattern needs at least one vertex")
    masks = set()
    if pattern.n - 1 > len(rows):
        return masks
    full = (1 << len(rows)) - 1
    for steps, marked, refs in _extension_plans(pattern.n, pattern.upper_edges()):
        if not steps:
            masks.add(0)  # the pattern is one vertex
            continue
        _place(rows, steps, full, full, None, math.inf, -1, visit=(masks, marked, refs))
    return masks


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
    _verify_embedding(rows, pattern.upper_edges(), mapping, within, forced_vertex)
    return SubgraphResult("found", mapping, nodes)
