"""Hypergraphs with r-uniformity, linearity, loose-girth audits, and the
K_v clique cover of the line-intersection graph used by the blowup
pipelines.  The cover is a `CliqueCover(h.m, cliques)` whose cliques are
sorted tuples of edge indices; the line graph itself is built only by
`line_intersection_graph`.

A hypergraph is linear when any two edges share at most one vertex; the
test of `covers` that checks a clique cover, no edge meeting a later edge
through two of its vertices, decides it, and the one shared-pair sweep of
`covers` names the witness.  A triangle
here is three edges pairwise intersecting in exactly one vertex with no
vertex common to all three.  A loose cycle of length 2 is a pair of edges sharing at least two vertices;
for length l > 2 it is l distinct edges e_1..e_l and l distinct vertices
with consecutive edges (cyclically) meeting in exactly one vertex and all
other pairs disjoint.  Loose cycles are found from the flat incidence of
`covers`: one sweep over the edges through each vertex names every meeting
pair and the vertices it shares, and serves the cycles of every length.
"""

from itertools import chain, combinations
from operator import lt

from .covers import Audit, CliqueCover, _first_shared_pair, _incidence, _later_sets, _repeats, _shares_a_pair
from .errors import FormatError, InputError, SelfCheckError
from .graphs import Graph, _check_vertex_count, read_text


class Hypergraph:
    """Edges are strictly increasing tuples of int vertices, each checked
    by `_check_each_edge` whether or not r is given; order of the edge list
    is preserved (constructions rely on it for stable indexing)."""

    __slots__ = ("n", "edges", "r")

    def __init__(self, n, edges, r=None):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        canon = tuple(map(tuple, edges))
        _check_each_edge(canon, n, r)
        self.n = n
        self.edges = canon
        self.r = r

    @property
    def m(self):
        return len(self.edges)

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m}, r={self.r})"


def _check_each_edge(edges, n, r):
    """InputError names the first edge holding a vertex whose type is not
    int, found in one pass before anything else; then, edge by edge, the
    first that is not strictly increasing, leaves range(n), breaks the
    uniformity r or repeats an earlier edge, checked in that order."""
    if not set(map(type, chain.from_iterable(edges))) <= {int}:
        t = next(t for t in edges if not set(map(type, t)) <= {int})
        raise InputError("edge vertices must be integers", witness={"edge": list(t)})
    seen = set()
    for t in edges:
        if not all(map(lt, t, t[1:])):
            raise InputError("edge vertices must be strictly increasing", witness={"edge": list(t)})
        if not t or t[0] < 0 or t[-1] >= n:
            raise InputError("edge vertex out of range", witness={"edge": list(t)})
        if r is not None and len(t) != r:
            raise InputError(
                f"edge size {len(t)} violates declared uniformity {r}",
                witness={"edge": list(t)},
            )
        if t in seen:
            raise InputError("duplicate edge", witness={"edge": list(t)})
        seen.add(t)


def hypergraph_is_linear(h):
    """Audit: every two edges share at most one vertex.

    `covers._shares_a_pair` decides on the flat incidence: h is linear iff
    no edge meets a later edge through two of its vertices.  Only a
    non-linear h runs the shared-pair sweep of `covers`, for the witness:
    the first vertex pair that an edge shares with an earlier one.
    """
    if not _shares_a_pair(h.edges, h.n):
        return Audit("linear", True)
    _, (i, j, pair) = _first_shared_pair(h.edges)
    return Audit("linear", False, {"edges": [i, j], "shared_vertices": list(pair)})


def hypergraph_is_triangle_free(h):
    """Audit: no three edges pairwise meeting in one vertex without a
    common vertex.  Requires a linear hypergraph; a non-linear input is an
    error naming a violating pair.

    The witness is the first triangle in this order: shared vertex v of the
    first two edges ascending, then the pairs i < j of edges through v in
    incidence order, then the third edge k > j ascending.

    Both checks read the tuples up[i] of `covers._later_sets`, the edges
    k > i that meet edge i through each of its vertices, instead of
    sweeping pairs.  As in `covers._shares_a_pair`, h is linear iff no
    up[i] repeats an edge; only a non-linear h runs `hypergraph_is_linear`,
    for its witness.  In a linear h, a pair i < j through v has a common
    neighbour k > j off v exactly when the sets up[i] - K_v, i in K_v, are
    not disjoint, that is when their union has fewer than
    d - 1 + sum_i |up[i]| - C(d, 2) members, d = |K_v| (the part inside
    K_v is K_v less its least edge).  So the ordered pair scan runs at the
    first vertex that fails this test, and finds the witness there."""
    edges = h.edges
    # as tuples the up sets of the EFR (2,65,6) hypergraph take 3.1 MB
    # instead of 19.3 MB as sets
    meeting, starts, through = _incidence(edges, h.n)
    up = _later_sets(starts, through, h.m)
    if _repeats(up):
        lin = hypergraph_is_linear(h)
        raise InputError("triangle audit requires a linear hypergraph", witness=lin.witness)
    for v, a, b in zip(meeting, starts, starts[1:]):
        sets = [up[i] for i in through[a:b]]
        d = b - a
        if len(set().union(*sets)) != d - 1 + sum(map(len, sets)) - d * (d - 1) // 2:
            break
    else:
        return Audit("triangle_free", True)
    through = through[a:b]
    for i, j in combinations(through, 2):
        # linear, so a common later neighbour k of i and j that avoids v
        # meets them in two further, distinct vertices: a triangle
        third = set(up[i]).intersection(up[j]).difference(through)
        if third:
            k = min(third)
            (vik,) = set(edges[i]).intersection(edges[k])
            (vjk,) = set(edges[j]).intersection(edges[k])
            return Audit(
                "triangle_free",
                False,
                {"edges": [i, j, k], "pairwise_vertices": [v, vik, vjk]},
            )
    raise SelfCheckError(f"the union test failed at vertex {v}, but no pair through it closes a triangle")


class LooseCycle:
    __slots__ = ("edge_indices", "vertices")

    def __init__(self, edge_indices, vertices):
        self.edge_indices = tuple(edge_indices)
        self.vertices = tuple(vertices)

    @property
    def length(self):
        return len(self.edge_indices)

    def witness(self):
        return {
            "length": self.length,
            "edges": list(self.edge_indices),
            "vertices": list(self.vertices),
        }

    def __repr__(self):
        return f"LooseCycle(edges={self.edge_indices}, vertices={self.vertices})"


def _extend_loose(meet, esets, length, limit, out, path, verts, union):
    """Extend the loose path `path` (edge indices; verts, the vertices where
    consecutive edges meet; union, its vertices) to loose cycles of the
    given length in canonical form, appended to out until it holds limit.
    A meet entry (j, v) means j shares only v with the last edge, which
    misses the first edge (length >= 4) or meets it only in verts[0]
    (length 3), so the closing vertex u on the first edge is never v."""
    if limit is not None and len(out) >= limit:
        return
    last = path[-1]
    first = path[0]
    if len(path) == length - 1:
        for j, v in meet[last]:
            # canonical direction: second index < last index
            if j <= path[1] or j in path or v in verts:
                continue
            if not esets[j].isdisjoint(union - esets[last] - esets[first]):
                continue
            closing = esets[j] & esets[first]
            if len(closing) != 1:
                continue
            (u,) = closing
            if u in verts:
                continue
            out.append(LooseCycle(path + (j,), verts + (v, u)))
            if limit is not None and len(out) >= limit:
                return
        return
    for j, v in meet[last]:
        if j <= first or j in path or v in verts:
            continue
        # non-consecutive edges must be entirely disjoint
        if not esets[j].isdisjoint(union - esets[last]):
            continue
        _extend_loose(meet, esets, length, limit, out, path + (j,), verts + (v,), union | esets[j])


def find_loose_cycles(h, longest, limit=None):
    """The loose cycles of every length 2..longest, the shortest length
    first and each length in canonical order, cut at limit.

    Canonical form: the edge index sequence starts at the cycle's smallest
    edge index and the second index is smaller than the last, so each cycle
    appears exactly once.  One sweep of the incidence lists names every
    meeting pair and the vertices it shares: the pairs sharing at least two
    are the cycles of length 2, and longer cycles walk the pairs sharing
    exactly one.  A cycle of length l >= 3 has l distinct edges and l such
    pairs, so no length beyond h.m or the number of those pairs is walked.
    """
    if longest < 2:
        return []
    shared = {}
    meeting, starts, through = _incidence(h.edges, h.n)
    for v, a, b in zip(meeting, starts, starts[1:]):
        for pair in combinations(through[a:b], 2):
            shared.setdefault(pair, []).append(v)
    out = []
    # adjacency between edges sharing exactly one vertex, ascending
    meet = [[] for _ in range(h.m)]
    for (i, j), vs in sorted(shared.items()):
        if len(vs) > 1:
            out.append(LooseCycle((i, j), vs))
        else:
            meet[i].append((j, vs[0]))
            meet[j].append((i, vs[0]))
    out = out[:limit]
    esets = [frozenset(e) for e in h.edges]
    for length in range(3, min(longest, h.m, sum(map(len, meet)) // 2) + 1):
        for i in range(h.m):
            for j, v in meet[i]:
                if j <= i:
                    continue
                _extend_loose(meet, esets, length, limit, out, (i, j), (v,), esets[i] | esets[j])
                if limit is not None and len(out) >= limit:
                    return out
    return out


def hypergraph_girth_at_least(h, g):
    """Audit: no loose cycle of length below g; witness is a shortest one."""
    if g < 2:
        raise InputError("girth threshold must be at least 2")
    found = find_loose_cycles(h, g - 1, limit=1)
    if found:
        return Audit("girth_at_least", False, found[0].witness())
    return Audit("girth_at_least", True)


def vertex_clique_cover(h):
    """The `CliqueCover` on h.m vertices whose cliques are, for each vertex
    v of h lying in at least two edges in ascending order, the edge indices
    K_v through v, ascending.

    For linear h, two intersecting edges share exactly one vertex, so the
    K_v are pairwise edge-disjoint and their union is the line-intersection
    graph; the cover has sum_v C(deg v, 2) edges.  The cliques are the
    slices of the flat incidence of `covers._incidence`, so they share its
    index ints."""
    _, starts, through = _incidence(h.edges, h.n)
    return CliqueCover(h.m, [tuple(through[a:b]) for a, b in zip(starts, starts[1:])])


def line_intersection_graph(h):
    """(G, vertex_clique_cover(h)): G has one vertex per edge of h,
    adjacent iff the edges intersect, which is the union of the cover's
    cliques.

    For linear h the K_v are pairwise edge-disjoint and cover every edge of
    G exactly once.  G builds an h.m-bit row per edge of h once its rows
    are read, so pipelines that need only the cover use
    `vertex_clique_cover` instead."""
    cover = vertex_clique_cover(h)
    graph = Graph(h.m, (pair for clique in cover.cliques for pair in combinations(clique, 2)))
    return graph, cover


# ---------------------------------------------------------------------------
# text format: "n m" or "n m r" header, then one sorted edge per line
# ---------------------------------------------------------------------------

def hypergraph_to_text(h):
    """The header line, then one line per edge, its vertices ascending.  A
    uniform body is one %-format over the flattened edges, so no string
    per edge is made."""
    if h.r is None:
        return "\n".join([f"{h.n} {h.m}"] + [" ".join(map(str, e)) for e in h.edges]) + "\n"
    line = " ".join(["%s"] * h.r) + "\n"
    return f"{h.n} {h.m} {h.r}\n" + (line * h.m) % tuple(chain.from_iterable(h.edges))


def hypergraph_from_text(text):
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty hypergraph file (line 1)")
    head = lines[0].split()
    if len(head) not in (2, 3):
        raise FormatError("line 1: expected 'n m' or 'n m r' header")
    try:
        fields = [int(x) for x in head]
    except ValueError:
        raise FormatError("line 1: header fields must be integers") from None
    n, m = fields[0], fields[1]
    _check_vertex_count(n)
    r = fields[2] if len(fields) == 3 else None
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise FormatError(f"line {len(lines)}: expected {m} edge lines, found {len(body)}")
    edges = []
    for i, ln in enumerate(body, start=2):
        try:
            e = tuple(int(x) for x in ln.split())
        except ValueError:
            raise FormatError(f"line {i}: vertices must be integers") from None
        if r is not None and len(e) != r:
            raise FormatError(f"line {i}: edge size {len(e)} violates declared uniformity {r}")
        if any(not 0 <= v < n for v in e):
            raise FormatError(f"line {i}: vertex out of range for n={n}")
        if len(set(e)) != len(e):
            raise FormatError(f"line {i}: repeated vertex in edge")
        edges.append(tuple(sorted(e)))
    try:
        return Hypergraph(n, edges, r)
    except InputError as exc:
        raise FormatError(f"invalid hypergraph body: {exc}") from None


def write_hypergraph(path, h):
    with open(path, "w") as fh:
        fh.write(hypergraph_to_text(h))


def read_hypergraph(path):
    return hypergraph_from_text(read_text(path))
