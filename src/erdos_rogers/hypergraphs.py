"""Hypergraphs with r-uniformity, linearity, loose-girth audits, and the
K_v clique cover of the line-intersection graph used by the blowup
pipelines.  The cover is a union cover (`CliqueCover.union`): its cliques
are sorted tuples of edge indices and the line graph itself is built only
by `line_intersection_graph`.

A hypergraph is linear when any two edges share at most one vertex.  A
triangle here is three edges pairwise intersecting in exactly one vertex
with no vertex common to all three.  A loose cycle of length 2 is a pair
of edges sharing at least two vertices; for length l > 2 it is l distinct
edges e_1..e_l and l distinct vertices with consecutive edges (cyclically)
meeting in exactly one vertex and all other pairs disjoint.
"""

from itertools import combinations

from .covers import Audit, CliqueCover
from .errors import FormatError, InputError
from .graphs import Graph, _check_vertex_count, read_text


class Hypergraph:
    """Edges are strictly increasing vertex tuples; order of the edge list
    is preserved (constructions rely on it for stable indexing)."""

    __slots__ = ("n", "edges", "r")

    def __init__(self, n, edges, r=None):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        canon = []
        seen = set()
        for e in edges:
            t = tuple(e)
            if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
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
            canon.append(t)
        self.n = n
        self.edges = tuple(canon)
        self.r = r

    @property
    def m(self):
        return len(self.edges)

    def vertex_edges(self):
        """incidence[v] = list of edge indices containing v."""
        inc = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        return inc

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m}, r={self.r})"


def hypergraph_is_linear(h):
    """Audit: every two edges share at most one vertex.

    Any violating pair shares some vertex pair, so it suffices to sweep all
    within-edge vertex pairs once and look for a repeat.
    """
    seen = {}
    for i, e in enumerate(h.edges):
        for pair in combinations(e, 2):
            if pair in seen:
                return Audit(
                    "linear",
                    False,
                    {"edges": [seen[pair], i], "shared_vertices": list(pair)},
                )
            seen[pair] = i
    return Audit("linear", True)


def hypergraph_is_triangle_free(h):
    """Audit: no three edges pairwise meeting in one vertex without a
    common vertex.  Requires a linear hypergraph; a non-linear input is an
    error naming a violating pair.

    The witness is the first triangle in this order: shared vertex v of the
    first two edges ascending, then the pairs i < j of edges through v in
    incidence order, then the third edge k > j ascending."""
    lin = hypergraph_is_linear(h)
    if not lin.passed:
        raise InputError("triangle audit requires a linear hypergraph", witness=lin.witness)
    inc = h.vertex_edges()
    # nbr[i]: the edges meeting edge i, i itself included
    nbr = [set() for _ in range(h.m)]
    for idxs in inc:
        for i in idxs:
            nbr[i].update(idxs)
    for v, idxs in enumerate(inc):
        through = set(idxs)
        for i, j in combinations(idxs, 2):
            # linear, so a common neighbour k of i and j that avoids v meets
            # them in two further, distinct vertices: a triangle
            third = [k for k in (nbr[i] & nbr[j]) - through if k > j]
            if third:
                k = min(third)
                (vik,) = set(h.edges[i]).intersection(h.edges[k])
                (vjk,) = set(h.edges[j]).intersection(h.edges[k])
                return Audit(
                    "triangle_free",
                    False,
                    {"edges": [i, j, k], "pairwise_vertices": [v, vik, vjk]},
                )
    return Audit("triangle_free", True)


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


def find_loose_cycles(h, length, limit=None):
    """All loose cycles of the given length, in canonical order.

    Canonical form: the edge index sequence starts at the cycle's smallest
    edge index and the second index is smaller than the last, so each cycle
    appears exactly once.  With limit set, enumeration stops early.
    """
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

    # adjacency between edges sharing exactly one vertex
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
                    continue  # canonical direction: second index < last index
                if v in verts or not esets[j].isdisjoint(union - esets[last] - esets[first]):
                    continue
                closing = esets[j] & esets[first]
                if len(closing) != 1:
                    continue
                u = next(iter(closing))
                if u == v or u in verts:
                    continue
                inter_last = esets[j] & esets[last]
                if inter_last != {v}:
                    continue
                out.append(LooseCycle(path + (j,), verts + (v, u)))
                if limit is not None and len(out) >= limit:
                    return
            return
        for j, v in meet[last]:
            if j <= first or j in path:
                continue
            if v in verts:
                continue
            # non-consecutive edges must be entirely disjoint
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


def hypergraph_girth_at_least(h, g):
    """Audit: no loose cycle of length below g; witness is a shortest one."""
    if g < 2:
        raise InputError("girth threshold must be at least 2")
    for length in range(2, g):
        found = find_loose_cycles(h, length, limit=1)
        if found:
            return Audit("girth_at_least", False, found[0].witness())
    return Audit("girth_at_least", True)


def vertex_clique_cover(h):
    """The union cover (`CliqueCover.union`) on h.m vertices whose cliques
    are, for each vertex v of h lying in at least two edges in ascending
    order, the edge indices K_v through v, ascending.

    For linear h, two intersecting edges share exactly one vertex, so the
    K_v are pairwise edge-disjoint and their union is the line-intersection
    graph; the cover has sum_v C(deg v, 2) edges."""
    return CliqueCover.union(h.m, [idxs for idxs in h.vertex_edges() if len(idxs) >= 2])


def line_intersection_graph(h):
    """(G, cover): G has one vertex per edge of h, adjacent iff the edges
    intersect; the cover holds the cliques K_v of `vertex_clique_cover`
    (sorted tuples of edge indices) with G as its host.

    For linear h the K_v are pairwise edge-disjoint and cover every edge of
    G exactly once.  G stores an h.m-bit row per edge of h, so pipelines
    that need only the cover use `vertex_clique_cover` instead."""
    union = vertex_clique_cover(h)
    graph = Graph(h.m, sorted({pair for clique in union.cliques for pair in combinations(clique, 2)}))
    return graph, CliqueCover(graph, union.cliques)


# ---------------------------------------------------------------------------
# text format: "n m" or "n m r" header, then one sorted edge per line
# ---------------------------------------------------------------------------

def hypergraph_to_text(h):
    head = f"{h.n} {h.m}" if h.r is None else f"{h.n} {h.m} {h.r}"
    lines = [head]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


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
