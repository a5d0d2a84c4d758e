"""Hypergraphs with r-uniformity, linearity, loose-girth audits, and the
line-intersection graph used by the blowup pipelines.

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
from .graphs import Graph, VertexSet, _check_vertex_count, bits, read_text


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


def _pairwise_intersections(h):
    """For a linear h: dict (i,j) i<j -> the single shared vertex, plus a
    bitmask per edge of the edges it meets."""
    inc = h.vertex_edges()
    shared = {}
    nbr = [0] * h.m
    for v, idxs in enumerate(inc):
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                i, j = idxs[a], idxs[b]
                shared[(i, j)] = v
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    return shared, nbr


def hypergraph_is_triangle_free(h):
    """Audit: no three edges pairwise meeting in one vertex without a
    common vertex.  Requires a linear hypergraph; a non-linear input is an
    error naming a violating pair."""
    lin = hypergraph_is_linear(h)
    if not lin.passed:
        raise InputError("triangle audit requires a linear hypergraph", witness=lin.witness)
    shared, nbr = _pairwise_intersections(h)
    for (i, j), vij in shared.items():
        common = nbr[i] & nbr[j]
        for k in bits(common):
            if k <= j:
                continue
            vik = shared[(i, k)]
            vjk = shared[(j, k)]
            # linear, so the three edges have a common vertex iff all three
            # pairwise intersection vertices coincide
            if not (vij == vik == vjk):
                return Audit(
                    "triangle_free",
                    False,
                    {
                        "edges": [i, j, k],
                        "pairwise_vertices": [vij, vik, vjk],
                    },
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


def line_intersection_graph(h):
    """(G, cover): G has one vertex per edge of h, adjacent iff the edges
    intersect; the cover collects, for each vertex v of h lying in at least
    two edges, the clique K_v of edges through v.

    For linear h, two intersecting edges share exactly one vertex, so the
    K_v are pairwise edge-disjoint and cover every edge of G exactly once.
    """
    inc = h.vertex_edges()
    gedges = set()
    cliques = []
    for v, idxs in enumerate(inc):
        if len(idxs) >= 2:
            cliques.append(VertexSet.from_iterable(idxs))
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    gedges.add((idxs[a], idxs[b]))
    graph = Graph(h.m, sorted(gedges))
    return graph, CliqueCover(graph, cliques)


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
