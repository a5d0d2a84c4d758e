"""Simple graphs on {0..n-1}, plus vertex sets and IO.

A Graph holds its edges as a sorted tuple of pairs (u, v), u < v, or its
adjacency as bit rows, Python ints used as bitsets: bit v of row(u) is set
iff {u,v} is an edge.  It is built from either form and builds the other
only when something asks for it, so a large graph that is only walked edge
by edge (a theorem-1 blowup, its triangle audit and its text) never holds
n n-bit rows, while the searches read rows.  Graphs are immutable, so they
can be shared freely between search engines.
"""

from itertools import accumulate, chain, groupby
from operator import itemgetter

from .errors import FormatError, InputError, SelfCheckError

# The largest vertex count a graph or hypergraph file may declare, checked
# before anything is allocated.  The largest file the constructions write,
# EFR (d, r, R) = (2, 65, 6), declares 384,475 vertices.
MAX_FILE_VERTICES = 10**7


def bits(mask):
    """Yield set bit positions of mask in increasing order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def mask_of(iterable):
    m = 0
    for v in iterable:
        m |= 1 << v
    return m


class VertexSet:
    """A set of vertices stored as a bit row; size is the popcount."""

    __slots__ = ("mask",)

    def __init__(self, mask=0):
        self.mask = int(mask)

    def members(self):
        return tuple(bits(self.mask))

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, v):
        return (self.mask >> v) & 1 == 1

    def __iter__(self):
        return bits(self.mask)

    def __eq__(self, other):
        return isinstance(other, VertexSet) and self.mask == other.mask

    def __hash__(self):
        return hash(("VertexSet", self.mask))

    def __repr__(self):
        return f"VertexSet({list(self.members())})"


def as_mask(s):
    """Accept a VertexSet, an int bitmask, or an iterable of vertices."""
    if isinstance(s, VertexSet):
        return s.mask
    if isinstance(s, int):
        return s
    return mask_of(s)


class Graph:
    """Undirected simple graph on the vertices 0..n-1, held in one or both
    of two forms:

    - the edge tuple `upper_edges()`, the edges (u, v), u < v, in
      lexicographic order;
    - the bit rows `rows()`, one int per vertex whose bit v is set iff
      {u, v} is an edge.

    `Graph(n, edges)` checks its edges and stores the edge tuple;
    `Graph.from_rows(rows)` stores rows built by bit operations.  The
    other form is built from the stored one on first use and kept.  Both
    forms describe the same graph, which is immutable, and equality and
    hash are those of (n, upper_edges()), whichever form was given."""

    __slots__ = ("n", "_m", "_rows", "_edges")

    def __init__(self, n, edges=()):
        """Pairs may come in either orientation and repeat; an endpoint
        whose type is not int (bools and floats included), a self-loop or
        an endpoint outside range(n) is refused, naming the first such
        pair.  A given tuple (u, v) with u < v is kept as it is, so that a
        large edge list is not held twice while the graph is built; the
        oriented pairs are sorted in a list and repeats dropped next to
        each other, with no set of them."""
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        upper = []
        for pair in edges:
            u, v = pair
            if type(u) is not int or type(v) is not int:
                raise InputError("edge endpoints must be integers", witness={"edge": [u, v]})
            if u == v:
                raise InputError("self-loop rejected", witness={"vertex": u})
            if not (0 <= u < n and 0 <= v < n):
                raise InputError("edge endpoint out of range", witness={"edge": [u, v]})
            if v < u:
                pair = (v, u)
            elif type(pair) is not tuple:
                pair = (u, v)
            upper.append(pair)
        upper.sort()
        self.n = n
        self._edges = tuple(map(itemgetter(0), groupby(upper)))
        self._m = len(self._edges)
        self._rows = None

    @classmethod
    def from_rows(cls, rows):
        """The graph on len(rows) vertices with these adjacency rows, taken
        as given: the caller builds them symmetric, irreflexive and inside
        range(len(rows))."""
        g = cls.__new__(cls)
        g._rows = tuple(rows)
        g.n = len(g._rows)
        g._m = sum(map(int.bit_count, g._rows)) // 2
        g._edges = None
        return g

    @property
    def m(self):
        return self._m

    def rows(self):
        """All adjacency rows, as a tuple indexed by vertex; built from the
        edges on the first call and kept."""
        if self._rows is None:
            rows = [0] * self.n
            for u, v in self._edges:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            self._rows = tuple(rows)
        return self._rows

    def row(self, v):
        return (self._rows or self.rows())[v]

    def has_edge(self, u, v):
        return ((self._rows or self.rows())[u] >> v) & 1 == 1

    def degree(self, v):
        return (self._rows or self.rows())[v].bit_count()

    def max_degree(self):
        return max(map(int.bit_count, self.rows()), default=0)

    def edges(self):
        """The edges (u, v), u < v, in lexicographic order, as a new list."""
        return list(self.upper_edges())

    def upper_edges(self):
        """The tuple of edges (u, v), u < v, in lexicographic order.  From
        rows it is built on the first call and kept: each row's bits above
        u are taken top bit first, so every step shortens the int it works
        on; the rows are walked from the last, and the list is reversed
        once at the end."""
        if self._edges is None:
            out = []
            rows = self._rows
            for u in range(self.n - 1, -1, -1):
                r = rows[u] >> (u + 1)
                while r:
                    w = r.bit_length() - 1
                    out.append((u, u + 1 + w))
                    r ^= 1 << w
            out.reverse()
            self._edges = tuple(out)
        return self._edges

    def full_mask(self):
        return (1 << self.n) - 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.upper_edges() == other.upper_edges()

    def __hash__(self):
        return hash((self.n, self.upper_edges()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def induced_subgraph(g, s):
    """The subgraph of g induced on vertex set s, relabeled densely.

    Members of s are renumbered 0..|s|-1 in increasing original order; the
    mapping is recoverable as sorted(s).
    """
    sub, _ = induced_subgraph_with_map(g, s)
    return sub


def induced_subgraph_with_map(g, s):
    """(induced subgraph, tuple mapping new index -> original vertex).  The
    subgraph's rows are g's rows on s, with each member's bit moved to its
    new index."""
    mask = as_mask(s)
    members = tuple(bits(mask))
    new_bit = {v: 1 << i for i, v in enumerate(members)}
    rows = g.rows()
    return Graph.from_rows([sum(map(new_bit.__getitem__, bits(rows[v] & mask))) for v in members]), members


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------

def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n):
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a, b):
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def petersen_graph():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


def wagner_graph():
    """C8 plus the four long diagonals: triangle-free with independence 3."""
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(i, i + 4) for i in range(4)]
    return Graph(8, edges)


_NAMED = {
    "k2": lambda: complete_graph(2),
    "k3": lambda: complete_graph(3),
    "k4": lambda: complete_graph(4),
    "k5": lambda: complete_graph(5),
    "k6": lambda: complete_graph(6),
    "p3": lambda: path_graph(3),
    "p4": lambda: path_graph(4),
    "c4": lambda: cycle_graph(4),
    "c5": lambda: cycle_graph(5),
    "c6": lambda: cycle_graph(6),
    "c7": lambda: cycle_graph(7),
    "k22": lambda: complete_bipartite(2, 2),
    "k33": lambda: complete_bipartite(3, 3),
    "petersen": petersen_graph,
    "wagner": wagner_graph,
}


def named_graph(name):
    key = name.lower()
    if key not in _NAMED:
        raise InputError(f"unknown graph name {name!r}; known: {sorted(_NAMED)}")
    return _NAMED[key]()


# ---------------------------------------------------------------------------
# random models (all deterministic given a SeededRng)
# ---------------------------------------------------------------------------

def random_regular_bipartite(n, d, rng):
    """Configuration-model d-regular bipartite graph on n+n vertices.

    Left stubs are matched to a shuffled list of right stubs; parallel edges
    are collapsed, so the result is simple and near-d-regular (degrees can
    fall below d where collisions occurred).
    """
    left_stubs = [v for v in range(n) for _ in range(d)]
    right_stubs = [n + v for v in range(n) for _ in range(d)]
    rng.shuffle(right_stubs)
    return Graph(n + n, zip(left_stubs, right_stubs))


# ---------------------------------------------------------------------------
# structure predicates
# ---------------------------------------------------------------------------

def connected_components(g):
    rows = g.rows()
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for w in bits(rows[u]):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def has_cycle(g):
    return g.m > g.n - len(connected_components(g))


def is_biconnected(g):
    """At least 3 vertices, connected, and still connected after deleting
    any one vertex.  The definition is run as it reads, one induced
    subgraph per vertex, since its caller checks only small patterns."""
    if g.n < 3 or len(connected_components(g)) != 1:
        return False
    full = g.full_mask()
    return all(len(connected_components(induced_subgraph(g, full & ~(1 << v)))) == 1 for v in range(g.n))


def is_clique(g):
    return g.m == g.n * (g.n - 1) // 2


def bipartition_violation(g, left):
    """None if every edge crosses (left, complement); else a witness edge."""
    lm = as_mask(left)
    for u, v in g.upper_edges():
        if bool((lm >> u) & 1) == bool((lm >> v) & 1):
            return (u, v)
    return None


def _two_colourable(rows, mask):
    """Whether the subgraph induced on mask has no odd cycle: a BFS from
    the least unreached vertex of each component, level by level on bit
    rows, finds no edge inside a level."""
    unseen = mask
    while unseen:
        level = unseen & -unseen
        unseen ^= level
        while level:
            reach = 0
            for u in bits(level):
                row = rows[u] & mask
                if row & level:
                    return False
                reach |= row
            level = reach & unseen
            unseen ^= level
    return True


def _odd_cycle_part(g, mask):
    """The vertices of mask in the connected components of g whose part
    inside mask is not 2-colourable.  An odd cycle inside mask lies in one
    component, so no other vertex of mask is on one."""
    rows = g.rows()
    part = 0
    for comp in connected_components(g):
        inside = mask_of(comp) & mask
        if inside and not _two_colourable(rows, inside):
            part |= inside
    return part


def _girth_at_most(rows, max_len, lower=3):
    """The girth of the graph with adjacency rows `rows` if it is at most
    max_len, else None; `lower` is a known lower bound on the girth.

    A BFS from each root, level by level on bit rows: an edge inside level
    k closes a closed walk of length 2k + 1, and a vertex of level k + 1
    with two neighbours in level k one of length 2k + 2.  Each such walk
    holds a cycle, and from a root on a shortest cycle the least one is
    that cycle, so the minimum over roots is the girth.  A root's BFS stops
    once no deeper level can beat the best length so far, and the scan of
    roots once the best length reaches `lower`, which no root can beat."""
    best = max_len + 1
    for root in range(len(rows)):
        if best <= lower:
            break
        seen = level = 1 << root
        k = 0
        while level and 2 * k + 1 < best:
            once = twice = 0
            odd = False
            for u in bits(level):
                row = rows[u]
                if row & level:
                    odd = True
                    break
                row &= ~seen
                twice |= once & row
                once |= row
            if odd:
                best = 2 * k + 1
                break
            if twice:
                best = min(best, 2 * k + 2)
                break
            seen |= once
            level = once
            k += 1
    return best if best <= max_len else None


def _root_cycle(nbrs, root, girth):
    """(cycle, parent) of the BFS from root over the ascending neighbour
    lists `nbrs` of a graph of girth `girth`: cycle is the first cycle of
    that length a non-tree edge closes, as a vertex list, or None; parent
    is the BFS tree, whole when cycle is None.

    A non-tree edge (u, w) met from u, with w on u's level or the next,
    closes the cycle u .. a .. w through the tree, a being the deepest
    common ancestor of u and w.  An odd length needs w on u's level, an
    even one w a level deeper, and the length is the girth exactly when a
    lies k = (girth - 1) // 2 levels above u.  The climbs from u and from
    w (from parent[w] when w is deeper) cannot meet in fewer steps, which
    would close a shorter cycle, so they climb k steps and compare."""
    k = (girth - 1) // 2
    odd = girth & 1
    parent = [-1] * len(nbrs)
    dist = [-1] * len(nbrs)
    dist[root] = 0
    frontier = [root]
    du = 0
    while frontier:
        nxt = []
        # the level of the w that can close a cycle of the girth, if any
        closing = du + 1 - odd if du >= k else -2
        for u in frontier:
            for w in nbrs[u]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = du + 1
                    parent[w] = u
                    nxt.append(w)
                elif dw == closing:
                    a, b, j = u, (w if odd else parent[w]), k
                    while j:
                        a, b = parent[a], parent[b]
                        j -= 1
                    if a == b:
                        return _tree_path(u, a, parent) + _tree_path(w, a, parent)[-2::-1], parent
        frontier = nxt
        du += 1
    return None, parent


def find_short_cycle(g, max_len):
    """A shortest cycle of length <= max_len as a vertex list, else None.

    The cycle returned is the first shortest one in root order, then BFS
    order: roots are taken in increasing order, each BFS scans neighbours
    in increasing order, and each non-tree edge closes a cycle through the
    BFS tree (`_root_cycle`).

    Phase 1 computes the girth (`_girth_at_most`) and returns None at once
    when there is no cycle of length <= max_len.  Phase 2 runs the
    enumeration above and returns the first cycle whose length equals the
    girth; a root on a shortest cycle always yields one, so phase 2 stops
    at the latest there.
    """
    girth = _girth_at_most(g.rows(), max_len)
    if girth is None:
        return None
    nbrs = [tuple(bits(row)) for row in g.rows()]
    for root in range(g.n):
        cycle, _ = _root_cycle(nbrs, root, girth)
        if cycle is not None:
            return cycle
    raise SelfCheckError(f"no cycle of the girth {girth} in the enumeration")


def prune_short_cycles(g, max_len):
    """(pruned graph, deletions): while a cycle of length <= max_len is
    left, delete the least edge of the cycle `find_short_cycle` returns.
    The result is the same edge for edge as calling `find_short_cycle` and
    rebuilding the graph after each deletion, but the work between two
    deletions shrinks:

    - rows and ascending neighbour lists are kept mutable, each deletion
      edits both endpoints, and the `Graph` is built once at the end;
    - phase 1 passes the last girth to `_girth_at_most` as its lower bound,
      since a deletion never lowers the girth, so the root scan stops at
      the first root that attains it;
    - phase 2 skips a clean root: one whose BFS closed no cycle of the
      current girth.  Deleting an edge that is not in a root's BFS tree
      leaves that BFS discovering every vertex from the same parent in
      the same order, so its tree is the same, its non-tree edges are a
      subset of the old ones, and the lengths they close are unchanged; a
      clean root stays clean.  Deleting one of its tree edges (parent[u]
      == v or parent[v] == u), or a rise of the girth, makes it dirty.
      Roots are still tried in order from 0, so the first cycle in root
      order is the same one.

    The clean roots keep their BFS parent lists, up to one per vertex."""
    rows = list(g.rows())
    nbrs = [list(bits(row)) for row in rows]
    clean = {}  # root -> BFS parent list of a root with no cycle of the girth
    girth = 3
    deletions = 0
    while True:
        found = _girth_at_most(rows, max_len, girth)
        if found is None:
            break
        if found != girth:
            girth = found
            clean.clear()
        for root in range(g.n):
            if root not in clean:
                cycle, parent = _root_cycle(nbrs, root, girth)
                if cycle is not None:
                    break
                clean[root] = parent
        else:
            raise SelfCheckError(f"no cycle of the girth {girth} in the enumeration")
        u, v = min((a, b) if a < b else (b, a) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        nbrs[u].remove(v)
        nbrs[v].remove(u)
        for root in [r for r, parent in clean.items() if parent[u] == v or parent[v] == u]:
            del clean[root]
        deletions += 1
    return Graph.from_rows(rows), deletions


def _tree_path(v, top, parent):
    """[v, parent[v], ..., top] up a BFS tree."""
    path = [v]
    while v != top:
        v = parent[v]
        path.append(v)
    return path


def triangle_witness(g):
    """The first triangle (u, v, w) of g, or None: (u, v) is the first edge
    in lexicographic order with a common neighbour, and w the least one.

    Every common neighbour w of that edge exceeds v, since w < v would put
    the triangle on the earlier edge (min(u, w), max(u, w)).  So the scan
    looks, for u ascending and then each neighbour v > u ascending, for a
    common neighbour of u and v above v.  The neighbours above each vertex
    are one run of `upper_edges()`, found by its offsets there, so no set
    of all edges is made."""
    edges = g.upper_edges()
    above = list(map(itemgetter(1), edges))
    start = [0] * (g.n + 1)
    for u, _ in edges:
        start[u + 1] += 1
    start = list(accumulate(start))
    a = 0
    for u, b in enumerate(start[1:]):
        if b - a > 1:
            run = above[a:b]
            mine = set(run)
            for v in run[:-1]:
                if not mine.isdisjoint(above[start[v]:start[v + 1]]):
                    return (u, v, min(mine.intersection(above[start[v]:start[v + 1]])))
        a = b
    return None


# ---------------------------------------------------------------------------
# text format: "n m" header, then one "u v" line per edge, 0-based
# ---------------------------------------------------------------------------

def graph_to_text(g):
    """The header line, then one "u v" line per edge in `upper_edges()`
    order: the body is one %-format over the flattened pairs, so no string
    per edge is made."""
    return f"{g.n} {g.m}\n" + ("%s %s\n" * g.m) % tuple(chain.from_iterable(g.upper_edges()))


def _check_vertex_count(n):
    if not 0 <= n <= MAX_FILE_VERTICES:
        raise FormatError(f"line 1: vertex count {n} outside 0..{MAX_FILE_VERTICES}")


def graph_from_text(text):
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty graph file (line 1)")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("line 1: expected 'n m' header")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError("line 1: header fields must be integers") from None
    _check_vertex_count(n)
    edges = []
    seen = set()
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise FormatError(f"line {len(lines)}: expected {m} edge lines, found {len(body)}")
    for i, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"line {i}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {i}: endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise FormatError(f"line {i}: bad edge ({u}, {v}) for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"line {i}: duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append((u, v))
    return Graph(n, edges)


def write_graph(path, g):
    with open(path, "w") as fh:
        fh.write(graph_to_text(g))


def read_text(path):
    """The text of a file; undecodable bytes are a FormatError naming it."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_graph(path):
    return graph_from_text(read_text(path))
