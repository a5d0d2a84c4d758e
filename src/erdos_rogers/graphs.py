"""Simple graphs on {0..n-1} with bit-row adjacency, plus vertex sets and IO.

Adjacency rows are Python ints used as bitsets: bit v of row(u) is set iff
{u,v} is an edge.  Rows are kept symmetric and irreflexive at construction
time and the structure is immutable afterwards, so graphs can be shared
freely between search engines.
"""

from .errors import FormatError, InputError


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

    @classmethod
    def from_iterable(cls, vertices):
        return cls(mask_of(vertices))

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
    """Undirected simple graph; vertices 0..n-1, bit-row adjacency."""

    __slots__ = ("n", "_rows", "_m")

    def __init__(self, n, edges=()):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        rows = [0] * n
        m = 0
        for u, v in edges:
            if u == v:
                raise InputError("self-loop rejected", witness={"vertex": u})
            if not (0 <= u < n and 0 <= v < n):
                raise InputError("edge endpoint out of range", witness={"edge": [u, v]})
            if not (rows[u] >> v) & 1:
                m += 1
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self._rows = tuple(rows)
        self._m = m

    @property
    def m(self):
        return self._m

    def row(self, v):
        return self._rows[v]

    def rows(self):
        """All adjacency rows, as a tuple indexed by vertex."""
        return self._rows

    def has_edge(self, u, v):
        return (self._rows[u] >> v) & 1 == 1

    def degree(self, v):
        return self._rows[v].bit_count()

    def degrees(self):
        return [r.bit_count() for r in self._rows]

    def max_degree(self):
        return max((r.bit_count() for r in self._rows), default=0)

    def neighbors(self, v):
        return tuple(bits(self._rows[v]))

    def edges(self):
        out = []
        for u in range(self.n):
            r = self._rows[u] >> (u + 1)
            for w in bits(r):
                out.append((u, u + 1 + w))
        return out

    def full_mask(self):
        return (1 << self.n) - 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self._rows == other._rows

    def __hash__(self):
        return hash((self.n, self._rows))

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
    """(induced subgraph, tuple mapping new index -> original vertex)."""
    mask = as_mask(s)
    members = tuple(bits(mask))
    index = {v: i for i, v in enumerate(members)}
    edges = []
    for v in members:
        inner = g.row(v) & mask
        for w in bits(inner):
            if w > v:
                edges.append((index[v], index[w]))
    return Graph(len(members), edges), members


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------

def empty_graph(n):
    return Graph(n)


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


def complete_multipartite(sizes):
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for u in range(sizes[i]):
                for v in range(sizes[j]):
                    edges.append((offsets[i] + u, offsets[j] + v))
    return Graph(total, edges)


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


def blowup_graph(base, sizes):
    """Replace vertex i of base by an independent class of sizes[i] clones;
    classes are fully joined exactly when the base vertices are adjacent."""
    if isinstance(sizes, int):
        sizes = [sizes] * base.n
    if len(sizes) != base.n:
        raise InputError("one class size per base vertex required")
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    edges = []
    for u, v in base.edges():
        for i in range(sizes[u]):
            for j in range(sizes[v]):
                edges.append((offsets[u] + i, offsets[v] + j))
    return Graph(total, edges)


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

def gnp_graph(n, p, rng):
    gen = rng.numpy_rng()
    edges = []
    if n >= 2:
        u = gen.random(n * (n - 1) // 2)
        k = 0
        for a in range(n):
            for b in range(a + 1, n):
                if u[k] < p:
                    edges.append((a, b))
                k += 1
    return Graph(n, edges)


def bipartite_gnp(a, b, p, rng):
    """Binomial bipartite graph; left part is 0..a-1."""
    gen = rng.numpy_rng()
    u = gen.random((a, b))
    edges = [(i, a + j) for i in range(a) for j in range(b) if u[i, j] < p]
    return Graph(a + b, edges)


def random_regular_bipartite(a, b, d, rng):
    """Configuration-model d-regular bipartite graph on a+b vertices.

    Left stubs are matched to a shuffled list of right stubs; parallel edges
    are collapsed, so the result is simple and near-d-regular (degrees can
    fall below d where collisions occurred).
    """
    if a * d != b * d and a != b:
        raise InputError("stub counts must balance; use a == b")
    left_stubs = [v for v in range(a) for _ in range(d)]
    right_stubs = [a + v for v in range(b) for _ in range(d)]
    rng.shuffle(right_stubs)
    edges = set(zip(left_stubs, right_stubs))
    return Graph(a + b, sorted(edges))


# ---------------------------------------------------------------------------
# structure predicates
# ---------------------------------------------------------------------------

def connected_components(g):
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
            for w in bits(g.row(u)):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def has_cycle(g):
    return g.m > g.n - len(connected_components(g))


def is_biconnected(g):
    """Connected, at least 3 vertices, and no articulation vertex."""
    if g.n < 3 or len(connected_components(g)) != 1:
        return False
    disc = [0] * g.n
    low = [0] * g.n
    timer = [1]
    # iterative DFS from vertex 0; root is an articulation iff >= 2 children
    parent = [-1] * g.n
    stack = [(0, iter(g.neighbors(0)))]
    disc[0] = low[0] = timer[0]
    timer[0] += 1
    root_children = 0
    articulation = False
    while stack:
        u, it = stack[-1]
        advanced = False
        for w in it:
            if disc[w] == 0:
                parent[w] = u
                if u == 0:
                    root_children += 1
                disc[w] = low[w] = timer[0]
                timer[0] += 1
                stack.append((w, iter(g.neighbors(w))))
                advanced = True
                break
            elif w != parent[u]:
                low[u] = min(low[u], disc[w])
        if not advanced:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if p != 0 and low[u] >= disc[p]:
                    articulation = True
    if root_children >= 2:
        articulation = True
    return not articulation


def is_clique(g):
    return g.m == g.n * (g.n - 1) // 2


def bipartition_violation(g, left):
    """None if every edge crosses (left, complement); else a witness edge."""
    lm = as_mask(left)
    for u, v in g.edges():
        if bool((lm >> u) & 1) == bool((lm >> v) & 1):
            return (u, v)
    return None


def find_short_cycle(g, max_len):
    """A shortest cycle of length <= max_len as a vertex list, else None.

    BFS from every root; each non-tree edge closes a cycle through the BFS
    tree whose length after stripping the common root path is genuine.
    """
    best = None
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in bits(g.row(u)):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and dist[w] >= dist[u]:
                        # collision edge (u,w): walk up to the meeting point
                        pu, pw = u, w
                        path_u, path_w = [u], [w]
                        while dist[pu] > dist[pw]:
                            pu = parent[pu]
                            path_u.append(pu)
                        while dist[pw] > dist[pu]:
                            pw = parent[pw]
                            path_w.append(pw)
                        while pu != pw:
                            pu = parent[pu]
                            pw = parent[pw]
                            path_u.append(pu)
                            path_w.append(pw)
                        cyc = path_u + path_w[-2::-1]
                        if len(set(cyc)) == len(cyc):
                            if best is None or len(cyc) < len(best):
                                best = cyc
            frontier = nxt
        if best is not None and len(best) == 3:
            break
    if best is not None and len(best) <= max_len:
        return best
    return None


def triangle_witness(g):
    """A triangle (u, v, w) of g, or None.  Exhaustive bit-row scan."""
    for u, v in g.edges():
        common = g.row(u) & g.row(v)
        if common:
            w = next(bits(common))
            return (u, v, w)
    return None


# ---------------------------------------------------------------------------
# text format: "n m" header, then one "u v" line per edge, 0-based
# ---------------------------------------------------------------------------

def graph_to_text(g):
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


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


def read_graph(path):
    with open(path) as fh:
        return graph_from_text(fh.read())
