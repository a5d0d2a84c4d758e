"""Clique covers: edge-disjoint families of cliques.

A `CliqueCover(n, cliques)` holds sorted vertex tuples on n vertices.  The
graph it covers is by definition the union of its cliques (a complete
graph on each clique), so it is never built or stored; every edge is
covered, and the one invariant left to check is edge-disjointness.

Two sets share a vertex pair exactly when they meet in at least two
vertices, and a count decides that: set i meets at most
sum_{v in S_i} |{k in K_v : k > i}| later sets, K_v the sets through v,
with equality exactly when each of them shares a single vertex with it.
So no two sets share a pair iff the numbers of later sets meeting each
set sum to sum_v C(|K_v|, 2).  `_shares_a_pair` makes that count for
`validate` and for `hypergraphs.hypergraph_is_linear`, keeping one set of
later sets at a time.  `_first_shared_pair`, one sweep over all within-clique pairs in
O(sum |K_i|^2), builds the pair map of `edge_clique_map` and names the
witness of a failed check; on the theorem-1 cover at (2,65,6) its dict
holds 242k tuples.
"""

from itertools import chain, combinations
from operator import lt

from .errors import InputError


class Audit:
    """Outcome of one named check: passed flag plus an optional witness."""

    __slots__ = ("name", "passed", "witness")

    def __init__(self, name, passed, witness=None):
        self.name = name
        self.passed = bool(passed)
        self.witness = witness

    def __bool__(self):
        return self.passed

    def __repr__(self):
        return f"Audit({self.name!r}, passed={self.passed}, witness={self.witness!r})"


class CliqueCover:
    """Cliques, each a sorted tuple of distinct vertices in range(n), that
    cover the edges of their union graph, each edge once when valid."""

    __slots__ = ("n", "cliques")

    def __init__(self, n, cliques):
        self.n = n
        self.cliques = _sorted_cliques(cliques, n)

    def validate(self):
        """Audit that no two cliques share more than one vertex; the witness
        is the first shared pair of `_first_shared_pair`."""
        if not _shares_a_pair(self.cliques, self.n):
            return Audit("clique_cover", True)
        _, (i, j, (u, v)) = _first_shared_pair(self.cliques)
        return Audit("clique_cover", False, {"kind": "overlap", "cliques": [i, j], "shared_pair": [u, v]})

    def edge_clique_map(self):
        """Map edge (u,v), u<v -> covering clique index.

        Requires edge-disjoint cliques (InputError with witness otherwise).
        """
        seen, shared = _first_shared_pair(self.cliques)
        if shared is not None:
            i, j, (u, v) = shared
            raise InputError(
                "cover cliques are not edge-disjoint",
                witness={"cliques": [i, j], "shared_pair": [u, v]},
            )
        return seen

    def __repr__(self):
        return f"CliqueCover(n={self.n}, cliques={len(self.cliques)})"


def _first_shared_pair(sets):
    """One sweep over the vertex pairs inside each sorted tuple of `sets`.

    Returns ({(u, v), u<v: index of the set holding it}, None), or
    (None, (i, j, (u, v))) at the first pair that set j shares with an
    earlier set i.
    """
    seen = {}
    for j, members in enumerate(sets):
        for pair in combinations(members, 2):
            if pair in seen:
                return None, (seen[pair], j, pair)
            seen[pair] = j
    return seen, None


def _incidence_sweep(sets, inc, order):
    """For each index i in `order`, the lists inc[v] of the vertices v of
    set i that lie in at least two of `sets`, once i has joined them.  inc
    starts as [()] * n, and a vertex in fewer sets keeps its (), as it
    adds nothing to a meeting set, to sum_v C(deg v, 2) or to a clique: a
    count of each vertex's sets up to 2, one byte per vertex, tells the
    two apart first."""
    deg = bytearray(len(inc))
    for v in chain.from_iterable(sets):
        if deg[v] < 2:
            deg[v] += 1
    for i in order:
        met = []
        for v in sets[i]:
            if deg[v] > 1:
                through = inc[v]
                if through:
                    through.append(i)
                else:
                    inc[v] = through = [i]
                met.append(through)
        yield met


def _later_meeting(sets, inc):
    """For i from the last set down, the set of indices k > i of the sets
    that meet set i, while `_incidence_sweep` fills inc[v] with the sets
    through v in descending order."""
    order = range(len(sets) - 1, -1, -1)
    for i, met in zip(order, _incidence_sweep(sets, inc, order)):
        later = set().union(*met)
        later.discard(i)
        yield later


def _meeting_incidence(sets, n):
    """inc[v], the indices of the sets through v ascending, for each vertex
    v of range(n) where at least two of `sets` meet, and () elsewhere."""
    inc = [()] * n
    for _ in _incidence_sweep(sets, inc, range(len(sets))):
        pass
    return inc


def _pairs_through(inc):
    """sum_v C(deg v, 2) over the incidence lists inc."""
    return sum(len(t) * (len(t) - 1) // 2 for t in inc)


def _shares_a_pair(sets, n):
    """Whether two of the tuples `sets`, each of distinct vertices in
    range(n), share a vertex pair: the numbers of later sets meeting each
    set fall short of sum_v C(deg v, 2) exactly then."""
    inc = [()] * n
    return sum(map(len, _later_meeting(sets, inc))) != _pairs_through(inc)


def _sorted_cliques(cliques, n):
    """Each clique as a sorted tuple of distinct vertices in range(n); a
    clique given as a strictly increasing tuple is kept as it is."""
    out = []
    for c in cliques:
        t = c if type(c) is tuple and all(map(lt, c, c[1:])) else tuple(sorted(set(c)))
        if t and (t[0] < 0 or t[-1] >= n):
            raise InputError("cover clique vertex out of range", witness={"clique": len(out), "n": n})
        out.append(t)
    return tuple(out)
