"""Clique covers: edge-disjoint families of cliques.

A `CliqueCover(n, cliques)` holds sorted vertex tuples on n vertices.  The
graph it covers is by definition the union of its cliques (a complete
graph on each clique), so it is never built or stored; every edge is
covered, and the one invariant left to check is edge-disjointness.

One flat incidence, `_incidence`, serves every check here and in
`hypergraphs`: the vertices that lie in at least two sets, ascending, and
one list of set indices with an ascending slice per such vertex.  Two sets
share a vertex pair exactly when they meet in at least two vertices, so
`_shares_a_pair` concatenates, for each set i, the later indices of the
slices through its vertices, and looks for a repeat there.
`_first_shared_pair`, one sweep over all within-clique pairs in
O(sum |K_i|^2), builds the pair map of `edge_clique_map` and names the
witness of a failed check; on the theorem-1 cover at (2,65,6) its dict
holds 242k tuples.
"""

from array import array
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


def _incidence(sets, n):
    """The sets through each vertex of range(n) that lies in at least two
    of `sets`, as (meeting, starts, through): meeting lists those vertices
    ascending, and through[starts[k]:starts[k + 1]] the indices of the sets
    through meeting[k], ascending.

    A vertex in one set adds nothing to a meeting pair, to sum_v C(deg v, 2)
    or to a clique, so it gets no slice.  The loops run over the incidences
    and the meeting vertices only, never over range(n).  `through` holds
    the index ints of `enumerate` themselves, so a clique tuple sliced from
    it makes no new int; the offsets are 4-byte machine ints."""
    count = [0] * n
    meeting = []
    for v in chain.from_iterable(sets):
        c = count[v] + 1
        count[v] = c
        if c == 2:
            meeting.append(v)
    meeting.sort()
    starts = array("i", [0]) * (len(meeting) + 1)
    end = 0
    # count[v] becomes ~(the next free place in the slice of v), below 0,
    # while a vertex in one set keeps its count of 1
    for k, v in enumerate(meeting, 1):
        c = count[v]
        count[v] = ~end
        end += c
        starts[k] = end
    through = [None] * end
    for i, members in enumerate(sets):
        for v in members:
            p = count[v]
            if p < 0:
                through[~p] = i
                count[v] = p - 1
    return meeting, starts, through


def _later_sets(starts, through, m):
    """up[i] for each of m sets: for each meeting vertex of set i, the
    indices above i in its slice of the flat incidence `_incidence`,
    concatenated.  Two sets share a vertex pair exactly when an index
    repeats in some up[i]; up[i] has sum_v C(deg v, 2) entries in all."""
    up = [()] * m
    for a, b in zip(starts, starts[1:]):
        run = tuple(through[a:b])
        for q, i in enumerate(run, 1):
            up[i] += run[q:]
    return up


def _repeats(up):
    """Whether some tuple of `up` holds an index twice."""
    return sum(map(len, map(set, up))) != sum(map(len, up))


def _shares_a_pair(sets, n):
    """Whether two of the tuples `sets`, each of distinct vertices in
    range(n), share a vertex pair: some set then meets a later set through
    two of its vertices."""
    _, starts, through = _incidence(sets, n)
    return _repeats(_later_sets(starts, through, len(sets)))


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
