"""Clique covers: edge-disjoint families of cliques.

A `CliqueCover(n, cliques)` holds sorted vertex tuples on n vertices.  The
graph it covers is by definition the union of its cliques (a complete
graph on each clique), so it is never built or stored; every edge is
covered, and the one invariant left to check is edge-disjointness.

Validation uses the pair-dictionary trick: two cliques share two vertices
exactly when some vertex pair appears in both, so one sweep over all
within-clique pairs checks edge-disjointness in O(sum |K_i|^2) instead of
O(#cliques^2).  `_first_shared_pair` is that one sweep, for
`edge_clique_map` and the witnesses of a failed `validate` and a failed
`hypergraphs.hypergraph_is_linear`.  `validate` first decides with
`_shares_a_pair`, which does the same work vertex by vertex and keeps one
mark per vertex instead of a dict entry per pair: on the theorem-1 cover
at (2,65,6) that dict holds 242k tuples.
"""

from itertools import combinations

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


def _shares_a_pair(sets, n):
    """Whether two of the tuples `sets`, each of distinct vertices in
    range(n), share a vertex pair.  The sets through u share the pair
    {u, v} exactly when v lies in two of them, so one mark per vertex,
    the last u whose sets held it, finds every shared pair."""
    through = [[] for _ in range(n)]
    for members in sets:
        for u in members:
            through[u].append(members)
    mark = [-1] * n
    for u, incident in enumerate(through):
        for members in incident:
            for v in members:
                if v != u:
                    if mark[v] == u:
                        return True
                    mark[v] = u
    return False


def _sorted_cliques(cliques, n):
    """Each clique as a sorted tuple of distinct vertices in range(n)."""
    out = []
    for c in cliques:
        t = tuple(sorted(set(c)))
        if t and (t[0] < 0 or t[-1] >= n):
            raise InputError("cover clique vertex out of range", witness={"clique": len(out), "n": n})
        out.append(t)
    return tuple(out)
