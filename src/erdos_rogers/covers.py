"""Clique covers: edge-disjoint families of cliques.

A `CliqueCover(n, cliques)` holds sorted vertex tuples on n vertices.  The
graph it covers is by definition the union of its cliques (a complete
graph on each clique), so it is never built or stored; every edge is
covered, and the one invariant left to check is edge-disjointness.

Validation uses the pair-dictionary trick: two cliques share two vertices
exactly when some vertex pair appears in both, so one sweep over all
within-clique pairs checks edge-disjointness in O(sum |K_i|^2) instead of
O(#cliques^2).
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

    def _pair_map(self):
        """One sweep over the vertex pairs inside each clique.

        Returns ({(u, v), u<v: covering clique index}, None), or
        (None, witness) at the first pair that lies in two cliques.
        """
        seen = {}
        for idx, cl in enumerate(self.cliques):
            for u, v in combinations(cl, 2):
                if (u, v) in seen:
                    return None, {"cliques": [seen[(u, v)], idx], "shared_pair": [u, v]}
                seen[(u, v)] = idx
        return seen, None

    def validate(self):
        """Audit that no two cliques share more than one vertex."""
        _, overlap = self._pair_map()
        if overlap is not None:
            return Audit("clique_cover", False, {"kind": "overlap", **overlap})
        return Audit("clique_cover", True)

    def edge_clique_map(self):
        """Map edge (u,v), u<v -> covering clique index.

        Requires edge-disjoint cliques (InputError with witness otherwise).
        """
        seen, overlap = self._pair_map()
        if overlap is not None:
            raise InputError("cover cliques are not edge-disjoint", witness=overlap)
        return seen

    def __repr__(self):
        return f"CliqueCover(n={self.n}, cliques={len(self.cliques)})"


def _sorted_cliques(cliques, n):
    """Each clique as a sorted tuple of distinct vertices in range(n)."""
    out = []
    for c in cliques:
        t = tuple(sorted(set(c)))
        if t and (t[0] < 0 or t[-1] >= n):
            raise InputError("cover clique vertex out of range", witness={"clique": len(out), "n": n})
        out.append(t)
    return tuple(out)
