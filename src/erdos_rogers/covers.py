"""Clique covers: families of cliques that partition a host graph's edges.

Each clique is a sorted tuple of vertices.  A cover either names its host
graph or, built with `CliqueCover.union`, takes as host the union of its
cliques (a complete graph on each clique), which is then never stored.

Validation uses the pair-dictionary trick: two cliques share two vertices
exactly when some vertex pair appears in both, so one sweep over all
within-clique pairs checks edge-disjointness, and with a host also
completeness and coverage, in O(sum |K_i|^2) instead of O(#cliques^2).
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


_FAULT_MESSAGES = {
    "not-a-clique": "cover clique does not induce a complete subgraph",
    "overlap": "cover cliques are not edge-disjoint",
}


class CliqueCover:
    """Cliques, each a sorted vertex tuple, intended to cover every edge of
    a host graph on n vertices once.  `host` is None for a union cover,
    whose host is by definition the union of its cliques."""

    __slots__ = ("n", "host", "cliques")

    def __init__(self, host, cliques):
        self.n = host.n
        self.host = host
        self.cliques = _sorted_cliques(cliques, host.n)

    @classmethod
    def union(cls, n, cliques):
        """The cover of the graph on n vertices whose edges are exactly the
        vertex pairs inside the cliques; no host graph is built."""
        cover = cls.__new__(cls)
        cover.n = n
        cover.host = None
        cover.cliques = _sorted_cliques(cliques, n)
        return cover

    def _pair_map(self):
        """One sweep over the vertex pairs inside each clique.

        Returns ({(u, v), u<v: covering clique index}, None), or
        (None, (kind, witness)) at the first pair that is not a host edge
        ("not-a-clique", checked only when a host is given) or lies in two
        cliques ("overlap").
        """
        seen = {}
        has_edge = None if self.host is None else self.host.has_edge
        for idx, cl in enumerate(self.cliques):
            for u, v in combinations(cl, 2):
                if has_edge is not None and not has_edge(u, v):
                    return None, ("not-a-clique", {"clique": idx, "missing_edge": [u, v]})
                if (u, v) in seen:
                    return None, ("overlap", {"cliques": [seen[(u, v)], idx], "shared_pair": [u, v]})
                seen[(u, v)] = idx
        return seen, None

    def validate(self):
        """Audit the three cover invariants.

        Checks that no two cliques share more than one vertex and, when a
        host is given, that each listed clique induces a complete subgraph
        and that every host edge lies in some clique (a union cover meets
        both by definition).
        """
        seen, fault = self._pair_map()
        if fault is not None:
            kind, witness = fault
            return Audit("clique_cover", False, {"kind": kind, **witness})
        if self.host is None:
            return Audit("clique_cover", True)
        for u, v in self.host.edges():
            if (u, v) not in seen:
                return Audit("clique_cover", False, {"kind": "uncovered-edge", "edge": [u, v]})
        return Audit("clique_cover", True)

    def edge_clique_map(self):
        """Map host edge (u,v), u<v -> covering clique index.

        Requires complete, edge-disjoint cliques (InputError with witness
        otherwise); uncovered host edges are simply absent from the map
        (callers decide whether that is an error).
        """
        seen, fault = self._pair_map()
        if fault is not None:
            kind, witness = fault
            raise InputError(_FAULT_MESSAGES[kind], witness=witness)
        return seen

    def __repr__(self):
        return f"CliqueCover(n={self.n}, host={self.host!r}, cliques={len(self.cliques)})"


def _sorted_cliques(cliques, n):
    """Each clique as a sorted tuple of distinct vertices in range(n)."""
    out = []
    for c in cliques:
        t = tuple(sorted(set(c)))
        if t and (t[0] < 0 or t[-1] >= n):
            raise InputError("cover clique vertex out of range", witness={"clique": len(out), "n": n})
        out.append(t)
    return tuple(out)
