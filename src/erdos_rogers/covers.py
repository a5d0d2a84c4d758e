"""Clique covers: families of cliques that partition a host graph's edges.

Validation uses the pair-dictionary trick: two cliques share two vertices
exactly when some vertex pair appears in both, so one sweep over all
within-clique pairs checks completeness, edge-disjointness, and coverage
in O(sum |K_i|^2) instead of O(#cliques^2).
"""

from itertools import combinations

from .errors import InputError
from .graphs import VertexSet


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
    """Host graph plus cliques intended to cover every host edge once."""

    __slots__ = ("host", "cliques")

    def __init__(self, host, cliques):
        self.host = host
        self.cliques = tuple(
            c if isinstance(c, VertexSet) else VertexSet.from_iterable(c)
            for c in cliques
        )

    def _pair_map(self):
        """One sweep over the vertex pairs inside each clique.

        Returns ({(u, v), u<v: covering clique index}, None), or
        (None, (kind, witness)) at the first pair that is not a host edge
        ("not-a-clique") or lies in two cliques ("overlap").
        """
        seen = {}
        has_edge = self.host.has_edge
        for idx, cl in enumerate(self.cliques):
            for u, v in combinations(cl.members(), 2):
                if not has_edge(u, v):
                    return None, ("not-a-clique", {"clique": idx, "missing_edge": [u, v]})
                if (u, v) in seen:
                    return None, ("overlap", {"cliques": [seen[(u, v)], idx], "shared_pair": [u, v]})
                seen[(u, v)] = idx
        return seen, None

    def validate(self):
        """Audit the three cover invariants.

        Checks that each listed clique induces a complete subgraph, that no
        two cliques share more than one vertex, and that every host edge
        lies in some clique.
        """
        seen, fault = self._pair_map()
        if fault is not None:
            kind, witness = fault
            return Audit("clique_cover", False, {"kind": kind, **witness})
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
        return f"CliqueCover(host={self.host!r}, cliques={len(self.cliques)})"
