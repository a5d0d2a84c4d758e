"""Random blowups along clique covers, the failure-probability calculator,
square clique covers of bipartite graphs, and homomorphism freeness.

random_blowup colors each clique of the cover independently with vertices
of a pattern F; a cover edge survives exactly when its two endpoints get
distinct, F-adjacent colors within the covering clique.  is_hom_free runs
one homomorphism plan on the containment core in subgraph.
"""

import math
from fractions import Fraction
from itertools import combinations

from .covers import CliqueCover
from .errors import InputError, SelfCheckError
from .graphs import Graph, as_mask, bipartition_violation, bits
from .subgraph import _plan, _run_plans


def random_blowup(cover, pattern, rng):
    """The blown-up Graph on the cover's n vertices.

    Requires pairwise edge-disjoint cliques (InputError with witness
    otherwise).  Each clique i draws its colors, in ascending vertex
    order, from the substream labeled clique-i, so colorings are
    independent of enumeration order elsewhere.  Edge-disjoint cliques
    cover each edge once, so every pair is decided inside its own clique
    as soon as that clique is colored.
    """
    if pattern.n < 1:
        raise InputError("pattern needs at least one vertex")
    audit = cover.validate()
    if not audit:
        raise InputError(
            "cover cliques are not edge-disjoint",
            witness={"cliques": audit.witness["cliques"], "shared_pair": audit.witness["shared_pair"]},
        )
    t = pattern.n
    prows = pattern.rows()
    kept = []
    for i, clique in enumerate(cover.cliques):
        draw = rng.substream(f"clique-{i}").randrange
        colored = [(v, draw(t)) for v in clique]
        kept.extend([(u, v) for (u, cu), (v, cv) in combinations(colored, 2) if (prows[cu] >> cv) & 1])
    return Graph(cover.n, kept)


def _log_comb(n, k):
    if k < 0 or k > n:
        return float("-inf")
    if n <= 2_000_000 and k <= 5_000:
        return math.log(math.comb(n, k))
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def theorem1_failure_bound(t, R, N):
    """Evaluate the union bound over all N-subsets of a blown-up line graph.

    Returns the dict the theorem-1 certificate stores: t, R, N, log_sets,
    log_prob, log_expected = log C(N^2, N) + N log t + R N log(1 - 1/t),
    guaranteed (some coloring works, exactly when log_expected < 0),
    chain_ok and exact_power.  R = 0 is allowed and gives guaranteed False
    (no parts, nothing random ever dies).  The (1 - 1/t)^(R N) factor is
    computed from the exact rational power when the exponent is small
    enough, else via log1p.
    """
    if t < 2 or N < 2 or R < 0:
        raise InputError("need t >= 2, N >= 2, R >= 0")
    log_sets = _log_comb(N * N, N)
    exponent = R * N
    exact_power = exponent <= 200_000
    if exact_power and R > 0:
        power = Fraction(t - 1, t) ** exponent
        log_decay = math.log(power.numerator) - math.log(power.denominator)
    else:
        log_decay = exponent * math.log1p(-1.0 / t)
    log_prob = N * math.log(t) + log_decay
    log_expected = log_sets + log_prob
    # the chain in the probability estimate: t^N (1-1/t)^{RN} <= e^{N log t - RN/t},
    # compared against N^{-2N}
    chain_ok = (N * math.log(t) - exponent / t) < (-2.0 * N * math.log(N))
    return {
        "t": t,
        "R": R,
        "N": N,
        "log_sets": log_sets,
        "log_prob": log_prob,
        "log_expected": log_expected,
        "guaranteed": log_expected < 0.0,
        "chain_ok": chain_ok,
        "exact_power": exact_power,
    }


def square_clique_cover(bip, left):
    """Clique cover of the square of a bipartite graph restricted to `left`.

    One vertex per member of left (densely relabeled in increasing order),
    u ~ w iff they share a right neighbor.  Cliques: for each right vertex
    y with at least two left neighbors, the set N(y).  Girth > 4 is
    required: a 4-cycle makes two cliques share two vertices, which the
    cover's `validate()` refuses; that 4-cycle is the witness.
    """
    left_mask = as_mask(left)
    bad = bipartition_violation(bip, left_mask)
    if bad is not None:
        raise InputError(
            "graph is not bipartite with the given left part",
            witness={"edge": list(bad)},
        )

    members = tuple(bits(left_mask))
    index = {v: i for i, v in enumerate(members)}
    via, cliques = [], []
    for y in range(bip.n):
        if not (left_mask >> y) & 1:
            nbrs = [index[u] for u in bits(bip.row(y))]
            if len(nbrs) >= 2:
                via.append(y)
                cliques.append(nbrs)
    cover = CliqueCover(len(members), cliques)
    audit = cover.validate()
    if not audit:
        i, j = audit.witness["cliques"]
        u, w = audit.witness["shared_pair"]
        raise InputError(
            "girth must exceed 4",
            witness={"four_cycle": [members[u], via[i], members[w], via[j]]},
        )
    return cover


def is_hom_free(pattern, source):
    """(True, None) if no graph homomorphism source -> pattern exists,
    else (False, mapping tuple).  A homomorphism sends every edge of the
    source to an edge of the pattern; it need not be injective.  Source
    vertices are placed in (-degree, index) order, each time the first
    unplaced one with a placed neighbor if there is one; this order fixes
    the witness that theorem4-part1 prints."""
    if source.n == 0:
        return (False, ())
    if pattern.n == 0:
        return (True, None)
    rows = source.rows()
    left = [v for _, v in sorted((-row.bit_count(), v) for v, row in enumerate(rows))]
    order, reached = [], 0
    while left:
        v = next((u for u in left if (reached >> u) & 1), left[0])
        left.remove(v)
        order.append(v)
        reached |= rows[v]
    full = pattern.full_mask()
    plan = _plan(source, order, injective=False)
    status, _, mapping, _ = _run_plans(pattern.rows(), (plan,), math.inf, full, full, None, 0)
    if status != "found":
        return (True, None)
    if any(not pattern.has_edge(mapping[u], mapping[v]) for u, v in source.upper_edges()):
        raise SelfCheckError("homomorphism does not preserve an edge")
    return (False, mapping)
