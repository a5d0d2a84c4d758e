"""Random blowups along clique covers, the failure-probability calculator,
square clique covers of bipartite graphs, and homomorphism freeness.

random_blowup colors each clique of the cover independently with vertices
of a pattern F; a cover edge survives exactly when its two endpoints get
distinct, F-adjacent colors within the covering clique.
"""

import math
from fractions import Fraction
from itertools import combinations

from .covers import CliqueCover
from .errors import InputError
from .graphs import Graph, as_mask, bipartition_violation, bits


def random_blowup(cover, pattern, rng):
    """The blown-up Graph on the cover's n vertices.

    Requires pairwise edge-disjoint cliques (InputError with witness
    otherwise).  Each clique i draws its colors, in ascending vertex
    order, from the substream labeled clique-i, so colorings are
    independent of enumeration order elsewhere.
    """
    if pattern.n < 1:
        raise InputError("pattern needs at least one vertex")
    edge_map = cover.edge_clique_map()  # raises with witness on bad covers
    colorings = []
    for i, clique in enumerate(cover.cliques):
        stream = rng.substream(f"clique-{i}")
        colorings.append({v: stream.randrange(pattern.n) for v in clique})
    kept = []
    for (u, v), i in edge_map.items():
        col = colorings[i]
        if pattern.has_edge(col[u], col[v]):
            kept.append((u, v))
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
    required; a 4-cycle would make two cliques share two vertices, and is
    returned as the witness.
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

    pair_via = {}
    cliques = []
    for y in range(bip.n):
        if (left_mask >> y) & 1:
            continue
        nbrs = [index[u] for u in bits(bip.row(y))]
        if len(nbrs) >= 2:
            cliques.append(nbrs)
        for u, w in combinations(nbrs, 2):
            if (u, w) in pair_via:
                raise InputError(
                    "girth must exceed 4",
                    witness={"four_cycle": [members[u], pair_via[(u, w)], members[w], y]},
                )
            pair_via[(u, w)] = y
    return CliqueCover(len(members), cliques)


def is_hom_free(pattern, source):
    """(True, None) if no graph homomorphism source -> pattern exists,
    else (False, mapping tuple).  A homomorphism sends every edge of the
    source to an edge of the pattern; it need not be injective."""
    if source.n == 0:
        return (False, ())
    if pattern.n == 0:
        return (True, None)
    order = sorted(range(source.n), key=lambda v: (-source.degree(v), v))
    # reorder so each vertex after the first has a placed neighbor if possible
    placed = [order[0]]
    rest = set(order[1:])
    while rest:
        nxt = None
        for v in order:
            if v in rest and any(u in placed for u in source.neighbors(v)):
                nxt = v
                break
        if nxt is None:
            nxt = next(v for v in order if v in rest)
        placed.append(nxt)
        rest.discard(nxt)
    order = placed

    image = [-1] * source.n

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        allowed = None
        for u in source.neighbors(v):
            if image[u] >= 0:
                row = pattern.row(image[u])
                allowed = row if allowed is None else allowed & row
        candidates = bits(allowed) if allowed is not None else range(pattern.n)
        for c in candidates:
            image[v] = c
            if extend(i + 1):
                return True
            image[v] = -1
        return False

    if extend(0):
        return (False, tuple(image))
    return (True, None)

