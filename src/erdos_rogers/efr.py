"""Sphere-direction hypergraphs.

The direction set A consists of all integer points with positive
coordinates on the radius-r sphere in d dimensions.  Strict convexity of
the sphere gives the two properties the pipelines rely on: no three
points of A are collinear, and the induced R-partite hypergraph below is
linear and triangle-free.

The hypergraph has parts X_i = [i*r]^d for i = 1..R; every x in X_1 and
a in A contribute the edge {x, x+a, ..., x+(R-1)*a} with x+i*a living in
part X_{i+1}.  Exactly |A| * r^d edges, one vertex per part per edge.
"""

import math
from itertools import chain, product
from operator import mul

from .certificates import Certificate
from .errors import InputError
from .graphs import MAX_FILE_VERTICES
from .hypergraphs import Hypergraph, hypergraph_is_triangle_free


def sphere_points(d, r):
    """The tuple of all x in Z^d with every coordinate >= 1 and
    sum x_i^2 = r^2, in increasing lexicographic order: the heads in
    [1, r)^(d-1) ascending, each completed when the rest is a positive square."""
    if d < 1 or r < 1:
        raise InputError("sphere_points requires d >= 1 and r >= 1")
    points = []
    for head in product(range(1, r), repeat=d - 1):
        rest = r * r - sum(map(mul, head, head))
        if rest > 0 and (root := math.isqrt(rest)) ** 2 == rest:
            points.append(head + (root,))
    return tuple(points)


class EFRInstance:
    """A built hypergraph plus the bookkeeping the certificate reports.

    Vertices are densely numbered by part: part i (1-based) has (i*r)^d
    lattice points in lexicographic order starting at part_offsets[i-1],
    so labels are recoverable from (d, r, R) alone.  Points never hit by
    an edge stay as isolated vertices and count toward declared_n.
    """

    __slots__ = ("d", "r", "R", "hypergraph", "sphere", "part_sizes", "part_offsets", "declared_n")

    def __init__(self, d, r, R, hypergraph, sphere, part_sizes, part_offsets):
        self.d = d
        self.r = r
        self.R = R
        self.hypergraph = hypergraph
        self.sphere = sphere
        self.part_sizes = tuple(part_sizes)
        self.part_offsets = tuple(part_offsets)
        self.declared_n = sum(part_sizes)

    def __repr__(self):
        return f"EFRInstance(d={self.d}, r={self.r}, R={self.R}, m={self.hypergraph.m})"


def _declared_n_fits(d, r, R):
    """Whether sum_{i=1..R} (i r)^d, d >= 2, is at most MAX_FILE_VERTICES.
    The largest term (R r)^d is compared in logs first, so a large d never
    forms the power; past that test each term is below 2.8 MAX_FILE_VERTICES
    and R r below 5,300, and the exact sum decides."""
    if d * math.log(R * r) > math.log(MAX_FILE_VERTICES) + 1.0:
        return False
    return sum((i * r) ** d for i in range(1, R + 1)) <= MAX_FILE_VERTICES


def efr_hypergraph(d, r, R):
    """Build the R-partite direction hypergraph for (d, r, R).

    Rejects d = 1 (directions on a 1-sphere are a single point and the
    collinearity argument collapses), a declared vertex count
    sum_i (i r)^d above MAX_FILE_VERTICES, before any point is listed, and
    any (d, r) with no sphere points.
    """
    if d < 2:
        raise InputError("dimension d >= 2 required")
    if r < 1 or R < 2:
        raise InputError("need r >= 1 and R >= 2")
    if not _declared_n_fits(d, r, R):
        raise InputError(
            f"declared vertex count sum_i (i r)^d exceeds {MAX_FILE_VERTICES}",
            witness={"d": d, "r": r, "R": R, "max_vertices": MAX_FILE_VERTICES},
        )
    sphere = sphere_points(d, r)
    if not sphere:
        raise InputError(
            "empty direction set: no positive lattice points on the sphere",
            witness={"d": d, "r": r},
        )
    part_sizes = [(i * r) ** d for i in range(1, R + 1)]
    part_offsets = [0]
    for s in part_sizes[:-1]:
        part_offsets.append(part_offsets[-1] + s)
    inst = EFRInstance(d, r, R, None, sphere, part_sizes, part_offsets)
    inst.hypergraph = Hypergraph(inst.declared_n, _edge_tuples(d, r, R, sphere, part_offsets, inst.declared_n), R)
    return inst


def _edge_tuples(d, r, R, sphere, part_offsets, declared_n):
    """The edges {x, x + a, ..., x + (R-1) a} as vertex id tuples, x in
    [r]^d in lexicographic order and a in sphere order within each x.

    A vertex id is linear in its point, so the id of x + i a in part i+1 is
    the lattice index of x - 1 there plus i times the index weight of a.
    For a fixed a, the ids of part i+1 over all x are r^(d-1) runs of r
    consecutive ids, one run per x less its last coordinate.  Every run is
    first written into a table of declared_n slots, and the edges read
    their ids back from it, so each vertex id is one int object however
    many edges hold it (at (2,65,6) the edges hold 6.0 MB instead of
    8.9 MB)."""
    runs = []
    steps = []
    for i in range(R):
        weights = [((i + 1) * r) ** (d - 1 - j) for j in range(d)]
        runs.append([part_offsets[i] + sum(map(mul, x, weights)) for x in product(range(r), repeat=d - 1)])
        steps.append([i * sum(map(mul, a, weights)) for a in sphere])
    ids = [None] * declared_n
    for run, step in zip(runs, steps):
        for s in step:
            for lo in run:
                lo += s
                ids[lo:lo + r] = range(lo, lo + r)
    # the edges of each direction a, x ascending, from one column per part
    by_direction = [
        list(zip(*[list(chain.from_iterable([ids[lo + s:lo + s + r] for lo in run])) for run, s in zip(runs, walk)]))
        for walk in zip(*steps)
    ]
    del ids
    return list(chain.from_iterable(zip(*by_direction)))


def density_floor(declared_n, R):
    """The density target N^2 / R^(8 sqrt(log_R N)) evaluated at N = declared_n."""
    logRN = math.log(declared_n) / math.log(R)
    return declared_n**2 / R ** (8.0 * math.sqrt(logRN))


def efr_certificate(inst):
    """Audit an instance: edge-count target (reported, not asserted),
    linearity, triangle-freeness, partite discipline, and the exact edge
    count identity |E| = |A| * r^d."""
    h = inst.hypergraph
    cert = Certificate("efr_instance")
    cert.set_param("d", inst.d)
    cert.set_param("r", inst.r)
    cert.set_param("R", inst.R)
    cert.set_param("part_sizes", inst.part_sizes)
    cert.set_param("vertex_labeling", "parts 1..R in order; part i lists [i*r]^d lexicographically")

    cert.add_measurement("edge_count", h.m)
    cert.add_measurement("declared_n", inst.declared_n)
    cert.add_measurement("direction_count", len(inst.sphere))

    floor = density_floor(inst.declared_n, inst.R)
    cert.add_measurement("density_floor", floor)
    cert.add_measurement("density_floor_n_source", "declared_n")
    cert.add_measurement("edge_count_meets_floor", bool(h.m >= floor))
    if inst.d >= 5:
        cert.add_measurement(
            "direction_count_lower_bound",
            (inst.r / math.sqrt(inst.d)) ** (inst.d - 4),
        )

    # the triangle audit checks linearity first and refuses a non-linear
    # input with the violating pair as its witness
    try:
        triangle_free = hypergraph_is_triangle_free(h)
    except InputError as exc:
        cert.add_predicate("linear", False, exc.witness)
        cert.add_predicate("triangle_free", False, {"skipped": "input not linear"})
    else:
        cert.add_predicate("linear", True)
        cert.add_predicate(triangle_free.name, triangle_free.passed, triangle_free.witness)

    expected_m = len(inst.sphere) * inst.r**inst.d
    cert.add_predicate(
        "edge_count_identity",
        h.m == expected_m,
        None if h.m == expected_m else {"expected": expected_m, "actual": h.m},
    )

    partite_ok = True
    partite_witness = None
    bounds = list(inst.part_offsets) + [inst.declared_n]
    for idx, e in enumerate(h.edges):
        for i, v in enumerate(e):
            if not (bounds[i] <= v < bounds[i + 1]):
                partite_ok = False
                partite_witness = {"edge": idx, "position": i, "vertex": v}
                break
        if not partite_ok:
            break
    cert.add_predicate("partite_discipline", partite_ok, partite_witness)
    return cert
