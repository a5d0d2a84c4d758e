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
from itertools import product

from .certificates import Certificate
from .errors import InputError
from .hypergraphs import Hypergraph, hypergraph_is_triangle_free


class SpherePointSet:
    __slots__ = ("d", "r", "points")

    def __init__(self, d, r, points):
        self.d = d
        self.r = r
        self.points = tuple(points)

    @property
    def count(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self):
        return f"SpherePointSet(d={self.d}, r={self.r}, count={self.count})"


def sphere_points(d, r):
    """All x in Z^d with every coordinate >= 1 and sum x_i^2 = r^2,
    enumerated in increasing lexicographic order."""
    if d < 1 or r < 1:
        raise InputError("sphere_points requires d >= 1 and r >= 1")
    target = r * r
    points = []
    prefix = [0] * d

    def rec(i, remaining):
        if i == d - 1:
            root = math.isqrt(remaining)
            if root >= 1 and root * root == remaining:
                prefix[i] = root
                points.append(tuple(prefix))
            return
        # leave at least 1 per remaining coordinate
        slack = remaining - (d - 1 - i)
        x = 1
        while x * x <= slack:
            prefix[i] = x
            rec(i + 1, remaining - x * x)
            x += 1

    rec(0, target)
    return SpherePointSet(d, r, points)


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

    def vertex_id(self, part, point):
        """part is 1-based; point has coordinates in [part * r]."""
        side = part * self.r
        idx = 0
        for c in point:
            idx = idx * side + (c - 1)
        return self.part_offsets[part - 1] + idx

    def __repr__(self):
        return f"EFRInstance(d={self.d}, r={self.r}, R={self.R}, m={self.hypergraph.m})"


def efr_hypergraph(d, r, R):
    """Build the R-partite direction hypergraph for (d, r, R).

    Rejects d = 1 (directions on a 1-sphere are a single point and the
    collinearity argument collapses) and any (d, r) with no sphere points.
    """
    if d < 2:
        raise InputError("dimension d >= 2 required")
    if r < 1 or R < 2:
        raise InputError("need r >= 1 and R >= 2")
    sphere = sphere_points(d, r)
    if sphere.count == 0:
        raise InputError(
            "empty direction set: no positive lattice points on the sphere",
            witness={"d": d, "r": r},
        )
    part_sizes = [(i * r) ** d for i in range(1, R + 1)]
    part_offsets = [0]
    for s in part_sizes[:-1]:
        part_offsets.append(part_offsets[-1] + s)
    inst = EFRInstance(d, r, R, None, sphere, part_sizes, part_offsets)
    vertex_id = inst.vertex_id
    edges = []
    for x in product(range(1, r + 1), repeat=d):
        for a in sphere:
            edge = []
            point = x
            for i in range(R):
                edge.append(vertex_id(i + 1, point))
                point = tuple(point[j] + a[j] for j in range(d))
            edges.append(tuple(edge))
    inst.hypergraph = Hypergraph(inst.declared_n, edges, R)
    return inst


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
    cert.add_measurement("direction_count", inst.sphere.count)

    floor = density_floor(inst.declared_n, inst.R)
    cert.add_measurement("density_floor", floor)
    cert.add_measurement("density_floor_n_source", "declared_n")
    cert.add_measurement("edge_count_meets_floor", bool(h.m >= floor))
    if inst.d >= 5:
        cert.add_measurement(
            "direction_count_lower_bound",
            (inst.r / math.sqrt(inst.d)) ** (inst.d - 4),
        )

    # the triangle audit sweeps for linearity first and refuses a
    # non-linear input with the violating pair as its witness
    try:
        triangle_free = hypergraph_is_triangle_free(h)
    except InputError as exc:
        cert.add_predicate("linear", False, exc.witness)
        cert.add_predicate("triangle_free", False, {"skipped": "input not linear"})
    else:
        cert.add_predicate("linear", True)
        cert.add_audit(triangle_free)

    expected_m = inst.sphere.count * inst.r**inst.d
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
