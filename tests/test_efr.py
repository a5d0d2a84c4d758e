import hashlib
from itertools import product

import pytest

from erdos_rogers import (
    Hypergraph,
    InputError,
    density_floor,
    efr_certificate,
    efr_hypergraph,
    hypergraph_is_linear,
    hypergraph_is_triangle_free,
    sphere_points,
)
from erdos_rogers import efr
from erdos_rogers.efr import _declared_n_fits
from erdos_rogers.graphs import MAX_FILE_VERTICES
from erdos_rogers.hypergraphs import hypergraph_to_text
from oracles import efr_vertex_id, sphere_count


@pytest.mark.parametrize("d,r,expect", [(2, 5, 2), (2, 4, 0), (3, 3, 3)])
def test_sphere_point_examples(d, r, expect):
    assert len(sphere_points(d, r)) == expect


def test_sphere_points_are_on_sphere():
    pts = sphere_points(3, 9)
    assert len(pts) > 0
    for p in pts:
        assert len(p) == 3
        assert all(c >= 1 for c in p)
        assert sum(c * c for c in p) == 81
    assert list(pts) == sorted(pts)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3, 5, 7, 12, 25])
def test_sphere_counts_match_convolution(d, r):
    assert len(sphere_points(d, r)) == sphere_count(d, r)


def test_sphere_points_rejects_bad_args():
    with pytest.raises(InputError):
        sphere_points(0, 3)
    with pytest.raises(InputError):
        sphere_points(2, 0)


@pytest.mark.parametrize("d,r,R", [(2, 5, 3), (3, 3, 3), (2, 10, 4)])
def test_efr_edge_count_formula(d, r, R):
    inst = efr_hypergraph(d, r, R)
    h = inst.hypergraph
    assert h.m == len(sphere_points(d, r)) * r**d
    assert h.r == R
    assert h.n == inst.declared_n == sum((i * r) ** d for i in range(1, R + 1))


def test_efr_is_linear_and_triangle_free():
    h = efr_hypergraph(2, 5, 3).hypergraph
    assert hypergraph_is_linear(h).passed
    assert hypergraph_is_triangle_free(h).passed


def test_efr_edges_are_transversal():
    inst = efr_hypergraph(2, 5, 3)
    bounds = list(inst.part_offsets) + [inst.declared_n]
    for e in inst.hypergraph.edges:
        parts = [
            next(i for i in range(inst.R) if bounds[i] <= v < bounds[i + 1]) for v in e
        ]
        assert parts == list(range(inst.R))


def test_efr_vertex_id_round_trip():
    inst = efr_hypergraph(2, 5, 3)
    # part 2 has side 10; spot-check corners
    assert efr_vertex_id(inst, 1, (1, 1)) == inst.part_offsets[0]
    assert efr_vertex_id(inst, 2, (1, 1)) == inst.part_offsets[1]
    assert efr_vertex_id(inst, 2, (10, 10)) == inst.part_offsets[1] + 99


@pytest.mark.parametrize("d,r,R", [(2, 5, 3), (3, 9, 3), (4, 5, 3)])
def test_efr_edges_follow_the_point_walk(d, r, R):
    # the builder adds per-part offsets; the edge of (x, a) must still be
    # the ids of the points x, x + a, ..., x + (R - 1) a, in that order
    inst = efr_hypergraph(d, r, R)
    walks = []
    for x in product(range(1, r + 1), repeat=d):
        for a in sphere_points(d, r):
            walks.append(
                tuple(efr_vertex_id(inst, i + 1, tuple(c + i * s for c, s in zip(x, a))) for i in range(R))
            )
    assert list(inst.hypergraph.edges) == walks


def test_efr_rejects_empty_direction_set():
    with pytest.raises(InputError):
        efr_hypergraph(2, 4, 3)  # no positive points at squared radius 16


def test_declared_size_limit_matches_the_exact_sum():
    # sum_i (i r)^d against MAX_FILE_VERTICES, with the boundary cases
    # 5 r^2 (d = 2, R = 2) at r = 1414 and 1415, and 1 + 2^d at d = 23 and 24
    outcomes = set()
    for d, r, R in product(range(2, 26), [1, 2, 3, 7, 65, 1414, 1415, 3000], [2, 3, 6, 40]):
        fits = sum((i * r) ** d for i in range(1, R + 1)) <= MAX_FILE_VERTICES
        assert _declared_n_fits(d, r, R) is fits
        outcomes.add(fits)
    assert outcomes == {False, True}
    assert _declared_n_fits(2, 1414, 2) and not _declared_n_fits(2, 1415, 2)
    assert _declared_n_fits(23, 1, 2) and not _declared_n_fits(24, 1, 2)


@pytest.mark.parametrize("d,r,R", [(10**12, 65, 6), (2, 10**12, 6), (2, 65, 10**12), (3, 200, 6)])
def test_efr_refuses_a_declared_size_past_the_file_limit(monkeypatch, d, r, R):
    def unreachable(d, r):
        raise AssertionError("sphere_points ran")

    monkeypatch.setattr(efr, "sphere_points", unreachable)
    with pytest.raises(InputError) as exc:
        efr_hypergraph(d, r, R)
    assert exc.value.witness == {"d": d, "r": r, "R": R, "max_vertices": MAX_FILE_VERTICES}


def test_density_floor_monotone_in_n():
    assert density_floor(10_000, 5) > density_floor(1_000, 5)


def test_efr_certificate_contents():
    cert = efr_certificate(efr_hypergraph(2, 5, 3))
    assert cert.passed("linear")
    assert cert.passed("triangle_free")
    assert cert.passed("edge_count_identity")
    assert cert.all_passed()
    assert cert.parameters["d"] == 2
    assert cert.measurements["declared_n"] == 350


# sha256 of hypergraph_to_text and of the efr_certificate bytes; how the
# builder and the audits are arranged must not change either
EFR_SHA256 = {
    (2, 5, 3): (
        "b5d287b637dc13706236c1335c5a397c6f710dbb937544ce17b6ac8b96d6728b",
        "e1e99e0ed38683d708928708a66f487698eb6533fb7a808ae36ae8e383a68991",
    ),
    (2, 25, 5): (
        "145e8cdf69aad19e645f4cd2bd01efe5d18dcd50ee5bb25b358d318fd37d4cfa",
        "c761df739c83bf7e635994d30c8c58aeecb496b77e23afafcaed70925d0190f3",
    ),
    (3, 9, 3): (
        "71906fd12e78838a840d19aab2d311511af3e48d172791cdb5dda52914b49256",
        "6f7c707d52a708e7eb7fd27db2b88f3581ca6d4dc474822fc68dd74d30597ce6",
    ),
}


@pytest.mark.parametrize("params", sorted(EFR_SHA256))
def test_efr_bytes_pinned(params):
    inst = efr_hypergraph(*params)
    text_sha, cert_sha = EFR_SHA256[params]
    assert hashlib.sha256(hypergraph_to_text(inst.hypergraph).encode()).hexdigest() == text_sha
    assert hashlib.sha256(efr_certificate(inst).to_json_bytes()).hexdigest() == cert_sha


def test_efr_certificate_of_non_linear_instance():
    # a last edge through the first two vertices of edge 0 breaks linearity
    inst = efr_hypergraph(2, 5, 3)
    h = inst.hypergraph
    a, b, c = h.edges[0]
    extra = (a, b, c + 1 if c + 1 < inst.declared_n else c - 1)
    inst.hypergraph = Hypergraph(h.n, h.edges + (extra,), h.r)
    preds = efr_certificate(inst).predicates
    assert preds["linear"] == {
        "passed": False,
        "witness": {"edges": [0, h.m], "shared_vertices": [a, b]},
    }
    assert preds["triangle_free"] == {"passed": False, "witness": {"skipped": "input not linear"}}
