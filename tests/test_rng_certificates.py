import json
import math

import pytest

from erdos_rogers import (
    Certificate,
    SeededRng,
    make_manifest,
    write_manifest,
)

SEEDS = [0, 1, 2, 99, 2**40]


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_same_stream(seed):
    a = SeededRng(seed, "x")
    b = SeededRng(seed, "x")
    assert [a.randrange(1000) for _ in range(50)] == [b.randrange(1000) for _ in range(50)]


def test_different_labels_diverge():
    a = SeededRng(5, "alpha")
    b = SeededRng(5, "beta")
    assert [a.randrange(10**6) for _ in range(8)] != [b.randrange(10**6) for _ in range(8)]


def test_substream_isolated_from_parent_consumption():
    # drawing from the parent must not shift what a substream produces
    a = SeededRng(3, "root")
    sub_before = [a.substream("child").randrange(10**9) for _ in range(3)]
    a.randrange(10**9)
    a.randrange(10**9)
    sub_after = [a.substream("child").randrange(10**9) for _ in range(3)]
    assert sub_before == sub_after


def _same_stream(sub, fresh):
    assert (sub.seed, sub.label, sub._key) == (fresh.seed, fresh.label, fresh._key)
    assert sub.state() == fresh.state()
    assert [sub.randrange(5) for _ in range(20)] == [fresh.randrange(5) for _ in range(20)]
    assert [sub.u64() for _ in range(9)] == [fresh.u64() for _ in range(9)]


@pytest.mark.parametrize("seed", SEEDS)
def test_numbered_substreams_match_substream(seed):
    # substream keys its child from a copy of one kept state; the child is
    # the stream SeededRng(seed, f"{label}/{x}") whatever the parent did
    # before: numbered siblings, a parent that has drawn, nested and
    # non-ASCII labels
    rng = SeededRng(seed, "theorem1/blowup")
    for i in [0, 1, 9, 10, 57, 50_678]:
        _same_stream(rng.substream(f"clique-{i}"), SeededRng(seed, f"theorem1/blowup/clique-{i}"))
    rng.randrange(10**9)
    rng.u64()
    _same_stream(rng.substream("clique-3"), SeededRng(seed, "theorem1/blowup/clique-3"))
    _same_stream(rng.substream(7), SeededRng(seed, "theorem1/blowup/7"))
    nested = rng.substream("pair-0-2").substream("place")
    _same_stream(nested.substream("descend-4"), SeededRng(seed, "theorem1/blowup/pair-0-2/place/descend-4"))
    wide = SeededRng(seed, "größe-σ")
    _same_stream(wide.substream("ünï-✓"), SeededRng(seed, "größe-σ/ünï-✓"))
    _same_stream(wide.substream(""), SeededRng(seed, "größe-σ/"))


def test_shuffle_deterministic():
    xs = list(range(20))
    ys = list(range(20))
    SeededRng(11, "s").shuffle(xs)
    SeededRng(11, "s").shuffle(ys)
    assert xs == ys
    assert sorted(xs) == list(range(20))


def test_random_unit_interval():
    rng = SeededRng(1, "u")
    vals = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.35 < sum(vals) / len(vals) < 0.65


# 2^-8 sits on the top-byte skip rule's edge: ceil(p 2^53) = 2^45 there
BERNOULLI_PS = [0.0, 2.0**-50, math.nextafter(2.0**-8, 0.0), math.nextafter(2.0**-8, 1.0), 0.3, 1.0]


# skip 7 leaves one word of the block in the buffer, skip 8 none; whole
# blocks are made in chunks of 256 (2048 words), so 2048 k + {0, 1, 7, 8,
# 13} words end on, just past and well past a chunk edge; the first 2^16
# words of the stream hold two neighbours whose top bytes are both zero
@pytest.mark.parametrize("p", BERNOULLI_PS)
@pytest.mark.parametrize("count", [0, 5, 8, 13, 61, 1003, 20_001, 2**16]
                         + [2048 * k + extra for k in (1, 2) for extra in (0, 1, 7, 8, 13)])
@pytest.mark.parametrize("skip", [0, 3, 7, 8])
def test_bernoulli_indices_matches_random_draws(p, count, skip):
    a = SeededRng(17, "bernoulli")
    b = SeededRng(17, "bernoulli")
    for _ in range(skip):
        assert a.u64() == b.u64()
    assert a.bernoulli_indices(count, p) == [i for i in range(count) if b.random() < p]
    assert a.u64() == b.u64()


@pytest.mark.parametrize("p", BERNOULLI_PS)
@pytest.mark.parametrize("first,second", [(3, 5), (5, 13), (13, 61), (16, 1003), (1003, 20_001),
                                          (2048 + 13, 2048), (5, 4096 + 7), (4096 + 1, 2048 + 8)])
def test_bernoulli_indices_back_to_back(p, first, second):
    a = SeededRng(17, "bernoulli")
    b = SeededRng(17, "bernoulli")
    assert a.bernoulli_indices(first, p) == [i for i in range(first) if b.random() < p]
    assert a.bernoulli_indices(second, p) == [i for i in range(second) if b.random() < p]
    assert a.u64() == b.u64()


def test_certificate_json_is_stable():
    def build():
        cert = Certificate("demo")
        cert.set_param("k", 3)
        cert.add_predicate("ok", True)
        cert.add_predicate("bad", False, {"edge": [0, 1]})
        cert.add_measurement("size", 7)
        cert.record_rng(SeededRng(4, "demo"))
        return cert

    assert build().to_json_bytes() == build().to_json_bytes()
    payload = json.loads(build().to_json_bytes())
    assert payload["name"] == "demo"
    assert payload["predicates"]["bad"]["witness"] == {"edge": [0, 1]}


def test_certificate_passed_queries():
    cert = Certificate("q")
    cert.add_predicate("a", True)
    assert cert.all_passed()
    cert.add_predicate("b", False)
    assert cert.passed("a") and not cert.passed("b")
    assert not cert.all_passed()


def test_certificate_records_rng_state():
    rng = SeededRng(17, "pipeline")
    cert = Certificate("r")
    cert.record_rng(rng)
    assert cert.seeds == {"seed": 17, "label": "pipeline"}


def test_certificate_write_trailing_newline(tmp_path):
    cert = Certificate("w")
    cert.add_predicate("ok", True)
    path = tmp_path / "c.json"
    cert.write(str(path))
    raw = path.read_bytes()
    assert raw.endswith(b"}\n")
    assert json.loads(raw)["predicates"]["ok"]["passed"] is True


def test_manifest_round_trip(tmp_path):
    manifest = make_manifest(
        command=["construct", "efr"],
        params={"d": 2, "r": 5},
        seed=None,
        inputs=[],
        outputs=["x.hg"],
    )
    assert manifest["format_version"] == 1
    path = tmp_path / "m.json"
    write_manifest(str(path), manifest)
    back = json.loads(path.read_text())
    assert back["command"] == ["construct", "efr"]
    assert back["params"] == {"d": 2, "r": 5}
    # wall clock is informational; everything else must survive the trip
    assert {k: v for k, v in back.items() if k != "wall_clock_ms"} == {
        k: v for k, v in manifest.items() if k != "wall_clock_ms"
    }


def test_manifest_file_is_sorted_single_json(tmp_path):
    manifest = make_manifest(command=["x"], params={}, seed=3, inputs=[], outputs=[])
    path = tmp_path / "m.json"
    write_manifest(str(path), manifest)
    text = path.read_text()
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)
