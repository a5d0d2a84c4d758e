import json
import os
import subprocess
import sys

import pytest

from erdos_rogers import read_graph, read_manifest, write_graph, named_graph
from erdos_rogers.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pattern_write_and_oracle(tmp_path, capsys):
    k2 = str(tmp_path / "k2.g")
    k3 = str(tmp_path / "k3.g")
    assert main(["pattern", "write", "k2", "--out", k2]) == 0
    assert main(["pattern", "write", "k3", "--out", k3]) == 0
    capsys.readouterr()
    code, out, _ = run(["oracle", "brute-force-f", "--f", k2, "--g", k3, "--n", "5"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "2"


def test_oracle_accepts_named_patterns(capsys):
    code, out, _ = run(["oracle", "brute-force-f", "--f", "k2", "--g", "k3", "--n", "2"], capsys)
    assert code == 0 and out.splitlines()[0] == "1"


def test_oracle_budget_below_n_prints_no_value(capsys):
    # 50 candidates reach only 5-vertex graphs, whose minimum (4) is not
    # f_{K2,K3}(7) = 3
    code, out, _ = run(
        ["oracle", "brute-force-f", "--f", "k2", "--g", "k3", "--n", "7", "--budget", "50"], capsys
    )
    assert code == 1
    assert out == "unknown (enumeration budget exhausted at level 5)\n"


def test_search_max_ffree_summary(tmp_path, capsys):
    c5 = str(tmp_path / "c5.g")
    write_graph(c5, named_graph("c5"))
    code, out, _ = run(["search", "max-ffree", "--in", c5, "--f", "p3"], capsys)
    assert code == 0
    first, summary = out.splitlines()
    assert first == "3 optimal"
    assert f"id={c5}" in summary and "status=optimal" in summary
    assert " nodes=" in summary


def test_verify_exit_codes(tmp_path, capsys):
    c5 = str(tmp_path / "c5.g")
    write_graph(c5, named_graph("c5"))
    code, out, _ = run(["verify", "subgraph-free", c5, "--pattern", "k3"], capsys)
    assert code == 0 and out.startswith("pass")
    assert " nodes=" in out
    code, out, _ = run(["verify", "subgraph-free", c5, "--pattern", "c5"], capsys)
    assert code == 1
    assert "fail" in out
    witness = json.loads(out.splitlines()[1])
    assert len(witness["embedding"]) == 5


def test_malformed_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("2 1\n0 5\n")
    code, _, err = run(["verify", "subgraph-free", str(bad), "--pattern", "k3"], capsys)
    assert code == 2
    assert "line 2" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(["search", "independent-set", "--in", "no-such-file.g"], capsys)
    assert code == 2


def test_unreadable_inputs_are_usage_errors(tmp_path, capsys):
    code, _, err = run(["search", "independent-set", "--in", str(tmp_path)], capsys)
    assert code == 2 and err.startswith("error: ")
    noise = tmp_path / "noise.g"
    noise.write_bytes(bytes(range(128, 256)))
    code, _, err = run(["search", "independent-set", "--in", str(noise)], capsys)
    assert code == 2 and err.startswith("error: ")
    assert str(noise) in err
    host = tmp_path / "k2.g"
    host.write_text("2 1\n0 1\n")
    for argv in (["verify", "linear", str(noise)],
                 ["search", "sunflower", "--in", str(noise), "--m", "3"],
                 ["verify", "subgraph-free", str(host), "--pattern", str(noise)]):
        code, _, err = run(argv, capsys)
        assert code == 2 and str(noise) in err


def test_negative_vertex_count_is_format_error(tmp_path, capsys):
    bad = tmp_path / "neg.g"
    bad.write_text("-3 0\n")
    code, _, err = run(["search", "independent-set", "--in", str(bad)], capsys)
    assert code == 2
    assert "line 1" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_construct_writes_artifacts_and_replays(tmp_path, capsys):
    out = str(tmp_path / "t1.g")
    argv = ["construct", "theorem1", "--d", "2", "--r", "5", "--R", "3",
            "--f", "k2", "--seed", "11", "--out", out]
    assert main(argv) == 0
    cert_path = out + ".cert.json"
    manifest_path = out + ".manifest.json"
    assert os.path.exists(cert_path) and os.path.exists(manifest_path)

    graph_bytes = open(out, "rb").read()
    cert_bytes = open(cert_path, "rb").read()
    manifest = read_manifest(manifest_path)
    assert manifest["params"]["argv"] == argv
    assert manifest["seed"] == 11

    capsys.readouterr()
    assert main(["replay", manifest_path]) == 0
    assert open(out, "rb").read() == graph_bytes
    assert open(cert_path, "rb").read() == cert_bytes


def test_construct_same_seed_byte_identical(tmp_path, capsys):
    a = str(tmp_path / "a.g")
    b = str(tmp_path / "b.g")
    for out in (a, b):
        assert main(["construct", "theorem1", "--d", "2", "--r", "5", "--R", "3",
                     "--f", "c5", "--seed", "4", "--out", out]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    ca = json.load(open(a + ".cert.json"))
    cb = json.load(open(b + ".cert.json"))
    assert ca == cb


def test_construct_different_seeds_differ(tmp_path, capsys):
    a = str(tmp_path / "a.g")
    b = str(tmp_path / "b.g")
    for seed, out in ((1, a), (2, b)):
        assert main(["construct", "theorem1", "--d", "2", "--r", "5", "--R", "3",
                     "--f", "c5", "--seed", str(seed), "--out", out]) == 0
    assert open(a, "rb").read() != open(b, "rb").read()


def test_replay_detects_changed_output(tmp_path, capsys):
    out = str(tmp_path / "t1.g")
    assert main(["construct", "theorem1", "--d", "2", "--r", "5", "--R", "3",
                 "--f", "c5", "--seed", "4", "--out", out]) == 0
    manifest_path = out + ".manifest.json"
    manifest = read_manifest(manifest_path)
    assert sorted(manifest["output_sha256"]) == sorted([out, out + ".cert.json"])
    manifest["output_sha256"][out + ".cert.json"] = "0" * 64
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    code, stdout, _ = run(["replay", manifest_path], capsys)
    assert code == 1
    assert stdout.splitlines()[-2] == f"fail: replay differs at {out}.cert.json"
    assert "replayed:" not in stdout
    # the record under check survives the rerun, so the mismatch persists
    assert read_manifest(manifest_path) == manifest


def test_replay_refuses_self_reference_and_missing_hashes(tmp_path, capsys):
    manifest_path = str(tmp_path / "loop.manifest.json")
    manifest = {"params": {"argv": ["replay", manifest_path]},
                "output_sha256": {manifest_path: "0" * 64}}
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    code, _, err = run(["replay", manifest_path], capsys)
    assert code == 2 and "replay" in err
    del manifest["output_sha256"]
    manifest["params"]["argv"] = ["pattern", "list"]
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    code, _, err = run(["replay", manifest_path], capsys)
    assert code == 2 and "output hashes" in err


def test_efr_construct_and_verify(tmp_path, capsys):
    out = str(tmp_path / "efr.hg")
    assert main(["construct", "efr", "--d", "2", "--r", "5", "--R", "3", "--out", out]) == 0
    assert main(["verify", "linear", out]) == 0
    assert main(["verify", "triangle-free", out]) == 0
    cert = json.load(open(out + ".cert.json"))
    assert cert["predicates"]["linear"]["passed"]


def test_girth_hypergraph_and_girth_verify(tmp_path, capsys):
    out = str(tmp_path / "gh.hg")
    assert main(["construct", "girth-hypergraph", "--t", "40", "--r", "3",
                 "--seed", "3", "--out", out]) == 0
    assert main(["verify", "girth", out, "--min", "5"]) == 0


def test_construct_precondition_failure_exit_3(tmp_path, capsys):
    out = str(tmp_path / "x.g")
    code, _, err = run(
        ["construct", "theorem1", "--d", "2", "--r", "5", "--R", "3",
         "--f", "k3", "--seed", "1", "--out", out],
        capsys,
    )
    assert code == 3
    payload = json.loads(err)
    assert "witness" in payload or "error" in payload
    assert not os.path.exists(out)


def test_theorem4_part1_girth_target_too_small_exit_3(tmp_path, capsys):
    out = str(tmp_path / "t41.g")
    code, _, err = run(
        ["construct", "theorem4-part1", "--g", "c5", "--f", "k2", "--n", "48", "--d", "5",
         "--girth-target", "8", "--seed", "3", "--out", out],
        capsys,
    )
    assert code == 3
    assert json.loads(err)["witness"] == {"girth_target": 8, "required": 10}
    assert not os.path.exists(out)


@pytest.mark.parametrize("n,d", [(10, 0), (10, -2), (0, 5)])
def test_theorem4_part1_nonpositive_n_or_d_exit_3(tmp_path, capsys, n, d):
    out = str(tmp_path / "t41.g")
    code, _, err = run(
        ["construct", "theorem4-part1", "--g", "c5", "--f", "k2", "--n", str(n), "--d", str(d),
         "--girth-target", "10", "--out", out],
        capsys,
    )
    assert code == 3
    assert json.loads(err)["witness"] == {"n": n, "d": d}
    assert not os.path.exists(out)


def test_pipeline_ckfree_precondition_exit_3(tmp_path, capsys):
    k5 = str(tmp_path / "k5.g")
    write_graph(k5, named_graph("k5"))
    code, _, err = run(["pipeline", "ckfree", "--in", k5, "--k", "4", "--seed", "1"], capsys)
    assert code == 3
    assert "witness" in json.loads(err)


def test_require_seed_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REQUIRE_SEED", "1")
    out = str(tmp_path / "g.hg")
    code, _, err = run(
        ["construct", "girth-hypergraph", "--t", "20", "--r", "3", "--out", out], capsys
    )
    assert code == 2
    assert "--seed" in err
    assert main(["construct", "girth-hypergraph", "--t", "20", "--r", "3",
                 "--seed", "0", "--out", out]) == 0


def test_seed_optional_without_env(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REQUIRE_SEED", raising=False)
    out = str(tmp_path / "g.hg")
    assert main(["construct", "girth-hypergraph", "--t", "20", "--r", "3", "--out", out]) == 0


def test_pipeline_ckfree_summary_line(tmp_path, capsys):
    pet = str(tmp_path / "pet.g")
    write_graph(pet, named_graph("petersen"))
    code, out, _ = run(["pipeline", "ckfree", "--in", pet, "--k", "5", "--seed", "0"], capsys)
    assert code == 0
    assert "branch=" in out and "size=" in out and "runtime_ms=" in out


def test_ramsey_witness_cli(tmp_path, capsys):
    c5 = str(tmp_path / "c5.g")
    write_graph(c5, named_graph("c5"))
    code, out, _ = run(
        ["pipeline", "ramsey-witness", "--in", c5, "--f", "k2", "--g", "k3",
         "--t", "3", "--rf", "3"],
        capsys,
    )
    assert code == 0
    assert "overall=pass" in out


def test_search_sunflower_cli(tmp_path, capsys):
    sets = tmp_path / "sets.txt"
    sets.write_text("".join(f"{i} {i + 50}\n" for i in range(9)))
    code, out, _ = run(["search", "sunflower", "--in", str(sets), "--m", "3"], capsys)
    assert code == 0
    assert "core=[]" in out


def test_budget_ms_accepted(tmp_path, capsys):
    pet = str(tmp_path / "pet.g")
    write_graph(pet, named_graph("petersen"))
    code, out, _ = run(
        ["search", "independent-set", "--in", pet, "--budget-ms", "100"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "4 optimal"


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "erdos_rogers.cli",
         "oracle", "brute-force-f", "--f", "k2", "--g", "k3", "--n", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "2"


def test_runs_with_numpy_unimportable():
    # the package needs only the standard library
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import erdos_rogers\n"
        "from erdos_rogers.cli import main\n"
        "sys.exit(main(['oracle', 'brute-force-f', '--f', 'k2', '--g', 'k3', '--n', '5']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n"


def test_theorem4_part2_cli_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "t4.g")
    assert main(["construct", "theorem4-part2", "--g", "c4", "--t", "30",
                 "--seed", "2", "--out", out]) == 0
    assert main(["verify", "subgraph-free", out, "--pattern", "c4"]) == 0
    g = read_graph(out)
    assert g.n == 30
