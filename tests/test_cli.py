import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from erdos_rogers import Graph, Hypergraph, complete_bipartite, read_graph, write_graph, named_graph
from erdos_rogers.hypergraphs import write_hypergraph
from erdos_rogers.cli import main
from oracles import circulant_regular, disjoint_cycles


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pattern_list_names_every_pattern_in_table_order(capsys):
    code, out, _ = run(["pattern", "list"], capsys)
    assert code == 0
    assert out == (
        "k2: n=2 m=1\n"
        "k3: n=3 m=3\n"
        "k4: n=4 m=6\n"
        "k5: n=5 m=10\n"
        "k6: n=6 m=15\n"
        "p3: n=3 m=2\n"
        "p4: n=4 m=3\n"
        "c4: n=4 m=4\n"
        "c5: n=5 m=5\n"
        "c6: n=6 m=6\n"
        "c7: n=7 m=7\n"
        "k22: n=4 m=4\n"
        "k33: n=6 m=9\n"
        "petersen: n=10 m=15\n"
        "wagner: n=8 m=12\n"
    )


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


def test_oracle_refuses_ten_vertices(capsys):
    code, out, err = run(["oracle", "brute-force-f", "--f", "k2", "--g", "k3", "--n", "10"], capsys)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "n <= 9 only; enumeration is exact desk scale"}


def test_search_max_ffree_summary(tmp_path, capsys):
    c5 = str(tmp_path / "c5.g")
    write_graph(c5, named_graph("c5"))
    code, out, _ = run(["search", "max-ffree", "--in", c5, "--f", "p3"], capsys)
    assert code == 0
    first, summary = out.splitlines()
    assert first == "3 optimal"
    assert f"id={c5}" in summary and "status=optimal" in summary
    assert " nodes=" in summary and " upper=3 " in summary


def test_budgeted_set_searches_print_an_upper_bound(tmp_path, capsys):
    host = str(tmp_path / "squares.g")
    write_graph(host, disjoint_cycles(300, 4))
    for argv, size in [(["search", "max-ffree", "--f", "c4"], 900), (["search", "independent-set"], 600)]:
        code, out, _ = run(argv + ["--in", host, "--budget-ms", "1"], capsys)
        assert code == 0
        first, summary = out.splitlines()
        assert first == f"{size} lower-bound"
        upper = int(re.search(r" nodes=\d+ upper=(\d+) ", summary).group(1))
        assert size < upper <= 1200


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_quietly(tmp_path, capsys, monkeypatch):
    petersen = str(tmp_path / "petersen.g")
    write_graph(petersen, named_graph("petersen"))
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedStdout(fd))
        code = main(["search", "independent-set", "--in", petersen])
    finally:
        os.close(fd)
    assert code == 0
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_quietly(tmp_path):
    # the reader is gone before the first write, so the broken pipe shows
    # at the flush, where the interpreter would otherwise report it on exit
    petersen = str(tmp_path / "petersen.g")
    write_graph(petersen, named_graph("petersen"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "erdos_rogers.cli", "search", "max-ffree",
                               "--in", petersen, "--f", "c5"],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


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
    manifest = json.loads(Path(manifest_path).read_text())
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
    manifest = json.loads(Path(manifest_path).read_text())
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
    assert json.loads(Path(manifest_path).read_text()) == manifest


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


@pytest.mark.parametrize(
    "edges",
    [[(0, 1, 2)], [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(100_000)]],
    ids=["one-edge", "disjoint-100000"],
)
def test_girth_verify_stops_at_the_longest_possible_cycle(tmp_path, capsys, edges):
    # one edge, and 100,000 disjoint edges: no pair of edges meets, so a
    # trillion-length girth bound is decided by the length-2 sweep alone
    path = tmp_path / "h.hg"
    write_hypergraph(path, Hypergraph(3 * len(edges), edges, 3))
    started = time.monotonic()
    code, out, _ = run(["verify", "girth", str(path), "--min", "1000000000000"], capsys)
    assert (code, out.splitlines()[0]) == (0, "pass: girth_at_least")
    assert time.monotonic() - started < 10


@pytest.mark.parametrize(
    "argv,head",
    [
        (["search", "independent-set", "--budget-ms", "100"], "19999 optimal"),
        (["pipeline", "ckfree", "--k", "5"], "branch=whole_set size=20000"),
        (["pipeline", "ramsey-witness", "--f", "k2", "--g", "k3", "--t", "20000", "--rf", "20000"], "overall=pass"),
    ],
    ids=["independent-set", "ckfree", "ramsey-witness"],
)
def test_greedy_commands_finish_on_a_20000_vertex_file_with_one_edge(tmp_path, capsys, argv, head):
    host = tmp_path / "one.g"
    host.write_text("20000 1\n0 1\n")
    started = time.monotonic()
    code, out, _ = run(argv + ["--in", str(host)], capsys)
    assert code == 0 and head in out.splitlines()[0]
    assert time.monotonic() - started < 10


def test_girth_hypergraph_bytes_pinned(tmp_path, capsys):
    out = str(tmp_path / "gh.hg")
    assert main(["construct", "girth-hypergraph", "--t", "200", "--r", "3", "--seed", "1", "--out", out]) == 0
    assert capsys.readouterr().out.endswith(" edges=71 girth_audit=pass\n")
    digests = [hashlib.sha256(open(p, "rb").read()).hexdigest() for p in (out, out + ".cert.json")]
    assert digests == [
        "a9c84fc91034df7ec49e7356a04d6f5e63d96f00625e30647b4aba2ec35ea69a",
        "8fa1402c2dd8e96c35e35da107717a2c42faa29d48a06dce8af45580462ea39f",
    ]


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


def test_theorem4_part1_degree_above_n_exit_3(tmp_path, capsys):
    out = str(tmp_path / "t41.g")
    code, _, err = run(
        ["construct", "theorem4-part1", "--g", "c5", "--f", "k2", "--n", "3", "--d", "5",
         "--girth-target", "10", "--seed", "1", "--out", out],
        capsys,
    )
    assert code == 3
    assert json.loads(err)["witness"] == {"n": 3, "d": 5}
    assert not os.path.exists(out)


@pytest.fixture
def petersen_file(tmp_path):
    path = str(tmp_path / "petersen.g")
    write_graph(path, named_graph("petersen"))
    return path


@pytest.mark.parametrize(
    "x,y,vertex", [("0-4", "5-9,30", 30), ("0-4,12", "5-9", 12), ("0-4,14,11", "5-9", 11)]
)
def test_search_drc_vertex_out_of_range_exit_3(petersen_file, capsys, x, y, vertex):
    argv = ["search", "drc", "--in", petersen_file, "--x", x, "--y", y, "--s", "2", "--seed", "1"]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "vertex out of range", "witness": {"vertex": vertex, "n": 10}}


def test_search_drc_in_range_gamma(petersen_file, capsys):
    argv = ["search", "drc", "--in", petersen_file, "--x", "0-4", "--y", "5-9", "--s", "2", "--seed", "1"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert " gamma=0.2000 " in out


@pytest.mark.parametrize("v0", [99, 10, -1])
def test_search_ckprop_root_out_of_range_exit_3(petersen_file, capsys, v0):
    code, out, err = run(["search", "ckprop", "--in", petersen_file, "--v0", str(v0), "--k", "5"], capsys)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "root vertex out of range", "witness": {"v0": v0, "n": 10}}


def test_search_ckprop_refuses_past_the_cycle_cap(tmp_path):
    # K_{20,20} has about 8.7 * 10^10 10-cycles through a vertex: the listing
    # stops at the cap and the command refuses instead of running on
    host = str(tmp_path / "k2020.g")
    write_graph(host, complete_bipartite(20, 20))
    proc = subprocess.run([sys.executable, "-m", "erdos_rogers.cli", "search", "ckprop",
                           "--in", host, "--v0", "0", "--k", "10"],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert json.loads(proc.stderr) == {
        "error": "too many k-cycles through the root vertex to list",
        "witness": {"v0": 0, "k": 10, "cap": 250_000},
    }


EFR_PAST_THE_FILE_LIMIT = [
    ["construct", "efr", "--d", "1000000000000", "--r", "65", "--R", "6"],
    ["construct", "efr", "--d", "2", "--r", "1000000000000", "--R", "6"],
    ["construct", "efr", "--d", "2", "--r", "65", "--R", "1000000000000"],
    ["construct", "theorem1", "--d", "2", "--r", "1000000000000", "--R", "6", "--f", "c5", "--seed", "1"],
]


@pytest.mark.parametrize("command", EFR_PAST_THE_FILE_LIMIT, ids=lambda c: " ".join(c[1:6]))
def test_efr_declared_size_past_the_file_limit_exit_3(tmp_path, command):
    # the declared size sum_i (i r)^d is decided in logs, before any point
    # is listed or any power of d formed
    out_path = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "erdos_rogers.cli", *command, "--out", str(out_path)],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["witness"]["max_vertices"] == 10**7
    assert not out_path.exists()


def test_search_drc_no_retries_exit_3(petersen_file, capsys):
    argv = ["search", "drc", "--in", petersen_file, "--x", "0-4", "--y", "5-9", "--s", "2", "--retries", "0"]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "retries >= 1 required", "witness": {"retries": 0}}


def test_search_spencer_no_trials_exit_3(tmp_path, capsys):
    efr = str(tmp_path / "efr.hg")
    assert main(["construct", "efr", "--d", "2", "--r", "5", "--R", "3", "--out", efr]) == 0
    capsys.readouterr()
    code, out, err = run(["search", "spencer", "--in", efr, "--trials", "0"], capsys)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "trials >= 1 required", "witness": {"trials": 0}}


@pytest.fixture(scope="module")
def lemma_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("lemma")
    paths = {name: str(root / name) for name in ("petersen.g", "c64.g", "efr5.hg")}
    write_graph(paths["petersen.g"], named_graph("petersen"))
    write_graph(paths["c64.g"], circulant_regular(64, range(1, 9)))  # 16-regular
    assert main(["construct", "efr", "--d", "2", "--r", "5", "--R", "3", "--out", paths["efr5.hg"]]) == 0
    return paths


# the line each lemma command prints, runtime_ms aside
LEMMA_LINES = [
    pytest.param(["search", "ckprop", "--in", "petersen.g", "--v0", "0", "--k", "5"],
                 "X=2 Y=1 e=2 gamma=1.0000 delta=0.074074 verified=pass", id="ckprop-petersen-k5"),
    pytest.param(["search", "ckprop", "--in", "c64.g", "--v0", "0", "--k", "4"],
                 "X=10 Y=15 e=111 gamma=0.7400 delta=0.246094 verified=pass", id="ckprop-c64-k4"),
    pytest.param(["search", "ckprop", "--in", "c64.g", "--v0", "0", "--k", "5"],
                 "X=6 Y=15 e=73 gamma=0.8111 delta=0.176239 verified=pass", id="ckprop-c64-k5"),
    pytest.param(["search", "drc", "--in", "petersen.g", "--x", "0-4", "--y", "5-9", "--s", "2", "--seed", "1"],
                 "size=0 status=target-missed gamma=0.2000 target=0.10 verified=pass", id="drc-petersen"),
    pytest.param(["search", "spencer", "--in", "efr5.hg", "--seed", "1", "--trials", "5"],
                 "size=309 bound=356.423 verified=pass", id="spencer-efr5"),
]


@pytest.mark.parametrize("argv,line", LEMMA_LINES)
def test_lemma_commands_print_pinned_lines(lemma_inputs, capsys, argv, line):
    capsys.readouterr()
    path = lemma_inputs[argv[3]]
    code, out, err = run(argv[:3] + [path] + argv[4:], capsys)
    assert code == 0 and err == ""
    assert re.fullmatch(re.escape(f"id={path} {line}") + r" runtime_ms=\d+\n", out), out


NODE_BUDGET_COMMANDS = [
    ["oracle", "brute-force-f", "--f", "k2", "--g", "k3", "--n", "6", "--budget"],
    ["construct", "theorem1", "--d", "2", "--r", "5", "--R", "3", "--f", "c5", "--seed", "1", "--out", "{out}",
     "--ffree-budget"],
]


@pytest.mark.parametrize("value", ["-1", "0", "nan", "1.5"])
@pytest.mark.parametrize("command", NODE_BUDGET_COMMANDS, ids=lambda c: " ".join(c[:2]))
def test_node_budget_outside_domain_exit_2(tmp_path, capsys, command, value):
    out_path = tmp_path / "t1.g"
    argv = [str(out_path) if a == "{out}" else a for a in command] + [value]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert f"argument {command[-1]}: expected an integer >= 1" in err and "Traceback" not in err
    assert not out_path.exists()


BUDGET_MS_COMMANDS = [
    ["verify", "subgraph-free", "{g}", "--pattern", "c5"],
    ["search", "independent-set", "--in", "{g}"],
    ["search", "max-ffree", "--in", "{g}", "--f", "c5"],
    ["pipeline", "ckfree", "--in", "{g}", "--k", "5"],
    ["pipeline", "ksfree", "--in", "{g}", "--s", "4", "--k", "5"],
]


@pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
@pytest.mark.parametrize("command", BUDGET_MS_COMMANDS, ids=lambda c: " ".join(c[:2]))
def test_budget_ms_outside_domain_exit_2(petersen_file, capsys, command, value):
    argv = [petersen_file if a == "{g}" else a for a in command] + ["--budget-ms", value]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "argument --budget-ms" in err and "Traceback" not in err


def test_pipeline_ckfree_precondition_exit_3(tmp_path, capsys):
    k5 = str(tmp_path / "k5.g")
    write_graph(k5, named_graph("k5"))
    code, _, err = run(["pipeline", "ckfree", "--in", k5, "--k", "4", "--seed", "1"], capsys)
    assert code == 3
    assert "witness" in json.loads(err)


def test_theorem4_part2_refuses_an_expected_empty_sample(tmp_path, capsys):
    # Petersen at t = 30 expects C(30, 9) 30^(-8 + 1/18) = 2.6e-5 edges; the
    # refusal comes before the 14.3M draws the sample would take
    start = time.perf_counter()
    code, out, err = run(["construct", "theorem4-part2", "--g", "petersen", "--t", "30",
                          "--out", str(tmp_path / "p.g")], capsys)
    assert time.perf_counter() - start < 5
    assert code == 3 and out == ""
    witness = json.loads(err)["witness"]
    assert witness["expected_edges"] == pytest.approx(2.634e-5, rel=1e-3)
    assert not (tmp_path / "p.g").exists()


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


def _bipartite_circulant_1000(tmp_path, triangle=False):
    """The 100-regular bipartite circulant on 500 + 500 vertices, written
    to a file: left i is adjacent to right i + j mod 500, j < 100.  With
    triangle, a disjoint triangle on vertices 1000-1002 joins it."""
    edges = [(i, 500 + (i + j) % 500) for i in range(500) for j in range(100)]
    if triangle:
        edges += [(1000, 1001), (1000, 1002), (1001, 1002)]
    host = str(tmp_path / "circ1000.g")
    write_graph(host, Graph(1003 if triangle else 1000, edges))
    return host


def test_pipeline_ckfree_odd_k_on_a_bipartite_host_exit_0(tmp_path):
    # the circulant has no 5-cycle; one 2-colouring says so instead of a
    # walk of about 10^9 paths
    host = _bipartite_circulant_1000(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "erdos_rogers.cli", "pipeline", "ckfree",
                           "--in", host, "--k", "5", "--seed", "1"],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert " branch=whole_set size=1000 " in proc.stdout


def test_pipeline_ckfree_odd_k_skips_each_bipartite_component_exit_0(tmp_path):
    # the triangle makes the host not 2-colourable, but the circulant's
    # component still is: no path is walked in it, for the cycle list or
    # for the audits of the candidates
    host = _bipartite_circulant_1000(tmp_path, triangle=True)
    proc = subprocess.run([sys.executable, "-m", "erdos_rogers.cli", "pipeline", "ckfree",
                           "--in", host, "--k", "5", "--seed", "1"],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert " branch=whole_set size=1003 " in proc.stdout


def test_pipeline_ckfree_marks_a_density_from_a_truncated_list_partial(tmp_path):
    # the circulant has far more 4-cycles than the list cap, so the cycle
    # density of the middle range counts only the cycles listed
    host = _bipartite_circulant_1000(tmp_path)
    cert = tmp_path / "ck4.cert.json"
    proc = subprocess.run([sys.executable, "-m", "erdos_rogers.cli", "pipeline", "ckfree",
                           "--in", host, "--k", "4", "--seed", "1", "--cert", str(cert)],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    measurements = json.loads(cert.read_text())["measurements"]
    assert measurements["k_cycles"]["truncated"] is True
    assert measurements["cycle_density"]["partial"] is True


GIRTH_SAMPLE_PAST_THE_FILE_LIMIT = [
    ["construct", "girth-hypergraph", "--t", "1000000000000", "--r", "3", "--seed", "1"],
    ["construct", "theorem4-part2", "--g", "c4", "--t", "1000000000000", "--seed", "1"],
]


@pytest.mark.parametrize("command", GIRTH_SAMPLE_PAST_THE_FILE_LIMIT, ids=lambda c: c[1])
def test_girth_sample_past_the_file_limit_exit_3(tmp_path, command):
    # t is refused before combinations(range(t), r) is formed
    out_path = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "erdos_rogers.cli", *command, "--out", str(out_path)],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["witness"] == {"t": 10**12, "max_vertices": 10**7}
    assert not out_path.exists()


GIRTH_SAMPLE_PAST_THE_DRAW_CAP = [
    (["construct", "girth-hypergraph", "--t", "100000", "--r", "2", "--seed", "1"], 2),
    (["construct", "theorem4-part2", "--g", "c4", "--t", "100000", "--seed", "1"], 3),
]


@pytest.mark.parametrize("command,r", GIRTH_SAMPLE_PAST_THE_DRAW_CAP, ids=["girth-hypergraph", "theorem4-part2"])
def test_girth_sample_past_the_draw_cap_exit_3(tmp_path, command, r):
    # the C(t, r) draws, 5*10^9 and 1.7*10^14 here, are refused before the first
    out_path = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "erdos_rogers.cli", *command, "--out", str(out_path)],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "Traceback" not in proc.stderr
    draws = math.comb(100_000, r)
    assert json.loads(proc.stderr)["witness"] == {"t": 100_000, "r": r, "draws": draws, "max_draws": 2**28}
    assert not out_path.exists()


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


@pytest.mark.parametrize(
    "count,length,argv,size,seconds",
    [
        # 1,500 and 3,300 vertices: a search that spent a stack frame per
        # included vertex would end in a RecursionError
        (375, 4, ["search", "max-ffree", "--f", "c4"], 1125, 20),
        (1100, 3, ["search", "independent-set"], 1100, 30),
    ],
)
def test_set_searches_finish_on_thousands_of_vertices(tmp_path, capsys, count, length, argv, size, seconds):
    host = str(tmp_path / "host.g")
    write_graph(host, disjoint_cycles(count, length))
    started = time.monotonic()
    code, out, _ = run(argv + ["--in", host, "--budget-ms", "100"], capsys)
    elapsed = time.monotonic() - started
    assert code == 0
    head, status = out.splitlines()[0].split()
    assert int(head) == size and status in ("optimal", "lower-bound")
    # the packing bound proves the F-free answer within the budget; the
    # independent-set search has no such bound yet
    assert status == "optimal" or argv[1] == "independent-set"
    assert elapsed < seconds
