"""Command-line front end.

Exit codes: 0 success / audit pass, 1 audit fail (witness printed),
2 usage or file-format error, 3 construction precondition failure
(witness on stderr).  Budgets are given in milliseconds and converted to
deterministic node counts at a fixed rate per engine, so equal seeds give
byte-identical outputs regardless of machine speed.  Set REQUIRE_SEED=1 to
make every randomized command demand an explicit --seed.
"""

import argparse
import hashlib
import json
import os
import sys
import time

from .certificates import Certificate, make_manifest, write_manifest
from .efr import efr_certificate, efr_hypergraph
from .errors import FormatError, InputError
from .graphs import _NAMED, named_graph, read_graph, read_text, write_graph
from .hypergraphs import (
    hypergraph_girth_at_least,
    hypergraph_is_linear,
    hypergraph_is_triangle_free,
    read_hypergraph,
    write_hypergraph,
)
from .pipelines import (
    brute_force_f,
    ckfree_subset,
    ksfree_recursion,
    ramsey_witness_check,
    random_girth_hypergraph,
    theorem1_build,
    theorem4_part1_build,
    theorem4_part2_build,
)
from .rng import SeededRng
from .search import (
    DEFAULT_SET_BUDGET,
    ckprop_dense_pair,
    dependent_random_choice,
    erdos_rado_sunflower,
    max_f_free_subset,
    max_independent_set,
    spencer_independent_set,
)
from .subgraph import contains_subgraph

# Search nodes per millisecond of each engine, the rate at which --budget-ms
# becomes a node budget, measured on a 2-vCPU x86-64 VM with Python 3.11.
# The first two are read untraced and in-process, each the median of 15
# reads (three runs of five).  max_f_free_subset: nodes per ms of wall time
# of a loop over the max-ffree jobs of bench/workloads.py ffree_search(1)
# (12,052 nodes per pass, 15 passes per read; the reads spread 134-194).
# contains_subgraph: nodes per ms of whole-host K4 scans, each absent, of
# the two K4-free hosts random_k4_free_graph(120, 480) of ffree_search(1)
# (3,158 nodes per pass, 100 passes per read; 493-718).
# max_independent_set: nodes per ms of self time on girth-clones in
# `python3 bench/run.py --trace 1 --seed 1` (67 nodes in 0.88 ms; no other
# workload calls it).
NODES_PER_MS = {
    "max_f_free_subset": 182,
    "max_independent_set": 76,
    "contains_subgraph": 667,
}

_NAMED_HINT = "a named pattern (k2..k6, p3, p4, c4..c7, k22, k33, petersen, wagner) or a graph file"


def _load_pattern(arg):
    if os.path.exists(arg):
        return read_graph(arg)
    try:
        return named_graph(arg)
    except InputError:
        raise FormatError(f"unknown pattern {arg!r}; expected {_NAMED_HINT}") from None


def _parse_vertices(arg):
    out = []
    for part in arg.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            a, _, b = part.partition("-")
            try:
                lo, hi = int(a), int(b)
            except ValueError:
                raise FormatError(f"bad vertex range {part!r}") from None
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise FormatError(f"bad vertex {part!r}") from None
    return out


def _read_set_family(path):
    family = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            family.append({int(tok) for tok in line.split()})
        except ValueError:
            raise FormatError(f"line {lineno}: set elements must be integers") from None
    return family


def _seed_of(args):
    if os.environ.get("REQUIRE_SEED") == "1" and args.seed is None:
        raise FormatError("REQUIRE_SEED=1: this command needs an explicit --seed")
    return 0 if args.seed is None else args.seed


def _budget_ms(text):
    """The type of every --budget-ms flag: finite milliseconds above 0."""
    ms = float(text)
    if not 0 < ms < float("inf"):
        raise argparse.ArgumentTypeError(f"expected finite milliseconds > 0, got {text!r}")
    return ms


def _node_budget(text):
    """The type of --budget and --ffree-budget: a whole number of nodes >= 1."""
    try:
        nodes = int(text)
        if nodes >= 1:
            return nodes
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _budget_of(args, engine):
    """Node budget of --budget-ms for the engine the command drives."""
    ms = getattr(args, "budget_ms", None)
    return DEFAULT_SET_BUDGET if ms is None else max(1, int(ms * NODES_PER_MS[engine]))


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _construct(args, seed, write, instance, cert, summary, gate):
    """The output path of every construct command: write the instance to
    --out, the certificate and the manifest (argv, seed and the sha256 of
    each output, which replay compares), and print the id= line.  The
    artifacts are always written, but the command fails (exit 1, witnesses
    printed) when a construction guarantee named in `gate` does not hold;
    parameter-rule flags (asymptotic regimes) stay informational."""
    cert_path = args.cert or args.out + ".cert.json"
    manifest_path = args.manifest or args.out + ".manifest.json"
    write(args.out, instance)
    cert.write(cert_path)
    outputs = [args.out, cert_path]
    manifest = make_manifest(
        command=[args.verb, args.what],
        params={"argv": args.raw_argv},
        seed=seed,
        inputs=[],
        outputs=outputs,
        started_at=args.started,
    )
    manifest["output_sha256"] = {path: _sha256(path) for path in outputs}
    write_manifest(manifest_path, manifest)
    print(f"id={args.out} {summary}")
    bad = [key for key in gate if not cert.passed(key)]
    for key in bad:
        print(f"fail: {key}")
        witness = cert.predicates[key].get("witness")
        if witness is not None:
            print(json.dumps(witness, sort_keys=True))
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct_efr(args):
    inst = efr_hypergraph(args.d, args.r, args.R)
    cert = efr_certificate(inst)
    summary = (f"edges={inst.hypergraph.m} n={inst.declared_n} "
               f"verified={'pass' if cert.all_passed() else 'fail'}")
    return _construct(args, None, write_hypergraph, inst.hypergraph, cert, summary, cert.predicates)


def cmd_construct_theorem1(args):
    seed = _seed_of(args)
    pattern = _load_pattern(args.f)
    rng = SeededRng(seed, "theorem1")
    gstar, cert = theorem1_build(
        args.d, args.r, args.R, pattern, rng, ffree_budget=args.ffree_budget
    )
    summary = (f"vertices={gstar.n} edges={gstar.m} "
               f"triangle_free={'pass' if cert.passed('triangle_free') else 'fail'}")
    return _construct(args, seed, write_graph, gstar, cert, summary, ["triangle_free"])


def cmd_construct_girth_hypergraph(args):
    seed = _seed_of(args)
    rng = SeededRng(seed, "girth-hypergraph")
    hstar, params = random_girth_hypergraph(args.t, args.r, rng)
    cert = Certificate("random_girth_hypergraph")
    cert.set_param("t", args.t)
    cert.set_param("r", args.r)
    cert.record_rng(rng)
    cert.add_measurement("params", vars(params))
    # random_girth_hypergraph raises SelfCheckError on an hstar failing this audit
    cert.add_predicate("girth", True)
    summary = f"edges={hstar.m} girth_audit=pass"
    return _construct(args, seed, write_hypergraph, hstar, cert, summary, ["girth"])


def cmd_construct_theorem4_part1(args):
    seed = _seed_of(args)
    g = _load_pattern(args.g)
    f = _load_pattern(args.f)
    rng = SeededRng(seed, "theorem4-part1")
    built, cert = theorem4_part1_build(g, f, args.n, args.d, args.girth_target, rng)
    summary = (f"vertices={built.n} edges={built.m} "
               f"g_absent={'pass' if cert.passed('g_absent') else 'fail'}")
    return _construct(args, seed, write_graph, built, cert, summary, ["g_absent", "cover"])


def cmd_construct_theorem4_part2(args):
    seed = _seed_of(args)
    g = _load_pattern(args.g)
    rng = SeededRng(seed, "theorem4-part2")
    built, cert = theorem4_part2_build(g, args.t, rng, try_all_pairs=args.try_all_pairs)
    summary = (f"vertices={built.n} edges={built.m} "
               f"pattern_absent={'pass' if cert.passed('pattern_absent') else 'fail'}")
    return _construct(args, seed, write_graph, built, cert, summary, ["pattern_absent", "girth"])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verdict(audit):
    if audit.passed:
        print(f"pass: {audit.name}")
        return 0
    print(f"fail: {audit.name}")
    print(json.dumps(audit.witness, sort_keys=True))
    return 1


def cmd_verify_linear(args):
    return _verdict(hypergraph_is_linear(read_hypergraph(args.file)))


def cmd_verify_triangle_free(args):
    return _verdict(hypergraph_is_triangle_free(read_hypergraph(args.file)))


def cmd_verify_girth(args):
    return _verdict(hypergraph_girth_at_least(read_hypergraph(args.file), args.min))


def cmd_verify_subgraph_free(args):
    host = read_graph(args.file)
    pattern = _load_pattern(args.pattern)
    res = contains_subgraph(host, pattern, budget=_budget_of(args, "contains_subgraph"))
    if res.status == "absent":
        print(f"pass: subgraph-free nodes={res.nodes}")
        return 0
    if res.status == "found":
        print(f"fail: subgraph-free nodes={res.nodes}")
        print(json.dumps({"embedding": list(res.embedding)}))
        return 1
    print(f"fail: subgraph-free (budget exhausted, undecided) nodes={res.nodes}")
    print(json.dumps({"status": "unknown", "nodes": res.nodes}))
    return 1


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _print_set_search(args, res):
    """The answer line and the record line of a set search's result."""
    ms = int((time.monotonic() - args.started) * 1000)
    print(f"{res.size} {res.status}")
    print(f"id={args.infile} size={res.size} status={res.status} "
          f"set={sorted(res.vertex_set.members())} nodes={res.nodes} upper={res.upper} verified=pass runtime_ms={ms}")
    return 0


def cmd_search_independent_set(args):
    g = read_graph(args.infile)
    return _print_set_search(args, max_independent_set(g, budget=_budget_of(args, "max_independent_set")))


def cmd_search_max_ffree(args):
    g = read_graph(args.infile)
    pattern = _load_pattern(args.f)
    return _print_set_search(args, max_f_free_subset(g, pattern, budget=_budget_of(args, "max_f_free_subset")))


def cmd_search_spencer(args):
    h = read_hypergraph(args.infile)
    seed = _seed_of(args)
    res = spencer_independent_set(h, SeededRng(seed, "spencer"), trials=args.trials)
    ms = int((time.monotonic() - args.started) * 1000)
    print(f"id={args.infile} size={res.size} bound={res.expectation_bound:.3f} "
          f"verified=pass runtime_ms={ms}")
    return 0


def cmd_search_drc(args):
    g = read_graph(args.infile)
    seed = _seed_of(args)
    res = dependent_random_choice(
        g,
        _parse_vertices(args.x),
        _parse_vertices(args.y),
        args.s,
        SeededRng(seed, "drc"),
        retries=args.retries,
    )
    ms = int((time.monotonic() - args.started) * 1000)
    print(f"id={args.infile} size={res.size} status={res.status} gamma={res.gamma:.4f} "
          f"target={res.target:.2f} verified=pass runtime_ms={ms}")
    return 0


def cmd_search_ckprop(args):
    g = read_graph(args.infile)
    res = ckprop_dense_pair(g, args.v0, args.k)
    ms = int((time.monotonic() - args.started) * 1000)
    print(f"id={args.infile} X={len(res.X)} Y={len(res.Y)} e={res.edges_between} "
          f"gamma={res.gamma:.4f} delta={res.delta:.6f} verified=pass runtime_ms={ms}")
    return 0


def cmd_search_sunflower(args):
    family = _read_set_family(args.infile)
    flower = erdos_rado_sunflower(family, args.m)
    ms = int((time.monotonic() - args.started) * 1000)
    if flower is None:
        print(f"id={args.infile} sunflower=absent runtime_ms={ms}")
        return 0
    print(f"id={args.infile} core={sorted(flower.core)} "
          f"petals={[sorted(p) for p in flower.petals]} verified=pass runtime_ms={ms}")
    return 0


# ---------------------------------------------------------------------------
# pipeline / oracle
# ---------------------------------------------------------------------------

def cmd_pipeline_ckfree(args):
    g = read_graph(args.infile)
    seed = _seed_of(args)
    vs, cert = ckfree_subset(g, args.k, SeededRng(seed, "ckfree"),
                             budget=_budget_of(args, "max_independent_set"))
    ms = int((time.monotonic() - args.started) * 1000)
    if args.cert:
        cert.write(args.cert)
    branch = cert.measurements["branch"]
    print(f"id={args.infile} branch={branch} size={len(vs)} "
          f"set={sorted(vs.members())} verified=pass runtime_ms={ms}")
    return 0


def cmd_pipeline_ksfree(args):
    g = read_graph(args.infile)
    seed = _seed_of(args)
    vs, cert = ksfree_recursion(g, args.s, args.k, SeededRng(seed, "ksfree"),
                                budget=_budget_of(args, "max_independent_set"))
    ms = int((time.monotonic() - args.started) * 1000)
    if args.cert:
        cert.write(args.cert)
    print(f"id={args.infile} size={len(vs)} set={sorted(vs.members())} "
          f"verified=pass runtime_ms={ms}")
    return 0


def cmd_pipeline_ramsey_witness(args):
    host = read_graph(args.infile)
    f = _load_pattern(args.f)
    g = _load_pattern(args.g)
    cert = ramsey_witness_check(host, f, g, args.t, args.rf)
    ms = int((time.monotonic() - args.started) * 1000)
    if args.cert:
        cert.write(args.cert)
    verdicts = {key: entry["passed"] for key, entry in cert.predicates.items()}
    overall = "pass" if cert.all_passed() else "fail"
    print(f"id={args.infile} verdicts={json.dumps(verdicts, sort_keys=True)} "
          f"overall={overall} runtime_ms={ms}")
    return 0 if cert.all_passed() else 1


def cmd_oracle_brute_force_f(args):
    f = _load_pattern(args.f)
    g = _load_pattern(args.g)
    res = brute_force_f(f, g, args.n, budget=args.budget)
    if res.exact:
        print(res.value)
        return 0
    why = f"enumeration budget exhausted at level {len(res.level_counts)}"
    print(f"unknown ({why})" if res.value is None else f"at most {res.value} ({why})")
    return 1


# ---------------------------------------------------------------------------
# pattern helpers and replay
# ---------------------------------------------------------------------------

def cmd_pattern_list(args):
    for name, build in _NAMED.items():
        g = build()
        print(f"{name}: n={g.n} m={g.m}")
    return 0


def cmd_pattern_write(args):
    write_graph(args.out, named_graph(args.name))
    print(f"id={args.out}")
    return 0


def cmd_replay(args):
    """Rerun a construct command from its manifest and compare each output
    file with the sha256 the manifest recorded.  The manifest file itself is
    left as it was: the rerun's fresh manifest would overwrite the record
    being checked."""
    with open(args.manifest, "rb") as fh:
        record = fh.read()
    try:
        manifest = json.loads(record)
        argv = manifest["params"]["argv"]
        recorded = manifest["output_sha256"]
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{args.manifest}: no argv or output hashes ({exc!r})") from None
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise FormatError(f"{args.manifest}: argv must be a list of strings")
    if argv[:1] == ["replay"]:
        raise FormatError(f"{args.manifest}: a manifest cannot replay the replay command")
    if not (isinstance(recorded, dict) and recorded):
        raise FormatError(f"{args.manifest}: no output hashes recorded")
    code = main(argv)
    with open(args.manifest, "wb") as fh:
        fh.write(record)
    if code != 0:
        return code
    for path, digest in recorded.items():
        replayed = _sha256(path)
        if replayed != digest:
            print(f"fail: replay differs at {path}")
            witness = {"path": path, "recorded": digest, "replayed": replayed}
            print(json.dumps(witness, sort_keys=True))
            return 1
    print(f"replayed: {' '.join(argv)}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_out_flags(p):
    p.add_argument("--out", required=True)
    p.add_argument("--cert", default=None)
    p.add_argument("--manifest", default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="erdos-rogers")
    sub = parser.add_subparsers(dest="verb", required=True)

    construct = sub.add_parser("construct").add_subparsers(dest="what", required=True)
    p = construct.add_parser("efr")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    _add_out_flags(p)
    p.set_defaults(func=cmd_construct_efr)

    p = construct.add_parser("theorem1")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--f", required=True, help=_NAMED_HINT)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ffree-budget", type=_node_budget, default=None)
    _add_out_flags(p)
    p.set_defaults(func=cmd_construct_theorem1)

    p = construct.add_parser("girth-hypergraph")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_out_flags(p)
    p.set_defaults(func=cmd_construct_girth_hypergraph)

    p = construct.add_parser("theorem4-part1")
    p.add_argument("--g", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--girth-target", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_out_flags(p)
    p.set_defaults(func=cmd_construct_theorem4_part1)

    p = construct.add_parser("theorem4-part2")
    p.add_argument("--g", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--try-all-pairs", action="store_true")
    _add_out_flags(p)
    p.set_defaults(func=cmd_construct_theorem4_part2)

    verify = sub.add_parser("verify").add_subparsers(dest="what", required=True)
    p = verify.add_parser("linear")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify_linear)
    p = verify.add_parser("triangle-free")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify_triangle_free)
    p = verify.add_parser("girth")
    p.add_argument("file")
    p.add_argument("--min", type=int, required=True)
    p.set_defaults(func=cmd_verify_girth)
    p = verify.add_parser("subgraph-free")
    p.add_argument("file")
    p.add_argument("--pattern", required=True)
    p.add_argument("--budget-ms", type=_budget_ms, default=None)
    p.set_defaults(func=cmd_verify_subgraph_free)

    search = sub.add_parser("search").add_subparsers(dest="what", required=True)
    p = search.add_parser("independent-set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget-ms", type=_budget_ms, default=None)
    p.set_defaults(func=cmd_search_independent_set)
    p = search.add_parser("max-ffree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--budget-ms", type=_budget_ms, default=None)
    p.set_defaults(func=cmd_search_max_ffree)
    p = search.add_parser("spencer")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_search_spencer)
    p = search.add_parser("drc")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--x", required=True, help="vertex list, e.g. 0-9 or 0,2,5")
    p.add_argument("--y", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--retries", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_search_drc)
    p = search.add_parser("ckprop")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--v0", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_search_ckprop)
    p = search.add_parser("sunflower")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_search_sunflower)

    pipeline = sub.add_parser("pipeline").add_subparsers(dest="what", required=True)
    p = pipeline.add_parser("ckfree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget-ms", type=_budget_ms, default=None)
    p.add_argument("--cert", default=None)
    p.set_defaults(func=cmd_pipeline_ckfree)
    p = pipeline.add_parser("ksfree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget-ms", type=_budget_ms, default=None)
    p.add_argument("--cert", default=None)
    p.set_defaults(func=cmd_pipeline_ksfree)
    p = pipeline.add_parser("ramsey-witness")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--rf", type=int, required=True)
    p.add_argument("--cert", default=None)
    p.set_defaults(func=cmd_pipeline_ramsey_witness)

    oracle = sub.add_parser("oracle").add_subparsers(dest="what", required=True)
    p = oracle.add_parser("brute-force-f")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=_node_budget, default=None)
    p.set_defaults(func=cmd_oracle_brute_force_f)

    pattern = sub.add_parser("pattern").add_subparsers(dest="what", required=True)
    p = pattern.add_parser("list")
    p.set_defaults(func=cmd_pattern_list)
    p = pattern.add_parser("write")
    p.add_argument("name")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pattern_write)

    p = sub.add_parser("replay")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.raw_argv = list(argv)
    args.started = time.monotonic()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head -n 1`) and wants no more: exit
        # quietly, with the interpreter's final flush going to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        payload = {"error": str(exc)}
        if exc.witness is not None:
            payload["witness"] = exc.witness
        print(json.dumps(payload, sort_keys=True, default=list), file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
