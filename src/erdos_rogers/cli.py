"""Command-line front end.

Exit codes: 0 success / audit pass, 1 audit fail (witness printed),
2 usage or file-format error, 3 construction precondition failure
(witness on stderr).  Budgets are given in milliseconds and converted to
deterministic node counts at a fixed rate per engine, so equal seeds give
byte-identical outputs regardless of machine speed.  Set REQUIRE_SEED=1 to
make every randomized command demand an explicit --seed.
"""

import argparse
import json
import os
import sys
import time

from .certificates import Certificate, make_manifest, read_manifest, write_manifest
from .efr import efr_certificate, efr_hypergraph
from .errors import FormatError, InputError
from .graphs import named_graph, read_graph, write_graph
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
# becomes a node budget.  Measured by `python3 bench/run.py --trace 1 --seed 1`
# on a 2-vCPU x86-64 VM with Python 3.11: search.max_f_free_subset.nodes_per_ms
# on ffree-search (135,916 nodes; a second run read 43, exact-oracle 65);
# max_independent_set nodes per ms of self time on girth-clones (67 nodes in
# 0.88 ms, the only workload that calls it); contains_subgraph nodes per ms
# of self time on ffree-search (1,089,102 nodes in 2.19 s; a second run read
# 379, exact-oracle 238).
NODES_PER_MS = {
    "max_f_free_subset": 56,
    "max_independent_set": 76,
    "contains_subgraph": 497,
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
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
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


def _budget_of(args, engine):
    """Node budget of --budget-ms for the engine the command drives."""
    ms = getattr(args, "budget_ms", None)
    return DEFAULT_SET_BUDGET if ms is None else max(1, int(ms * NODES_PER_MS[engine]))


def _emit(cert_path, cert, manifest_path, args, seed, inputs, outputs, started):
    cert.write(cert_path)
    manifest = make_manifest(
        command=args.command_path,
        params={"argv": args.raw_argv},
        seed=seed,
        inputs=inputs,
        outputs=outputs + [cert_path],
        started_at=started,
    )
    write_manifest(manifest_path, manifest)


def _default_paths(args):
    cert = args.cert or args.out + ".cert.json"
    manifest = args.manifest or args.out + ".manifest.json"
    return cert, manifest


def _gate(cert, keys):
    """Exit status for a construct command: the artifact is always written,
    but the command fails when a construction guarantee does not hold.
    Parameter-rule flags (asymptotic regimes) stay informational."""
    bad = [k for k in keys if not cert.passed(k)]
    if not bad:
        return 0
    for key in bad:
        print(f"fail: {key}")
        witness = cert.predicates[key].get("witness")
        if witness is not None:
            print(json.dumps(witness, sort_keys=True))
    return 1


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct_efr(args):
    started = time.monotonic()
    inst = efr_hypergraph(args.d, args.r, args.R)
    write_hypergraph(args.out, inst.hypergraph)
    cert = efr_certificate(inst)
    cert_path, manifest_path = _default_paths(args)
    _emit(cert_path, cert, manifest_path, args, None, [], [args.out], started)
    print(f"id={args.out} edges={inst.hypergraph.m} n={inst.declared_n} "
          f"verified={'pass' if cert.all_passed() else 'fail'}")
    return _gate(cert, cert.predicates)


def cmd_construct_theorem1(args):
    started = time.monotonic()
    seed = _seed_of(args)
    pattern = _load_pattern(args.f)
    rng = SeededRng(seed, "theorem1")
    gstar, cert = theorem1_build(
        args.d, args.r, args.R, pattern, rng, ffree_budget=args.ffree_budget
    )
    write_graph(args.out, gstar)
    cert_path, manifest_path = _default_paths(args)
    _emit(cert_path, cert, manifest_path, args, seed, [], [args.out], started)
    print(f"id={args.out} vertices={gstar.n} edges={gstar.m} "
          f"triangle_free={'pass' if cert.passed('triangle_free') else 'fail'}")
    return _gate(cert, ["triangle_free"])


def cmd_construct_girth_hypergraph(args):
    started = time.monotonic()
    seed = _seed_of(args)
    rng = SeededRng(seed, "girth-hypergraph")
    hstar, params = random_girth_hypergraph(args.t, args.r, rng)
    write_hypergraph(args.out, hstar)
    cert = Certificate("random_girth_hypergraph")
    cert.set_param("t", args.t)
    cert.set_param("r", args.r)
    cert.record_rng(rng)
    cert.add_measurement("params", params.to_dict())
    cert.add_audit(hypergraph_girth_at_least(hstar, args.r + 2), "girth")
    cert_path, manifest_path = _default_paths(args)
    _emit(cert_path, cert, manifest_path, args, seed, [], [args.out], started)
    print(f"id={args.out} edges={hstar.m} girth_audit="
          f"{'pass' if cert.passed('girth') else 'fail'}")
    return _gate(cert, ["girth"])


def cmd_construct_theorem4_part1(args):
    started = time.monotonic()
    seed = _seed_of(args)
    g = _load_pattern(args.g)
    f = _load_pattern(args.f)
    rng = SeededRng(seed, "theorem4-part1")
    built, cert = theorem4_part1_build(g, f, args.n, args.d, args.girth_target, rng)
    write_graph(args.out, built)
    cert_path, manifest_path = _default_paths(args)
    _emit(cert_path, cert, manifest_path, args, seed, [], [args.out], started)
    print(f"id={args.out} vertices={built.n} edges={built.m} "
          f"g_absent={'pass' if cert.passed('g_absent') else 'fail'}")
    return _gate(cert, ["g_absent", "cover"])


def cmd_construct_theorem4_part2(args):
    started = time.monotonic()
    seed = _seed_of(args)
    g = _load_pattern(args.g)
    rng = SeededRng(seed, "theorem4-part2")
    built, cert = theorem4_part2_build(g, args.t, rng, try_all_pairs=args.try_all_pairs)
    write_graph(args.out, built)
    cert_path, manifest_path = _default_paths(args)
    _emit(cert_path, cert, manifest_path, args, seed, [], [args.out], started)
    print(f"id={args.out} vertices={built.n} edges={built.m} "
          f"pattern_absent={'pass' if cert.passed('pattern_absent') else 'fail'}")
    return _gate(cert, ["pattern_absent", "girth"])


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

def cmd_search_independent_set(args):
    started = time.monotonic()
    g = read_graph(args.infile)
    res = max_independent_set(g, budget=_budget_of(args, "max_independent_set"))
    ms = int((time.monotonic() - started) * 1000)
    print(f"{res.size} {res.status}")
    print(f"id={args.infile} size={res.size} status={res.status} "
          f"set={sorted(res.vertex_set.members())} nodes={res.nodes} verified=pass runtime_ms={ms}")
    return 0


def cmd_search_max_ffree(args):
    started = time.monotonic()
    g = read_graph(args.infile)
    pattern = _load_pattern(args.f)
    res = max_f_free_subset(g, pattern, budget=_budget_of(args, "max_f_free_subset"))
    ms = int((time.monotonic() - started) * 1000)
    print(f"{res.size} {res.status}")
    print(f"id={args.infile} size={res.size} status={res.status} "
          f"set={sorted(res.vertex_set.members())} nodes={res.nodes} verified=pass runtime_ms={ms}")
    return 0


def cmd_search_spencer(args):
    started = time.monotonic()
    h = read_hypergraph(args.infile)
    seed = _seed_of(args)
    res = spencer_independent_set(h, SeededRng(seed, "spencer"), trials=args.trials)
    ms = int((time.monotonic() - started) * 1000)
    print(f"id={args.infile} size={res.size} bound={res.expectation_bound:.3f} "
          f"verified=pass runtime_ms={ms}")
    return 0


def cmd_search_drc(args):
    started = time.monotonic()
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
    ms = int((time.monotonic() - started) * 1000)
    print(f"id={args.infile} size={res.size} status={res.status} gamma={res.gamma:.4f} "
          f"target={res.target:.2f} verified=pass runtime_ms={ms}")
    return 0


def cmd_search_ckprop(args):
    started = time.monotonic()
    g = read_graph(args.infile)
    res = ckprop_dense_pair(g, args.v0, args.k)
    ms = int((time.monotonic() - started) * 1000)
    print(f"id={args.infile} X={len(res.X)} Y={len(res.Y)} e={res.edges_between} "
          f"gamma={res.gamma:.4f} delta={res.delta:.6f} verified=pass runtime_ms={ms}")
    return 0


def cmd_search_sunflower(args):
    started = time.monotonic()
    family = _read_set_family(args.infile)
    flower = erdos_rado_sunflower(family, args.m)
    ms = int((time.monotonic() - started) * 1000)
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
    started = time.monotonic()
    g = read_graph(args.infile)
    seed = _seed_of(args)
    vs, cert = ckfree_subset(g, args.k, SeededRng(seed, "ckfree"),
                             budget=_budget_of(args, "max_independent_set"))
    ms = int((time.monotonic() - started) * 1000)
    if args.cert:
        cert.write(args.cert)
    branch = cert.measurements["branch"]
    print(f"id={args.infile} branch={branch} size={len(vs)} "
          f"set={sorted(vs.members())} verified=pass runtime_ms={ms}")
    return 0


def cmd_pipeline_ksfree(args):
    started = time.monotonic()
    g = read_graph(args.infile)
    seed = _seed_of(args)
    vs, cert = ksfree_recursion(g, args.s, args.k, SeededRng(seed, "ksfree"),
                                budget=_budget_of(args, "max_independent_set"))
    ms = int((time.monotonic() - started) * 1000)
    if args.cert:
        cert.write(args.cert)
    print(f"id={args.infile} size={len(vs)} set={sorted(vs.members())} "
          f"verified=pass runtime_ms={ms}")
    return 0


def cmd_pipeline_ramsey_witness(args):
    started = time.monotonic()
    host = read_graph(args.infile)
    f = _load_pattern(args.f)
    g = _load_pattern(args.g)
    cert = ramsey_witness_check(host, f, g, args.t, args.rf)
    ms = int((time.monotonic() - started) * 1000)
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
    for name in ("k2", "k3", "k4", "k5", "k6", "p3", "p4", "c4", "c5", "c6", "c7",
                 "k22", "k33", "petersen", "wagner"):
        g = named_graph(name)
        print(f"{name}: n={g.n} m={g.m}")
    return 0


def cmd_pattern_write(args):
    write_graph(args.out, named_graph(args.name))
    print(f"id={args.out}")
    return 0


def cmd_replay(args):
    manifest = read_manifest(args.manifest)
    argv = manifest["params"]["argv"]
    code = main(argv)
    if code == 0:
        print(f"replayed: {' '.join(argv)}")
    return code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_out_flags(p):
    p.add_argument("--out", required=True)
    p.add_argument("--cert", default=None)
    p.add_argument("--manifest", default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="erdos-rogers")
    # accepted for interface stability; every engine is sequential and
    # deterministic, so the value never changes an output
    parser.add_argument("--threads", type=int, default=1)
    sub = parser.add_subparsers(dest="verb", required=True)

    construct = sub.add_parser("construct").add_subparsers(dest="what", required=True)
    p = construct.add_parser("efr")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    _add_out_flags(p)
    p.set_defaults(func=cmd_construct_efr, command_path=["construct", "efr"])

    p = construct.add_parser("theorem1")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--f", required=True, help=_NAMED_HINT)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ffree-budget", type=int, default=None)
    _add_out_flags(p)
    p.set_defaults(func=cmd_construct_theorem1, command_path=["construct", "theorem1"])

    p = construct.add_parser("girth-hypergraph")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_out_flags(p)
    p.set_defaults(func=cmd_construct_girth_hypergraph,
                   command_path=["construct", "girth-hypergraph"])

    p = construct.add_parser("theorem4-part1")
    p.add_argument("--g", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--girth-target", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_out_flags(p)
    p.set_defaults(func=cmd_construct_theorem4_part1,
                   command_path=["construct", "theorem4-part1"])

    p = construct.add_parser("theorem4-part2")
    p.add_argument("--g", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--try-all-pairs", action="store_true")
    _add_out_flags(p)
    p.set_defaults(func=cmd_construct_theorem4_part2,
                   command_path=["construct", "theorem4-part2"])

    verify = sub.add_parser("verify").add_subparsers(dest="what", required=True)
    p = verify.add_parser("linear")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify_linear, command_path=["verify", "linear"])
    p = verify.add_parser("triangle-free")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify_triangle_free, command_path=["verify", "triangle-free"])
    p = verify.add_parser("girth")
    p.add_argument("file")
    p.add_argument("--min", type=int, required=True)
    p.set_defaults(func=cmd_verify_girth, command_path=["verify", "girth"])
    p = verify.add_parser("subgraph-free")
    p.add_argument("file")
    p.add_argument("--pattern", required=True)
    p.add_argument("--budget-ms", type=float, default=None)
    p.set_defaults(func=cmd_verify_subgraph_free, command_path=["verify", "subgraph-free"])

    search = sub.add_parser("search").add_subparsers(dest="what", required=True)
    p = search.add_parser("independent-set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget-ms", type=float, default=None)
    p.set_defaults(func=cmd_search_independent_set, command_path=["search", "independent-set"])
    p = search.add_parser("max-ffree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--budget-ms", type=float, default=None)
    p.set_defaults(func=cmd_search_max_ffree, command_path=["search", "max-ffree"])
    p = search.add_parser("spencer")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_search_spencer, command_path=["search", "spencer"])
    p = search.add_parser("drc")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--x", required=True, help="vertex list, e.g. 0-9 or 0,2,5")
    p.add_argument("--y", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--retries", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_search_drc, command_path=["search", "drc"])
    p = search.add_parser("ckprop")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--v0", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_search_ckprop, command_path=["search", "ckprop"])
    p = search.add_parser("sunflower")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_search_sunflower, command_path=["search", "sunflower"])

    pipeline = sub.add_parser("pipeline").add_subparsers(dest="what", required=True)
    p = pipeline.add_parser("ckfree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument("--cert", default=None)
    p.set_defaults(func=cmd_pipeline_ckfree, command_path=["pipeline", "ckfree"])
    p = pipeline.add_parser("ksfree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument("--cert", default=None)
    p.set_defaults(func=cmd_pipeline_ksfree, command_path=["pipeline", "ksfree"])
    p = pipeline.add_parser("ramsey-witness")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--rf", type=int, required=True)
    p.add_argument("--cert", default=None)
    p.set_defaults(func=cmd_pipeline_ramsey_witness, command_path=["pipeline", "ramsey-witness"])

    oracle = sub.add_parser("oracle").add_subparsers(dest="what", required=True)
    p = oracle.add_parser("brute-force-f")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_oracle_brute_force_f, command_path=["oracle", "brute-force-f"])

    pattern = sub.add_parser("pattern").add_subparsers(dest="what", required=True)
    p = pattern.add_parser("list")
    p.set_defaults(func=cmd_pattern_list, command_path=["pattern", "list"])
    p = pattern.add_parser("write")
    p.add_argument("name")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pattern_write, command_path=["pattern", "write"])

    p = sub.add_parser("replay")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_replay, command_path=["replay"])

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
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        payload = {"error": str(exc)}
        if exc.witness is not None:
            payload["witness"] = exc.witness
        print(json.dumps(payload, sort_keys=True, default=list), file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
