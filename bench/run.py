"""Benchmark for the erdos_rogers package.

    python3 bench/run.py                       # every workload, one process each
    python3 bench/run.py --workload efr-blowup --seed 3 --seconds 20 --trace 0

With --workload, one workload runs in this process: set-up is timed in
fresh interpreters, then whole passes over the workload's job list are
timed for about --seconds, every job's output is checked, and the last
line printed is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  --trace 0 reports the end-to-end metrics; --trace 1 also runs
one traced pass and reports the per-layer metrics, and writes the span
summary to bench/out/.  Without --workload, every workload runs this way
in its own process, one at a time, and a table of the results is printed.

The package is imported from the src/ directory next to bench/; without
it the benchmark exits with status 2 before running anything.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOADS = ["efr-blowup", "girth-clones", "exact-oracle", "ffree-search"]
# fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 9
# keep numpy's BLAS pool at one thread so each workload is one busy thread
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_package():
    """Import the package from SRC (never an installed copy) and the
    benchmark's own modules."""
    if not (SRC / "erdos_rogers" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    import erdos_rogers

    if Path(erdos_rogers.__file__).resolve().parent != SRC / "erdos_rogers":
        print(f"error: imported erdos_rogers from {erdos_rogers.__file__}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def time_setup(workload, seed):
    """Median wall time of a fresh interpreter that imports the package and
    builds the workload's inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ, **SINGLE_THREAD)
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode())
            sys.exit(proc.returncode or 2)
    return statistics.median(times)


class JobLog:
    """Runs, failures and the first output of one job."""

    __slots__ = ("runs", "failed_runs", "times", "output", "problems")

    def __init__(self):
        self.runs = 0
        self.failed_runs = 0
        self.times = []
        self.output = None
        self.problems = []


def run_job(log, run):
    """Call `run` once, after an untimed garbage collection, and log the
    outcome; returns the wall time of the call."""
    gc.collect()
    log.runs += 1
    start = time.perf_counter()
    try:
        out = run()
    except Exception:
        log.failed_runs += 1
        log.problems.append(traceback.format_exc(limit=3))
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if log.output is None:
        log.output = out
    elif out != log.output:
        log.failed_runs += 1
        log.problems.append("output differs from the job's first run")
    return elapsed


def run_workload(name, seed, seconds, trace):
    setup_s = None if trace else time_setup(name, seed)
    workloads = load_package()
    jobs = workloads.WORKLOADS[name](seed)
    logs = [JobLog() for _ in jobs]

    pass_times = []
    start = time.perf_counter()
    # whole passes only; stop once another pass would end more than half a
    # pass after the deadline
    while not pass_times or time.perf_counter() - start + statistics.mean(pass_times) / 2 < seconds:
        total = 0.0
        for job, log in zip(jobs, logs):
            elapsed = run_job(log, job.run)
            log.times.append(elapsed)
            total += elapsed
        pass_times.append(total)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {}
    if trace:
        metrics = traced_pass(name, seed, jobs, logs, workloads, statistics.median(pass_times))

    for job, log in zip(jobs, logs):
        if log.output is None:
            continue
        try:
            problems = job.check(log.output)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            log.problems += problems
            log.failed_runs = log.runs

    correct = True
    for job, log in zip(jobs, logs):
        ok = not log.problems
        correct &= ok
        print(f"{name}: {job.name}: {log.runs} runs, median {statistics.median(log.times):.4f} s, "
              f"{'ok' if ok else 'FAILED'}  [{job.command}]")
        for problem in log.problems:
            print(f"  {problem}", file=sys.stderr)

    times = [t for log in logs for t in log.times]
    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (len(times) / sum(times), "1/s"),
            "job_s_p50": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": correct,
        "attempted": sum(log.runs for log in logs),
        "failed": sum(log.failed_runs for log in logs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_pass(name, seed, jobs, logs, workloads, untraced_pass_s):
    """One pass with every TRACED function wrapped; outputs must equal the
    untraced runs' byte for byte (run_job compares them)."""
    import spans

    rec = spans.Recorder()
    with spans.traced(rec, [workloads]):
        for job, log in zip(jobs, logs):
            run_job(log, lambda job=job: rec.call(f"job:{job.name}", job.run, (), {}))
    traced_pass_s = sum(end - start for _, start, end, parent in rec.spans if parent < 0)
    metrics = spans.layer_metrics(rec)
    metrics["trace.overhead_s"] = (traced_pass_s - untraced_pass_s, "s")

    OUT.mkdir(exist_ok=True)
    table = rec.self_and_total()
    summary = {
        "workload": name,
        "seed": seed,
        "untraced_pass_s": untraced_pass_s,
        "traced_pass_s": traced_pass_s,
        "spans": {k: {"self_s": s, "total_s": t, "calls": c} for k, (s, t, c) in sorted(table.items())},
        "counts": rec.counts,
    }
    (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return metrics


def run_all(seed, seconds, trace):
    """Every workload in its own process, one at a time."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with status {proc.returncode}")
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])

    print()
    for name, res in results.items():
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"    {metric} = {m['value']:.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"results-seed{seed}-trace{trace}.json").write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_only:
        load_package().WORKLOADS[args.workload](args.seed)
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
