"""The edgeideals benchmark: one seeded workload, checked and measured.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cactus-sweep --seed 1 \\
        --seconds 20 --trace 0

Workloads: cactus-sweep, hochster-pd, certify and cli-small (see WHY).  All
are closed loops with one caller that waits for each result.  The library
workloads run in one fresh worker process; cli-small starts one `edgeideals`
subprocess per op, one at a time.  The library is imported from the
checkout's `src` directory.

`--trace 0` prints the end-to-end metrics: set-up time (median of several
fresh worker starts), throughput, median and tail latency, and peak RSS;
`failed_frac` is printed alongside them and carried by the result's
`attempted` and `failed` counts.  `--trace 1` runs the same fixed number of
schedule blocks twice, untraced and then with every layer wrapped, and
prints the per-layer metrics and the tracing overhead; spans go to
`.bench_out/`.  The last line of standard output is the JSON result; the
line before it is the run record (seed, commit, machine, versions, input
properties, why the workload exists).
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import inputs
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_STARTS = 5        # fresh worker starts per run; setup_s is the median
RUN_LIMIT_S = 170       # workers still running this long after the start
                        # of the run are killed
STARTED = time.perf_counter()
# Blocks per pass of a traced run (both passes run the same blocks, so the
# trace's counts repeat exactly for a seed).
TRACE_BLOCKS = {"cactus-sweep": 12, "hochster-pd": 1, "certify": 40,
                "cli-small": 1}
# Tail percentile per workload, fixed so that a faster commit, which
# completes more ops, is compared at the same percentile.  Each leaves at
# least ten samples beyond it in a 20-second run at the commit that defined
# the benchmark (cactus-sweep and certify keep about forty, which steadies
# the figure); a run with too few samples steps down the ladder.
TAIL_PERCENTILE = {"cactus-sweep": 90, "hochster-pd": 75, "certify": 95,
                   "cli-small": 75}
LADDER = (50, 75, 90, 95, 98, 99)

WHY = {
    "cactus-sweep":
        "The paper's main result. covers, graphs, bounds and classify do "
        "almost all of the work, with no homology or polynomials work. The "
        "Theorem 3.4 trace calls cover_stats about 3 times per distinct "
        "graph, so a memo shows here and nowhere else.",
    "hochster-pd":
        "homology does over 95 % of this work, most of it in _f2_rank; cost "
        "grows about 2.5x per vertex. No other workload calls homology.",
    "certify":
        "constructions, polynomials and certificates do the work, using the "
        "certificate layer three ways: build (write), verify (read) and "
        "reject (tampered certificates).",
    "cli-small":
        "Compute is under 10 % of each call, so interpreter start, the "
        "package import, argparse and JSON output dominate. No other "
        "workload measures start-up; hostile inputs test the exit codes.",
}
LOAD_MODEL = "closed loop, one caller; library ops in one worker process, " \
    "cli-small one subprocess at a time"

END_TO_END = (("setup_s", "s"), ("throughput_ops_s", "1/s"),
              ("latency_ms.p50", "ms"), ("latency_ms.tail", "ms"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("covers.calls", "count"), ("covers.distinct_graphs", "count"),
    ("covers.covers_enumerated", "count"), ("covers.self_s", "s"),
    ("graphs.calls", "count"), ("graphs.self_s", "s"),
    ("bounds.calls", "count"), ("bounds.trace_nodes", "count"),
    ("bounds.self_s", "s"),
    ("classify.calls", "count"), ("classify.self_s", "s"),
    ("homology.calls", "count"), ("homology.self_s", "s"),
) + tuple(("homology.op_ms.n%d" % k, "ms") for k in range(7, 13)) + (
    ("constructions.calls", "count"), ("constructions.self_s", "s"),
    ("constructions.sv_found_ratio", "ratio"),
    ("polynomials.mul_calls", "count"), ("polynomials.divides_calls", "count"),
    ("polynomials.self_s", "s"),
    ("certificates.verify_calls", "count"), ("certificates.verify_s", "s"),
    ("certificates.steps_checked", "count"),
    ("certificates.serde_s", "s"), ("certificates.reject_ratio", "ratio"),
    ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"),
) + tuple(("cli.%s_ms" % sub, "ms") for sub in inputs.CLI_SUBCOMMANDS) + (
    ("trace_overhead_frac", "ratio"),
)


class BenchError(Exception):
    pass


# -- workers -----------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(workload):
    """Start a worker; return (process, kill timer, seconds until ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), workload],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT)
    timer = threading.Timer(RUN_LIMIT_S - (t0 - STARTED), proc.kill)
    timer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, timer)
        raise BenchError("worker did not start (exit %s)" % proc.returncode)
    return proc, timer, ready


def finish(proc, timer):
    try:
        if proc.stdin and not proc.stdin.closed:
            proc.stdin.close()
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out


def run_pass(workload, job):
    """One worker process running one job; returns (result, ready seconds)."""
    proc, timer, ready = start_worker(workload)
    proc.stdin.write(json.dumps(job) + "\n")
    proc.stdin.flush()
    out = finish(proc, timer)
    if proc.returncode != 0 or not out.strip():
        raise BenchError("worker failed (exit %s)" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1]), ready


def setup_times(workload, extra):
    """Seconds from starting a fresh worker until it is ready, for
    SETUP_STARTS - 1 set-up probes plus the pass worker (`extra`)."""
    times = []
    for _ in range(SETUP_STARTS - 1):
        proc, timer, ready = start_worker(workload)
        finish(proc, timer)
        times.append(ready)
    return times + [extra]


# -- metrics -----------------------------------------------------------


def tail(latencies, percentile):
    """(value, percentile, samples beyond it) by nearest rank; the
    percentile steps down the ladder until ten samples lie beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    rungs = [p for p in LADDER if p <= percentile]
    for p in reversed(rungs):
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10 or p == rungs[0]:
            return xs[rank - 1], p, n - rank
    raise AssertionError("ladder is empty")


def failures(records):
    failed = [r for r in records if r[2]]
    known = [r for r in failed if r[0] in inputs.CLI_KNOWN_DEFECTS]
    return failed, known


def end_to_end(workload, result, ready_times):
    records = result["records"]
    lat = [r[1] for r in records]
    value, pct, beyond = tail(lat, TAIL_PERCENTILE[workload])
    failed, _ = failures(records)
    metrics = {
        "setup_s": statistics.median(ready_times),
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_ms.p50": statistics.median(lat) * 1e3,
        "latency_ms.tail": value * 1e3,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }
    detail = {"latency_ms.tail": {"percentile": pct, "samples": len(lat),
                                  "samples_beyond": beyond},
              "failed_frac": {"value": len(failed) / len(lat), "unit": "1",
                              "failed": len(failed), "attempted": len(lat)},
              "setup_s": {"starts": [round(t, 6) for t in ready_times]}}
    return metrics, detail


def per_layer(workload, plain, traced):
    merged = traced["trace"]
    m = tracing.layer_metrics(merged)
    tampered = [r for r in traced["records"] if r[4].get("tampered")]
    rejected = [r for r in tampered if r[4]["rejected"]]
    m["certificates.reject_ratio"] = \
        len(rejected) / len(tampered) if tampered else 0.0
    cli = workload == "cli-small"
    m["cli.interp_ms"] = traced["cli_interp_ms"] if cli else 0.0
    m["cli.import_ms"] = \
        statistics.median(traced["cli_import_ms"]) if cli else 0.0
    for sub in inputs.CLI_SUBCOMMANDS:
        times = [r[1] for r in plain["records"] if r[0] == sub]
        m["cli.%s_ms" % sub] = \
            statistics.median(times) * 1e3 if cli and times else 0.0
    k = min(len(plain["records"]), len(traced["records"]))
    base = sum(r[1] for r in plain["records"][:k])
    m["trace_overhead_frac"] = \
        sum(r[1] for r in traced["records"][:k]) / base - 1
    detail = {"tampered": len(tampered), "spans": merged["spans"],
              "spans_dropped": merged["spans_dropped"],
              "counts": merged["counts"]}
    return m, detail


def properties(workload, result):
    """Input properties later optimisations exploit."""
    records = result["records"]
    hist = collections.Counter(r[3] for r in records)
    props = {"vertex_histogram": {str(k): hist[k] for k in sorted(hist)},
             "blocks_stop": result["stop"]}
    if workload == "cactus-sweep" and "trace" in result:
        c = result["trace"]["counts"]
        props["cover_stats_repeat_share"] = \
            1 - c["distinct_graphs"] / c["cover_stats_calls"]
    if workload == "hochster-pd":
        props["isolated_subset_share"] = result["isolated_subset_share"]
    if workload == "certify":
        searched = [r for r in records if r[4].get("searched")]
        props["layer_search_found_share"] = \
            sum(1 for r in searched if r[4]["found"]) / len(searched)
    return props


# -- run record --------------------------------------------------------


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def src_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def record(args, results, metrics, detail, props):
    versions = results[-1]["versions"]
    problems = [(r[0], r[2]) for res in results for r in res["records"]
                if r[2]]
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": commit(), "src_sha256": src_digest(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), **versions,
            "load_model": LOAD_MODEL, "why": WHY[args.workload],
            "metrics": metrics, "detail": detail, "properties": props,
            "reference_drift": sorted({c for res in results
                                       for c in res["drift"]}),
            "known_defects": sorted(inputs.CLI_KNOWN_DEFECTS)
            if args.workload == "cli-small" else [],
            "problems": problems[:20]}


# -- main --------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "edgeideals", "__init__.py")):
        print("error: no edgeideals sources under %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    job = {"seed": args.seed, "seconds": args.seconds, "out_dir": OUT_DIR}
    try:
        if args.trace:
            blocks = TRACE_BLOCKS[args.workload]
            plain, _ = run_pass(args.workload,
                                dict(job, trace=0, max_blocks=blocks))
            traced, _ = run_pass(args.workload,
                                 dict(job, trace=1, max_blocks=blocks))
            results = [plain, traced]
            values, detail = per_layer(args.workload, plain, traced)
            spec = PER_LAYER
        else:
            result, ready = run_pass(args.workload,
                                     dict(job, trace=0, max_blocks=None))
            results = [result]
            values, detail = end_to_end(args.workload, result,
                                        setup_times(args.workload, ready))
            spec = END_TO_END
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    props = properties(args.workload, results[-1])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in spec}
    rec = record(args, results, metrics, detail, props)
    records = [r for res in results for r in res["records"]]
    failed, known = failures(records)
    correct = bool(records) and len(failed) == len(known) \
        and not rec["reference_drift"]

    for name, unit in spec:
        print("%-32s %14.6g %s" % (name, values[name], unit))
    if not args.trace:
        ff = detail["failed_frac"]
        print("%-32s %14.6g 1  (%d of %d ops; known defects: %d)"
              % ("failed_frac", ff["value"], ff["failed"], ff["attempted"],
                 len(known)))
    print(json.dumps({"record": rec}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
