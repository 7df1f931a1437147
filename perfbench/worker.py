"""Benchmark worker: one fresh process that runs one pass of a workload.

Usage (started by run.py, with the checkout's `src` on PYTHONPATH):

    python3 perfbench/worker.py WORKLOAD

The worker imports the library code its ops call, prints `ready`, and reads
one JSON job line from stdin: {"seed", "seconds", "max_blocks", "trace",
"out_dir"}.  End of input instead of a job means the start was only timed
(set-up probe).  It then runs whole schedule blocks, closed loop with one
caller, until `seconds` have passed (or `max_blocks` blocks are done), and
prints one JSON result line.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

if sys.argv[1:2] == ["cli-small"]:
    import edgeideals.cli  # noqa: F401  (what the CLI's start-up imports)
import inputs  # noqa: E402
import ops  # noqa: E402  (imports the library modules the ops call)
import tracer as tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# A pass given a block count stops anyway after this many times `seconds`.
BLOCK_PASS_CAP = 2.5


def load_reference(workload):
    with open(os.path.join(HERE, "reference", workload + ".json")) as fh:
        return json.load(fh)


class ShimSpans:
    """Collects the summaries that traced CLI subprocesses write."""

    def __init__(self, out_dir, spans_fh):
        self.path = os.path.join(out_dir, "cli-summary.json")
        self.spans_fh = spans_fh
        self.summaries = []

    def prefix(self):
        return [sys.executable, os.path.join(HERE, "cli_traced.py"),
                self.path]

    def collect(self):
        if not os.path.exists(self.path):
            return
        with open(self.path) as fh:
            summary = json.load(fh)
        os.remove(self.path)
        self.summaries.append(summary)
        spans = summary.pop("span_lines")
        self.spans_fh.write(json.dumps({"process": len(self.summaries),
                                        "names": summary["names"]}) + "\n")
        self.spans_fh.writelines("%d %s\n" % (len(self.summaries), line)
                                 for line in spans)


def run(workload, job):
    pool_map = inputs.pools(workload)
    ref = load_reference(workload)
    drift = sorted(cls for cls, pool in pool_map.items()
                   if ref.get(cls, {}).get("inputs") != ops.digest(pool))
    out_dir = job["out_dir"]
    workdir = os.path.join(out_dir, "tmp-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    trace = bool(job["trace"])
    spans_fh = open(os.path.join(out_dir, "spans-%s.txt" % workload), "w") \
        if trace else None
    tracer = shim = None
    ctx = ops.Context(workdir=workdir)
    if trace and workload == "cli-small":
        shim = ShimSpans(out_dir, spans_fh)
        ctx.cli_prefix = shim.prefix()
    elif trace:
        tracer = tracing.Tracer()
        tracer.install(tracing.LAYERS[:-1])
        ctx.tracer = tracer

    op = ops.OPS[workload]
    records = []
    hochster_graphs = []
    seconds, max_blocks = job["seconds"], job["max_blocks"]
    start = time.perf_counter()
    stop = "pool exhausted"
    try:
        for block, slot, item in inputs.schedule(workload, job["seed"],
                                                 pool_map):
            if slot == 0:
                elapsed = time.perf_counter() - start
                if max_blocks is None and elapsed >= seconds:
                    stop = "time"
                    break
                if max_blocks is not None and block >= max_blocks:
                    stop = "blocks"
                    break
                if elapsed >= BLOCK_PASS_CAP * seconds:
                    stop = "time cap"
                    break
            t0 = time.perf_counter()
            try:
                out = op(item, slot, ctx)
            except Exception as exc:  # an op that raises is a failed op
                out = ops.Outcome(time.perf_counter() - t0,
                                  problems=["raised %r" % exc],
                                  vertices=item.get("n", 0))
            if shim:
                shim.collect()
            problems = list(out.problems)
            if out.output is not None:
                want = (ref.get(item["cls"]) or {}).get("outputs") or ""
                got = ops.digest(out.output)
                if want[10 * item["idx"]:10 * item["idx"] + 10] != got:
                    problems.append("output differs from the reference")
            if workload == "hochster-pd":
                hochster_graphs.append(item["edges"])
            records.append([item["cls"], out.seconds, problems,
                            out.vertices, out.props])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"records": records, "drift": drift, "stop": stop,
              "versions": versions(),
              "maxrss_kb": resource.getrusage(
                  resource.RUSAGE_CHILDREN if workload == "cli-small"
                  else resource.RUSAGE_SELF).ru_maxrss}
    if hochster_graphs:
        from edgeideals.graphs import Graph
        shares = [ops.isolated_share(Graph.build(tuple(e) for e in edges))
                  for edges in hochster_graphs]
        result["isolated_subset_share"] = sum(shares) / len(shares)
    if tracer:
        result["trace"] = tracing.merge([tracer.summary()])
        tracer.write_spans(spans_fh)
    if shim:
        result["trace"] = tracing.merge(shim.summaries)
        result["cli_interp_ms"] = interp_ms()
        result["cli_import_ms"] = [s["import_ms"] for s in shim.summaries]
    if spans_fh:
        spans_fh.close()
    return result


def interp_ms(repeats=5):
    """Median wall time of an interpreter that starts and does nothing."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def versions():
    return {"python": sys.version.split()[0],
            "networkx": getattr(sys.modules.get("networkx"), "__version__",
                                None),
            "numpy": getattr(sys.modules.get("numpy"), "__version__", None)}


def main():
    workload = sys.argv[1]
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    result = run(workload, json.loads(line))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
