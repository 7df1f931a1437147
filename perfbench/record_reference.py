"""Record the reference outputs the benchmark compares every op against.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/record_reference.py [--jobs N] WORKLOAD...

Runs every pooled input of each named workload once, untimed, and writes
`perfbench/reference/WORKLOAD.json`: per class, a digest of the pool's
inputs (to catch generator drift) and the concatenated 10-hex-digit digests
of each input's canonical output, in pool order.  Recording refuses to write
a workload whose ops fail a check, except the cli-small inputs listed as
known defects, which have no reference output.

The reference belongs to the commit that recorded it: re-record only when
a change is meant to alter outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys

import inputs
import ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run_one(args):
    workload, item = args
    workdir = os.path.join(ROOT, ".bench_out", "ref-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    out = ops.OPS[workload](item, 0, ops.Context(workdir=workdir))
    digest = None if out.output is None else ops.digest(out.output)
    return item["cls"], item["idx"], digest, out.problems


def record(workload, jobs):
    pools = inputs.pools(workload)
    tasks = [(workload, item) for cls in sorted(pools) for item in pools[cls]]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(jobs) as pool:
        results = pool.map(_run_one, tasks, chunksize=4)
    digests = {cls: [None] * len(pool_) for cls, pool_ in pools.items()}
    bad = []
    for cls, idx, digest, problems in results:
        if problems and cls not in inputs.CLI_KNOWN_DEFECTS:
            bad.append((cls, idx, problems))
        digests[cls][idx] = digest
    if bad:
        for b in bad[:20]:
            print("check failed:", b, file=sys.stderr)
        return False
    ref = {}
    for cls, pool_ in sorted(pools.items()):
        ds = digests[cls]
        ref[cls] = {"inputs": ops.digest(pool_),
                    "outputs": None if any(d is None for d in ds)
                    else "".join(ds)}
    path = os.path.join(HERE, "reference", workload + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%s: %d inputs in %d classes" % (workload, len(tasks), len(ref)))
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("workloads", nargs="+", choices=sorted(inputs.WORKLOADS))
    args = ap.parse_args()
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    try:
        ok = all([record(w, args.jobs) for w in args.workloads])
    finally:
        for name in os.listdir(os.path.join(ROOT, ".bench_out")):
            if name.startswith("ref-"):
                shutil.rmtree(os.path.join(ROOT, ".bench_out", name))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
