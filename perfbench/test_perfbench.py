"""Tests of the benchmark itself (not collected by the library's suite).

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from edgeideals import certificates, classify, homology  # noqa: E402


def one_block(workload, tmp_path):
    job = {"seed": 3, "seconds": 60, "max_blocks": 1, "trace": 0,
           "out_dir": str(tmp_path)}
    return worker.run(workload, job)["records"]


def test_correct_answers_pass(tmp_path):
    records = one_block("cactus-sweep", tmp_path)
    assert len(records) == len(inputs.CACTUS_SIZES)
    assert run.failures(records) == ([], [])


def test_wrong_answer_is_a_failure(tmp_path, monkeypatch):
    """A verdict that differs from the recorded reference fails the op."""
    monkeypatch.setattr(classify, "stci_verdict",
                        lambda g, limit=None: classify.CmVerdict(
                            classify.NOT_CM))
    failed, known = run.failures(one_block("cactus-sweep", tmp_path))
    assert failed and not known
    assert all("output differs from the reference" in r[2] for r in failed)


def test_invariant_violation_is_a_failure(monkeypatch):
    real = homology.projective_dimension
    monkeypatch.setattr(homology, "projective_dimension",
                        lambda g: (real(g)[0] + 1, real(g)[1]))
    item = inputs.pools("hochster-pd")["n7-tree"][0]
    out = ops.hochster_op(item, 0, ops.Context())
    assert "big_height <= pd <= bound fails" in out.problems
    assert "pd != big_height on a tree" in out.problems


def test_accepted_tampering_is_a_failure(monkeypatch):
    monkeypatch.setattr(certificates, "verify_certificate",
                        lambda gs, cert: certificates.Verdict(True))
    item = inputs.pools("certify")["lemma52"][0]
    slot = min(inputs.CERTIFY_TAMPER_SLOTS)
    out = ops.certify_op(item, slot, ops.Context())
    assert "tampered certificate accepted" in out.problems


def test_raising_op_is_a_failure(tmp_path, monkeypatch):
    def boom(g):
        raise RuntimeError("boom")
    monkeypatch.setattr(homology, "projective_dimension", boom)
    job = {"seed": 1, "seconds": 60, "max_blocks": 1, "trace": 0,
           "out_dir": str(tmp_path)}
    monkeypatch.setitem(inputs.WORKLOADS, "hochster-pd",
                        (inputs.hochster_pools,
                         lambda i: ["n7-tree", "n8-cactus"]))
    records = worker.run("hochster-pd", job)["records"]
    assert [r[2] for r in records] == [["raised RuntimeError('boom')"]] * 2


def test_self_time_excludes_children():
    t = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    wrapped_inner = t._wrap("graphs", "inner", inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    wrapped_outer = t._wrap("covers", "outer", outer)
    t.enabled = True
    wrapped_outer()
    t.enabled = False
    (oc, o_incl, o_self), (ic, i_incl, i_self) = t.agg[1], t.agg[0]
    assert oc == ic == 1
    assert i_self == pytest.approx(i_incl)
    assert o_self == pytest.approx(o_incl - i_incl)
    assert 0.009 < o_self < 0.019
    (sid_o, fid_o, _, _, parent_o), = [s for s in t.spans if s[1] == 1]
    (sid_i, fid_i, _, _, parent_i), = [s for s in t.spans if s[1] == 0]
    assert parent_o == 0 and parent_i == sid_o


def test_tail_keeps_ten_samples_beyond():
    xs = list(range(1, 101))
    assert run.tail(xs, 95) == (90, 90, 10)
    assert run.tail(xs * 10, 95) == (95, 95, 50)
    assert run.tail(xs[:5], 75)[1] == 50


def test_schedule_is_seeded_and_never_repeats():
    pools = inputs.pools("certify")

    def take(seed, n=200):
        seq = inputs.schedule("certify", seed, pools)
        return [(item["cls"], item["idx"]) for _, _, item in
                (next(seq) for _ in range(n))]

    assert take(1) == take(1)
    assert take(1) != take(2)
    assert len(set(take(5, 2000))) == 2000


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cactus-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
