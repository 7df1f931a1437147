"""Command-line interface: subcommand reports, exit codes, certificate
files, and error rendering."""

import contextlib
import copy
import io
import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from edgeideals import constructions
from edgeideals.certificates import Certificate, certified_set_to_data
from edgeideals.cli import main
from edgeideals.graphs import Graph

import catalog
from conftest import format_edge_list

INF = float("inf")
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def run(capsys):
    def go(argv, expect=0):
        code = main(argv)
        out = capsys.readouterr()
        assert code == expect, (argv, code, out.err)
        return json.loads(out.out) if out.out.strip() else None
    return go


@pytest.fixture
def graph_file(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_analyze_the_readme_input_example(run, graph_file):
    # The first fenced block of the README's input-format section, verbatim.
    section = README.read_text().split("## Graph input format", 1)[1]
    example = section.split("```\n", 2)[1]
    assert "z        # isolated vertex" in example
    rep = run(["analyze", graph_file("readme.txt", example)])
    assert rep["graph"]["edges"] == [["a", "aw"], ["a", "b"], ["a", "c"],
                                     ["b", "c"]]
    assert rep["degrees"]["z"] == 0 and ["z"] in rep["components"]


def test_analyze(run, graph_file):
    f = graph_file("tri.txt", "a b\nb c\nc a\n")
    rep = run(["analyze", f])
    assert rep["is_cactus"] and rep["is_chordal"]
    assert rep["cycles"] == [["a", "b", "c"]]
    assert rep["graph"]["edges"] == [["a", "b"], ["a", "c"], ["b", "c"]]


def test_covers(run, graph_file):
    f = graph_file("c5.txt", "\n".join(
        "v%d v%d" % (i, (i + 1) % 5) for i in range(5)))
    rep = run(["covers", f])
    assert rep["height"] == rep["big_height"] == 3
    assert rep["unmixed"]
    assert len(rep["covers"]) == 5


def test_bound_with_trace(run, graph_file):
    f = graph_file("bowtie.txt", "a b\nb c\nc a\nc d\nd e\ne c\n")
    rep = run(["bound", "--trace", f])
    assert rep["bound"] == 6 and rep["n_cycles"] == 2
    assert rep["trace_bound"] == 6
    assert rep["trace"]["case"]


@pytest.fixture
def cactus200(graph_file):
    g = catalog.grown_cactus(random.Random(0), 200)
    return graph_file("cactus200.txt", format_edge_list(g))


def test_bound_above_the_cover_guard(run, cactus200):
    # The cover numbers of a cactus come from the DP, which has no guard.
    rep = run(["bound", cactus200])
    assert len(rep["graph"]["vertices"]) == 200
    assert (rep["big_height"], rep["n_cycles"], rep["bound"]) == (137, 51, 188)
    rep = run(["bound", "--improve", cactus200])
    assert rep["bound"] == rep["big_height"] + rep["n_cycles"] - \
        rep["improvement_k"]
    assert (rep["big_height"], rep["improvement_k"]) == (137, 17)


def test_bound_trace_above_the_cover_guard_exits_2_promptly(cactus200,
                                                            capsys):
    # Case 1.2 of the trace enumerates, under the guard.
    start = time.perf_counter()
    assert main(["bound", "--trace", cactus200]) == 2
    assert time.perf_counter() - start < 10
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and \
        out.err.endswith("exceeds the enumeration guard (26)\n")


# catalog.random_cacti(2026, 300, 24)[188]: 23 vertices and 7 cycles.
# Opening cycles adds vertices, and Case 1.2 then meets a G2 of 28
# non-isolated vertices, which is over the guard.
OPENED_PAST_THE_GUARD = (
    "v0 v1 / v0 v3 / v0 v8 / v0 v9 / v1 v13 / v1 v17 / v1 v18 / v1 v2 / "
    "v1 v20 / v10 v21 / v10 v9 / v11 v12 / v11 v9 / v12 v9 / v13 v14 / "
    "v14 v15 / v15 v16 / v16 v17 / v18 v19 / v19 v20 / v2 v3 / v2 v4 / "
    "v2 v5 / v22 v9 / v4 v5 / v5 v6 / v5 v7 / v6 v7 / v8 v9")


def test_bound_trace_passes_the_guard_on_an_input_under_it(run, graph_file,
                                                           capsys):
    # ROADMAP item 14 lifts this: the trace should then answer here.
    f = graph_file("opened.txt", OPENED_PAST_THE_GUARD.replace(" / ", "\n"))
    err = input_error(["bound", "--trace", f], capsys)
    assert err == ("error: 28 non-isolated vertices exceeds the enumeration "
                   "guard (26)\n")
    rep = run(["bound", f])
    assert len(rep["graph"]["vertices"]) == 23
    assert (rep["big_height"], rep["n_cycles"], rep["bound"]) == (16, 7, 23)


def test_classify_above_the_cover_guard(run, graph_file):
    path = "".join("p%d p%d\np%d w%d\n" % (i, i + 1, i, i)
                   for i in range(99)) + "p99 w99\n"
    rep = run(["classify", graph_file("whiskered_path.txt", path)])
    assert (rep["status"], rep["stci"], rep["case"]) == ("CM", "Yes",
                                                         "Cor 4.4")
    ring = "".join("c%d c%d\nc%d w%d\n" % (i, (i + 1) % 30, i, i)
                   for i in range(30))
    rep = run(["classify", graph_file("whiskered_c30.txt", ring)])
    assert (rep["status"], rep["stci"], rep["case"]) == ("CM", "Yes",
                                                         "Thm 5.1 case 2")
    ring += "c0 x\n"
    rep = run(["classify", graph_file("mixed_c30.txt", ring)])
    assert (rep["status"], rep["case"]) == ("NotCM", "Thm 5.1")


def test_bound_improve(run, graph_file):
    f = graph_file("tri2w.txt", "a b\nb c\nc a\na aw\nb bw\n")
    rep = run(["bound", "--improve", f])
    assert rep["improvement_k"] == 1 and rep["bound"] == 3
    assert rep["source"] == "Cor 4.1"


def test_gens_lemma52_writes_certificate(run, tmp_path):
    out = str(tmp_path / "cert.json")
    rep = run(["gens", "--family", "lemma52", "--r", "1", "--s", "1",
               "--out", out])
    assert rep["count"] == 5 and rep["verified"]
    rep = run(["verify", out])
    assert rep["verified"]


def test_gens_cycle(run):
    rep = run(["gens", "--family", "cycle", "--length", "4"])
    assert rep["count"] == 3 and rep["verified"]


def test_gens_whisker(run, graph_file):
    f = graph_file("wt.txt", "a b\nb c\na aw\nb bw\nc cw\n")
    rep = run(["gens", "--family", "whisker", f, "--anchor", "a", "b"])
    assert rep["count"] == 3 and rep["verified"]


# The whisker graph of the path v3-v2-v1-v0-v4-v5, a whisker vNw at each
# vertex, anchored at v0v1 in all three families.
W_PATH = "v3 v2\nv2 v1\nv1 v0\nv0 v4\nv4 v5\n" + "".join(
    "v%d v%dw\n" % (i, i) for i in range(6))


def test_gens_whisker_on_a_whiskered_path(run, graph_file):
    f = graph_file("w.txt", W_PATH)
    rep = run(["gens", "--family", "whisker", f, "--anchor", "v0", "v1"])
    assert rep["count"] == 6 and rep["verified"]


def test_gens_lemma53_with_a_whiskered_path_at_x1(run, graph_file):
    f = graph_file("f.txt", W_PATH + "x1 v0\n")
    rep = run(["gens", "--family", "lemma53", "--attach-x1", f])
    assert rep["count"] == 9 and rep["verified"]  # 3 + 6, the big height


# The whisker graph of the path v3-v2-v1-v0-v4-v5-v6 with labels prefixed
# x1_, and x1 joined to the whisker tip of v3: lemma 5.3 case B.
ATT_X1 = "".join("x1_v%d x1_v%d\n" % e for e in
                 ((3, 2), (2, 1), (1, 0), (0, 4), (4, 5), (5, 6))) + "".join(
    "x1_v%d x1_v%dw\n" % (i, i) for i in range(7)) + "x1 x1_v3w\n"


def test_gens_lemma53_with_the_root_at_a_whisker_tip(run, graph_file):
    f = graph_file("att.txt", ATT_X1)
    rep = run(["gens", "--family", "lemma53", "--attach-x1", f])
    assert rep["count"] == 11 and rep["verified"]  # 3 + 1 + 7, big height


def test_gens_lemma54_with_a_whiskered_path_at_x1(run, graph_file):
    h = W_PATH.replace("v0", "x1").replace("v1", "a")
    rep = run(["gens", "--family", "lemma54", "--h1", graph_file("h.txt", h),
               "--h2", graph_file("g.txt", "x2 y2\n")])
    assert rep["count"] == 8 and rep["verified"]  # 6 + 1 + 1


def test_gens_svsearch(run, graph_file):
    f = graph_file("p4.txt", "a b\nb c\nc d\n")
    rep = run(["gens", "--family", "svsearch", f, "--max-layers", "2"])
    assert rep["verified"] and rep["count"] == 2


def test_gens_prop42(run, graph_file):
    f = graph_file("base.txt", "a b\n")
    rep = run(["gens", "--family", "prop42", "--base", f,
               "--attach", "a=whisker", "--attach", "b=5"])
    assert rep["count"] == 4 and rep["verified"]


def test_verify_tampered_exits_1(run, tmp_path):
    out = tmp_path / "cert.json"
    run(["gens", "--family", "cycle", "--length", "5", "--out", str(out)])
    data = json.loads(out.read_text())
    data["generators"][0][0][1] += 1  # bump a generator coefficient
    out.write_text(json.dumps(data))
    rep = run(["verify", str(out)], expect=1)
    assert not rep["verified"] and rep["reason"]


def test_classify(run, graph_file):
    f = graph_file("c5.txt", "\n".join(
        "v%d v%d" % (i, (i + 1) % 5) for i in range(5)))
    rep = run(["classify", f])
    assert rep["status"] == "CM" and rep["case"] == "Thm 5.1 case 1"
    rep = run(["classify", "--result", "cor44", graph_file("k3.txt",
                                                           "a b\nb c\nc a")])
    assert rep["status"] == "CM"


def test_classify_hypothesis_error_exits_2(run, graph_file):
    f = graph_file("c7.txt", "\n".join(
        "v%d v%d" % (i, (i + 1) % 7) for i in range(7)))
    run(["classify", "--result", "cor61", f], expect=2)


@pytest.mark.parametrize("text", ["v\n", ""], ids=["K1", "empty"])
def test_classify_cor61_on_an_edgeless_graph_exits_2(monkeypatch, capsys,
                                                     text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    err = input_error(["classify", "--result", "cor61", "-"], capsys)
    assert err == "error: hypothesis not met: graph has no edge\n"


def test_pd(run, graph_file):
    f = graph_file("c4.txt", "a b\nb c\nc d\nd a\n")
    rep = run(["pd", f])
    assert rep["pd"] == 3
    assert [1, 2, 4] in rep["betti"]  # four edges contribute beta_{1,2}


def test_bad_graph_file_exits_2(run):
    run(["covers", "/nonexistent/file.txt"], expect=2)


def test_malformed_edge_list_exits_2(run, graph_file):
    run(["covers", graph_file("bad.txt", "a a\n")], expect=2)


def test_stdin_input(run, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("a b\nb c\n"))
    rep = run(["covers", "-"])
    assert rep["height"] == 1


def test_gens_missing_arguments_exit_2(run):
    run(["gens", "--family", "whisker"], expect=2)
    run(["gens", "--family", "prop42"], expect=2)
    run(["gens", "--family", "prop42", "--base", "/nonexistent"], expect=2)



def input_error(argv, capsys):
    """Run the CLI on bad input: exit 2 with one error line, no traceback."""
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")
    assert out.err.count("\n") == 1 and "Traceback" not in out.err
    return out.err


def test_gens_non_integer_attachment_exits_2(graph_file, capsys):
    f = graph_file("base.txt", "a b\n")
    input_error(["gens", "--family", "prop42", "--base", f,
                 "--attach", "a=whisker", "--attach", "b=x"], capsys)


def test_gens_repeated_attachment_vertex_exits_2(graph_file, capsys):
    f = graph_file("base.txt", "a b\n")
    err = input_error(["gens", "--family", "prop42", "--base", f, "--attach",
                       "a=3", "--attach", "a=5", "--attach", "b=whisker"],
                      capsys)
    assert err == "error: --attach names vertex 'a' twice\n"


@pytest.mark.parametrize("length", [0, 1, 2, 6])
def test_gens_cycle_unsupported_length_exits_2(capsys, length):
    err = input_error(["gens", "--family", "cycle", "--length",
                       str(length)], capsys)
    assert err == ("error: explicit cycle constructions cover lengths 3, 4 "
                   "and 5 only (got %d)\n" % length)


@pytest.mark.parametrize("r,attachments", [
    (0, ["x1 e\ne f\ne ew\nf fw"] * 2),
    (1, ["x1 a1\na1 b1\na1 a1w\nb1 b1w"]),
], ids=["given-twice", "reuses-path-labels"])
def test_gens_lemma53_overlapping_attachments_exit_2(graph_file, capsys, r,
                                                      attachments):
    argv = ["gens", "--family", "lemma53", "--r", str(r)]
    for i, text in enumerate(attachments):
        argv += ["--attach-x1", graph_file("att%d.txt" % i, text)]
    assert input_error(argv, capsys) == "error: attachment labels collide\n"


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("generators"),
    lambda d: d.pop("steps"),
    lambda d: d.pop("edges"),
    lambda d: d.update(edges=5),
    lambda d: d.update(generators="x"),
    lambda d: d.update(isolated="zq"),
    lambda d: d.update(edges=["ab", "ac", "bc"]),
    lambda d: d.update(generators={}),
    lambda d: d.update(steps={}),
    lambda d: d["steps"].append({"kind": "sv", "rho": "x", "sum": 0}),
    lambda d: d["steps"].append({"kind": "teleport"}),
    lambda d: d["steps"].append(["sv", 0, 1]),
    lambda d: d["edges"].append(["a", 1]),
    lambda d: d["steps"].append({"kind": "sv", "rho": INF, "sum": 0}),
    lambda d: d["steps"].append({"kind": "sv", "rho": 1.9, "sum": 0}),
    lambda d: d["steps"].append({"kind": "sv", "rho": True, "sum": 0}),
    lambda d: d["steps"].append({"kind": "linear", "target": 0,
                                 "subtract": [INF]}),
    lambda d: d["steps"].append({"kind": "power", "target": [["v0", 1]],
                                 "k": INF, "combination": []}),
    lambda d: d["steps"].append({"kind": "power", "target": [["v0", 1]],
                                 "k": 1, "combination": [[[[[], 1]], INF]]}),
    lambda d: d["generators"][0][0][0][0].__setitem__(1, INF),
    lambda d: d["generators"][0][0].__setitem__(1, INF),
    lambda d: d["generators"][0][0].__setitem__(1, 1.0),
    lambda d: d["generators"][0][0][0][0].__setitem__(1, -1),
    lambda d: d["generators"][0][0].__setitem__(
        0, [["x1", 2], ["x1", -1], ["x2", 1]]),
], ids=["no-generators", "no-steps", "no-edges", "edges-int",
        "generators-str", "isolated-str", "edges-str", "generators-object",
        "steps-object", "ref-str", "unknown-kind", "step-list",
        "label-int", "ref-1e400", "ref-float", "ref-bool",
        "subtract-ref-1e400", "k-1e400", "combination-ref-1e400",
        "exponent-1e400", "coefficient-1e400", "coefficient-float",
        "exponent-negative", "exponent-negative-in-a-repeat"])
def test_verify_malformed_certificate_exits_2(run, tmp_path, capsys, mangle):
    out = tmp_path / "cert.json"
    run(["gens", "--family", "cycle", "--length", "5", "--out", str(out)])
    data = json.loads(out.read_text())
    mangle(data)
    # json writes an infinity as Infinity; put it back as the literal 1e400,
    # which json reads as a float infinity too.
    out.write_text(json.dumps(data).replace("Infinity", "1e400"))
    input_error(["verify", str(out)], capsys)


@pytest.mark.parametrize("mangle", [
    lambda d: d["generators"][0][0][0].reverse(),
    lambda d: d["steps"][0]["combination"][2][0][0].__setitem__(
        0, [["x5", 1], ["x5", 1]]),
    lambda d: d["generators"][0][0][0].append(["x9", 0]),
], ids=["reversed", "repeated", "zero"])
def test_verify_reads_any_written_form_of_a_monomial(run, tmp_path, mangle):
    # x2*x1 for x1*x2, x5*x5 for x5^2, and x1*x2*x9^0 are the same monomials.
    out = tmp_path / "cert.json"
    run(["gens", "--family", "cycle", "--length", "5", "--out", str(out)])
    data = json.loads(out.read_text())
    mangle(data)
    out.write_text(json.dumps(data))
    assert run(["verify", str(out)])["verified"]


def test_verify_caps_power_step_work(run, tmp_path):
    # One edge, a generator of n terms and a power step whose coefficient
    # has n terms: n * n = 2,560,000 distinct products to multiply out.
    n = 1600
    data = {"edges": [["x1", "x2"]],
            "generators": [[[[["x1", 1], ["x2", 1], ["y%d" % i, 1]], 1]
                            for i in range(n)]],
            "steps": [{"kind": "power", "target": [["x1", 1], ["x2", 1]],
                       "k": 1, "combination": [[[[[["z%d" % j, 1]], 1]
                                                 for j in range(n)], 0]]}]}
    _verify_fails_fast(run, tmp_path, data, 2)


def _verify_fails_fast(run, tmp_path, data, seconds):
    out = tmp_path / "cert.json"
    out.write_text(json.dumps(data))
    start = time.perf_counter()
    rep = run(["verify", str(out)], expect=1)
    assert time.perf_counter() - start < seconds
    assert not rep["verified"] and "monomial products" in rep["reason"]


def test_verify_caps_linear_step_work(run, tmp_path):
    # n unit generators x1*x2*y_i subtracted from a generator of n terms
    # x1*x2*z_j: n * n = 4,000,000 divisibility tests (a 180 KB file).
    n = 2000
    data = {"edges": [["x1", "x2"]],
            "generators": [[[[["x1", 1], ["x2", 1], ["y%d" % i, 1]], 1]]
                           for i in range(n)]
            + [[[[["x1", 1], ["x2", 1], ["z%d" % j, 1]], 1]
                for j in range(n)]],
            "steps": [{"kind": "linear", "target": n,
                       "subtract": list(range(n))}]}
    _verify_fails_fast(run, tmp_path, data, 1)


def test_verify_weighs_power_step_products_by_size(run, tmp_path):
    # 316 * 316 = 99,856 products, fewer than the 100,000 products that the
    # budget once counted, but each joins two monomials of about 300
    # variables (a 3 MB file).
    n, width = 316, 298
    shared = [["vertex%d" % k, 1] for k in range(width)]
    data = {"edges": [["x1", "x2"]],
            "generators": [[[[["x1", 1], ["x2", 1], ["y%d" % i, 1]] + shared,
                             1] for i in range(n)]],
            "steps": [{"kind": "power", "target": [["x1", 1], ["x2", 1]],
                       "k": 1,
                       "combination": [[[[[["z%d" % j, 1]] + shared, 1]
                                         for j in range(n)], 0]]}]}
    assert len(json.dumps(data)) > 3_000_000
    _verify_fails_fast(run, tmp_path, data, 2)


def test_verify_containment_needs_no_scan_of_the_edges(run, tmp_path):
    # n edges a_i*b_i and one generator of n terms a_i*b_i*z_i: each term is
    # tested against its own variables, not against all n edges (n * n =
    # 16,000,000 divisibility tests, a 270 KB file).
    n = 4000
    data = {"edges": [["a%d" % i, "b%d" % i] for i in range(n)],
            "generators": [[[[["a%d" % i, 1], ["b%d" % i, 1],
                              ["z%d" % i, 1]], 1] for i in range(n)]],
            "steps": []}
    out = tmp_path / "cert.json"
    out.write_text(json.dumps(data))
    start = time.perf_counter()
    rep = run(["verify", str(out)], expect=1)
    assert time.perf_counter() - start < 3
    assert rep["failed_step"] == -1
    assert rep["reason"].startswith("edge monomials not established")


def test_verify_reports_a_failed_sv_step_with_huge_exponents(run, tmp_path):
    # y^e * y^e has an exponent of 4,301 digits, past the int-to-str limit;
    # the reason names the two factors instead of their product
    e = 9 * 10 ** 4299
    data = {"edges": [["x1", "x2"]],
            "generators": [[[[["w", 1], ["x1", 1], ["x2", 1]], 1]],
                           [[[["x1", 1], ["x2", 1], ["y", e]], 1],
                            [[["x1", 1], ["x2", 1], ["y", e], ["z", 1]], 1]]],
            "steps": [{"kind": "sv", "rho": 0, "sum": 1}]}
    out = tmp_path / "cert.json"
    out.write_text(json.dumps(data))
    rep = run(["verify", str(out)], expect=1)
    assert rep["failed_step"] == 0 and "does not divide" in rep["reason"]


@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,
    '{"edges": [], "generators": [], "steps": [], "x": %s}' % ("9" * 5000),
], ids=["nested-200000-deep", "integer-5000-digits"])
def test_verify_unreadable_json_exits_2(tmp_path, capsys, text):
    out = tmp_path / "cert.json"
    out.write_text(text)
    input_error(["verify", str(out)], capsys)


def test_verify_non_object_certificate_exits_2(tmp_path, capsys):
    out = tmp_path / "cert.json"
    out.write_text("[1, 2, 3]")
    input_error(["verify", str(out)], capsys)


@pytest.mark.parametrize("edge,term", [
    (["5", "6"], [[5, 1], [6, 1]]),
    (["['a']", "b"], [[["a"], 1], ["b", 1]]),
], ids=["number", "list"])
def test_verify_refuses_a_variable_that_is_not_a_string(run, tmp_path,
                                                         capsys, edge, term):
    # Converted with str(), each of these would name the edge's ends and
    # verify.  The string form of the same certificate verifies.
    out = tmp_path / "cert.json"
    data = {"edges": [edge], "isolated": [], "steps": [],
            "generators": [[[term, 1]]]}
    out.write_text(json.dumps(data))
    err = input_error(["verify", str(out)], capsys)
    assert "expected a variable name" in err
    data["generators"] = [[[[[v, 1] for v in edge], 1]]]
    out.write_text(json.dumps(data))
    assert run(["verify", str(out)])["verified"]


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_non_utf8_input_exits_2(tmp_path, capsys, command):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"\xff\xfe a b\n")
    input_error([command, str(f)], capsys)


def test_gens_svsearch_layer_cap_below_one_exits_2(graph_file, capsys):
    f = graph_file("p4.txt", "a b\nb c\nc d\n")
    input_error(["gens", "--family", "svsearch", f, "--max-layers", "0"],
                capsys)


def test_gens_svsearch_cap_below_big_height_exits_2(graph_file, capsys):
    f = graph_file("p4.txt", "a b\nb c\nc d\n")  # big height 2
    assert main(["gens", "--family", "svsearch", f, "--max-layers", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: no layering within 1 layers found\n"


def test_gens_svsearch_above_the_cover_guard(run, graph_file):
    # A 14-edge perfect matching has 28 vertices, above the cover guard; the
    # cover DP still gives the search its big-height floor of 14.
    f = graph_file("matching.txt", "".join("a%d b%d\n" % (i, i)
                                           for i in range(14)))
    rep = run(["gens", "--family", "svsearch", f])
    assert rep["verified"] and rep["count"] == 14


# -- the report frame and the exit code, set once in main ---------------


def test_every_report_carries_its_command_and_graph(run, graph_file,
                                                    tmp_path):
    f = graph_file("tri.txt", "a b\nb c\nc a\n")
    for command in ("analyze", "covers", "bound", "classify", "pd"):
        rep = run([command, f])
        assert rep["command"] == command
        assert rep["graph"] == {"vertices": ["a", "b", "c"],
                                "edges": [["a", "b"], ["a", "c"], ["b", "c"]]}
    cert = str(tmp_path / "cert.json")
    made = run(["gens", "--family", "cycle", "--length", "3", "--out", cert])
    checked = run(["verify", cert])
    assert (made["command"], checked["command"]) == ("gens", "verify")
    assert made["graph"] == checked["graph"] == {
        "vertices": ["x1", "x2", "x3"],
        "edges": [["x1", "x2"], ["x1", "x3"], ["x2", "x3"]]}


def _without_the_last_step(length, gens_cycle=constructions.gens_cycle):
    gs, cert = gens_cycle(length)
    return gs, Certificate(cert.steps[:-1])


def test_gens_and_verify_exit_1_exactly_on_a_failed_certificate(
        run, tmp_path, monkeypatch):
    out = str(tmp_path / "cert.json")
    for code in (0, 1):
        if code:
            monkeypatch.setattr(constructions, "gens_cycle",
                                _without_the_last_step)
        for argv in (["gens", "--family", "cycle", "--out", out],
                     ["verify", out]):
            rep = run(argv, expect=code)
            assert rep["verified"] is (code == 0)
            assert bool(rep["reason"]) is (code == 1)


def _triangle_chain(n):
    """n triangles, each sharing one vertex with the next: the Theorem 3.4
    trace nests one proof step per triangle it opens."""
    return "".join("t%d t%d\nt%d t%d\nt%d t%d\n"
                   % (i, i + 1, i + 1, i + 2, i, i + 2)
                   for i in range(0, 2 * n, 2))


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_input_too_deep_for_the_recursion_limit_exits_2(graph_file, capsys):
    f = graph_file("chain.txt", _triangle_chain(150))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        err = input_error(["bound", "--trace", f], capsys)
    finally:
        sys.setrecursionlimit(limit)
    assert err == "error: input too deep for the recursion limit\n"


# Each input check of a generator family that the CLI reaches; "@name" is
# the file GENS_FILES[name].
GENS_FILES = {"p3": "p0 p1\np1 p2\n", "ab": "a b\n",
              "c5": "".join("c%d c%d\n" % (i, (i + 1) % 5) for i in range(5)),
              "x1-twice": "x1 e\nx1 f\ne ew\nf fw\n", "x1-alone": "x1\n",
              "h1": "x1 y1\n", "h2": "x2 y2\n", "h2-holds-y1": "x2 y1\n",
              "h2-holds-x3": "x2 x3\n"}


@pytest.mark.parametrize("argv,error", [
    ("lemma52 --r -1", "r and s must be nonnegative"),
    ("whisker @p3 --anchor p0 p1", "graph is not a whisker tree"),
    ("prop42 --base @ab --attach a=whisker --attach b=6",
     "cycle length 6 not supported (only 3, 4, 5)"),
    ("prop42 --base @c5" + "".join(" --attach c%d=whisker" % i
                                   for i in range(5)),
     "no 5-layer generator set found for the whisker graph"),
    ("lemma53 --attach-x1 @x1-twice",
     "root must have exactly one neighbour in the attachment"),
    ("lemma54 --h1 @x1-alone --h2 @h2",
     "attachment at 'x1' must be a non-empty graph containing it"),
    ("lemma54 --h1 @h1 --h2 @h2-holds-y1",
     "attached trees must be vertex-disjoint"),
    ("lemma54 --h1 @h1 --h2 @h2-holds-x3",
     "x3/x4 cannot appear in the attachments"),
], ids=["lemma52-negative", "whisker-not-a-whisker-tree", "prop42-length-6",
        "prop42-search-budget", "lemma53-root-twice", "lemma54-empty",
        "lemma54-overlap", "lemma54-x3"])
def test_gens_input_checks_exit_2(graph_file, capsys, argv, error):
    argv = ["gens", "--family"] + [
        graph_file(a[1:] + ".txt", GENS_FILES[a[1:]]) if a[0] == "@" else a
        for a in argv.split()]
    assert input_error(argv, capsys) == "error: %s\n" % error


@pytest.mark.parametrize("generators,step,reason", [
    ([[[[["x1", 1], ["x2", 1]], 1]]], {"kind": "sv", "rho": 0, "sum": 0},
     "sum_ref does not have two terms"),
    ([[[[["x1", 1], ["x2", 1], ["y", 1]], 1],
       [[["x1", 1], ["x2", 1], ["z", 1]], 1]],
      [[[["x1", 1], ["x2", 1]], 1]]],
     {"kind": "linear", "target": 1, "subtract": [0]},
     "subtract ref 0 is not a unit monomial"),
], ids=["sv-sum-of-one-term", "linear-subtracts-a-binomial"])
def test_verify_rejects_a_ref_of_the_wrong_shape_with_exit_1(
        run, tmp_path, generators, step, reason):
    out = tmp_path / "cert.json"
    out.write_text(json.dumps({"edges": [["x1", "x2"]],
                               "generators": generators, "steps": [step]}))
    rep = run(["verify", str(out)], expect=1)
    assert (rep["failed_step"], rep["reason"]) == (0, reason)


# -- fuzzing verify: every certificate file gets exit 0, 1 or 2 ----------


BASE_CERTIFICATES = [certified_set_to_data(*c) for c in (
    constructions.gens_cycle(5), constructions.gens_lemma52(1, 1),
    constructions.gens_prop42(Graph.build([("a", "b")]),
                              {"a": constructions.WHISKER, "b": 4}))]
HUGE = [10 ** 4299, -10 ** 4299, 2 ** 64, 10 ** 9, -1, 0, 1, 2]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from(HUGE)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _slots(node):
    """Every (container, key) slot of a JSON tree, each parent's before its
    children's."""
    out = []
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        out.extend(_slots(child))
    return out


def _mutate(data, draw):
    """One structural mutation of a serialized certificate."""
    slots = _slots(data)
    if not slots:
        return
    node, key = slots[draw(st.integers(0, len(slots) - 1))]
    how = draw(st.sampled_from(["replace", "delete", "extra-key", "kind",
                                "ref"]))
    if how == "replace":
        node[key] = draw(JSON_VALUES)
    elif how == "delete":
        del node[key]
    elif how == "extra-key":
        target = node[key] if isinstance(node[key], dict) else data
        target[draw(st.sampled_from(["kind", "rho", "sum", "target", "k",
                                     "subtract", "combination", "isolated",
                                     "extra"]))] = draw(JSON_VALUES)
    elif how == "kind":
        steps = data.get("steps")
        if isinstance(steps, list) and steps and isinstance(steps[-1], dict):
            steps[-1]["kind"] = draw(st.sampled_from(
                ["sv", "linear", "power", "teleport", "", 0]))
    else:
        node[key] = draw(st.integers(-3, 60) | st.sampled_from(HUGE))


def _grow(data, draw):
    """A huge size: the first element of one list repeated up to 1,000 times
    (once per example, so that repeats do not multiply)."""
    lists = [(node, key) for node, key in _slots(data)
             if isinstance(node[key], list) and node[key]]
    if lists:
        node, key = lists[draw(st.integers(0, len(lists) - 1))]
        node[key] = node[key] + node[key][:1] * draw(st.integers(1, 1000))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_verify_survives_mutated_certificates(tmp_path_factory, data):
    cert = copy.deepcopy(data.draw(st.sampled_from(BASE_CERTIFICATES)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(cert, data.draw)
    if data.draw(st.booleans()):
        _grow(cert, data.draw)
    path = tmp_path_factory.mktemp("fuzz") / "cert.json"
    path.write_text(json.dumps(cert))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    assert time.perf_counter() - start < 10
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["verified"] == (code == 0)
