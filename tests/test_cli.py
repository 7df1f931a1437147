"""Command-line interface: subcommand reports, exit codes, certificate
files, and error rendering."""

import contextlib
import copy
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from edgeideals import constructions
from edgeideals.certificates import certified_set_to_data
from edgeideals.cli import main
from edgeideals.graphs import Graph

INF = float("inf")


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


def test_gens_non_integer_attachment_exits_2(graph_file, capsys):
    f = graph_file("base.txt", "a b\n")
    input_error(["gens", "--family", "prop42", "--base", f,
                 "--attach", "a=whisker", "--attach", "b=x"], capsys)


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("generators"),
    lambda d: d.pop("steps"),
    lambda d: d.pop("edges"),
    lambda d: d.update(edges=5),
    lambda d: d.update(generators="x"),
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
        "generators-str", "ref-str", "unknown-kind", "step-list",
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


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_non_utf8_input_exits_2(tmp_path, capsys, command):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"\xff\xfe a b\n")
    input_error([command, str(f)], capsys)


def test_gens_svsearch_layer_cap_below_one_exits_2(graph_file, capsys):
    f = graph_file("p4.txt", "a b\nb c\nc d\n")
    input_error(["gens", "--family", "svsearch", f, "--max-layers", "0"],
                capsys)


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
