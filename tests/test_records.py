"""The record contract: every record is a namedtuple subclass whose hash is
that of its field tuple, validated or canonicalised in `__new__`, with its
own default dicts, and refusing what the tuple base would otherwise allow
(concatenation, repetition, cross-type equality, attribute assignment)."""

import ast
import copy
import pathlib
import pickle

import pytest

import edgeideals
from edgeideals import bounds, covers
from edgeideals.bounds import BoundReport, TraceNode
from edgeideals.certificates import (Certificate, GeneratorSet, LinearStep,
                                     PowerStep, SVStep, Verdict, step_to_data,
                                     verify_certificate)
from edgeideals.classify import CM, NOT_CM, CmVerdict
from edgeideals.covers import CoverStats, MinimalCover
from edgeideals.graphs import Graph, GraphError
from edgeideals.homology import BettiTable
from edgeideals.polynomials import ONE, Monomial, Polynomial

from conftest import BOWTIE, TRIANGLE

SRC = pathlib.Path(edgeideals.__file__).parent

AB = Monomial.of("a", "b")
BC = Monomial.of("b", "c")


def _hashable_records():
    """One instance of each of the 12 records without a dict field."""
    stats = covers.cover_stats(BOWTIE)
    return [
        TRIANGLE,
        stats.all_covers[0],
        stats,
        bounds.theorem34_bound(BOWTIE),
        AB,
        Polynomial.of(AB, BC),
        GeneratorSet(TRIANGLE, (Polynomial.of(AB),)),
        SVStep(0, 1),
        LinearStep(0, (1, 2)),
        PowerStep(AB, 2, ((Polynomial.term(AB), 0),)),
        Certificate((SVStep(0, 1),)),
        Verdict(False, 3, "why"),
    ]


def test_every_record_is_a_namedtuple_subclass():
    records = _hashable_records() + [
        TraceNode(TRIANGLE, "t", 0), CmVerdict(CM), BettiTable()]
    assert len({type(r) for r in records}) == 15
    for r in records:
        assert isinstance(r, tuple) and r._fields, type(r).__name__


@pytest.mark.parametrize("record", _hashable_records(),
                         ids=lambda r: type(r).__name__)
def test_record_hash_is_the_hash_of_its_field_tuple(record):
    # what keeps set and dict orders, and so the certificates, unchanged
    assert hash(record) == hash(tuple(record))
    assert tuple(record) == tuple(getattr(record, f) for f in record._fields)


def test_default_dicts_are_not_shared():
    a, b = TraceNode(TRIANGLE, "a", 0), TraceNode(TRIANGLE, "b", 0)
    assert a.detail == {} and a.detail is not b.detail
    assert a.cover_numbers is not b.cover_numbers
    assert a.cover_numbers is not a.detail
    assert CmVerdict(NOT_CM).evidence is not CmVerdict(NOT_CM).evidence
    assert BettiTable().entries is not BettiTable().entries
    assert BettiTable() == ({}, 0)


def test_defaults_and_keywords():
    assert Graph() == ((), frozenset())
    assert Certificate().steps == () and ONE.exps == ()
    assert Verdict(True) == (True, -1, "")
    v = CmVerdict(CM, stci="Yes", case_tag="Cor 4.4")
    assert (v.status, v.stci, v.case_tag, v.evidence) == (
        CM, "Yes", "Cor 4.4", {})
    r = BoundReport(1, 2, 2, improvement_k=1)
    assert (r.source, r.stci) == ("Thm 3.4", False)


def test_validation_runs_in_new():
    with pytest.raises(GraphError):
        Graph(("b", "a"))
    with pytest.raises(GraphError):
        Graph(("a", "b"), frozenset({("b", "a")}))
    with pytest.raises(AssertionError):
        BoundReport(1, 2, 4)
    with pytest.raises(AssertionError):
        BoundReport(1, 2, 0, improvement_k=3)
    with pytest.raises(AssertionError):
        CmVerdict("Not CM", "Yes", "x")


def test_polynomial_canonicalises_in_new():
    p = Polynomial(((BC, 1), (AB, 2), (BC, -1), (ONE, 0), (AB, 1)))
    assert p.terms == ((AB, 3),)
    assert Polynomial.__new__(Polynomial, ((AB, 1), (AB, -1))).terms == ()
    assert p == Polynomial.term(AB, 3) and hash(p) == hash((p.terms,))


def test_step_to_data_tells_the_step_kinds_apart():
    # SVStep and LinearStep are both pairs, and a plain tuple is no step
    steps = [SVStep(0, 1), LinearStep(0, (1,)),
             PowerStep(AB, 2, ((Polynomial.term(ONE), 0),))]
    assert [step_to_data(s)["kind"] for s in steps] == [
        "sv", "linear", "power"]
    with pytest.raises(TypeError):
        step_to_data((0, 1))
    gs = GeneratorSet(TRIANGLE, (Polynomial.of(AB),))
    v = verify_certificate(gs, Certificate(((0, 1),)))
    assert (v.ok, v.failed_step, v.reason) == (
        False, 0, "unknown step kind 'tuple'")


def test_monomial_refuses_concatenation_and_repetition():
    with pytest.raises(TypeError):
        AB + BC
    with pytest.raises(TypeError):
        2 * AB
    assert AB * BC == Monomial.of("a", "b", "b", "c")


def test_polynomial_equals_only_polynomials():
    zero = Polynomial()
    assert tuple(zero) == tuple(ONE) == ((),)
    assert not zero == ONE and zero != ONE
    p = Polynomial.term(AB)
    assert zero != ((),) and p != tuple(p) and not p == tuple(p)
    assert zero == Polynomial() and not zero != Polynomial()
    assert len({zero, ONE}) == 2


def test_one_and_the_zero_polynomial_compare_as_they_stand():
    # Both are the tuple ((),).  With the Monomial on the left the tuples
    # are compared; with the Polynomial on the left the type is checked.
    # No path compares the two (ROADMAP item 18); pinned so that a change
    # to either side shows.
    assert (ONE == Polynomial()) is True
    assert (Polynomial() == ONE) is False


def test_truthiness_keeps_each_record_rule():
    assert not Verdict(False) and Verdict(True)
    empty = GeneratorSet(TRIANGLE, ())
    assert not empty and len(empty) == 0
    assert len(covers.cover_stats(BOWTIE).all_covers[0]) == 3


def test_graph_and_cover_stats_refuse_assignment():
    g = Graph.build([("a", "b"), ("b", "c")])
    stats = covers.cover_stats(g)
    for record, name in [(g, "masks"), (g, "vertices"), (g, "label"),
                         (stats, "height"), (stats, "all_covers")]:
        with pytest.raises(AttributeError):
            setattr(record, name, ())
        with pytest.raises(AttributeError):
            delattr(record, name)
    # cached_property writes the instance dict past __setattr__
    assert g.masks == (2, 5, 2) and vars(g)["masks"] is g.masks
    assert stats.all_covers is stats.all_covers


def test_slotted_records_have_no_instance_dict():
    for r in _hashable_records():
        if type(r) not in (Graph, CoverStats):
            assert not hasattr(r, "__dict__"), type(r).__name__
            with pytest.raises(AttributeError):
                r.extra = 1


def test_cover_stats_repr_leaves_out_graph_and_masks():
    assert repr(covers.cover_stats(TRIANGLE)) == \
        "CoverStats(height=2, big_height=2, unmixed=True)"
    assert repr(AB) == "Monomial(exps=(('a', 1), ('b', 1)))"
    assert repr(Graph.build([("a", "b")])) == \
        "Graph(vertices=('a', 'b'), edges=frozenset({('a', 'b')}))"


def test_records_survive_pickle_and_deepcopy():
    g = Graph.build([("a", "b"), ("b", "c")])
    g.masks  # a cached value rides along in the instance dict
    for r in [g, MinimalCover(frozenset("b")), Polynomial.of(AB, BC),
              TraceNode(g, "t", 1, detail={"x": 1})]:
        for back in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
            assert type(back) is type(r) and back == r


def test_no_module_calls_make_or_replace():
    # both build a record with tuple.__new__, past the checks in __new__
    tests = pathlib.Path(__file__).resolve().parent
    used = ["%s:%d" % (path.name, node.lineno)
            for path in sorted(SRC.glob("*.py")) + sorted(tests.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and node.attr in ("_make", "_replace")]
    assert used == []
