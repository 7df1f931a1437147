"""Certificate verification: sound on hand-built certificates, rejects every
kind of malformed step, and fails under tampering."""

import pytest
from hypothesis import given, settings, strategies as st

from edgeideals import certificates, covers
from edgeideals.certificates import (CertBuilder, Certificate, GeneratorSet,
                                     LinearStep, PowerStep, SVStep,
                                     certified_set_from_data,
                                     certified_set_to_data, step_from_data,
                                     step_to_data, verify_certificate)
from edgeideals.graphs import Graph
from edgeideals.polynomials import Monomial, Polynomial

from conftest import bump_coefficient, coefficient_paths


def _m(*vs):
    return Monomial.of(*vs)


def _p(*vs):
    return Polynomial.term(Monomial.of(*vs))


def test_single_edge_axiom():
    g = Graph.build([("a", "b")])
    gs = GeneratorSet(g, (_p("a", "b"),))
    assert verify_certificate(gs, Certificate()).ok


def test_triangle_sv_certificate():
    g = Graph.build([("a", "b"), ("b", "c"), ("a", "c")])
    b = CertBuilder(g)
    r0 = b.gen(_p("a", "b"))
    r1 = b.gen(_p("b", "c") + _p("a", "c"))
    b.sv(r0, r1)
    gs, cert = b.result()
    v = verify_certificate(gs, cert)
    assert v.ok and bool(v)


def test_containment_rejected():
    g = Graph.build([("a", "b")])
    gs = GeneratorSet(g, (_p("a", "c"),))  # ac is not in the edge ideal
    v = verify_certificate(gs, Certificate())
    assert not v.ok and v.failed_step == -1
    assert "not divisible" in v.reason


@st.composite
def graphs_and_terms(draw):
    """A graph on v0..v5 and monomials over its vertices and two others."""
    labels = ["v%d" % i for i in range(6)]
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
    g = Graph.build([p for p in pairs if draw(st.booleans())],
                    isolated=labels)
    variables = st.sampled_from(labels + ["w0", "w1"])
    terms = st.dictionaries(variables, st.integers(1, 3), max_size=5)
    return g, [Monomial.from_dict(d) for d in draw(st.lists(terms,
                                                              max_size=4))]


@settings(max_examples=150, deadline=None)
@given(graphs_and_terms())
def test_containment_matches_edge_divisibility(case):
    # a term passes iff some edge monomial divides it
    g, terms = case
    edges = [Monomial.of(u, v) for u, v in g.edges]
    for m in terms:
        v = verify_certificate(GeneratorSet(g, (Polynomial.term(m),)),
                               Certificate())
        assert ("not divisible" not in v.reason) == \
            any(e.divides(m) for e in edges), (m, g.sorted_edges())


def test_containment_probes_are_charged(monkeypatch):
    # a star around a: each of the 5 terms a*b_i*w costs 1 + 3 units plus
    # min(degree, 3) per vertex among its variables (3 + 1 + 0), 8 in all
    g = Graph.build([("a", "b%d" % i) for i in range(5)])
    gs = GeneratorSet(g, (Polynomial(tuple((_m("a", "b%d" % i, "w"), 1)
                                           for i in range(5))),))
    monkeypatch.setattr(certificates, "_MAX_TERM_WORK", 39)
    v = verify_certificate(gs, Certificate())
    assert not v.ok and v.failed_step == -1 and "units" in v.reason
    monkeypatch.setattr(certificates, "_MAX_TERM_WORK", 40)
    v = verify_certificate(gs, Certificate())
    assert "not established" in v.reason


def test_zero_generator_rejected():
    g = Graph.build([("a", "b")])
    gs = GeneratorSet(g, (Polynomial.zero(),))
    assert not verify_certificate(gs, Certificate()).ok


def test_missing_edge_monomial_rejected():
    g = Graph.build([("a", "b"), ("b", "c")])
    gs = GeneratorSet(g, (_p("a", "b"),))
    v = verify_certificate(gs, Certificate())
    assert not v.ok
    assert "not established" in v.reason


def test_sv_step_divisibility_enforced():
    g = Graph.build([("a", "b"), ("c", "d"), ("a", "c"), ("b", "d")])
    gs = GeneratorSet(g, (_p("a", "b"), _p("c", "d") + _p("a", "c"),
                          _p("b", "d")))
    # ab does not divide (cd)(ac).
    v = verify_certificate(gs, Certificate((SVStep(0, 1),)))
    assert not v.ok and v.failed_step == 0
    assert "does not divide" in v.reason


def test_sv_step_needs_two_unit_terms():
    g = Graph.build([("a", "b"), ("b", "c"), ("a", "c")])
    gs = GeneratorSet(g, (_p("a", "b"),
                          2 * _p("b", "c") + _p("a", "c")))
    v = verify_certificate(gs, Certificate((SVStep(0, 1),)))
    assert not v.ok and "units" in v.reason


def test_linear_step():
    g = Graph.build([("a", "b"), ("b", "c")])
    gs = GeneratorSet(g, (_p("a", "b"), _p("a", "b") + _p("b", "c")))
    v = verify_certificate(gs, Certificate((LinearStep(1, (0,)),)))
    assert v.ok


def test_linear_step_bad_remainder():
    g = Graph.build([("a", "b"), ("b", "c"), ("c", "d")])
    gs = GeneratorSet(g, (_p("a", "b"),
                          _p("a", "b") + _p("b", "c") + _p("c", "d")))
    v = verify_certificate(gs, Certificate((LinearStep(1, (0,)),)))
    assert not v.ok and "remainder" in v.reason


def test_power_step_exact_identity():
    # (bc)^2 = bc*(bc + ac) - bc*(ac), with ac established by an SV step.
    g = Graph.build([("a", "b"), ("b", "c"), ("a", "c")])
    b = CertBuilder(g)
    r0 = b.gen(_p("a", "b"))
    r1 = b.gen(_p("b", "c") + _p("a", "c"))
    r_ac, _ = b.sv(r0, r1)  # terms come back in canonical order: ac, bc
    b.power(_m("b", "c"), 2, [(Polynomial.term(_m("b", "c")), r1),
                              (Polynomial.term(_m("b", "c"), -1), r_ac)])
    gs, cert = b.result()
    assert verify_certificate(gs, cert).ok


def test_power_step_wrong_identity_fails():
    g = Graph.build([("a", "b"), ("b", "c"), ("a", "c")])
    gs = GeneratorSet(g, (_p("a", "b"), _p("b", "c") + _p("a", "c")))
    step = PowerStep(_m("b", "c"), 2,
                     ((Polynomial.term(_m("b", "c")), 1),))
    v = verify_certificate(gs, Certificate((step,)))
    assert not v.ok and "does not hold" in v.reason


def test_power_step_rejects_nonpositive_power():
    g = Graph.build([("a", "b")])
    gs = GeneratorSet(g, (_p("a", "b"),))
    step = PowerStep(_m("a", "b"), 0, ())
    assert not verify_certificate(gs, Certificate((step,))).ok


def test_reference_out_of_range():
    g = Graph.build([("a", "b"), ("b", "c"), ("a", "c")])
    gs = GeneratorSet(g, (_p("a", "b"), _p("b", "c") + _p("a", "c")))
    v = verify_certificate(gs, Certificate((SVStep(0, 7),)))
    assert not v.ok and "out of range" in v.reason


def test_builder_rejects_gens_after_steps():
    g = Graph.build([("a", "b"), ("b", "c"), ("a", "c")])
    b = CertBuilder(g)
    r0 = b.gen(_p("a", "b"))
    r1 = b.gen(_p("b", "c") + _p("a", "c"))
    b.sv(r0, r1)
    with pytest.raises(ValueError):
        b.gen(_p("a", "c"))


def test_step_serialization_round_trip(certificate_corpus):
    for _name, _gs, cert in certificate_corpus:
        for step in cert.steps:
            assert step_from_data(step_to_data(step)) == step


def test_certified_set_round_trip(certificate_corpus):
    for _name, gs, cert in certificate_corpus:
        gs2, cert2 = certified_set_from_data(certified_set_to_data(gs, cert))
        assert gs2 == gs and cert2 == cert
        assert verify_certificate(gs2, cert2).ok


def test_corpus_verifies_and_meets_count_bound(certificate_corpus):
    for name, gs, cert in certificate_corpus:
        assert verify_certificate(gs, cert).ok, name
        assert len(gs) >= covers.big_height(gs.graph), name


def test_every_coefficient_bump_fails(certificate_corpus):
    """Exhaustive single-field tampering over the whole corpus."""
    for name, gs, cert in certificate_corpus:
        data = certified_set_to_data(gs, cert)
        for path in coefficient_paths(data):
            tampered = certified_set_from_data(bump_coefficient(data, path))
            v = verify_certificate(*tampered)
            assert not v.ok, (name, path)
