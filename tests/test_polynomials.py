"""Exact sparse polynomial arithmetic: canonical forms, ring identities,
and bit-exact serialization."""

import pytest
from hypothesis import given, strategies as st

from edgeideals.polynomials import (ONE, Monomial, PolyError, Polynomial,
                                    monomial_from_data, monomial_to_data,
                                    poly_from_data, poly_to_data)


def test_monomial_canonical_form():
    assert Monomial.of("b", "a") == Monomial.of("a", "b")
    assert Monomial.of("x", "x") == Monomial.from_dict({"x": 2})
    assert Monomial.from_dict({"x": 0, "y": 1}) == Monomial.of("y")
    with pytest.raises(PolyError):
        Monomial.from_dict({"x": -1})


def test_monomial_arithmetic():
    xy = Monomial.of("x", "y")
    assert xy * Monomial.of("x") == Monomial.of("x", "x", "y")
    assert xy ** 2 == Monomial.from_dict({"x": 2, "y": 2})
    assert xy ** 0 == ONE
    assert Monomial.of("x").divides(xy)
    assert not xy.divides(Monomial.of("x"))
    assert xy / Monomial.of("y") == Monomial.of("x")
    with pytest.raises(PolyError):
        Monomial.of("x") / xy


def test_monomial_str():
    assert str(Monomial.of("x", "y")) == "x*y"
    assert str(Monomial.of("x", "x")) == "x^2"
    assert str(ONE) == "1"


def test_polynomial_canonicalization():
    p = Polynomial(((Monomial.of("x"), 1), (Monomial.of("x"), -1)))
    assert p.is_zero
    q = Polynomial.of(Monomial.of("a"), Monomial.of("a"))
    assert q.terms == ((Monomial.of("a"), 2),)


def test_one_term_canonical_form():
    x = Monomial.of("x")
    assert Polynomial.term(x, 0).is_zero
    assert Polynomial.term(x, 0) == Polynomial() == Polynomial([(x, 0)])
    p = Polynomial([[x, 3]])  # a list of one list term
    assert type(p.terms) is tuple and p.terms == ((x, 3),)
    assert hash(p) == hash(Polynomial.term(x, 3))


@given(st.lists(st.tuples(st.sampled_from(["x1", "x2", "y"]),
                          st.integers(min_value=0, max_value=2)), max_size=3),
       st.integers(min_value=-3, max_value=3))
def test_one_term_fast_path_matches_a_sum_of_terms(pairs, c):
    # Polynomial.term skips the merge and sort; sums of several terms that
    # come to the same one go through them.
    m, z = Monomial.from_dict(dict(pairs)), Monomial.of("z")
    fast = Polynomial.term(m, c)
    for slow in (Polynomial.term(m, c - 1) + Polynomial.term(m, 1),
                 Polynomial.term(m, c) + Polynomial.term(z) - Polynomial.of(z)):
        assert fast == slow and hash(fast) == hash(slow)
        assert fast.terms == slow.terms


def test_from_dict_drops_zero_exponents_and_checks_each_exponent():
    assert Monomial.from_dict({"y": 0, "x": 2, "z": 0}).exps == (("x", 2),)
    assert Monomial.from_dict({"x": 0}) == ONE
    for bad, culprit in (({"a": 1, "b": -1, "c": 1.5}, "-1 for 'b'"),
                         ({"a": 1.5, "b": -1}, "1.5 for 'a'"),
                         ({"a": 0, "b": "2"}, "'2' for 'b'")):
        with pytest.raises(PolyError, match=culprit):
            Monomial.from_dict(bad)


def test_polynomial_ring_identities():
    x, y = Polynomial.term(Monomial.of("x")), Polynomial.term(Monomial.of("y"))
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) * (x + y) == x * x + 2 * x * y + y * y
    assert x * 0 == Polynomial()
    assert -(x - y) == y - x


def test_scalar_and_monomial_multiplication():
    p = Polynomial.of(Monomial.of("a"), Monomial.of("b"))
    assert 3 * p == p + p + p
    assert p * Monomial.of("c") == Polynomial.of(Monomial.of("a", "c"),
                                                 Monomial.of("b", "c"))


def test_single_term_and_coefficient():
    p = Polynomial.term(Monomial.of("x"), -1)
    assert p.single_term == (Monomial.of("x"), -1)
    q = p + Polynomial.term(Monomial.of("y"))
    assert q.single_term is None
    assert q.terms == ((Monomial.of("x"), -1), (Monomial.of("y"), 1))


def test_edge_monomial():
    # the edge monomial x_u x_v is Monomial.of(u, v), in either order
    m = Monomial.of("v", "u")
    assert m == Monomial.of("u", "v") == Monomial.of("u") * Monomial.of("v")
    assert m.exps == (("u", 1), ("v", 1))


def test_str_rendering():
    a, b = Monomial.of("a"), Monomial.of("b")
    assert str(Polynomial.of(a) - Polynomial.of(b)) == "a -b"
    assert str(Polynomial.term(a, 2)) == "2*a"
    assert str(Polynomial()) == "0"


names = st.sampled_from(["x1", "x2", "y", "z"])
monomials = st.dictionaries(names, st.integers(min_value=1, max_value=3),
                            max_size=3).map(Monomial.from_dict)
polys = st.lists(st.tuples(monomials,
                           st.integers(min_value=-5, max_value=5)),
                 max_size=5).map(lambda ts: Polynomial(tuple(ts)))


@given(polys, polys, polys)
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_commutativity(p, q):
    assert p * q == q * p
    assert p + q == q + p


@given(polys)
def test_serialization_round_trip(p):
    assert poly_from_data(poly_to_data(p)) == p


@given(monomials)
def test_monomial_round_trip(m):
    assert monomial_from_data(monomial_to_data(m)) == m


@given(monomials, monomials)
def test_division_inverts_multiplication(m1, m2):
    assert (m1 * m2) / m2 == m1
