"""Exact sparse multivariate polynomials with integer coefficients.

Variables are vertex labels.  Monomials are sorted (var, exponent) tuples,
polynomials are sorted (monomial, coefficient) tuples; both are hashable
values in canonical form, so equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass


class PolyError(ValueError):
    pass


@dataclass(frozen=True)
class Monomial:
    exps: tuple = ()  # sorted ((var, e), ...) with e >= 1

    @staticmethod
    def of(*variables, **powers):
        """Monomial.of('x1', 'x2') -> x1*x2;  Monomial.of(x1=2) -> x1^2."""
        d = {}
        for v in variables:
            d[v] = d.get(v, 0) + 1
        for v, e in powers.items():
            d[v] = d.get(v, 0) + e
        return Monomial.from_dict(d)

    @staticmethod
    def from_dict(d):
        """The monomial of {var: exponent}, zero exponents dropped, in one
        pass: the first exponent that is not a nonnegative int raises."""
        exps = []
        for v, e in d.items():
            if not isinstance(e, int) or e < 0:
                raise PolyError("bad exponent %r for %r" % (e, v))
            if e:
                exps.append((v, e))
        exps.sort()
        return Monomial(tuple(exps))

    def as_dict(self):
        return dict(self.exps)

    @property
    def is_one(self):
        return not self.exps

    def degree(self):
        return sum(e for _, e in self.exps)

    def __mul__(self, other):
        d = self.as_dict()
        for v, e in other.exps:
            d[v] = d.get(v, 0) + e
        return Monomial.from_dict(d)

    def __pow__(self, k):
        if k < 0:
            raise PolyError("negative power")
        return Monomial(tuple((v, e * k) for v, e in self.exps)) if k else ONE

    def divides(self, other):
        d = dict(other.exps)
        return all(d.get(v, 0) >= e for v, e in self.exps)

    def __truediv__(self, other):
        if not other.divides(self):
            raise PolyError("%s does not divide %s" % (other, self))
        d = self.as_dict()
        for v, e in other.exps:
            d[v] -= e
        return Monomial.from_dict(d)

    def sort_key(self):
        return (-self.degree(), self.exps)

    def __str__(self):
        if self.is_one:
            return "1"
        return "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in self.exps)


ONE = Monomial()


def _canon(terms):
    """The canonical tuple of a sequence of (Monomial, int) terms: like
    monomials merged, zero coefficients dropped, sorted by Monomial.sort_key
    (degree descending, then exps).  One term, as in every Polynomial.term,
    needs no merge and no sort."""
    if len(terms) == 1:
        (m, c), = terms
        return ((m, c),) if c else ()
    out = {}
    for m, c in terms:
        out[m] = out.get(m, 0) + c
    return tuple(sorted(((m, c) for m, c in out.items() if c),
                        key=lambda t: (-sum(e for _, e in t[0].exps),
                                       t[0].exps)))


@dataclass(frozen=True)
class Polynomial:
    terms: tuple = ()  # canonical ((Monomial, nonzero int), ...)

    @staticmethod
    def of(*monomials):
        """Sum of monomials, each with coefficient +1."""
        return Polynomial(tuple((m, 1) for m in monomials))

    @staticmethod
    def term(m, c=1):
        return Polynomial(((m, c),))

    def __post_init__(self):
        object.__setattr__(self, "terms", _canon(self.terms))

    @property
    def is_zero(self):
        return not self.terms

    def monomials(self):
        return [m for m, _ in self.terms]

    @property
    def single_term(self):
        """(monomial, coeff) if this polynomial has exactly one term."""
        if len(self.terms) != 1:
            return None
        return self.terms[0]

    def __add__(self, other):
        return Polynomial(self.terms + other.terms)

    def __neg__(self):
        return Polynomial(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(tuple((m, c * other) for m, c in self.terms))
        if isinstance(other, Monomial):
            return Polynomial(tuple((m * other, c) for m, c in self.terms))
        return Polynomial(tuple((m1 * m2, c1 * c2)
                                for m1, c1 in self.terms
                                for m2, c2 in other.terms))

    __rmul__ = __mul__

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for m, c in self.terms:
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = "" if abs(c) == 1 and not m.is_one else str(abs(c))
            body = "" if m.is_one and mag else str(m)
            parts.append(sign + mag + ("*" if mag and body else "") + body
                         if (mag or body) else sign + "1")
        return "".join(parts) if len(parts) == 1 else " ".join(parts)


# -- serialization (stable, bit-exact round-trip) ---------------------


def monomial_to_data(m):
    return [[v, e] for v, e in m.exps]


def _json_int(x):
    """x itself if it is an integer; a bool, a float or a string is a
    PolyError, so that 1.9, true and 1e400 never pass as integers."""
    if type(x) is not int:
        raise PolyError("expected an integer, got %r" % (x,))
    return x


def monomial_from_data(data):
    """The monomial of [[var, exponent], ...] in any order: a repeated
    variable's exponents add up and zero exponents drop out.  A variable
    that is not a string (5 for "5", ["a"]) and a negative exponent are
    PolyErrors: refused, not converted."""
    d = {}
    for v, e in data:
        if not isinstance(v, str):
            raise PolyError("expected a variable name, got %r" % (v,))
        if _json_int(e) < 0:
            raise PolyError("bad exponent %r for %r" % (e, v))
        d[v] = d.get(v, 0) + e
    return Monomial.from_dict(d)


def poly_to_data(p):
    return [[monomial_to_data(m), c] for m, c in p.terms]


def poly_from_data(data):
    return Polynomial(tuple((monomial_from_data(md), _json_int(c))
                            for md, c in data))
