"""Checkable radical-generation certificates.

A GeneratorSet claims that its polynomials generate the edge ideal of its
graph up to radical.  The containment direction is termwise (every term is
divisible by an edge monomial); the other direction is witnessed by a
Certificate: an ordered derivation whose steps each establish new elements
of the radical, ending with every edge monomial established.  All arithmetic
is exact over the integers and only unit coefficients are eliminated, so a
verified certificate is valid over every field.

Step kinds:

  SVStep(rho, mu + nu)        rho an established monomial dividing mu*nu;
                              establishes mu and nu.
  LinearStep(target, subs)    dropping from an established element every term
                              divisible by an established monomial must leave
                              a single +-1 term; establishes that monomial.
  PowerStep(m, k, combo)      checks m^k == sum(c_i * h_i) exactly, h_i
                              established; establishes m.

The containment test and the power and linear steps of one certificate may
ask for at most _MAX_TERM_WORK units of monomial work in all; past that,
verification fails.  Containment needs no scan of the edges: a term lies in
the edge ideal iff two of its variables are adjacent in the graph.

The generator set, the certificate, its steps and the verdict are records:
subclasses of a `collections.namedtuple` base, immutable, with the hash and
equality of their field tuple.  `step_to_data` and `verify_certificate`
tell the step kinds apart by class, never by shape.
"""

from __future__ import annotations

from collections import namedtuple

from .graphs import Graph, GraphError
from .polynomials import (Monomial, Polynomial, _json_int, monomial_from_data,
                          monomial_to_data, poly_from_data, poly_to_data)


class CertificateFormatError(GraphError):
    """Certificate data that does not have the serialized shape."""


# Budget of monomial work that one certificate may ask verify_certificate
# for.  Each monomial product of a PowerStep combination (coeff term times ref
# term) and each divisibility test of a LinearStep (subtract monomial against
# target term) costs one unit plus one per variable of its two monomials.
# The containment test of a generator term costs one unit plus one per
# variable, plus, per variable that is a vertex, the smaller of its degree
# and the term's variable count (the adjacency probe).  The constructions
# need at most 397 per certificate (a gens_prop42 set, 161 of it for
# containment), so a certificate over budget is hostile, not large.
_MAX_TERM_WORK = 1_000_000
_OVER_BUDGET = ("verification needs more than %d units of work on monomial "
                "products and probes" % _MAX_TERM_WORK)


class GeneratorSet(namedtuple("GeneratorSet", "graph polys")):
    __slots__ = ()

    def __len__(self):
        return len(self.polys)


class SVStep(namedtuple("SVStep", "rho_ref sum_ref")):
    __slots__ = ()


class LinearStep(namedtuple("LinearStep", "target_ref subtract_refs")):
    __slots__ = ()


class PowerStep(namedtuple("PowerStep", "target k combination")):
    # combination: ((coeff Polynomial, established ref), ...)
    __slots__ = ()


class Certificate(namedtuple("Certificate", "steps", defaults=((),))):
    __slots__ = ()


class Verdict(namedtuple("Verdict", "ok failed_step reason",
                         defaults=(-1, ""))):
    # failed_step -1: generator containment or final coverage
    __slots__ = ()

    def __bool__(self):
        return self.ok


def _unit_monomial(p):
    """(monomial) if p is a single term with coefficient +-1, else None."""
    t = p.single_term
    if t is None:
        return None
    m, c = t
    return m if c in (1, -1) else None


def _pair_work(ms, ns):
    """Work units of meeting every monomial of ms with every one of ns."""
    return (len(ms) * len(ns) + len(ns) * sum(len(m.exps) for m in ms)
            + len(ms) * sum(len(m.exps) for m in ns))


def verify_certificate(gs: GeneratorSet, cert: Certificate) -> Verdict:
    """Check a certificate against a generator set.

    OK means: (a) every term of every generator is divisible by an edge
    monomial of the graph, (b) every step checks by exact arithmetic,
    (c) every edge monomial of the graph ends up established.  Together
    these prove that the generators generate the edge ideal up to radical.
    """
    adj = gs.graph.adj
    work = 0
    for i, p in enumerate(gs.polys):
        if p.is_zero:
            return Verdict(False, -1, "generator %d is zero" % i)
        for m, _ in p.terms:
            # m lies in the edge ideal iff two of its variables are adjacent
            variables = {v for v, _ in m.exps}
            probes = [adj[v] for v in variables if v in adj]
            work += 1 + len(variables) + sum(min(len(nbrs), len(variables))
                                             for nbrs in probes)
            if work > _MAX_TERM_WORK:
                return Verdict(False, -1, _OVER_BUDGET)
            if all(nbrs.isdisjoint(variables) for nbrs in probes):
                return Verdict(False, -1,
                               "generator %d term %s not divisible by any "
                               "edge monomial" % (i, m))

    established = list(gs.polys)

    def get(ref):
        if not isinstance(ref, int) or not 0 <= ref < len(established):
            raise IndexError
        return established[ref]

    for idx, step in enumerate(cert.steps):
        try:
            if isinstance(step, SVStep):
                rho = _unit_monomial(get(step.rho_ref))
                if rho is None:
                    return Verdict(False, idx,
                                   "rho_ref is not a unit monomial")
                s = get(step.sum_ref)
                if len(s.terms) != 2:
                    return Verdict(False, idx,
                                   "sum_ref does not have two terms")
                (m1, c1), (m2, c2) = s.terms
                if abs(c1) != 1 or abs(c2) != 1:
                    return Verdict(False, idx,
                                   "sum_ref coefficients are not units")
                if not rho.divides(m1 * m2):
                    # the factors, not their product: an exponent sum can
                    # pass the digit limit of int-to-str conversion
                    return Verdict(False, idx, "%s does not divide %s "
                                   "times %s" % (rho, m1, m2))
                established.append(Polynomial.term(m1, c1))
                established.append(Polynomial.term(m2, c2))
            elif isinstance(step, LinearStep):
                target = get(step.target_ref)
                subs = []
                for r in step.subtract_refs:
                    m = _unit_monomial(get(r))
                    if m is None:
                        return Verdict(False, idx, "subtract ref %d is not "
                                       "a unit monomial" % r)
                    subs.append(m)
                work += _pair_work(target.monomials(), subs)
                if work > _MAX_TERM_WORK:
                    return Verdict(False, idx, _OVER_BUDGET)
                rest = [(m, c) for m, c in target.terms
                        if not any(s.divides(m) for s in subs)]
                if len(rest) != 1 or abs(rest[0][1]) != 1:
                    return Verdict(False, idx,
                                   "remainder is not a single unit term")
                established.append(Polynomial.term(*rest[0]))
            elif isinstance(step, PowerStep):
                if step.k < 1:
                    return Verdict(False, idx, "power must be positive")
                terms = []
                for coeff, ref in step.combination:
                    h = get(ref)
                    work += _pair_work(coeff.monomials(), h.monomials())
                    if work > _MAX_TERM_WORK:
                        return Verdict(False, idx, _OVER_BUDGET)
                    terms.extend((coeff * h).terms)
                if Polynomial(tuple(terms)) != \
                        Polynomial.term(step.target ** step.k):
                    return Verdict(False, idx, "identity %s^%d does not "
                                   "hold" % (step.target, step.k))
                established.append(Polynomial.term(step.target))
            else:
                return Verdict(False, idx, "unknown step kind %r"
                               % type(step).__name__)
        except IndexError:
            return Verdict(False, idx, "reference out of range")

    have = {m.exps for m in map(_unit_monomial, established) if m is not None}
    # an edge (u, v) is sorted, so ((u, 1), (v, 1)) are its monomial's exps
    edges = (((u, 1), (v, 1)) for u, v in gs.graph.edges)
    missing = sorted(str(Monomial(e)) for e in edges if e not in have)
    if missing:
        return Verdict(False, -1, "edge monomials not established: %s"
                       % ", ".join(missing))
    return Verdict(True)


class CertBuilder:
    """Accumulates generators and derivation steps, tracking established
    elements by ref so constructions can cross-reference them.

    Generators and steps may come in any interleaving.  Refs are handed out
    in call order, and ref(m) gives the first element registered as the unit
    monomial m.  result() numbers the generators first, in call order, then
    the step outputs, as a Certificate requires, and rewrites every step's
    refs to that numbering."""

    def __init__(self, graph):
        self.graph = graph
        self.gen_refs = []
        self.steps = []  # functions of the final numbering
        self.established = []
        self.by_monomial = {}  # unit monomial -> ref

    def _register(self, p):
        self.established.append(p)
        m = _unit_monomial(p)
        if m is not None and m not in self.by_monomial:
            self.by_monomial[m] = len(self.established) - 1
        return len(self.established) - 1

    def gen(self, p):
        self.gen_refs.append(self._register(p))
        return self.gen_refs[-1]

    def ref(self, m):
        """Reference to an established unit monomial."""
        return self.by_monomial[m]

    def sv(self, rho_ref, sum_ref):
        self.steps.append(lambda f: SVStep(f[rho_ref], f[sum_ref]))
        s = self.established[sum_ref]
        (m1, c1), (m2, c2) = s.terms
        return (self._register(Polynomial.term(m1, c1)),
                self._register(Polynomial.term(m2, c2)))

    def linear(self, target_ref, subtract_refs):
        subtract_refs = tuple(subtract_refs)
        self.steps.append(lambda f: LinearStep(
            f[target_ref], tuple(f[r] for r in subtract_refs)))
        target = self.established[target_ref]
        subs = [_unit_monomial(self.established[r]) for r in subtract_refs]
        rest = [(m, c) for m, c in target.terms
                if not any(s.divides(m) for s in subs)]
        (m, c), = rest
        return self._register(Polynomial.term(m, c))

    def power(self, target, k, combination):
        combination = tuple(combination)
        self.steps.append(lambda f: PowerStep(
            target, k, tuple((c, f[r]) for c, r in combination)))
        return self._register(Polynomial.term(target))

    def result(self):
        final = {r: i for i, r in enumerate(self.gen_refs)}
        for r in range(len(self.established)):
            final.setdefault(r, len(final))
        return (GeneratorSet(self.graph, tuple(self.established[r]
                                               for r in self.gen_refs)),
                Certificate(tuple(step(final) for step in self.steps)))


# -- serialization ----------------------------------------------------


def step_to_data(step):
    if isinstance(step, SVStep):
        return {"kind": "sv", "rho": step.rho_ref, "sum": step.sum_ref}
    if isinstance(step, LinearStep):
        return {"kind": "linear", "target": step.target_ref,
                "subtract": list(step.subtract_refs)}
    if isinstance(step, PowerStep):
        return {"kind": "power", "target": monomial_to_data(step.target),
                "k": step.k,
                "combination": [[poly_to_data(c), r]
                                for c, r in step.combination]}
    raise TypeError(step)


def step_from_data(d):
    kind = d["kind"]
    if kind == "sv":
        return SVStep(_json_int(d["rho"]), _json_int(d["sum"]))
    if kind == "linear":
        return LinearStep(_json_int(d["target"]),
                          tuple(_json_int(r) for r in d["subtract"]))
    if kind == "power":
        return PowerStep(monomial_from_data(d["target"]), _json_int(d["k"]),
                         tuple((poly_from_data(cd), _json_int(r))
                               for cd, r in d["combination"]))
    raise ValueError("unknown step kind %r" % kind)


def certified_set_to_data(gs: GeneratorSet, cert: Certificate):
    return {
        "edges": [list(e) for e in gs.graph.sorted_edges()],
        "isolated": [v for v, m in zip(gs.graph.vertices, gs.graph.masks)
                     if not m],
        "generators": [poly_to_data(p) for p in gs.polys],
        "steps": [step_to_data(s) for s in cert.steps],
    }


def certified_set_from_data(d):
    """Inverse of certified_set_to_data.  Data of any other shape (a
    missing key, a wrong type, a string or object where the format has an
    array, a ref, k, exponent or coefficient that is not a JSON integer, a
    bad label or step kind) raises CertificateFormatError."""
    try:
        edges, isolated = d["edges"], d.get("isolated", [])
        gens, steps = d["generators"], d["steps"]
        # Graph.build unpacks each edge, so an edge of any other length fails
        if not all(isinstance(a, list)
                   for a in (edges, isolated, gens, steps, *edges)):
            raise TypeError("edges, isolated, generators, steps and each "
                            "edge must be arrays")
        g = Graph.build(edges, isolated=isolated)
        gs = GeneratorSet(g, tuple(poly_from_data(pd) for pd in gens))
        cert = Certificate(tuple(step_from_data(sd) for sd in steps))
    except KeyError as exc:
        raise CertificateFormatError("certificate lacks key %s"
                                     % exc) from None
    except (TypeError, ValueError) as exc:
        raise CertificateFormatError("malformed certificate: %s"
                                     % exc) from None
    return gs, cert
