"""Command-line front end.

Reads graphs in the one-edge-per-line format ("u v"; a bare "v" declares an
isolated vertex; a token that begins with '#' starts a comment to the end of
the line), writes JSON reports to stdout and certificates to files.  Each
subcommand returns its graph and its report fields; `main` frames, renders
and writes the report and sets the exit code: 0 success, 1 a report that
reads "verified": false, 2 a usage, input or hypothesis error, input too
deep for the recursion limit included, with one error line and no report.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds, classify, constructions, covers, graphs, homology
from .certificates import (CertificateFormatError, certified_set_from_data,
                           certified_set_to_data, verify_certificate)
from .graphs import GraphError, parse_edge_list


def _load_graph(path):
    if path == "-":
        return parse_edge_list(sys.stdin.read())
    with open(path) as fh:
        return parse_edge_list(fh.read())


def _graph_summary(g):
    return {"vertices": list(g.vertices),
            "edges": [list(e) for e in g.sorted_edges()]}


def cmd_analyze(g, args):
    cactus = graphs.is_cactus(g)
    fields = {
        "degrees": {v: g.degree(v) for v in g.vertices},
        "components": [sorted(c) for c in g.components()],
        "is_cactus": cactus,
        "is_chordal": graphs.is_chordal(g),
        "terminal_edges": [list(e) for e in sorted(g.terminal_edges())],
    }
    if cactus:
        fields["cycles"] = [list(c) for c in graphs.cycles(g)]
    return g, fields


def cmd_covers(g, args):
    stats = covers.cover_stats(g)
    return g, {"height": stats.height, "big_height": stats.big_height,
               "unmixed": stats.unmixed,
               "covers": [list(c.sorted()) for c in stats.all_covers]}


def cmd_bound(g, args):
    r = bounds.corollary41_bound(g) if args.improve \
        else bounds.theorem34_bound(g)
    fields = {k: v for k, v in r._asdict().items() if k != "graph"}
    if args.trace:
        trace = bounds.theorem34_trace(g)
        fields["trace"] = trace.to_data()
        fields["trace_bound"] = trace.bound
    return g, fields


def _parse_attachments(specs):
    out = {}
    for spec in specs or ():
        vertex, _, what = spec.partition("=")
        if vertex in out:
            raise GraphError("--attach names vertex %r twice" % vertex)
        try:
            out[vertex] = constructions.WHISKER if what == "whisker" \
                else int(what)
        except ValueError:
            raise GraphError("attachment %r is not VERTEX=whisker|3|4|5"
                             % spec) from None
    return out


def _build_family(args):
    fam = args.family
    if fam == "cycle":
        return constructions.gens_cycle(args.length)
    if fam == "lemma52":
        return constructions.gens_lemma52(args.r, args.s)
    if fam == "lemma53":
        at1 = [_load_graph(p) for p in args.attach_x1 or ()]
        at3 = [_load_graph(p) for p in args.attach_x3 or ()]
        return constructions.gens_lemma53(args.r, args.s, at1, at3)
    if fam == "lemma54":
        if not (args.h1 and args.h2):
            raise GraphError("lemma54 needs --h1 and --h2 graph files")
        return constructions.gens_lemma54(_load_graph(args.h1),
                                          _load_graph(args.h2))
    if fam == "prop42":
        if not args.base:
            raise GraphError("prop42 needs --base and --attach")
        return constructions.gens_prop42(_load_graph(args.base),
                                         _parse_attachments(args.attach))
    if fam == "whisker":
        if not (args.graph and args.anchor):
            raise GraphError("whisker needs a graph and --anchor U V")
        return constructions.gens_whisker_tree(_load_graph(args.graph),
                                               tuple(args.anchor))
    if fam == "svsearch":
        if not args.graph:
            raise GraphError("svsearch needs a graph")
        res = constructions.sv_layer_search(_load_graph(args.graph),
                                            max_layers=args.max_layers)
        if res is None:
            raise GraphError("no layering within %s layers found"
                             % args.max_layers)
        return res


def cmd_gens(args):
    gs, cert = _build_family(args)
    verdict = verify_certificate(gs, cert)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(certified_set_to_data(gs, cert), fh, indent=2,
                      sort_keys=True)
    return gs.graph, {"family": args.family, "count": len(gs.polys),
                      "generators": [str(p) for p in gs.polys],
                      "steps": len(cert.steps), "certificate_file": args.out,
                      "verified": verdict.ok, "reason": verdict.reason}


def cmd_verify(args):
    with open(args.certificate) as fh:
        try:
            data = json.load(fh)
        except (RecursionError, ValueError) as exc:
            raise CertificateFormatError("unreadable certificate: %s"
                                         % exc) from None
    gs, cert = certified_set_from_data(data)
    verdict = verify_certificate(gs, cert)
    return gs.graph, {"count": len(gs.polys), "verified": verdict.ok,
                      "failed_step": verdict.failed_step,
                      "reason": verdict.reason}


# classify --result: the name of the `classify` function behind each choice,
# looked up when the command runs, so that a wrapper set on the module (the
# perfbench tracer) is the one called
_RESULTS = {"auto": "stci_verdict", "unicyclic": "classify_unicyclic",
            "cor44": "corollary44", "cor61": "corollary61"}


def cmd_classify(g, args):
    verdict = getattr(classify, _RESULTS[args.result])(g)
    evidence = {k: (sorted(v) if isinstance(v, (set, frozenset)) else
                    _graph_summary(v) if isinstance(v, graphs.Graph) else v)
                for k, v in verdict.evidence.items()}
    return g, {"status": verdict.status, "stci": verdict.stci,
               "case": verdict.case_tag, "evidence": evidence}


def cmd_pd(g, args):
    pd, table = homology.projective_dimension(g)
    return g, {"pd": pd, "betti": table.to_data()["betti"]}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edgeideals",
        description="Edge-ideal invariants of finite simple graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_cmd(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("graph", help="edge-list file, or - for stdin")
        p.set_defaults(fn=lambda args: fn(_load_graph(args.graph), args))
        return p

    graph_cmd("analyze", cmd_analyze, "structural summary")
    graph_cmd("covers", cmd_covers, "minimal vertex covers and height data")

    p = graph_cmd("bound", cmd_bound, "arithmetical-rank upper bound")
    p.add_argument("--trace", action="store_true",
                   help="emit the proof-mirroring decomposition tree")
    p.add_argument("--improve", action="store_true",
                   help="apply the cycle-degree improvement")

    p = sub.add_parser("gens", help="explicit radical generator sets")
    p.add_argument("graph", nargs="?",
                   help="edge-list file (whisker/svsearch families)")
    p.add_argument("--family", required=True,
                   choices=["cycle", "lemma52", "lemma53", "lemma54",
                            "prop42", "whisker", "svsearch"])
    p.add_argument("--length", type=int, default=5)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--anchor", nargs=2, metavar=("U", "V"))
    p.add_argument("--max-layers", type=int, default=None)
    p.add_argument("--base", help="base graph file (prop42)")
    p.add_argument("--attach", action="append", metavar="VERTEX=SPEC",
                   help="whisker or a cycle length, e.g. a=whisker, b=3")
    p.add_argument("--attach-x1", action="append", metavar="FILE")
    p.add_argument("--attach-x3", action="append", metavar="FILE")
    p.add_argument("--h1", metavar="FILE")
    p.add_argument("--h2", metavar="FILE")
    p.add_argument("--out", default=None, help="certificate output file")
    p.set_defaults(fn=cmd_gens)

    p = sub.add_parser("verify", help="check a certificate file")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_verify)

    p = graph_cmd("classify", cmd_classify,
                  "Cohen-Macaulay / STCI classification")
    p.add_argument("--result", default="auto", choices=list(_RESULTS))

    graph_cmd("pd", cmd_pd, "projective dimension oracle")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        graph, fields = args.fn(args)
        text = json.dumps({"command": args.command,
                           "graph": _graph_summary(graph), **fields},
                          indent=2, sort_keys=True)
    except (GraphError, OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too deep for the recursion limit",
              file=sys.stderr)
        return 2
    print(text)
    return 0 if fields.get("verified", True) else 1


if __name__ == "__main__":
    sys.exit(main())
