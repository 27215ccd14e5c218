"""Command-line front end.

Commands: analyze | classify | shelling | generate | oracle.
stdout carries JSON (unless --output text), stderr carries human text.
Exit codes: 0 ok, 1 input or usage error, 2 size/budget guard,
3 refusal, 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import complexes, invariants, oracle, structure
from .errors import (
    BudgetExceeded,
    CWGraphError,
    EmptyGraph,
    InvalidParams,
    NotCameronWalker,
    NotCompleteBipartiteSupport,
    ParseError,
    SizeGuard,
)
from .graph import Graph, label_key, parse_edge_list, parse_graph_json
from .matchings import induced_matching_number, matching_number

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_REFUSED = 3
EXIT_MISMATCH = 4


def _read_graph(path: str, fmt: str) -> Graph:
    """Parse a file, or stdin for ``-``, as UTF-8 whatever the locale."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 (byte {exc.start}: {exc.reason})") from exc
    if fmt == "json":
        return parse_graph_json(text)
    return parse_edge_list(text)


def _emit(payload: dict, output: str) -> None:
    if output == "text":
        for key, value in payload.items():
            print(f"{key}: {value}")
    else:
        print(json.dumps(payload))


def cmd_analyze(args) -> int:
    if args.max_vertices < 0:
        raise InvalidParams(f"--max-vertices must be at least 0, got {args.max_vertices}")
    g = _read_graph(args.path, args.format)
    report = invariants.full_report(g, cap=args.max_vertices)
    if args.output == "text":
        _emit(json.loads(report.to_json()), "text")
    else:
        print(report.to_json())
    return EXIT_BUDGET if report.partial else EXIT_OK


def cmd_classify(args) -> int:
    g = _read_graph(args.path, args.format)
    cls = structure.classify(g)
    if args.output == "text":
        _emit(json.loads(cls.to_json()), "text")
    else:
        print(cls.to_json())
    return EXIT_OK


def cmd_shelling(args) -> int:
    g = _read_graph(args.path, args.format)
    try:
        dec = structure.decompose(g)
        order = complexes.cw_shelling(dec)
    except (NotCameronWalker, NotCompleteBipartiteSupport) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    if args.output == "text":
        for f, p in zip(order.facets, order.provenance):
            fam = f"{p.family}{set(p.index_set) if p.index_set else '{}'}"
            print(f"{fam} {''.join(p.sign) or '-'}: {' '.join(sorted(f, key=label_key))}")
    else:
        print(order.to_json())
    return EXIT_OK


def cmd_generate(args) -> int:
    dec = structure.random_cw(
        args.n, args.m, args.max_f, args.max_t, args.density, args.seed
    )
    g = structure.build_cw(dec)
    edges_path = f"{args.out}.edges"
    json_path = f"{args.out}.json"
    lines = [f"# generated Cameron-Walker graph, seed {args.seed}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    try:
        with open(edges_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(json_path, "w") as fh:
            fh.write(dec.to_json() + "\n")
    except OSError as exc:
        raise InvalidParams(f"cannot write {exc.filename}: {exc.strerror}") from exc
    _emit({"edges_file": edges_path, "decomposition_file": json_path}, args.output)
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = _read_graph(args.path, args.format)
    budget = oracle.OracleBudget()
    mismatches = []

    m, _ = matching_number(g)
    im, _ = induced_matching_number(g)
    om, oim = oracle.oracle_matchings(g, budget)
    if (m, im) != (om, oim):
        mismatches.append(f"matchings: fast ({m}, {im}) vs oracle ({om}, {oim})")

    cx = complexes.independence_complex(g, cap=budget.max_vertices)
    facets = {tuple(sorted(f, key=label_key)) for f in cx.facets}
    ofacets = {tuple(f) for f in oracle.oracle_max_independent_sets(g, budget)}
    if facets != ofacets:
        mismatches.append("maximal independent sets differ")

    covers = {frozenset(c) for c in invariants.minimal_vertex_covers(g)}
    ocovers = {frozenset(set(g.vertices) - set(f)) for f in ofacets}
    if covers != ocovers:
        mismatches.append("minimal vertex covers differ")

    checked_shelling = False
    if len(cx.facets) <= budget.max_facets:
        vd, _ = complexes.is_vertex_decomposable(cx)
        exists, _ = oracle.oracle_shelling_exists(cx, budget)
        checked_shelling = True
        if vd and not exists:
            mismatches.append("vertex decomposable but no shelling found")

    payload = {
        "m": m,
        "im": im,
        "facets": len(cx.facets),
        "shelling_checked": checked_shelling,
        "mismatches": mismatches,
    }
    _emit(payload, args.output)
    if mismatches:
        print("oracle disagreement", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _add_io_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", nargs="?", default="-", help="input file, or - for stdin")
    p.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
    p.add_argument("--output", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwgraphs",
        description="Cameron-Walker graph recognition and edge-ideal invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("analyze", cmd_analyze),
        ("classify", cmd_classify),
        ("shelling", cmd_shelling),
        ("oracle", cmd_oracle),
    ):
        p = sub.add_parser(name)
        _add_io_options(p)
        p.set_defaults(fn=fn)
        if name == "analyze":
            p.add_argument(
                "--max-vertices",
                type=int,
                default=complexes.COMPLEX_VERTEX_CAP,
                help="enumeration cap for complex-based invariants",
            )

    g = sub.add_parser("generate")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--max-f", type=int, default=1)
    g.add_argument("--max-t", type=int, default=1)
    g.add_argument("--density", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output path prefix")
    g.add_argument("--output", choices=("json", "text"), default="json")
    g.set_defaults(fn=cmd_generate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which
        # has printed its message; 2 is reserved for size guards here.
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (ParseError, EmptyGraph, InvalidParams) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SizeGuard, BudgetExceeded) as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CWGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
