"""Command-line front end.

Commands: analyze | classify | shelling | generate | oracle.
stdout carries JSON (unless --output text), stderr carries human text.
Exit codes: 0 ok, 1 input or usage error, 2 size/budget guard,
3 refusal, 4 oracle mismatch.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import complexes, invariants, structure
from .errors import (
    CWGraphError,
    EmptyGraph,
    InvalidParams,
    LoopEdge,
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


def _write_text(lines) -> None:
    """Write text output as UTF-8, the encoding input is read with,
    whatever the locale's encoding of stdout."""
    text = "".join(f"{line}\n" for line in lines)
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    buffer.write(text.encode("utf-8"))


def _emit(payload: dict, output: str) -> None:
    if output == "text":
        _write_text(f"{key}: {value}" for key, value in payload.items())
    else:
        print(json.dumps(payload))


def cmd_analyze(args) -> int:
    g = _read_graph(args.path, args.format)
    report = invariants.full_report(g)
    _emit(report.to_dict(), args.output)
    return EXIT_BUDGET if report.partial else EXIT_OK


def cmd_classify(args) -> int:
    g = _read_graph(args.path, args.format)
    _emit(structure.classify(g).to_dict(), args.output)
    return EXIT_OK


def cmd_shelling(args) -> int:
    from .shelling import cw_shelling

    g = _read_graph(args.path, args.format)
    try:
        dec = structure.decompose(g)
        order = cw_shelling(dec)
    except (NotCameronWalker, NotCompleteBipartiteSupport) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    if args.output == "text":
        _write_text(
            f"{p.family}{{{', '.join(map(str, p.index_set))}}} {''.join(p.sign) or '-'}: "
            f"{' '.join(sorted(f, key=label_key))}"
            for f, p in zip(order.facets, order.provenance)
        )
    else:
        print(order.to_json())
    return EXIT_OK


def cmd_generate(args) -> int:
    from .constructions import random_cw

    dec = random_cw(args.n, args.m, args.max_f, args.max_t, args.density, args.seed)
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
    from . import oracle

    g = _read_graph(args.path, args.format)
    mismatches = []

    # the oracle's edge and vertex budgets refuse before the fast searches run
    om, oim = oracle.oracle_matchings(g)
    oracle_sets = oracle.oracle_max_independent_sets(g)
    m, _ = matching_number(g)
    im, _ = induced_matching_number(g)
    if (m, im) != (om, oim):
        mismatches.append(f"matchings: fast ({m}, {im}) vs oracle ({om}, {oim})")

    cx = complexes.independence_complex(g)
    if set(cx.facets) != {frozenset(f) for f in oracle_sets}:
        # the minimal vertex covers are the facets' complements
        mismatches += ["maximal independent sets differ", "minimal vertex covers differ"]

    checked_shelling = False
    if len(cx.facets) <= oracle.ORACLE_FACET_CAP:
        vd, _ = complexes.is_vertex_decomposable(cx)
        exists, _ = oracle.oracle_shelling_exists(cx)
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


_IO_OPTIONS = {
    "path": (str, "-"),
    "--format": (("edgelist", "json"), "edgelist"),
    "--output": (("json", "text"), "json"),
}

# command -> (handler, {option: (kind, default)}).  A kind is a type that
# converts the value or a tuple of the allowed values; a default of None
# marks a required option.  The key "path" is the positional argument.
COMMANDS = {
    "analyze": (cmd_analyze, _IO_OPTIONS),
    "classify": (cmd_classify, _IO_OPTIONS),
    "shelling": (cmd_shelling, _IO_OPTIONS),
    "oracle": (cmd_oracle, _IO_OPTIONS),
    "generate": (
        cmd_generate,
        {
            "--n": (int, None),
            "--m": (int, None),
            "--max-f": (int, 1),
            "--max-t": (int, 1),
            "--density": (float, 0.0),
            "--seed": (int, 0),
            "--out": (str, None),
            "--output": (("json", "text"), "json"),
        },
    ),
}


class _Usage(Exception):
    """Help (no message) or a usage error, for one command or the whole CLI."""

    def __init__(self, command: str | None, message: str | None = None):
        super().__init__(message)
        self.command = command
        self.message = message


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: cwgraphs COMMAND [PATH] [--opt VALUE | --opt=VALUE]..."
    words = ["usage: cwgraphs", command]
    for key, (kind, default) in COMMANDS[command][1].items():
        if key == "path":
            words.append("[PATH]")
            continue
        meta = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__.upper()
        words.append(f"{key} {meta}" if default is None else f"[{key} {meta}]")
    return " ".join(words)


def parse_args(argv: list[str]):
    """(handler, args) for ``COMMAND [PATH] [--opt VALUE | --opt=VALUE]...``.

    Options must be spelled in full; a value may begin with '-'.  Raises
    ``_Usage`` for -h/--help and for usage errors.
    """
    if not argv:
        raise _Usage(None, "the following arguments are required: COMMAND")
    command, rest = argv[0], argv[1:]
    if command in ("-h", "--help"):
        raise _Usage(None)
    if command not in COMMANDS:
        raise _Usage(None, f"invalid command {command!r} (choose from {', '.join(COMMANDS)})")
    handler, spec = COMMANDS[command]
    given = {}
    tokens = iter(rest)
    for tok in tokens:
        if tok in ("-h", "--help"):
            raise _Usage(command)
        if tok.startswith("-") and tok != "-":
            key, eq, value = tok.partition("=")
            if key not in spec:
                raise _Usage(command, f"unrecognized arguments: {tok}")
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise _Usage(command, f"argument {key}: expected one argument")
        elif "path" in spec and "path" not in given:
            key, value = "path", tok
        else:
            raise _Usage(command, f"unrecognized arguments: {tok}")
        given[key] = value

    args = SimpleNamespace()
    missing = []
    for key, (kind, default) in spec.items():
        value = given.get(key, default)
        if key not in given:
            if default is None:
                missing.append(key)
        elif isinstance(kind, tuple):
            if value not in kind:
                raise _Usage(
                    command,
                    f"argument {key}: invalid choice: {value!r} (choose from {', '.join(kind)})",
                )
        else:
            try:
                value = kind(value)
            except ValueError:
                raise _Usage(
                    command, f"argument {key}: invalid {kind.__name__} value: {value!r}"
                ) from None
        setattr(args, key.lstrip("-").replace("-", "_"), value)
    if missing:
        raise _Usage(command, f"the following arguments are required: {', '.join(missing)}")
    return handler, args


def main(argv=None) -> int:
    """Run one command; a closed stdout is an error (exit 1), not a
    traceback.  stdout is flushed here so that a broken pipe surfaces
    inside this call, then pointed at the null device so that the flush
    at exit stays quiet (the recipe of the ``signal`` docs)."""
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output is closed", file=sys.stderr)
        return EXIT_INPUT
    return code


def _run(argv) -> int:
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except _Usage as exc:
        if exc.message is not None:
            prog = "cwgraphs" if exc.command is None else f"cwgraphs {exc.command}"
            print(f"{_usage(exc.command)}\n{prog}: error: {exc.message}", file=sys.stderr)
            return EXIT_INPUT
        print(_usage(exc.command))
        if exc.command is None:
            print(
                "\nCameron-Walker graph recognition and edge-ideal invariants.\n"
                f"commands: {', '.join(COMMANDS)}\n"
                "PATH is an input file, or - (the default) for stdin.\n"
                "'cwgraphs COMMAND --help' lists the options of one command."
            )
        return EXIT_OK
    try:
        return handler(args)
    except (ParseError, LoopEdge, EmptyGraph, InvalidParams) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeGuard as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CWGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
