"""Command line front end for the generate/ingest/estimate/predict pipeline.

Every subcommand computes its full result before writing anything, and
writes it to a temporary file that is then renamed onto ``--out``, so a
failure never leaves a partial output file.  Exit codes: 0 success, 1 any
validation or data error, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import datagen, dot, ingest, markov, writeback
from .errors import ToolkitError
from .query import evaluate, parse_query
from .rdf import parse_ntriples, serialize_ntriples

log = logging.getLogger(__name__)


class CliError(ToolkitError):
    """Bad command line usage."""


class _Parser(argparse.ArgumentParser):
    # argparse normally exits(2) on usage errors; route them through the
    # shared error path so they exit 1 like every other validation problem
    def error(self, message):
        raise CliError(message)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _write_text(path: str, text: str) -> None:
    """Write beside ``path``, then rename onto it: a failed write leaves no
    partial file and keeps whatever ``path`` held.  Mode "x" creates the
    file with the umask's permissions, as a plain write would, and never
    follows a link planted at the temporary name.  A file already there
    carries this process's pid, which no live process shares, so it was left
    by a killed run: it is removed and the create tried once more."""
    target = Path(path)
    tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
    try:
        f = open(tmp, "x", encoding="utf-8")
    except FileExistsError:
        tmp.unlink()
        f = open(tmp, "x", encoding="utf-8")
    try:
        with f:
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_graph(path: str):
    return parse_ntriples(_read_text(path))


def _load_query_text(name: str) -> str:
    if Path(name).is_file():
        return _read_text(name)
    return ingest.load_bundled_query(name)


def _cmd_gen_data(args) -> int:
    config = datagen.GenConfig(days=args.days, seed=args.seed)
    rows = datagen.generate(config)
    _write_text(args.out, datagen.rows_to_csv(rows))
    log.info("wrote %d observation rows to %s", len(rows), args.out)
    return 0


def _cmd_ingest(args) -> int:
    rows = datagen.rows_from_csv(_read_text(args.csv))
    graph = ingest.ingest_rows(rows)
    _write_text(args.out, serialize_ntriples(graph))
    log.info("wrote %d triples to %s", len(graph), args.out)
    return 0


def _cmd_query(args) -> int:
    graph = _load_graph(args.graph)
    query = parse_query(_load_query_text(args.query))
    table = evaluate(query, graph)
    if args.format == "csv":
        sys.stdout.write(table.as_csv())
    else:
        sys.stdout.write(table.as_table())
    return 0


def _cmd_estimate(args) -> int:
    graph = _load_graph(args.graph)
    sequence = ingest.location_sequence(graph)
    if not sequence:
        raise CliError("the graph contains no observations to estimate from")
    labels = [location.local_name() for _, location in sequence]
    if args.order == 1:
        counts = markov.count_transitions(labels)
        matrix = markov.estimate_first_order(counts)
    else:
        counts = markov.count_pair_transitions(labels)
        matrix = markov.estimate_second_order(counts)
    _write_text(args.out, markov.dumps_matrix(matrix, counts))
    log.info("estimated an order-%d chain over %d states", matrix.order, len(matrix.space))
    return 0


def _cmd_power(args) -> int:
    matrix, _ = markov.loads_matrix(_read_text(args.matrix))
    powered = markov.matrix_power(matrix, args.steps)
    sys.stdout.write(markov.dumps_matrix(powered))
    return 0


def _cmd_predict(args) -> int:
    matrix, _ = markov.loads_matrix(_read_text(args.matrix))
    if matrix.order == 1:
        if args.prev is not None:
            raise CliError("--prev is only meaningful for second-order matrices")
        distribution = markov.predict(matrix, args.state, args.steps)
    else:
        if args.prev is None:
            raise CliError("second-order matrices need --prev")
        if args.steps != 1:
            raise CliError("second-order prediction supports a single step only")
        distribution = markov.predict_second_order(matrix, args.prev, args.state)
    for state, value in distribution.as_pairs():
        sys.stdout.write(f"{state} {markov.format_probability(value)}\n")
    return 0


def _cmd_writeback(args) -> int:
    graph = _load_graph(args.graph)
    matrix, counts = markov.loads_matrix(_read_text(args.matrix))
    if matrix.order != 1:
        raise CliError("writeback consumes first-order matrices only")
    if counts is None:
        raise CliError(
            "the matrix file carries no counts; writeback needs the counts "
            "that estimate stores alongside the matrix"
        )
    before = len(graph)
    if args.model == writeback.MODEL_PROFILE:
        writeback.writeback_profile_model(graph, counts, args.state, args.day)
    else:
        writeback.writeback_cco_model(graph, counts, args.state, args.day)
    _write_text(args.out, serialize_ntriples(graph))
    log.info("added %d triples, wrote %s", len(graph) - before, args.out)
    return 0


def _cmd_export_dot(args) -> int:
    graph = _load_graph(args.graph)
    if args.day is not None:
        fragment = dot.day_subgraph(graph, args.day)
        name = f"day{args.day}"
    else:
        fragment = dot.writeback_subgraph(graph)
        name = "writeback"
    _write_text(args.out, dot.graph_to_dot(fragment, name))
    log.info("wrote DOT for %s to %s", name, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgmarkov", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="log progress details")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic observation CSV")
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--seed", type=int, default=datagen.DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("ingest", help="build the knowledge graph from a CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("query", help="run a query against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--query", required=True,
                   help="a .rq file path or a bundled query name")
    p.add_argument("--format", choices=("csv", "table"), default="table")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("estimate", help="estimate a transition matrix from a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--order", type=int, choices=markov.ORDERS, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("power", help="raise a first-order matrix to a power")
    p.add_argument("--matrix", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("predict", help="next-state distribution from a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--prev")
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("writeback", help="materialize probabilities into a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--day", type=int, required=True)
    p.add_argument("--model", choices=writeback.MODELS, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_writeback)

    p = sub.add_parser("export-dot", help="render a graph fragment as Graphviz DOT")
    p.add_argument("--graph", required=True)
    p.add_argument("--day", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
