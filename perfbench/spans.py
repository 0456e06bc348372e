"""Spans recorded around calls into kgmarkov's public functions.

The wrappers live here, in the benchmark, not in ``src/``: ``install``
rebinds each public function (in every kgmarkov module that holds a
reference to it) to a wrapper that opens a span, and the function it
returns puts the originals back.  A span is one JSON object::

    {"id": "4711.12", "name": "rdf.parse_ntriples", "start_ns": ..., "end_ns": ...,
     "parent": "4711.3", "op": 7, "counters": {"rdf.triples": 14005}}

``start_ns``/``end_ns`` come from ``time.perf_counter_ns`` (a system-wide
monotonic clock on Linux, so spans from CLI child processes line up with the
parent's), ``parent`` is the enclosing span's id, ``op`` the benchmark op the
span belongs to (None during set-up).  Counters are added at the same
boundaries; ``Graph.match`` only adds ``rdf.match_calls`` and
``rdf.match_triples`` to the innermost open span and opens no span of its own.
In-program spans can later emit the same records and replace this module.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from typing import Callable, Optional


class Tracer:
    """Spans of one process, kept in memory until written out."""

    def __init__(self, parent: Optional[str] = None, op: Optional[int] = None):
        self.spans: list[dict] = []
        self.op = op
        self._open: list[dict] = []
        self._root_parent = parent
        self._prefix = f"{os.getpid()}."
        self._next_id = 0

    def start(self, name: str) -> dict:
        self._next_id += 1
        span = {
            "id": f"{self._prefix}{self._next_id}",
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "parent": self._open[-1]["id"] if self._open else self._root_parent,
            "op": self.op,
            "counters": {},
        }
        self._open.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._open.remove(span)
        self.spans.append(span)

    def count(self, name: str, n: int = 1) -> None:
        if self._open:
            counters = self._open[-1]["counters"]
            counters[name] = counters.get(name, 0) + n

    def write_jsonl(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


# ------------------------------------------------------------- wrappers


# hook marker: count the triples the call adds to its graph argument
_GROWS = object()


def _query_name(query) -> str:
    names = tuple(v.name for v in query.projection)
    if names == ("datetime", "location"):
        return "location_by_time"
    if names == ("startLocationOffFishingVessel", "endLocationOffFishingVessel"):
        return "transitions_ordered" if query.order_by is not None else "transitions"
    return "other"


def _targets():
    """(owner, attribute, span name or namer, counter hook) for each wrapped call.

    A namer takes the call's arguments and returns the span name; a counter
    hook takes (span counters, args, kwargs, result), or is _GROWS.
    """
    from kgmarkov import cli, datagen, dot, ingest, markov, query, rdf, vocab, writeback

    def text_in(c, a, k, graph):
        c["rdf.triples"] = len(graph)
        c["rdf.nt_bytes"] = len(a[0])

    def text_out(c, a, k, text):
        c["rdf.triples"] = len(a[0])
        c["rdf.nt_bytes"] = len(text)

    def days(c, a, k, graph):
        c["ingest.days"] = len(a[0])

    def rows(c, a, k, table):
        c["query.rows"] = len(table.rows)

    def states(c, a, k, matrix):
        c["markov.states"] = len(matrix.space)
        c["markov.unobserved_rows"] = sum(1 for s in matrix.row_status if s != markov.OBSERVED)

    def loaded(c, a, k, result):
        states(c, a, k, result[0])

    def profile_name(a, k):
        return "writeback.profile_link" if k.get("link_realizations") else "writeback.profile"

    return [
        (cli, "main", "cli.main", None),
        (datagen, "generate", "datagen.generate", None),
        (datagen, "rows_to_csv", "datagen.rows_to_csv", None),
        (datagen, "rows_from_csv", "datagen.rows_from_csv", None),
        (rdf, "parse_ntriples", "rdf.parse_ntriples", text_in),
        (rdf, "serialize_ntriples", "rdf.serialize_ntriples", text_out),
        (rdf.Graph, "copy", "rdf.graph_copy", None),
        (ingest, "ingest_rows", "ingest.ingest_rows", days),
        (ingest, "location_sequence", "ingest.location_sequence", None),
        (ingest, "transition_pairs", "ingest.transition_pairs", None),
        (query, "parse_query", "query.parse_query", None),
        (query, "evaluate", lambda a, k: "query.evaluate." + _query_name(a[0]), rows),
        (vocab.Vocab, "__init__", "vocab.init", None),
        (markov, "count_transitions", "markov.count", None),
        (markov, "count_pair_transitions", "markov.count", None),
        (markov, "estimate_first_order", "markov.estimate", states),
        (markov, "estimate_second_order", "markov.estimate", states),
        (markov, "dumps_matrix", "markov.dumps_matrix", None),
        (markov, "loads_matrix", "markov.loads_matrix", loaded),
        (markov, "matrix_power", "markov.matrix_power", None),
        (markov, "predict", "markov.predict", None),
        (markov, "predict_second_order", "markov.predict", None),
        (writeback, "writeback_profile_model", profile_name, _GROWS),
        (writeback, "writeback_cco_model", "writeback.cco", _GROWS),
        (writeback, "read_probabilities", "writeback.read_probabilities", None),
        (dot, "day_subgraph", "dot.day_subgraph", None),
        (dot, "graph_to_dot", "dot.graph_to_dot", None),
    ]


def _span_wrapper(tracer: Tracer, fn: Callable, name, hook) -> Callable:
    namer = name if callable(name) else (lambda a, k: name)
    grows = hook is _GROWS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.start(namer(args, kwargs))
        before = len(args[0]) if grows else 0
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if grows:
            span["counters"]["writeback.triples_added"] = len(args[0]) - before
        elif hook is not None:
            hook(span["counters"], args, kwargs, result)
        return result

    return wrapper


def _match_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def match(self, *args, **kwargs):
        found = fn(self, *args, **kwargs)
        tracer.count("rdf.match_calls")
        tracer.count("rdf.match_triples", len(found))
        return found

    return match


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns the function that restores the originals."""
    from kgmarkov import rdf

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "kgmarkov" or n.startswith("kgmarkov."))]
    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for owner, attr, name, hook in _targets():
        original = owner.__dict__[attr]
        wrapped = _span_wrapper(tracer, original, name, hook)
        if isinstance(owner, type):
            rebind(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    rebind(module, key, wrapped)
    rebind(rdf.Graph, "match", _match_wrapper(tracer, rdf.Graph.match))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        undo.clear()

    return uninstall


# ------------------------------------------------------------ summaries

LAYERS = ("cli", "datagen", "rdf", "ingest", "query", "vocab", "markov", "writeback", "dot")

# per-call median duration metrics: metric name -> (span name, scale from ms)
_DURATIONS = {
    "cli.gen_data_s": ("cli.gen_data", 1e-3),
    "cli.ingest_s": ("cli.ingest", 1e-3),
    "cli.estimate_s": ("cli.estimate", 1e-3),
    "cli.writeback_s": ("cli.writeback", 1e-3),
    "cli.power_ms": ("cli.power", 1.0),
    "cli.predict_ms": ("cli.predict", 1.0),
    "datagen.generate_ms": ("datagen.generate", 1.0),
    "datagen.rows_to_csv_ms": ("datagen.rows_to_csv", 1.0),
    "datagen.rows_from_csv_ms": ("datagen.rows_from_csv", 1.0),
    "rdf.parse_ntriples_ms": ("rdf.parse_ntriples", 1.0),
    "rdf.serialize_ntriples_ms": ("rdf.serialize_ntriples", 1.0),
    "rdf.graph_copy_ms": ("rdf.graph_copy", 1.0),
    "ingest.ingest_rows_ms": ("ingest.ingest_rows", 1.0),
    "ingest.location_sequence_ms": ("ingest.location_sequence", 1.0),
    "ingest.transition_pairs_ms": ("ingest.transition_pairs", 1.0),
    "query.parse_query_ms": ("query.parse_query", 1.0),
    "query.evaluate_ms.location_by_time": ("query.evaluate.location_by_time", 1.0),
    "query.evaluate_ms.transitions": ("query.evaluate.transitions", 1.0),
    "vocab.init_ms": ("vocab.init", 1.0),
    "markov.count_ms": ("markov.count", 1.0),
    "markov.estimate_ms": ("markov.estimate", 1.0),
    "markov.dumps_matrix_ms": ("markov.dumps_matrix", 1.0),
    "markov.loads_matrix_ms": ("markov.loads_matrix", 1.0),
    "markov.matrix_power_ms": ("markov.matrix_power", 1.0),
    "markov.predict_ms": ("markov.predict", 1.0),
    "writeback.profile_ms": ("writeback.profile", 1.0),
    "writeback.profile_link_ms": ("writeback.profile_link", 1.0),
    "writeback.cco_ms": ("writeback.cco", 1.0),
    "writeback.read_probabilities_ms": ("writeback.read_probabilities", 1.0),
    "dot.day_subgraph_ms": ("dot.day_subgraph", 1.0),
    "dot.graph_to_dot_ms": ("dot.graph_to_dot", 1.0),
}


def _ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one run's spans.

    Per-call durations and per-unit costs use every span, set-up included
    (the 1,000-day parse happens at set-up); self time, shares and per-op
    counters use only spans inside timed ops, averaged per op.  A layer the
    workload never calls reads 0.
    """
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def counter(span, key):
        return span["counters"].get(key, 0)

    out = {metric: _median(_ms(s) for s in named(name)) * scale
           for metric, (name, scale) in _DURATIONS.items()}

    def per_unit(name, key, scale):
        return _median(_ms(s) * scale / counter(s, key) for s in named(name) if counter(s, key))

    out["rdf.parse_us_per_triple"] = per_unit("rdf.parse_ntriples", "rdf.triples", 1e3)
    out["rdf.serialize_us_per_triple"] = per_unit("rdf.serialize_ntriples", "rdf.triples", 1e3)
    out["ingest.us_per_day"] = per_unit("ingest.ingest_rows", "ingest.days", 1e3)
    rdf_io = named("rdf.parse_ntriples") + named("rdf.serialize_ntriples")
    out["rdf.triples"] = max((counter(s, "rdf.triples") for s in rdf_io), default=0)
    out["rdf.nt_bytes"] = max((counter(s, "rdf.nt_bytes") for s in rdf_io), default=0)
    estimates = named("markov.estimate") + named("markov.loads_matrix")
    out["markov.states"] = max((counter(s, "markov.states") for s in estimates), default=0)
    out["markov.unobserved_rows"] = max(
        (counter(s, "markov.unobserved_rows") for s in estimates), default=0)
    out["writeback.triples_added"] = _median(
        counter(s, "writeback.triples_added")
        for s in named("writeback.profile") + named("writeback.profile_link") + named("writeback.cco"))

    in_ops = [s for s in spans if s["op"] is not None]
    ops = [s for s in in_ops if s["name"].startswith("op.")]
    n_ops = max(len(ops), 1)
    op_wall = sum(_ms(s) for s in ops) or 1.0

    def per_op(key, names=None):
        return sum(counter(s, key) for s in in_ops
                   if names is None or s["name"].startswith(names)) / n_ops

    out["rdf.match_calls"] = per_op("rdf.match_calls")
    out["rdf.match_triples"] = per_op("rdf.match_triples")
    out["query.rows"] = per_op("query.rows", "query.evaluate.")
    rows = per_op("query.rows", "query.evaluate.") or 1.0
    out["query.match_calls_per_row"] = per_op("rdf.match_calls", "query.evaluate.") / rows
    out["query.match_triples_per_row"] = per_op("rdf.match_triples", "query.evaluate.") / rows
    out["vocab.inits"] = sum(1 for s in in_ops if s["name"] == "vocab.init") / n_ops

    child_ms: dict[str, float] = {}
    for span in in_ops:
        if span["parent"] is not None:
            child_ms[span["parent"]] = child_ms.get(span["parent"], 0.0) + _ms(span)
    self_ms = dict.fromkeys(LAYERS, 0.0)
    for span in in_ops:
        layer = span["name"].split(".", 1)[0]
        if layer in self_ms:
            self_ms[layer] += _ms(span) - child_ms.get(span["id"], 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ms[layer] / n_ops
        out[f"{layer}.share_pct"] = 100.0 * self_ms[layer] / op_wall
    out["trace.covered_pct"] = 100.0 * sum(self_ms.values()) / op_wall
    return out
