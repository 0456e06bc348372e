"""Static DOT renderings of graph fragments.

Two fragment selectors mirror the diagrams this data is usually shown as:
one observed day's bundle of individuals, and the probability-writeback
structure.  Output is plain Graphviz text with nodes labeled by local name
and edges by property local name, sorted so files diff cleanly.
"""

from __future__ import annotations

from .errors import ToolkitError
from .ingest import PLACE, TIME, TRIP_PART, _day_query, minted
from .rdf import Graph, Iri, Literal, Triple
from .vocab import _shipped
from .writeback import PREDICTED_FLAG


class DotError(ToolkitError):
    """The requested fragment is not present in the graph."""


def day_subgraph(graph: Graph, day: int) -> Graph:
    """The triples describing a single observed day.

    Its nodes are ``day.rq``'s on that day: the constant subjects (the
    vessel and the trip), the individual minted for each variable, and the
    location that ``?location`` binds."""
    vocab = _shipped()
    patterns = _day_query(vocab).patterns
    individuals = {var: minted(var.name, day)
                   for p in patterns for var in p.variables() if var not in (TIME, PLACE)}
    if not graph.match_keys(individuals[TRIP_PART].key):
        raise DotError(f"day {day} is not present in the graph")
    nodes = {*individuals.values(), *(p.subject for p in patterns if isinstance(p.subject, Iri))}
    for p in patterns:
        if p.object == PLACE:
            nodes.update(t.object for t in graph.match(individuals[p.subject], p.predicate, None)
                         if isinstance(t.object, Iri))
    keep = {node.key for node in nodes | vocab.class_iris()}
    term = graph.term
    out = Graph()
    for node in nodes:
        for _, p, o in graph.match_keys(node.key):
            # a key starting with a quote is a literal's
            if o[0] == '"' or o in keep:
                out.insert(Triple(node, term(p), term(o)))
    return out


def writeback_subgraph(graph: Graph) -> Graph:
    """Everything the probability writeback added: each triple about one of
    its individuals, and each triple whose object is one, such as a linked
    writeback's realizes edges from the observed trip parts."""
    vocab = _shipped()
    wb_classes = (
        vocab.PatternOfLife,
        vocab.PatternProcessProfile,
        vocab.MarkovPMICE,
        vocab.TransitionCountICE,
        vocab.TransitionTotalICE,
        vocab.Disposition,
    )
    subjects: set[Iri] = set()
    for cls in wb_classes:
        for t in graph.match(None, vocab.type, cls):
            subjects.add(t.subject)
    for t in graph.match(None, vocab.predicted, Literal(PREDICTED_FLAG)):
        subjects.add(t.subject)
    if not subjects:
        raise DotError("the graph holds no writeback structure")
    out = Graph()
    for subject in subjects:
        for t in graph.match(subject, None, None) + graph.match(None, None, subject):
            out.insert(t)
    return out


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(graph: Graph, name: str = "activity") -> str:
    """Render any graph as deterministic Graphviz text."""
    node_lines = set()
    edge_lines = set()
    for t in graph:
        subject_id = t.subject.value
        node_lines.add(
            f"  {_quote(subject_id)} [label={_quote(t.subject.local_name())}];"
        )
        if isinstance(t.object, Iri):
            object_id = t.object.value
            node_lines.add(
                f"  {_quote(object_id)} [label={_quote(t.object.local_name())}];"
            )
        else:
            object_id = t.object.key
            node_lines.add(
                f"  {_quote(object_id)} [label={_quote(t.object.lexical)}, shape=box];"
            )
        edge_lines.add(
            f"  {_quote(subject_id)} -> {_quote(object_id)} "
            f"[label={_quote(t.predicate.local_name())}];"
        )

    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;"]
    lines.extend(sorted(node_lines))
    lines.extend(sorted(edge_lines))
    lines.append("}")
    return "\n".join(lines) + "\n"
