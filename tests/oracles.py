"""Independent reference implementations the optimized code is tested against.

Everything here favors obviousness over speed: exhaustive enumeration for
query evaluation, a plain multiplication loop for matrix powers, exact
rational arithmetic and a row-at-a-time division loop for probability
estimation, a term-level, sorted ``Graph.match`` walk for the DOT day
fragment, an ingest that inserts one ``Triple`` at a time, a
``Graph.match`` walk from each track point to the vessel's timeline and
the realizations read off it, and front-to-back index loops that decode
N-Triples escapes and split a query into tokens.
"""

import random
import re
from datetime import datetime
from fractions import Fraction
from itertools import product

import numpy as np

from kgmarkov.ingest import default_manifest
from kgmarkov.query import Query, QueryError, TriplePattern, Var
from kgmarkov.rdf import (
    DATETIME,
    IRIREF_PATTERN,
    LITERAL_PATTERN,
    Graph,
    Iri,
    Literal,
    TermError,
    Triple,
    datetime_literal,
    integer_literal,
)
from kgmarkov.vocab import _shipped
from kgmarkov.writeback import state_token


def brute_force_rows(query: Query, graph: Graph, order_key: bool = False) -> list[tuple]:
    """Every projected solution of the basic graph pattern, found by trying
    every assignment of every pattern variable to every term in the graph.

    Returns an unordered bag (as a list); callers compare as multisets.
    With ``order_key``, each entry is (the ORDER BY variable's term, or None
    without one, and the projected row).
    """
    variables = sorted(
        {v for p in query.patterns for v in p.variables()}, key=lambda v: v.name
    )
    universe = set()
    for t in graph:
        universe.update((t.subject, t.predicate, t.object))
    universe = sorted(universe, key=repr)

    def substitute(term, assignment):
        if isinstance(term, Var):
            return assignment[term]
        return term

    rows = []
    for combo in product(universe, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        ok = True
        for pattern in query.patterns:
            s = substitute(pattern.subject, assignment)
            p = substitute(pattern.predicate, assignment)
            o = substitute(pattern.object, assignment)
            if not isinstance(s, Iri) or not isinstance(p, Iri):
                ok = False
                break
            if Triple(s, p, o) not in graph:
                ok = False
                break
        if ok:
            row = tuple(assignment[v] for v in query.projection)
            rows.append((assignment.get(query.order_by), row) if order_key else row)
    return rows


def random_graph_and_query(rng: random.Random) -> tuple[Graph, Query]:
    """A random small graph plus a random basic graph pattern over it.

    Pool sizes shrink as the variable count grows so the brute-force oracle
    stays enumerable: with k distinct variables the assignment space is
    |terms|^k.
    """
    variables = [Var(name) for name in "abcd"]
    k = rng.choice((1, 2, 2, 3, 3, 4))
    pool = 6 if k == 4 else 8
    iris = [Iri(f"http://example.org/data/t{i}") for i in range(pool)]
    predicates = iris[: max(3, pool // 2)]
    literals = [integer_literal(0), integer_literal(1), Literal("x")]
    objects = iris + literals

    graph = Graph()
    for _ in range(rng.randint(1, 100)):
        graph.insert(
            Triple(rng.choice(iris), rng.choice(predicates), rng.choice(objects))
        )

    chosen = variables[:k]

    def pick_term(position):
        if rng.random() < 0.55:
            return rng.choice(chosen)
        if position == "object":
            return rng.choice(objects)
        if position == "predicate":
            return rng.choice(predicates)
        return rng.choice(iris)

    while True:
        patterns = [
            TriplePattern(pick_term("subject"), pick_term("predicate"), pick_term("object"))
            for _ in range(rng.randint(1, 4))
        ]
        used = sorted(
            {v for p in patterns for v in p.variables()}, key=lambda v: v.name
        )
        if used:
            break
    projection = tuple(
        v for v in used if len(used) == 1 or rng.random() < 0.8
    ) or (used[0],)
    return graph, Query(projection, tuple(patterns), None)


def naive_power(p: np.ndarray, steps: int) -> np.ndarray:
    """Repeated left-to-right multiplication, one factor per step."""
    result = np.eye(p.shape[0])
    for _ in range(steps):
        result = result @ p
    return result


def rational_estimate(counts: np.ndarray) -> list[list[Fraction]]:
    """Row normalization in exact rational arithmetic; zero rows stay zero."""
    out = []
    for row in counts:
        total = int(row.sum())
        if total == 0:
            out.append([Fraction(0)] * len(row))
        else:
            out.append([Fraction(int(c), total) for c in row])
    return out


def row_loop_estimate(counts: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Each int64 count row divided by its total one row at a time, and each
    row's status: a row with no counts stays zero and is unobserved."""
    p = np.zeros(counts.shape, dtype=np.float64)
    status = []
    for i, row in enumerate(counts):
        total = row.sum()
        if total == 0:
            status.append("unobserved")
            continue
        p[i] = row / total
        status.append("observed")
    return p, status


def day_individual(stem: str, day: int) -> Iri:
    """The individual ingest mints for ``stem`` on observed day ``day``, named
    here without the manifest: ``ex:{stem}_d{day}``."""
    return Iri(f"{default_manifest().namespace}{stem}_d{day}")


def match_day_subgraph(graph: Graph, day: int) -> Graph:
    """One day's DOT fragment, selected term by term through ``Graph.match``:
    every triple about one of the day's nodes whose object is a literal, one
    of those nodes, or a vocabulary class."""
    manifest = default_manifest()
    vocab = _shipped()
    track_point = day_individual("trackPoint", day)
    nodes = {
        day_individual("fishingTripPart", day),
        day_individual("beingObserved", day),
        day_individual("stInstant", day),
        day_individual("tInstant", day),
        track_point,
        manifest.vessel,
        manifest.trip,
    }
    for t in graph.match(track_point, vocab.spatial_part_of, None):
        if isinstance(t.object, Iri):
            nodes.add(t.object)
    keep = nodes | vocab.class_iris()
    out = Graph()
    for node in nodes:
        for t in graph.match(node, None, None):
            if isinstance(t.object, Literal) or t.object in keep:
                out.insert(t)
    return out


def reference_timeline(graph: Graph):
    """The (time, place) pairs of the track points the vessel occupies, in
    time order, walked through ``Graph.match`` point by point; None unless
    every point has exactly one IRI place and one xsd:dateTime time, no two
    points share a time, and the distinct places have distinct, non-empty
    local names."""
    vessel, vocab = default_manifest().vessel, _shipped()
    timeline = []
    for occupation in graph.match(vessel, vocab.occupies_spatial_region, None):
        point = occupation.object
        places = [t.object for t in graph.match(point, vocab.spatial_part_of, None)]
        times = [t.object
                 for st_instant in graph.match(None, vocab.spatially_projects_onto, point)
                 for projection in graph.match(st_instant.subject,
                                               vocab.temporally_projects_onto, None)
                 for t in graph.match(projection.object, vocab.has_datetime_value, None)]
        if len(places) != 1 or len(times) != 1:
            return None
        (place,), (time,) = places, times
        if not (isinstance(place, Iri) and isinstance(time, Literal) and time.datatype == DATETIME):
            return None
        timeline.append((datetime.fromisoformat(time.lexical), place))
    if len({when for when, _ in timeline}) != len(timeline):
        return None
    names = [place.local_name() for place in {place for _, place in timeline}]
    if "" in names or len(set(names)) != len(names):
        return None
    return sorted(timeline)  # the times are distinct, so no place is compared


def reference_realizations(graph: Graph, counts, current: str) -> set[Triple]:
    """The realizes edges a linked profile writeback for ``current`` adds:
    for each step d of ``reference_timeline`` whose from-place has local name
    ``current`` and whose to-place's local name j is a state of ``counts``,
    (fishingTripPart_d{d+1}, realizes, {s}to{j}_Disposition)."""
    manifest, vocab = default_manifest(), _shipped()
    names = [place.local_name() for _, place in reference_timeline(graph)]

    def disposition(to):
        return Iri(f"{manifest.namespace}{state_token(current)}to{state_token(to)}_Disposition")
    return {Triple(day_individual("fishingTripPart", d + 1), vocab.realizes, disposition(to))
            for d, (start, to) in enumerate(zip(names, names[1:]), start=1)
            if start == current and to in counts.space.states}


def triple_ingest(rows) -> Graph:
    """The activity graph of ``ingest_rows``, built one ``Graph.insert`` of
    one ``Triple`` at a time, each day's triples written out longhand."""
    manifest = default_manifest()
    vocab = _shipped()
    graph = Graph()
    add = graph.insert
    add(Triple(manifest.vessel, vocab.type, vocab.Watercraft))
    add(Triple(manifest.vessel, vocab.participates_in, manifest.trip))
    add(Triple(manifest.trip, vocab.type, vocab.Process))
    for day, row in enumerate(rows, start=1):
        part = day_individual("fishingTripPart", day)
        observation = day_individual("beingObserved", day)
        st_instant = day_individual("stInstant", day)
        t_instant = day_individual("tInstant", day)
        track_point = day_individual("trackPoint", day)
        location = manifest.location(row.location)
        add(Triple(part, vocab.type, vocab.Process))
        add(Triple(manifest.trip, vocab.has_occurrent_part, part))
        add(Triple(part, vocab.has_occurrent_part, observation))
        add(Triple(observation, vocab.type, vocab.ProcessBoundary))
        add(Triple(observation, vocab.occupies_spatiotemporal_region, st_instant))
        add(Triple(st_instant, vocab.type, vocab.SpatiotemporalInstant))
        add(Triple(st_instant, vocab.spatially_projects_onto, track_point))
        add(Triple(st_instant, vocab.temporally_projects_onto, t_instant))
        add(Triple(t_instant, vocab.type, vocab.TemporalInstant))
        add(Triple(t_instant, vocab.has_datetime_value, datetime_literal(row.time)))
        add(Triple(track_point, vocab.type, vocab.VehicleTrackPoint))
        add(Triple(track_point, vocab.spatial_part_of, location))
        add(Triple(manifest.vessel, vocab.occupies_spatial_region, track_point))
    for day in range(1, len(rows)):
        add(Triple(day_individual("fishingTripPart", day), vocab.precedes,
                   day_individual("fishingTripPart", day + 1)))
    for label in sorted({row.location for row in rows}):
        add(Triple(manifest.location(label), vocab.type, vocab.SpatialRegion))
    return graph


def scan_escapes(text: str) -> str:
    """The N-Triples ECHAR and UCHAR escapes of a literal's text decoded by an
    index loop, refusing a bad escape with the same ``TermError`` message as
    ``unescape_lexical``."""
    echar = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'",
             "\\": "\\"}
    uchar_widths = {"u": 4, "U": 8}
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            raise TermError("dangling backslash in literal")
        nxt = text[i + 1]
        if nxt in uchar_widths:
            width = uchar_widths[nxt]
            digits = text[i + 2 : i + 2 + width]
            if len(digits) != width or not re.fullmatch(r"[0-9A-Fa-f]+", digits):
                raise TermError(f"bad escape sequence: \\{nxt}{digits}")
            code = int(digits, 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise TermError(f"escape is not a Unicode scalar value: \\{nxt}{digits}")
            out.append(chr(code))
            i += 2 + width
            continue
        if nxt not in echar:
            raise TermError(f"unknown escape sequence: \\{nxt}")
        out.append(echar[nxt])
        i += 2
    return "".join(out)


_SCAN_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<lbrace>\{{)
      | (?P<rbrace>\}})
      | (?P<dot>\.)
      | (?P<dtsep>\^\^)
      | (?P<iriref>{IRIREF_PATTERN})
      | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
      | (?P<literal>{LITERAL_PATTERN})
      | (?P<pname>[A-Za-z_][A-Za-z0-9_.\-]*:[A-Za-z_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)
      | (?P<word>[A-Za-z]+)
    """,
    re.VERBOSE,
)


def scan_tokens(text: str) -> list[tuple[str, str, int, int]]:
    """A query's tokens as (kind, text, line, column), found by matching one
    token at a time from the front while counting lines; the last is
    ("eof", "", line, column).  A character no token starts with raises
    ``QueryError`` with its line and column."""
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _SCAN_TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise QueryError(f"line {line}:{col}: unexpected character {text[pos]!r}")
        if m.lastgroup not in ("ws", "comment"):
            tokens.append((m.lastgroup, m.group(), line, pos - line_start + 1))
        newlines = m.group().count("\n")
        if newlines:
            line += newlines
            line_start = pos + m.group().rfind("\n") + 1
        pos = m.end()
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens
