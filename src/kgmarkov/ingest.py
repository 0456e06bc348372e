"""Turn observation rows into the activity knowledge graph and back.

Each observed day becomes a bundle of individuals: a trip part containing
an instantaneous observation, the spatiotemporal instant it occupies, that
instant's spatial and temporal projections, and the vessel's occupation of
the track point.  The bundled ``day.rq`` states that shape once: ingest
writes each day from its patterns, and the other bundled queries read a
part of it.  Consecutive trip parts are chained with ``precedes``.
Reading happens through the bundled location query, not ad hoc traversal;
transitions are the consecutive pairs of its chronological rows.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from datetime import datetime
from importlib import resources
from typing import Sequence

from .datagen import ObservationRow
from .errors import ToolkitError
from .query import Query, Var, evaluate, parse_query
from .rdf import DATETIME, Graph, Iri, Literal, Term, TermError, datetime_literal
from .vocab import Vocab, _shipped

BUNDLED_QUERIES = ("day", "location_by_time", "transitions")
# day.rq's variables that an observation row binds; ingest mints the others, such as the trip part
TIME, PLACE, TRIP_PART = Var("datetime"), Var("location"), Var("fishingTripPart")

class IngestError(ToolkitError):
    """Observation rows unsuitable for graph construction."""


def load_bundled_query(name: str) -> str:
    """Read one of the packaged query files by its short name, such as ``transitions``."""
    if name not in BUNDLED_QUERIES:
        raise IngestError(
            f"no bundled query named {name!r} (bundled: {', '.join(BUNDLED_QUERIES)})")
    return resources.files("kgmarkov").joinpath("data", name + ".rq").read_text()


# the local names of the vessel and of the trip that every observed day is a part of
VESSEL, TRIP = "fishingVessel", "fishingTrip"


def ex(local: str) -> Iri:
    """The individual ``local`` in the shipped ``ex`` namespace, where every
    individual the pipeline mints is named."""
    return Iri(_shipped().prefixes.namespace("ex") + local)


def minted(variable: str, day: int) -> Iri:
    """The individual that ``day.rq``'s ``?variable`` names on observed day ``day``."""
    return ex(f"{variable}_d{day}")


def ingest_rows(rows: Sequence[ObservationRow]) -> Graph:
    """Build the full activity graph for a sequence of daily observations.

    For n rows over L distinct locations the result holds exactly
    13n + (n - 1) + 3 + L triples.  Each day is the 13 patterns of the
    bundled ``day.rq`` with its variables bound: ``?datetime`` and
    ``?location`` to the row's time and location, every other ``?v`` to
    the individual ``minted(v, day)``.  Every term is built by its
    validating constructor, which sets its key, and stored by
    ``Graph._key``; triples are written as keys.
    """
    if not rows:
        raise IngestError("cannot ingest an empty row sequence")
    for day, row in enumerate(rows, start=1):
        if row.time.tzinfo is not None or row.time.microsecond:  # checked before any compare
            raise IngestError(f"Day{day}: time {row.time.isoformat()} has a time zone or a "
                              "fraction of a second; the graph keeps naive whole seconds")
        if day > 1 and row.time <= rows[day - 2].time:
            raise IngestError(f"observation times must strictly increase (Day{day})")
    v = _shipped()
    graph = Graph()
    key, write = graph._key, graph._add
    vessel, trip, rdf_type, process = key(ex(VESSEL)), key(ex(TRIP)), key(v.type), key(v.Process)
    write(vessel, rdf_type, key(v.Watercraft))
    write(vessel, key(v.participates_in), trip)
    write(trip, rdf_type, process)
    locations = {}
    for label in sorted({row.location for row in rows}):  # once per label, not per row
        try:
            iri = ex(label)
        except TermError:
            iri = None
        if iri is None or not label or iri.local_name() != label:  # the IRI reads back as label
            day = next(day for day, row in enumerate(rows, start=1) if row.location == label)
            raise IngestError(f"Day{day}: location {label!r} is not the local name of an IRI")
        locations[label] = key(iri)
    # a day's terms by slot: the template's constants, the row's time and place, the minted
    patterns = _day_query(v).patterns
    positions = dict.fromkeys(t for p in patterns for t in (p.subject, p.predicate, p.object))
    constants = {t: key(t) for t in positions if not isinstance(t, Var)}
    individuals = [t for t in positions if isinstance(t, Var) and t not in (TIME, PLACE)]
    slot = {t: i for i, t in enumerate([*constants, TIME, PLACE, *individuals])}
    writes = [(slot[p.subject], slot[p.predicate], slot[p.object]) for p in patterns]
    first, part, parts = list(constants.values()), slot[TRIP_PART], []
    stems = [ex(f"{var.name}_d").value for var in individuals]  # stem + day is minted(var, day)
    for day, row in enumerate(rows, start=1):
        terms = [*first, key(datetime_literal(row.time)), locations[row.location],
                 *[key(Iri(f"{stem}{day}")) for stem in stems]]
        for s, p, o in writes:
            write(terms[s], terms[p], terms[o])
        parts.append(terms[part])
    if len(parts) > 1:  # a one-day graph has no precedes edge, so no such key
        precedes = key(v.precedes)
        for earlier, later in zip(parts, parts[1:]):
            write(earlier, precedes, later)
    region = key(v.SpatialRegion)
    for location in locations.values():
        write(location, rdf_type, region)
    return graph


@functools.cache
def _day_query(vocab: Vocab) -> Query:
    """The bundled day template, parsed once per vocabulary."""
    return parse_query(load_bundled_query("day"), vocab.prefixes)


@functools.cache
def _location_query(vocab: Vocab) -> Query:
    """The bundled location query, parsed once per vocabulary, also projecting the track point."""
    query = parse_query(load_bundled_query("location_by_time"), vocab.prefixes)
    return replace(query, projection=(*query.projection, Var("trackPoint")))


def location_sequence(graph: Graph) -> list[tuple[datetime, Iri]]:
    """All observed (time, location) pairs, chronologically.

    A graph with no observations yields no rows.  Refused: an ill-typed
    location or time, two rows at one time (a transition inside one observed
    instant), a track point of the vessel's without exactly one row, which
    would drop or repeat its day, and a location whose local name, the state
    label every chain reads, is empty or also names another location.
    """
    return _timeline(graph)[0]


def _timeline(graph: Graph) -> tuple[list[tuple[datetime, Iri]], list[tuple[Term, Term, Iri]]]:
    """``location_sequence``'s rows, and the location query's (time, place,
    track point) row that each was read from."""
    rows = evaluate(_location_query(_shipped()), graph).rows
    times, places, seen, repeated, labels = [], [], set(), None, {}
    for when, where, point in rows:
        if not isinstance(where, Iri):
            raise IngestError(f"a track point lies in {where.key}, not an IRI")
        if where.key not in labels:
            labels[where.key] = where.local_name()
        if not isinstance(when, Literal) or when.datatype != DATETIME:
            raise IngestError(f"an observation time is {when.key}, not an xsd:dateTime literal")
        # sorted on the time key, one spelling per instant: equal times are neighbours
        if times and when.lexical == times[-1]:
            raise IngestError(f"two observations at one instant, {when.lexical}: "
                              f"in {places[-1].value} and in {where.value}")
        repeated = point if point.key in seen else repeated
        seen.add(point.key)
        times.append(when.lexical)
        places.append(where)
    # the bucket's length: match_keys would build a tuple per point, +8% on this call
    vessel, occupies = ex(VESSEL), _shipped().occupies_spatial_region
    points = len(graph._spo.get(vessel.key, {}).get(occupies.key, ()))
    if len(rows) != points:
        raise IngestError(f"the location query returned {len(rows)} rows for the "
                          f"{points} track points the vessel occupies")
    if repeated is not None:
        raise IngestError(f"track point {repeated.value} has more than one observation time")
    first: dict[str, str] = {}  # label -> key of the first place, in time order, to bear it
    for key, label in labels.items():
        if not label:
            raise IngestError(f"location {key} has an empty local name")
        if first.setdefault(label, key) != key:
            raise IngestError(f"locations {first[label]} and {key} "
                              f"share the local name {label!r}")
    return list(zip(map(datetime.fromisoformat, times), places)), rows


def transition_pairs(graph: Graph) -> list[tuple[Iri, Iri]]:
    """Consecutive (from, to) location pairs in chronological order."""
    locations = [where for _, where in location_sequence(graph)]
    return list(zip(locations, locations[1:]))
