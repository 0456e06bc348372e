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
from dataclasses import dataclass, replace
from datetime import datetime
from importlib import resources
from typing import Sequence

from .datagen import ObservationRow
from .errors import ToolkitError
from .query import Query, Var, evaluate, parse_query
from .rdf import DATETIME, Graph, Iri, Literal, TermError, datetime_literal
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


@dataclass(frozen=True)
class IngestManifest:
    """Naming policy for every individual the ingest step mints.

    One rule, ``minted``, names each individual of an observed day after
    the ``day.rq`` variable that stands for it."""

    vessel: Iri
    trip: Iri
    namespace: str

    def minted(self, variable: str, day: int) -> str:
        """The IRI text of ``day.rq``'s ``?variable`` on observed day ``day``."""
        return f"{self.namespace}{variable}_d{day}"

    def location(self, label: str) -> Iri:
        return Iri(f"{self.namespace}{label}")

    def future_trip_part(self, day: int) -> Iri:
        """Trip part for a day that has not happened yet, named without the
        observed-day marker."""
        return Iri(f"{self.namespace}{TRIP_PART.name}_{day}")


def default_manifest() -> IngestManifest:
    ns = _shipped().prefixes.namespace("ex")
    return IngestManifest(Iri(ns + "fishingVessel"), Iri(ns + "fishingTrip"), ns)


def ingest_rows(rows: Sequence[ObservationRow]) -> Graph:
    """Build the full activity graph for a sequence of daily observations.

    For n rows over L distinct locations the result holds exactly
    13n + (n - 1) + 3 + L triples.  Each day is the 13 patterns of the
    bundled ``day.rq`` with its variables bound: ``?datetime`` and
    ``?location`` to the row's time and location, every other ``?v`` to
    the individual ``IngestManifest.minted(v, day)``.  Every term is built
    by its validating constructor, which sets its key, and stored by
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
    m, v = default_manifest(), _shipped()
    graph = Graph()
    key, write = graph._key, graph._add
    vessel, trip, rdf_type, process = key(m.vessel), key(m.trip), key(v.type), key(v.Process)
    write(vessel, rdf_type, key(v.Watercraft))
    write(vessel, key(v.participates_in), trip)
    write(trip, rdf_type, process)
    locations = {}
    for label in sorted({row.location for row in rows}):  # once per label, not per row
        try:
            iri = m.location(label)
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
    minted = [t for t in positions if isinstance(t, Var) and t not in (TIME, PLACE)]
    slot = {t: i for i, t in enumerate([*constants, TIME, PLACE, *minted])}
    writes = [(slot[p.subject], slot[p.predicate], slot[p.object]) for p in patterns]
    first, part, parts = list(constants.values()), slot[TRIP_PART], []
    for day, row in enumerate(rows, start=1):
        terms = [*first, key(datetime_literal(row.time)), locations[row.location],
                 *[key(Iri(m.minted(var.name, day))) for var in minted]]
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
    vessel, occupies = default_manifest().vessel, _shipped().occupies_spatial_region
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
    return list(zip(map(datetime.fromisoformat, times), places))


def transition_pairs(graph: Graph) -> list[tuple[Iri, Iri]]:
    """Consecutive (from, to) location pairs in chronological order."""
    locations = [where for _, where in location_sequence(graph)]
    return list(zip(locations, locations[1:]))
