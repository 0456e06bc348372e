"""Turn observation rows into the activity knowledge graph and back.

Each observed day becomes a bundle of individuals: a trip part containing
an instantaneous observation, the spatiotemporal instant it occupies, that
instant's spatial and temporal projections, and the vessel's occupation of
the track point.  Consecutive trip parts are chained with ``precedes``.
Reading happens through the bundled location query, not ad hoc traversal;
transitions are the consecutive pairs of its chronological rows.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, replace
from datetime import datetime
from importlib import resources
from typing import Sequence

from .datagen import ObservationRow
from .errors import ToolkitError
from .query import Query, Var, evaluate, parse_query
from .rdf import DATETIME, Graph, Iri, Literal, datetime_literal
from .vocab import Vocab, _shipped

log = logging.getLogger(__name__)

BUNDLED_QUERIES = ("location_by_time", "transitions")

class IngestError(ToolkitError):
    """Observation rows unsuitable for graph construction."""


def load_bundled_query(name: str) -> str:
    """Read one of the packaged query files by short name or file name."""
    stem = name[:-3] if name.endswith(".rq") else name
    if stem not in BUNDLED_QUERIES:
        raise IngestError(
            f"no bundled query named {name!r} (bundled: {', '.join(BUNDLED_QUERIES)})")
    return resources.files("kgmarkov").joinpath("data", stem + ".rq").read_text()


@dataclass(frozen=True)
class IngestManifest:
    """Naming policy for every individual the ingest step mints."""

    vessel: Iri
    trip: Iri
    namespace: str

    def trip_part(self, day: int) -> Iri:
        return Iri(self.trip_part_key(day)[1:-1])

    def trip_part_key(self, day: int) -> str:
        """``trip_part(day).key``, spelled without building and validating the IRI."""
        return f"<{self.namespace}fishingTripPart_d{day}>"

    def observation(self, day: int) -> Iri:
        return Iri(f"{self.namespace}beingObserved_d{day}")

    def st_instant(self, day: int) -> Iri:
        return Iri(f"{self.namespace}stInstant_d{day}")

    def t_instant(self, day: int) -> Iri:
        return Iri(f"{self.namespace}tInstant_d{day}")

    def track_point(self, day: int) -> Iri:
        return Iri(f"{self.namespace}trackPoint_d{day}")

    def location(self, label: str) -> Iri:
        return Iri(f"{self.namespace}{label}")

    def future_trip_part(self, day: int) -> Iri:
        """Trip part for a day that has not happened yet, named without the
        observed-day marker."""
        return Iri(f"{self.namespace}fishingTripPart_{day}")


def default_manifest() -> IngestManifest:
    ns = _shipped().prefixes.namespace("ex")
    return IngestManifest(Iri(ns + "fishingVessel"), Iri(ns + "fishingTrip"), ns)


def ingest_rows(rows: Sequence[ObservationRow]) -> Graph:
    """Build the full activity graph for a sequence of daily observations.

    For n rows over L distinct locations the result holds exactly
    13n + (n - 1) + 3 + L triples.  The 13 writes in the day loop are the
    one place in the code that states a day's shape, and the bundled
    ``.rq`` queries read that shape back.  Every term is built by its
    validating constructor, which sets its key, and stored by
    ``Graph._key``; triples are written as keys.
    """
    if not rows:
        raise IngestError("cannot ingest an empty row sequence")
    for prev, cur in zip(rows, rows[1:]):
        if cur.time <= prev.time:
            raise IngestError(
                f"observation times must strictly increase ({cur.day_label})"
            )
    m, v = default_manifest(), _shipped()
    graph = Graph()
    key, write = graph._key, graph._add
    vessel, trip, rdf_type, process = key(m.vessel), key(m.trip), key(v.type), key(v.Process)
    write(vessel, rdf_type, key(v.Watercraft))
    write(vessel, key(v.participates_in), trip)
    write(trip, rdf_type, process)
    locations = {label: key(m.location(label)) for label in sorted({row.location for row in rows})}
    has_part, occupies_st = key(v.has_occurrent_part), key(v.occupies_spatiotemporal_region)
    boundary, st_class = key(v.ProcessBoundary), key(v.SpatiotemporalInstant)
    projects_s, projects_t = key(v.spatially_projects_onto), key(v.temporally_projects_onto)
    t_class, has_time = key(v.TemporalInstant), key(v.has_datetime_value)
    point_class, part_of = key(v.VehicleTrackPoint), key(v.spatial_part_of)
    occupies = key(v.occupies_spatial_region)
    parts = []
    for day, row in enumerate(rows, start=1):
        part, observation = key(m.trip_part(day)), key(m.observation(day))
        st_instant, t_instant = key(m.st_instant(day)), key(m.t_instant(day))
        point = key(m.track_point(day))
        parts.append(part)
        write(part, rdf_type, process)
        write(trip, has_part, part)
        write(part, has_part, observation)
        write(observation, rdf_type, boundary)
        write(observation, occupies_st, st_instant)
        write(st_instant, rdf_type, st_class)
        write(st_instant, projects_s, point)
        write(st_instant, projects_t, t_instant)
        write(t_instant, rdf_type, t_class)
        write(t_instant, has_time, key(datetime_literal(row.time)))
        write(point, rdf_type, point_class)
        write(point, part_of, locations[row.location])
        write(vessel, occupies, point)
    if len(parts) > 1:  # a one-day graph has no precedes edge, so no such key
        precedes = key(v.precedes)
        for part, next_part in zip(parts, parts[1:]):
            write(part, precedes, next_part)
    region = key(v.SpatialRegion)
    for location in locations.values():
        write(location, rdf_type, region)
    return graph


@functools.cache
def _location_query(vocab: Vocab) -> Query:
    """The bundled location query, parsed once per vocabulary, also projecting the track point."""
    query = parse_query(load_bundled_query("location_by_time"), vocab.prefixes)
    return replace(query, projection=(*query.projection, Var("fishingVesselTrackPoint")))


def location_sequence(graph: Graph) -> list[tuple[datetime, Iri]]:
    """All observed (time, location) pairs, chronologically.

    A graph with no observations yields no rows.  Refused: an ill-typed
    location or time, two rows at one time (a transition inside one observed
    instant), a track point of the vessel's without exactly one row, which
    would drop or repeat its day, and a location whose local name, the state
    label every chain reads, is empty or also names another location.
    """
    rows = evaluate(_location_query(_shipped()), graph).rows
    log.info("location query returned %d rows", len(rows))
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
