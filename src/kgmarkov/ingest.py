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
from dataclasses import dataclass
from datetime import datetime
from importlib import resources
from typing import Sequence

from .datagen import ObservationRow
from .errors import ToolkitError
from .query import Query, evaluate, parse_query
from .rdf import DATETIME, Graph, Iri, Literal, Triple, datetime_literal, term_to_ntriples
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
        return Iri(f"{self.namespace}fishingTripPart_d{day}")

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
    13n + (n - 1) + 3 + L triples.
    """
    if not rows:
        raise IngestError("cannot ingest an empty row sequence")
    for prev, cur in zip(rows, rows[1:]):
        if cur.time <= prev.time:
            raise IngestError(
                f"observation times must strictly increase ({cur.day_label})"
            )
    manifest = default_manifest()
    vocab = _shipped()
    graph = Graph()
    add = graph.insert
    add(Triple(manifest.vessel, vocab.type, vocab.Watercraft))
    add(Triple(manifest.vessel, vocab.participates_in, manifest.trip))
    add(Triple(manifest.trip, vocab.type, vocab.Process))
    for day, row in enumerate(rows, start=1):
        part = manifest.trip_part(day)
        observation = manifest.observation(day)
        st_instant = manifest.st_instant(day)
        t_instant = manifest.t_instant(day)
        track_point = manifest.track_point(day)
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
        add(Triple(manifest.trip_part(day), vocab.precedes, manifest.trip_part(day + 1)))
    for label in sorted({row.location for row in rows}):
        add(Triple(manifest.location(label), vocab.type, vocab.SpatialRegion))
    return graph


@functools.cache
def _location_query(vocab: Vocab) -> Query:
    """The bundled location query, parsed once per loaded vocabulary."""
    return parse_query(load_bundled_query("location_by_time"), vocab.prefixes)


def location_sequence(graph: Graph) -> list[tuple[datetime, Iri]]:
    """All observed (time, location) pairs, chronologically.

    A graph without the expected shape simply yields no rows; an ill-typed
    location or time is refused.
    """
    table = evaluate(_location_query(_shipped()), graph)
    log.info("location query returned %d rows", len(table.rows))
    out = []
    for when, where in table.rows:
        if not isinstance(where, Iri):
            raise IngestError(f"a track point lies in {term_to_ntriples(where)}, not an IRI")
        if not isinstance(when, Literal) or when.datatype != DATETIME:
            raise IngestError(f"an observation time is {term_to_ntriples(when)}, "
                              "not an xsd:dateTime literal")
        out.append((when.to_python(), where))
    return out


def transition_pairs(graph: Graph) -> list[tuple[Iri, Iri]]:
    """Consecutive (from, to) location pairs in chronological order."""
    locations = [where for _, where in location_sequence(graph)]
    return list(zip(locations, locations[1:]))
