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
from .rdf import DATETIME, Graph, Iri, Literal, Term, datetime_literal, term_to_ntriples
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


# The slots of a day's key row that follow the template's constant keys, in
# the order ingest_rows fills them.
_DAY_SLOTS = ("part", "observation", "st_instant", "t_instant", "track_point", "time", "location")


@functools.cache
def _day_template(vocab: Vocab) -> tuple[dict[str, Term], tuple[tuple[int, str, int], ...]]:
    """The 13 triples of one observed day, built once per loaded vocabulary.

    Returns the template's constant terms by key, and each triple as
    (subject slot, predicate key, object slot).  A slot indexes a day's key
    row: the constant keys in the order of that dict, then one key per
    ``_DAY_SLOTS`` name.
    """
    m, v = default_manifest(), vocab
    shape = (
        ("part", v.type, v.Process),
        (m.trip, v.has_occurrent_part, "part"),
        ("part", v.has_occurrent_part, "observation"),
        ("observation", v.type, v.ProcessBoundary),
        ("observation", v.occupies_spatiotemporal_region, "st_instant"),
        ("st_instant", v.type, v.SpatiotemporalInstant),
        ("st_instant", v.spatially_projects_onto, "track_point"),
        ("st_instant", v.temporally_projects_onto, "t_instant"),
        ("t_instant", v.type, v.TemporalInstant),
        ("t_instant", v.has_datetime_value, "time"),
        ("track_point", v.type, v.VehicleTrackPoint),
        ("track_point", v.spatial_part_of, "location"),
        (m.vessel, v.occupies_spatial_region, "track_point"),
    )
    constants = {term_to_ntriples(t): t for triple in shape for t in triple
                 if not isinstance(t, str)}
    slots = {name: i for i, name in enumerate([*constants, *_DAY_SLOTS])}

    def slot(t):
        return slots[t if isinstance(t, str) else term_to_ntriples(t)]

    return constants, tuple((slot(s), term_to_ntriples(p), slot(o)) for s, p, o in shape)


def ingest_rows(rows: Sequence[ObservationRow]) -> Graph:
    """Build the full activity graph for a sequence of daily observations.

    For n rows over L distinct locations the result holds exactly
    13n + (n - 1) + 3 + L triples.  Each day's 13 come from one template,
    ``_day_template``: it is the one place in the code that states a day's
    shape, and the bundled ``.rq`` queries read that shape back.  Every
    term is built by its validating constructor and keyed once; triples are
    written as keys.
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
    constants, template = _day_template(vocab)
    graph = Graph()
    terms, write = graph._terms, graph._add
    terms.update(constants)

    def key(term: Term) -> str:
        k = term_to_ntriples(term)
        terms[k] = term
        return k

    vessel, trip, rdf_type = key(manifest.vessel), key(manifest.trip), key(vocab.type)
    write(vessel, rdf_type, key(vocab.Watercraft))
    write(vessel, key(vocab.participates_in), trip)
    write(trip, rdf_type, key(vocab.Process))
    locations = {label: key(manifest.location(label))
                 for label in sorted({row.location for row in rows})}
    first = tuple(constants)
    parts = []
    for day, row in enumerate(rows, start=1):
        day_terms = (manifest.trip_part(day), manifest.observation(day),
                     manifest.st_instant(day), manifest.t_instant(day),
                     manifest.track_point(day), datetime_literal(row.time))
        day_keys = tuple(map(term_to_ntriples, day_terms))
        terms.update(zip(day_keys, day_terms))
        parts.append(day_keys[0])
        keys = first + day_keys + (locations[row.location],)
        for s, p, o in template:
            write(keys[s], p, keys[o])
    precedes = key(vocab.precedes)
    for part, next_part in zip(parts, parts[1:]):
        write(part, precedes, next_part)
    region = key(vocab.SpatialRegion)
    for location in locations.values():
        write(location, rdf_type, region)
    return graph


@functools.cache
def _location_query(vocab: Vocab) -> Query:
    """The bundled location query, parsed once per loaded vocabulary."""
    return parse_query(load_bundled_query("location_by_time"), vocab.prefixes)


def location_sequence(graph: Graph) -> list[tuple[datetime, Iri]]:
    """All observed (time, location) pairs, chronologically.

    A graph without the expected shape simply yields no rows; an ill-typed
    location or time is refused, and so are two rows at one time, which
    would make up a transition inside one observed instant.
    """
    table = evaluate(_location_query(_shipped()), graph)
    log.info("location query returned %d rows", len(table.rows))
    out = []
    previous = None
    for when, where in table.rows:
        if not isinstance(where, Iri):
            raise IngestError(f"a track point lies in {term_to_ntriples(where)}, not an IRI")
        if not isinstance(when, Literal) or when.datatype != DATETIME:
            raise IngestError(f"an observation time is {term_to_ntriples(when)}, "
                              "not an xsd:dateTime literal")
        # rows come sorted on the time key, so equal times are neighbours
        if when == previous:
            raise IngestError(f"two observations at one instant, {when.lexical}: "
                              f"in {out[-1][1].value} and in {where.value}")
        out.append((when.to_python(), where))
        previous = when
    return out


def transition_pairs(graph: Graph) -> list[tuple[Iri, Iri]]:
    """Consecutive (from, to) location pairs in chronological order."""
    locations = [where for _, where in location_sequence(graph)]
    return list(zip(locations, locations[1:]))
