from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgmarkov.datagen import GenConfig, ObservationRow, generate
from kgmarkov.ingest import (
    BUNDLED_QUERIES,
    PLACE,
    TRIP,
    VESSEL,
    IngestError,
    ex,
    ingest_rows,
    load_bundled_query,
    location_sequence,
    minted,
    transition_pairs,
)
from kgmarkov.query import TriplePattern, Var, evaluate, parse_query
from kgmarkov.rdf import Graph, Iri, Triple, datetime_literal, serialize_ntriples

from conftest import THREE_DAY_ROWS, graph_of, one_string_per_key
from oracles import reference_timeline, triple_ingest

E = "http://example.org/data/"
B = "http://example.org/ontology/bfo/"
C = "http://example.org/ontology/cco/"
R = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
X = "http://www.w3.org/2001/XMLSchema#"


# Up to 30 days over four location labels, and the hours between them.
_labels = st.lists(st.sampled_from(("location1", "location2", "location3", "harbor")),
                   min_size=1, max_size=30)
_gaps_hours = st.lists(st.integers(1, 72), min_size=29, max_size=29)


def _rows(labels, gaps_hours):
    times = [datetime(2023, 4, 8, 12)]
    for gap in gaps_hours[:len(labels) - 1]:
        times.append(times[-1] + timedelta(hours=gap))
    return [ObservationRow(t, label) for t, label in zip(times, labels)]


# An edit for each day of a small ingested graph: a kind, another day and
# an hour count.
_edits = st.lists(st.tuples(
    st.sampled_from(("keep", "drop time", "second time", "second place", "share time",
                     "other namespace", "empty name")),
    st.integers(1, 6), st.integers(1, 48)), min_size=6, max_size=6)


def _edited(rows, edits, vocab):
    """The graph of ``rows`` after the edit of each day in turn: the day
    keeps its triples, loses its time, gains a second time ``hours`` later,
    has its track point in a second place, takes another day's time, or has
    its place moved to another namespace under the same local name, or to
    an IRI ending in "/", whose local name is empty."""
    triples = set(ingest_rows(rows))
    for day, (kind, other, hours) in enumerate(edits[:len(rows)], start=1):
        time_of_day = (minted("tInstant", day), vocab.has_datetime_value)
        point = minted("trackPoint", day)
        if kind in ("drop time", "share time"):
            triples = {t for t in triples if (t.subject, t.predicate) != time_of_day}
        if kind == "second time":
            later = rows[day - 1].time + timedelta(hours=hours)
            triples.add(Triple(*time_of_day, datetime_literal(later)))
        elif kind == "share time":
            other_time = rows[min(other, len(rows)) - 1].time
            triples.add(Triple(*time_of_day, datetime_literal(other_time)))
        elif kind == "second place":
            triples.add(Triple(point, vocab.spatial_part_of, ex(f"location{hours % 4}")))
        elif kind in ("other namespace", "empty name"):
            label = rows[day - 1].location
            place = (Iri(f"http://example.org/alt/{label}") if kind == "other namespace"
                     else ex(label + "/"))
            triples.remove(Triple(point, vocab.spatial_part_of, ex(label)))
            triples.add(Triple(point, vocab.spatial_part_of, place))
    return graph_of(triples)


def _line(s, p, o):
    return f"<{s}> <{p}> <{o}> ."


def _lit_line(s, p, lexical, datatype):
    return f'<{s}> <{p}> "{lexical}"^^<{X}{datatype}> .'


# Every triple the three-day fixture must produce, written out longhand so
# the construction code is checked against an independent enumeration.
EXPECTED_THREE_DAY_LINES = [
    _line(E + "fishingVessel", R + "type", C + "Watercraft"),
    _line(E + "fishingVessel", B + "participates_in", E + "fishingTrip"),
    _line(E + "fishingTrip", R + "type", B + "Process"),
    # day 1: location3 at 2023-04-08 12:00:00
    _line(E + "fishingTripPart_d1", R + "type", B + "Process"),
    _line(E + "fishingTrip", B + "has_occurrent_part", E + "fishingTripPart_d1"),
    _line(E + "fishingTripPart_d1", B + "has_occurrent_part", E + "beingObserved_d1"),
    _line(E + "beingObserved_d1", R + "type", B + "ProcessBoundary"),
    _line(E + "beingObserved_d1", B + "occupies_spatiotemporal_region", E + "stInstant_d1"),
    _line(E + "stInstant_d1", R + "type", B + "SpatiotemporalInstant"),
    _line(E + "stInstant_d1", B + "spatially_projects_onto", E + "trackPoint_d1"),
    _line(E + "stInstant_d1", B + "temporally_projects_onto", E + "tInstant_d1"),
    _line(E + "tInstant_d1", R + "type", B + "TemporalInstant"),
    _lit_line(E + "tInstant_d1", C + "has_datetime_value", "2023-04-08T12:00:00", "dateTime"),
    _line(E + "trackPoint_d1", R + "type", C + "VehicleTrackPoint"),
    _line(E + "trackPoint_d1", B + "spatial_part_of", E + "location3"),
    _line(E + "fishingVessel", B + "occupies_spatial_region", E + "trackPoint_d1"),
    # day 2: location1 at 2023-04-09 12:00:00
    _line(E + "fishingTripPart_d2", R + "type", B + "Process"),
    _line(E + "fishingTrip", B + "has_occurrent_part", E + "fishingTripPart_d2"),
    _line(E + "fishingTripPart_d2", B + "has_occurrent_part", E + "beingObserved_d2"),
    _line(E + "beingObserved_d2", R + "type", B + "ProcessBoundary"),
    _line(E + "beingObserved_d2", B + "occupies_spatiotemporal_region", E + "stInstant_d2"),
    _line(E + "stInstant_d2", R + "type", B + "SpatiotemporalInstant"),
    _line(E + "stInstant_d2", B + "spatially_projects_onto", E + "trackPoint_d2"),
    _line(E + "stInstant_d2", B + "temporally_projects_onto", E + "tInstant_d2"),
    _line(E + "tInstant_d2", R + "type", B + "TemporalInstant"),
    _lit_line(E + "tInstant_d2", C + "has_datetime_value", "2023-04-09T12:00:00", "dateTime"),
    _line(E + "trackPoint_d2", R + "type", C + "VehicleTrackPoint"),
    _line(E + "trackPoint_d2", B + "spatial_part_of", E + "location1"),
    _line(E + "fishingVessel", B + "occupies_spatial_region", E + "trackPoint_d2"),
    # day 3: location3 at 2023-04-10 12:00:00
    _line(E + "fishingTripPart_d3", R + "type", B + "Process"),
    _line(E + "fishingTrip", B + "has_occurrent_part", E + "fishingTripPart_d3"),
    _line(E + "fishingTripPart_d3", B + "has_occurrent_part", E + "beingObserved_d3"),
    _line(E + "beingObserved_d3", R + "type", B + "ProcessBoundary"),
    _line(E + "beingObserved_d3", B + "occupies_spatiotemporal_region", E + "stInstant_d3"),
    _line(E + "stInstant_d3", R + "type", B + "SpatiotemporalInstant"),
    _line(E + "stInstant_d3", B + "spatially_projects_onto", E + "trackPoint_d3"),
    _line(E + "stInstant_d3", B + "temporally_projects_onto", E + "tInstant_d3"),
    _line(E + "tInstant_d3", R + "type", B + "TemporalInstant"),
    _lit_line(E + "tInstant_d3", C + "has_datetime_value", "2023-04-10T12:00:00", "dateTime"),
    _line(E + "trackPoint_d3", R + "type", C + "VehicleTrackPoint"),
    _line(E + "trackPoint_d3", B + "spatial_part_of", E + "location3"),
    _line(E + "fishingVessel", B + "occupies_spatial_region", E + "trackPoint_d3"),
    # ordering backbone
    _line(E + "fishingTripPart_d1", B + "precedes", E + "fishingTripPart_d2"),
    _line(E + "fishingTripPart_d2", B + "precedes", E + "fishingTripPart_d3"),
    # the two distinct locations
    _line(E + "location1", R + "type", B + "SpatialRegion"),
    _line(E + "location3", R + "type", B + "SpatialRegion"),
]


class TestIngest:
    def test_three_day_graph_matches_the_hand_enumeration(self, three_day_graph):
        assert len(EXPECTED_THREE_DAY_LINES) == 46
        expected = "\n".join(sorted(EXPECTED_THREE_DAY_LINES)) + "\n"
        assert serialize_ntriples(three_day_graph) == expected

    @given(_labels, _gaps_hours)
    @settings(max_examples=40)
    def test_matches_the_triple_by_triple_reference(self, labels, gaps_hours):
        rows = _rows(labels, gaps_hours)
        g, reference = ingest_rows(rows), triple_ingest(rows)
        assert g == reference
        assert serialize_ntriples(g) == serialize_ntriples(reference)
        assert set(g._terms) == {k for key in reference.match_keys() for k in key}
        assert one_string_per_key(g)

    def test_every_bundled_query_pattern_matches_a_two_day_ingest(self):
        """Every pattern ingest_rows writes from day.rq, and every pattern the
        other .rq files read, is in the graph; a one-day ingest has no
        precedes edge, so two days are the least that can match every
        pattern."""
        g = ingest_rows(list(THREE_DAY_ROWS[:2]))
        for name in BUNDLED_QUERIES:
            for pattern in parse_query(load_bundled_query(name)).patterns:
                terms = (pattern.subject, pattern.predicate, pattern.object)
                assert g.match(*(None if isinstance(t, Var) else t for t in terms)), pattern

    def test_single_day_has_no_precedes_edge(self, vocab):
        g = ingest_rows([THREE_DAY_ROWS[0]])
        assert len(g) == 17
        assert g.match(None, vocab.precedes, None) == []

    def test_hundred_day_counts(self, vocab):
        rows = generate(GenConfig(days=100))
        g = ingest_rows(rows)
        assert len(g.match(None, vocab.has_datetime_value, None)) == 100
        assert len(g.match(None, vocab.precedes, None)) == 99
        distinct = len({r.location for r in rows})
        assert len(g) == 13 * 100 + 99 + 3 + distinct

    def test_every_minted_individual_is_named_in_the_ex_namespace(self):
        assert ex(VESSEL) == Iri(E + "fishingVessel")
        assert ex(TRIP) == Iri(E + "fishingTrip")
        # one rule names every individual of an observed day, by its day.rq variable
        for stem in ("fishingTripPart", "beingObserved", "stInstant", "tInstant", "trackPoint"):
            assert minted(stem, 7) == Iri(E + stem + "_d7")
        assert ex("location2") == Iri(E + "location2")

    def test_rejects_empty_rows(self):
        with pytest.raises(IngestError):
            ingest_rows([])

    def test_rejects_non_increasing_times(self):
        rows = [
            ObservationRow(datetime(2023, 4, 8, 12), "location1"),
            ObservationRow(datetime(2023, 4, 8, 12), "location1"),
        ]
        with pytest.raises(IngestError):
            ingest_rows(rows)

    def test_order_refusal_names_the_day_by_position(self):
        times = [datetime(2023, 4, 8, 12), datetime(2023, 4, 9, 12), datetime(2023, 4, 9, 11)]
        with pytest.raises(IngestError, match=r"must strictly increase \(Day3\)$"):
            ingest_rows([ObservationRow(t, "location1") for t in times])

    @pytest.mark.parametrize("times,day", [
        # in true time order, but the graph would keep only the wall-clock
        # hours and read them back as location2, location1, location3
        pytest.param([datetime(2023, 4, 8, 11, 30, tzinfo=timezone(timedelta(hours=2))),
                      datetime(2023, 4, 8, 10, tzinfo=timezone.utc),
                      datetime(2023, 4, 8, 12, tzinfo=timezone.utc)], 1, id="aware"),
        # comparing these two raises a bare TypeError
        pytest.param([datetime(2023, 4, 8, 12), datetime(2023, 4, 9, 12, tzinfo=timezone.utc)],
                     2, id="naive-then-aware"),
        # both would be written as 12:00:00, two observations at one instant
        pytest.param([datetime(2023, 4, 8, 12, 0, 0, 100_000),
                      datetime(2023, 4, 8, 12, 0, 0, 200_000)], 1, id="fraction-of-a-second"),
    ])
    def test_rejects_times_the_graph_cannot_keep(self, times, day):
        rows = [ObservationRow(t, f"location{i + 1}") for i, t in enumerate(times)]
        with pytest.raises(IngestError, match=rf"^Day{day}: time \S+ has a time zone or a "
                                              "fraction of a second; the graph keeps naive"):
            ingest_rows(rows)

    @pytest.mark.parametrize("label", ["a#b", "a/b", "", "a b"],
                             ids=["hash", "slash", "empty", "space"])
    def test_rejects_a_location_that_is_not_its_iris_local_name(self, label):
        # at Day2, after a good Day1, so the refusal must name the label's own day;
        # a#b and a/b would read back as b, and a b is no IRI at all
        rows = [ObservationRow(datetime(2023, 4, 8, 12), "location1"),
                ObservationRow(datetime(2023, 4, 9, 12), label)]
        with pytest.raises(IngestError, match=rf"^Day2: location {label!r} is not the "
                                              "local name of an IRI$"):
            ingest_rows(rows)

    def test_reingestion_is_reproducible(self):
        assert ingest_rows(list(THREE_DAY_ROWS)) == ingest_rows(list(THREE_DAY_ROWS))

    @given(
        st.lists(st.sampled_from(("location1", "location2", "location3")),
                 min_size=1, max_size=40),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40)
    def test_triple_count_formula_holds(self, labels, start_offset):
        start = datetime(2023, 4, 8, 12) + timedelta(hours=start_offset)
        rows = [
            ObservationRow(start + timedelta(days=i), label)
            for i, label in enumerate(labels)
        ]
        g = ingest_rows(rows)
        n = len(labels)
        assert len(g) == 13 * n + (n - 1) + 3 + len(set(labels))


def _parsed(name):
    return parse_query(load_bundled_query(name))


class TestDayTemplate:
    """day.rq is the one statement of a day's shape; the other bundled
    queries read parts of it, under its variable names."""

    def test_the_location_query_reads_only_patterns_of_the_day(self):
        assert set(_parsed("location_by_time").patterns) <= set(_parsed("day").patterns)

    def test_each_side_of_a_transition_is_a_part_of_the_day_and_precedes_joins_them(
            self, vocab):
        transitions = _parsed("transitions")
        start, end = transitions.projection
        # a variable's side is its 1 or 2 suffix; a projected location is ?location
        sides = {start: (PLACE, "1"), end: (PLACE, "2")}

        def split(term):
            if not isinstance(term, Var):
                return term, None
            return sides.get(term, (Var(term.name[:-1]), term.name[-1]))

        halves, between = {"1": set(), "2": set()}, []
        for pattern in transitions.patterns:
            (s, s_side), (p, p_side), (o, o_side) = map(
                split, (pattern.subject, pattern.predicate, pattern.object))
            touched = {s_side, p_side, o_side} - {None}
            if len(touched) == 1:
                halves[touched.pop()].add(TriplePattern(s, p, o))
            else:
                between.append(pattern)
        assert halves["1"] == halves["2"] <= set(_parsed("day").patterns)
        assert len(halves["1"]) == 4
        assert between == [TriplePattern(Var("fishingTripPart1"), vocab.precedes,
                                         Var("fishingTripPart2"))]
        assert vocab.precedes not in {p.predicate for p in _parsed("day").patterns}

    def test_the_days_constant_individuals_are_the_vessel_and_the_trip(self, vocab):
        day = _parsed("day")
        terms = [t for p in day.patterns for t in (p.subject, p.predicate, p.object)]
        assert all(isinstance(p.predicate, Iri) for p in day.patterns)
        assert {t for t in terms if isinstance(t, Iri)} - vocab.class_iris() - {
            p.predicate for p in day.patterns} == {ex(VESSEL), ex(TRIP)}

    @given(_labels, _gaps_hours)
    @settings(max_examples=20)
    def test_the_day_query_gives_each_row_its_minted_individuals_in_time_order(
            self, labels, gaps_hours):
        rows = _rows(labels, gaps_hours)
        table = evaluate(_parsed("day"), ingest_rows(rows))
        stems = ["fishingTripPart", "beingObserved", "stInstant", "tInstant", "trackPoint"]
        assert [v.name for v in table.variables] == ["datetime", "location", *stems]
        assert table.rows == [(datetime_literal(row.time), ex(row.location),
                               *(minted(stem, day) for stem in stems))
                              for day, row in enumerate(rows, start=1)]


class TestReadback:
    def test_location_sequence_for_three_days(self, three_day_graph):
        assert location_sequence(three_day_graph) == [
            (datetime(2023, 4, 8, 12), Iri(E + "location3")),
            (datetime(2023, 4, 9, 12), Iri(E + "location1")),
            (datetime(2023, 4, 10, 12), Iri(E + "location3")),
        ]

    def test_location_sequence_of_shapeless_graph_is_empty(self):
        assert location_sequence(Graph()) == []

    def test_the_location_query_is_not_reparsed_per_call(self, three_day_graph, monkeypatch):
        import kgmarkov.ingest as ingest
        location_sequence(three_day_graph)
        calls = []
        for name in ("load_bundled_query", "parse_query"):
            real = getattr(ingest, name)
            monkeypatch.setattr(ingest, name,
                                lambda *args, real=real: calls.append(args) or real(*args))
        location_sequence(three_day_graph)
        transition_pairs(three_day_graph)
        assert calls == []

    def test_two_locations_at_one_instant_are_refused(self, three_day_graph, vocab):
        three_day_graph.insert(Triple(Iri(E + "trackPoint_d2"), vocab.spatial_part_of,
                                      Iri(E + "location2")))
        with pytest.raises(IngestError, match="2023-04-09T12:00:00: in .*location1 and in .*location2"):
            transition_pairs(three_day_graph)

    def test_a_track_point_without_a_time_is_refused(self, three_day_graph, vocab):
        """Dropping day 2's time used to make up a step from day 1 to day 3."""
        gap = graph_of(t for t in three_day_graph if (t.subject, t.predicate)
                       != (Iri(E + "tInstant_d2"), vocab.has_datetime_value))
        with pytest.raises(IngestError, match="returned 2 rows for the 3 track points"):
            transition_pairs(gap)

    def test_a_track_point_with_two_times_is_refused(self, three_day_graph, vocab):
        """A second time for day 2 used to repeat that day, a made-up self-step."""
        three_day_graph.insert(Triple(Iri(E + "tInstant_d2"), vocab.has_datetime_value,
                                      datetime_literal(datetime(2023, 4, 9, 18))))
        with pytest.raises(IngestError, match="returned 4 rows for the 3 track points"):
            location_sequence(three_day_graph)

    def test_a_day_without_a_time_and_a_day_with_two_are_refused(self, three_day_graph, vocab):
        """Day 2's time dropped and a second time for day 3 used to cancel out
        in the row count: a made-up step from day 1 to day 3, then a self-step."""
        cancel = graph_of(t for t in three_day_graph if (t.subject, t.predicate)
                          != (Iri(E + "tInstant_d2"), vocab.has_datetime_value))
        cancel.insert(Triple(Iri(E + "tInstant_d3"), vocab.has_datetime_value,
                             datetime_literal(datetime(2023, 4, 10, 18))))
        with pytest.raises(IngestError, match="track point .*/trackPoint_d3 has more than one"):
            transition_pairs(cancel)

    @given(st.lists(st.sampled_from(("location1", "location2")), min_size=2, max_size=6),
           _gaps_hours, _edits)
    @settings(max_examples=200)
    def test_the_timeline_is_the_reference_one_or_refused_with_it(self, vocab, labels,
                                                                 gaps_hours, edits):
        """A timeline is returned only when each track point has one place and
        one time of its own, and then it is the one the reference walks."""
        graph = _edited(_rows(labels, gaps_hours), edits, vocab)
        expected = reference_timeline(graph)
        if expected is None:
            with pytest.raises(IngestError):
                location_sequence(graph)
        else:
            assert location_sequence(graph) == expected

    def test_transition_pairs_for_three_days(self, three_day_graph):
        assert transition_pairs(three_day_graph) == [
            (Iri(E + "location3"), Iri(E + "location1")),
            (Iri(E + "location1"), Iri(E + "location3")),
        ]

    def test_transition_pairs_agree_with_the_bundled_query_as_a_bag(self):
        rows = generate(GenConfig(days=30, seed=17))
        g = ingest_rows(rows)
        ordered = Counter(transition_pairs(g))
        shipped = evaluate(parse_query(load_bundled_query("transitions")), g)
        assert Counter(tuple(row) for row in shipped.rows) == ordered

    @given(_labels, _gaps_hours)
    @settings(max_examples=40)
    def test_transition_pairs_are_consecutive_row_locations(self, labels, gaps_hours):
        rows = _rows(labels, gaps_hours)
        expected = [ex(row.location) for row in rows]
        assert transition_pairs(ingest_rows(rows)) == list(zip(expected, expected[1:]))

    def test_sequence_round_trips_the_input_rows(self):
        rows = generate(GenConfig(days=25, seed=31))
        g = ingest_rows(rows)
        seq = location_sequence(g)
        assert [(r.time, r.location) for r in rows] == [
            (when, where.local_name()) for when, where in seq
        ]
