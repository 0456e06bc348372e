import pytest

from kgmarkov.datagen import GenConfig, generate
from kgmarkov.dot import DotError, day_subgraph, graph_to_dot, writeback_subgraph
from kgmarkov.ingest import ingest_rows
from kgmarkov.markov import ChainCounts, StateSpace, count_transitions
from kgmarkov.rdf import Graph, Iri, Literal, Triple
from kgmarkov.writeback import writeback_cco_model, writeback_profile_model

from conftest import LOCATIONS3, THREE_DAY_ROWS
from oracles import match_day_subgraph


def worked_counts():
    return ChainCounts(
        StateSpace(LOCATIONS3), [[12, 9, 11], [0, 0, 0], [0, 0, 0]], 1
    )


class TestDaySubgraph:
    def test_one_day_bundle_is_complete(self, three_day_graph, vocab):
        sub = day_subgraph(three_day_graph, 1)
        # 13 triples describe a day; the vessel and trip contribute 4 more
        assert len(sub) == 17
        part = Iri("http://example.org/data/fishingTripPart_d1")
        assert Triple(part, vocab.type, vocab.Process) in sub
        assert sub.match(Iri("http://example.org/data/fishingVessel"), None, None)

    def test_neighbouring_days_are_excluded(self, three_day_graph, vocab):
        sub = day_subgraph(three_day_graph, 2)
        locals_seen = {t.subject.local_name() for t in sub}
        assert "fishingTripPart_d2" in locals_seen
        assert "fishingTripPart_d1" not in locals_seen
        assert "fishingTripPart_d3" not in locals_seen

    def test_days_share_the_vessel_and_trip(self, three_day_graph):
        for day in (1, 2, 3):
            sub = day_subgraph(three_day_graph, day)
            assert len(sub) == 17

    def test_middle_day_matches_the_term_level_selection(self):
        """Linked realizations give the day's trip part an edge that the
        fragment must drop, next to the vessel's and trip's 30-day fans."""
        rows = generate(GenConfig(days=30))
        graph = ingest_rows(rows)
        counts = count_transitions([row.location for row in rows])
        writeback_profile_model(graph, counts, rows[13].location, 30, link_realizations=True)
        fragment = day_subgraph(graph, 15)
        assert fragment == match_day_subgraph(graph, 15)
        assert graph_to_dot(fragment) == graph_to_dot(match_day_subgraph(graph, 15))

    def test_missing_day_is_an_error(self, three_day_graph):
        with pytest.raises(DotError, match="day 9"):
            day_subgraph(three_day_graph, 9)


class TestWritebackSubgraph:
    def test_captures_the_profile_structure(self, vocab):
        g = ingest_rows(THREE_DAY_ROWS)
        base = len(g)
        writeback_profile_model(g, worked_counts(), "location1", 3)
        sub = writeback_subgraph(g)
        assert len(sub) == len(g) - base
        assert all("fishingTripPart" not in t.subject.value for t in sub)

    def test_captures_the_realizes_edges_of_a_linked_writeback(self, vocab):
        rows = generate(GenConfig(days=30))
        g = ingest_rows(rows)
        base = len(g)
        counts = count_transitions([row.location for row in rows])
        writeback_profile_model(g, counts, "location2", 30, link_realizations=True)
        sub = writeback_subgraph(g)
        assert len(sub) == len(g) - base == 48
        assert len(sub.match(None, vocab.realizes, None)) == 13

    def test_captures_the_flagged_future_part(self, vocab):
        g = ingest_rows(THREE_DAY_ROWS)
        writeback_cco_model(g, worked_counts(), "location1", 3)
        sub = writeback_subgraph(g)
        future = Iri("http://example.org/data/fishingTripPart_4")
        assert Triple(future, vocab.predicted, Literal("true")) in sub
        assert len(sub.match(None, vocab.modally_about, future)) == 3

    def test_plain_ingest_has_no_writeback(self, three_day_graph):
        with pytest.raises(DotError, match="no writeback"):
            writeback_subgraph(three_day_graph)


class TestDotRendering:
    def test_golden_rendering_of_a_tiny_graph(self, vocab):
        g = Graph()
        a = Iri("http://example.org/data/a")
        b = Iri("http://example.org/data/b")
        g.insert(Triple(a, vocab.precedes, b))
        g.insert(Triple(a, vocab.has_datetime_value, Literal("x")))
        assert graph_to_dot(g, "tiny") == (
            'digraph "tiny" {\n'
            "  rankdir=LR;\n"
            '  "\\"x\\"^^<http://www.w3.org/2001/XMLSchema#string>" '
            '[label="x", shape=box];\n'
            '  "http://example.org/data/a" [label="a"];\n'
            '  "http://example.org/data/b" [label="b"];\n'
            '  "http://example.org/data/a" -> '
            '"\\"x\\"^^<http://www.w3.org/2001/XMLSchema#string>" '
            '[label="has_datetime_value"];\n'
            '  "http://example.org/data/a" -> "http://example.org/data/b" '
            '[label="precedes"];\n'
            "}\n"
        )

    def test_empty_graph_still_renders(self):
        assert graph_to_dot(Graph()) == 'digraph "activity" {\n  rankdir=LR;\n}\n'

    def test_rendering_is_deterministic(self, three_day_graph):
        text = graph_to_dot(day_subgraph(three_day_graph, 1))
        again = graph_to_dot(day_subgraph(three_day_graph.copy(), 1))
        assert text == again

    def test_every_triple_becomes_an_edge(self, three_day_graph):
        sub = day_subgraph(three_day_graph, 1)
        text = graph_to_dot(sub)
        assert text.count(" -> ") == len(sub)

    def test_literals_are_boxed(self, three_day_graph):
        text = graph_to_dot(day_subgraph(three_day_graph, 1))
        assert "shape=box" in text
        assert '[label="2023-04-08T12:00:00", shape=box]' in text
