import gc
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgmarkov.datagen import GenConfig, generate
from kgmarkov.ingest import (
    IngestError,
    default_manifest,
    ingest_rows,
    location_sequence,
    transition_pairs,
)
from kgmarkov.markov import (
    ChainCounts,
    MarkovError,
    StateSpace,
    count_pair_transitions,
    count_transitions,
)
from kgmarkov.rdf import (
    Graph,
    Iri,
    Literal,
    Triple,
    decimal_literal,
    integer_literal,
    parse_ntriples,
    serialize_ntriples,
)
from kgmarkov.writeback import (
    MODEL_CCO,
    MODEL_PROFILE,
    MODELS,
    PREDICTED_FLAG,
    WritebackError,
    read_probabilities,
    state_token,
    writeback_cco_model,
    writeback_profile_model,
)

from conftest import LOCATIONS3, THREE_DAY_ROWS, graph_of, one_string_per_key
from oracles import reference_realizations

EX = "http://example.org/data/"


def _renamed(graph, pattern, replacement):
    """The graph with ``re.sub(pattern, replacement)`` applied to every IRI."""
    def term(t):
        return Iri(re.sub(pattern, replacement, t.value)) if isinstance(t, Iri) else t
    return graph_of(Triple(term(t.subject), term(t.predicate), term(t.object)) for t in graph)


def worked_counts():
    return ChainCounts(
        StateSpace(LOCATIONS3), [[12, 9, 11], [0, 0, 0], [0, 0, 0]], 1
    )


def pmice_values(g, vocab):
    """The local name and decimal value of each MarkovPMICE in the graph,
    by name."""
    return {t.subject.local_name():
            float(g.match(t.subject, vocab.has_decimal_value, None)[0].object.lexical)
            for t in g.match(None, vocab.type, vocab.MarkovPMICE)}


class TestStateToken:
    @pytest.mark.parametrize(
        "label,token",
        [("location1", "1"), ("location12", "12"), ("harbor", "harbor"),
         ("open sea", "open_sea"), ("dock-4", "dock_4")],
    )
    def test_tokens(self, label, token):
        assert state_token(label) == token

    @pytest.mark.parametrize("model", [writeback_profile_model, writeback_cco_model])
    @pytest.mark.parametrize(
        "states,bad",
        [(("harbor", "open sea"), "open sea"),
         (("1", "location1"), "1"),
         (("dock-4", "dock_4"), "dock-4"),
         (("x", "x_d5"), "x_d5")],
    )
    def test_labels_that_do_not_read_back_are_refused_before_any_write(
            self, model, states, bad):
        """'open sea' would read back as 'open_sea'; '1' and 'dock-4' would
        mint the IRIs of 'location1' and 'dock_4'; a profile PMICE to 'x_d5'
        would be named as a cco PMICE to 'x' for day 5."""
        g = ingest_rows(THREE_DAY_ROWS)
        before = len(g)
        counts = ChainCounts(StateSpace(states), [[1, 1], [1, 1]], 1)
        with pytest.raises(WritebackError, match=f"state label {bad!r}"):
            model(g, counts, states[1], 3)
        assert len(g) == before

    @pytest.mark.parametrize("model", [writeback_profile_model, writeback_cco_model])
    @pytest.mark.parametrize("states", [("a", "ato", "x"), ("a", "ato", "tox", "x")])
    @pytest.mark.parametrize("current", ["a", "ato"])
    def test_labels_whose_names_prefix_each_other_are_refused_before_any_write(
            self, model, states, current):
        """'a' reads back every name starting 'ato', so it would take in
        'ato''s row; with 'tox' too, ('a', 'tox') and ('ato', 'x') both
        mint 'atotox…'."""
        g = ingest_rows(THREE_DAY_ROWS)
        before = len(g)
        n = len(states)
        counts = ChainCounts(StateSpace(states), [[1] * n] * n, 1)
        with pytest.raises(WritebackError, match="'a' and 'ato'"):
            model(g, counts, current, 3)
        assert len(g) == before

    @given(st.lists(st.lists(st.sampled_from(["a", "t", "o", "to", "x", "1", "_d", "2"]),
                             min_size=1, max_size=3).map("".join),
                    min_size=2, max_size=5, unique=True),
           st.integers(0, 2), st.data())
    # fixed examples: a label and that label plus "_d{day + 1}" is a rare draw
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_writeback_refuses_or_reads_every_row_back(self, labels, day, data):
        """Both models, written for every label into one graph: the first
        writeback is refused with the graph untouched, or both read every
        row back."""
        n = len(labels)
        rows = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                                  .filter(any), min_size=n, max_size=n))
        counts = ChainCounts(StateSpace(labels), rows, 1)
        g = Graph()
        try:
            for label in labels:
                writeback_profile_model(g, counts, label, day)
                writeback_cco_model(g, counts, label, day)
        except WritebackError:
            assert len(g) == 0
            return
        for i, label in enumerate(labels):
            total = sum(rows[i])
            for model in MODELS:
                # a bare cco graph knows only the states some PMICE points at
                want = {to: c / total for to, c in zip(labels, rows[i])
                        if c or model == MODEL_PROFILE}
                assert dict(read_probabilities(g, label, model).as_pairs()) == want


class TestProfileModel:
    def test_worked_row_produces_the_published_values(self, vocab):
        g = Graph()
        writeback_profile_model(g, worked_counts(), "location1", 100)
        values = pmice_values(g, vocab)
        assert values["markovPMICE_1to1"] == 0.375
        assert values["markovPMICE_1to2"] == 0.28125
        assert values["markovPMICE_1to3"] == 0.34375
        assert sum(values.values()) == 1.0

    def test_structure_of_the_pattern_of_life(self, vocab):
        g = Graph()
        writeback_profile_model(g, worked_counts(), "location1", 100)
        pol = Iri(EX + "fishingVessel_PoL")
        assert Triple(pol, vocab.type, vocab.PatternOfLife) in g
        assert Triple(pol, vocab.type, vocab.PatternProcessProfile) in g
        assert Triple(pol, vocab.occurrent_part_of, Iri(EX + "fishingTrip")) in g
        part = Iri(EX + "1to2_PoL_Part")
        assert Triple(part, vocab.occurrent_part_of, pol) in g
        disp = Iri(EX + "1to2_Disposition")
        assert Triple(disp, vocab.type, vocab.Disposition) in g
        assert Triple(disp, vocab.inheres_in, Iri(EX + "fishingVessel")) in g

    def test_counts_and_total_are_stored_as_integers(self, vocab):
        g = Graph()
        writeback_profile_model(g, worked_counts(), "location1", 100)
        total = Iri(EX + "total1toXTransitions")
        assert Triple(total, vocab.has_integer_value, integer_literal(32)) in g
        count = Iri(EX + "1to2TransitionCount")
        assert Triple(count, vocab.has_integer_value, integer_literal(9)) in g
        assert Triple(count, vocab.is_a_measurement_of, Iri(EX + "1to2_PoL_Part")) in g

    def test_zero_count_keeps_its_count_ice_but_gets_no_pmice(self, vocab):
        counts = ChainCounts(
            StateSpace(LOCATIONS3), [[0, 0, 0], [0, 0, 0], [0, 0, 1]], 1
        )
        g = Graph()
        writeback_profile_model(g, counts, "location3", 3)
        assert list(pmice_values(g, vocab)) == ["markovPMICE_3to3"]
        assert Triple(Iri(EX + "3to1TransitionCount"), vocab.has_integer_value,
                      integer_literal(0)) in g
        assert not g.match(Iri(EX + "markovPMICE_3to1"), None, None)
        assert g.match(Iri(EX + "markovPMICE_3to3"), None, None)

    def test_nothing_points_at_a_future_process(self, vocab):
        g = Graph()
        writeback_profile_model(g, worked_counts(), "location1", 100)
        assert not g.match(None, vocab.predicted, None)
        assert not g.match(None, vocab.modally_about, None)

    def test_zero_total_row_is_an_error(self):
        with pytest.raises(WritebackError, match="location2"):
            writeback_profile_model(Graph(), worked_counts(), "location2", 100)

    @pytest.mark.parametrize("model", [writeback_profile_model, writeback_cco_model])
    def test_pair_counts_are_refused(self, model):
        pair_counts = count_pair_transitions(["location1", "location2", "location1", "location3"])
        with pytest.raises(MarkovError, match="order-2"):
            model(Graph(), pair_counts, "location1", 100)

    def test_round_trip_through_the_graph(self):
        g = Graph()
        writeback_profile_model(g, worked_counts(), "location1", 100)
        d = read_probabilities(g, "location1", MODEL_PROFILE)
        assert d.space.states == LOCATIONS3
        assert d.probability("location1") == 0.375
        assert d.probability("location2") == 0.28125
        assert d.probability("location3") == 0.34375

    def test_round_trip_with_a_zero_entry(self, vocab):
        counts = ChainCounts(
            StateSpace(LOCATIONS3), [[0, 0, 0], [0, 0, 0], [1, 0, 1]], 1
        )
        g = Graph()
        writeback_profile_model(g, counts, "location3", 2)
        assert len(g.match(None, vocab.type, vocab.MarkovPMICE)) == 2
        d = read_probabilities(g, "location3", MODEL_PROFILE)
        assert d.probability("location2") == 0.0
        assert d.probability("location1") == 0.5

    def test_link_realizations_adds_one_edge_per_matching_day(self, vocab):
        g = ingest_rows(THREE_DAY_ROWS)
        counts = count_transitions(["location3", "location1", "location3"],
                                   StateSpace(LOCATIONS3))
        before = len(g)
        writeback_profile_model(g, counts, "location3", 3,
                                link_realizations=True)
        # days 1 and 2 both start a transition; only day 1 starts at location3
        realized = g.match(None, vocab.realizes, None)
        assert len(realized) == 1
        assert realized[0].subject == Iri(EX + "fishingTripPart_d2")
        assert realized[0].object == Iri(EX + "3to1_Disposition")
        assert len(g) > before

    def test_realizations_match_locations_by_local_name(self, vocab):
        """Locations in another namespace than the manifest's still match
        the labels estimate gives them: one edge per transition leaving
        location2 appears, as with the manifest's namespace."""
        rows = generate(GenConfig(days=30))
        counts = count_transitions([row.location for row in rows])
        edges = {}
        for name, graph in [("ex", ingest_rows(rows)), ("other", _renamed(
                ingest_rows(rows), r"example\.org/data/(location[0-9]+)", r"other.org/loc/\1"))]:
            writeback_profile_model(graph, counts, "location2", 30, link_realizations=True)
            edges[name] = graph.match(None, vocab.realizes, None)
            # the writeback's inserts index the key strings the graph already keeps
            assert one_string_per_key(graph)
        assert len(edges["ex"]) == sum(counts.rows[counts.row_index("location2")]) > 0
        assert edges["other"] == edges["ex"]

    def test_a_realization_without_its_trip_part_is_refused_before_any_write(self):
        rows = generate(GenConfig(days=30))
        counts = count_transitions([row.location for row in rows])
        graph = _renamed(ingest_rows(rows), r"fishingTripPart_d", "fishingTripPart_day")
        text = serialize_ntriples(graph)
        with pytest.raises(WritebackError,
                           match="the graph has no trip part 'fishingTripPart_d[0-9]+'"):
            writeback_profile_model(graph, counts, "location2", 30, link_realizations=True)
        assert serialize_ntriples(graph) == text

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(days=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           prefix=st.integers(2, 40), rename=st.booleans(), data=st.data())
    def test_linked_realizations_equal_the_reference(self, vocab, days, seed, prefix,
                                                     rename, data):
        """Counts from a prefix of the days may leave later arrivals unlisted;
        locations moved to another namespace still match by local name."""
        rows = generate(GenConfig(days=days, seed=seed))
        labels = [row.location for row in rows][:prefix]
        counts = count_transitions(labels)
        current = data.draw(st.sampled_from(sorted(set(labels[:-1]))))
        graph = ingest_rows(rows)
        if rename:
            graph = _renamed(graph, r"example\.org/data/(location[0-9]+)", r"other.org/loc/\1")
        expected, before = reference_realizations(graph, counts, current), set(graph)
        writeback_profile_model(graph, counts, current, days, link_realizations=True)
        assert {t for t in set(graph) - before if t.predicate == vocab.realizes} == expected
        assert one_string_per_key(graph)

    def test_a_trip_part_named_only_as_an_object_is_refused_before_any_write(self):
        """The arriving part of a step leaving location2 has lost its own
        triples, but the trip's has_occurrent_part and the day before's
        precedes edge still name it, so the graph knows its key."""
        rows = generate(GenConfig(days=30))
        labels = [row.location for row in rows]
        counts = count_transitions(labels)
        day = labels.index("location2") + 2  # the day after the first in location2
        assert day <= len(rows)
        part = Iri(default_manifest().minted("fishingTripPart", day))
        graph = graph_of(t for t in ingest_rows(rows) if t.subject != part)
        assert len(graph.match(None, None, part)) == 2 and not graph.match(part, None, None)
        text = serialize_ntriples(graph)
        with pytest.raises(WritebackError, match=re.escape(
                f"cannot link a realization: the graph has no trip part 'fishingTripPart_d{day}'")):
            writeback_profile_model(graph, counts, "location2", 30, link_realizations=True)
        assert serialize_ntriples(graph) == text

    @pytest.mark.parametrize("moved,message", [
        ("http://example.org/alt/location2",
         "locations <http://example.org/data/location2> and "
         "<http://example.org/alt/location2> share the local name 'location2'"),
        ("http://example.org/data/location1/",
         "location <http://example.org/data/location1/> has an empty local name"),
    ], ids=["shared", "empty"])
    def test_a_location_whose_state_label_clashes_is_refused_before_any_link(self, moved,
                                                                             message):
        """Every timeline reader refuses a location whose local name is empty
        or names another location too.  With location1 renamed to another
        namespace's location2, the link once wrote 21 realizes edges for the
        13 steps that leave location2."""
        rows = generate(GenConfig(days=30))
        counts = count_transitions([row.location for row in rows])
        graph = _renamed(ingest_rows(rows), "^" + re.escape(EX + "location1") + "$", moved)
        text = serialize_ntriples(graph)
        for read in (location_sequence, transition_pairs):
            with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
                read(graph)
        with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
            writeback_profile_model(graph, counts, "location2", 30, link_realizations=True)
        assert serialize_ntriples(graph) == text

    def test_a_writeback_into_a_parsed_graph_keeps_only_what_it_adds(self):
        """The inserts reuse the key strings the parsed terms carry, so the
        graph keeps about 14 KB more, not a second map of all its keys."""
        rows = generate(GenConfig(days=1000))
        counts = count_transitions([row.location for row in rows])
        graph = parse_ntriples(serialize_ntriples(ingest_rows(rows)))
        before = len(graph)
        gc.collect()
        tracemalloc.start()
        try:
            writeback_profile_model(graph, counts, "location2", 1000)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(graph) > before
        assert kept < 64 * 1024

    def test_without_the_flag_no_realizes_edges_appear(self, vocab):
        g = ingest_rows(THREE_DAY_ROWS)
        counts = count_transitions(["location3", "location1", "location3"],
                                   StateSpace(LOCATIONS3))
        writeback_profile_model(g, counts, "location3", 3)
        assert not g.match(None, vocab.realizes, None)

    def test_writeback_is_idempotent(self):
        g = Graph()
        writeback_profile_model(g, worked_counts(), "location1", 100)
        text = serialize_ntriples(g)
        writeback_profile_model(g, worked_counts(), "location1", 100)
        assert serialize_ntriples(g) == text

    def test_a_different_rewrite_is_refused_before_any_write(self):
        space = StateSpace(("location1", "location2"))
        g = Graph()
        writeback_profile_model(g, ChainCounts(space, [[1, 1], [0, 0]], 1), "location1", 5)
        text = serialize_ntriples(g)
        with pytest.raises(WritebackError, match="location1.*total1toXTransitions is 2, not 4"):
            writeback_profile_model(g, ChainCounts(space, [[3, 1], [0, 0]], 1),
                                    "location1", 6)
        assert serialize_ntriples(g) == text
        assert read_probabilities(g, "location1", MODEL_PROFILE).as_pairs() == [
            ("location1", 0.5), ("location2", 0.5)]


class TestCcoModel:
    @pytest.mark.parametrize("first,second,message", [
        ([1, 1], [3, 1], "markovPMICE_1to1_d6 is 0.5, not 0.75"),
        ([1, 0], [0, 1], "markovPMICE_1to1_d6 is 1.0, not 0.0"),
    ], ids=["another-value", "another-target"])
    def test_a_different_rewrite_is_refused_before_any_write(self, first, second, message):
        space = StateSpace(("location1", "location2"))
        g = Graph()
        writeback_cco_model(g, ChainCounts(space, [first, [0, 0]], 1), "location1", 5)
        text = serialize_ntriples(g)
        with pytest.raises(WritebackError, match=f"cco writeback for 'location1': {message}"):
            writeback_cco_model(g, ChainCounts(space, [second, [0, 0]], 1), "location1", 5)
        assert serialize_ntriples(g) == text
        # a bare graph has no location individuals to restore zero states from
        expected = [(s, c / sum(first)) for s, c in zip(space.states, first) if c]
        assert read_probabilities(g, "location1", MODEL_CCO).as_pairs() == expected

    def test_mints_a_flagged_future_part(self, vocab):
        g = Graph()
        writeback_cco_model(g, worked_counts(), "location1", 100)
        future = Iri(EX + "fishingTripPart_101")
        assert Triple(future, vocab.type, vocab.Process) in g
        assert Triple(future, vocab.predicted, Literal(PREDICTED_FLAG)) in g
        # the future part carries no datetime and no location of its own
        assert len(g.match(future, None, None)) == 2

    def test_pmices_point_at_the_future_part(self, vocab):
        g = Graph()
        writeback_cco_model(g, worked_counts(), "location1", 100)
        future = Iri(EX + "fishingTripPart_101")
        pmices = [t.subject for t in g.match(None, vocab.type, vocab.MarkovPMICE)]
        assert len(pmices) == 3
        assert [t.subject for t in g.match(None, vocab.modally_about, future)] == pmices
        assert [t.object for t in g.match(None, vocab.modally_about, None)] == [future] * 3
        names = [pmice.local_name() for pmice in pmices]
        assert names == ["markovPMICE_1to1_d101", "markovPMICE_1to2_d101",
                         "markovPMICE_1to3_d101"]

    def test_zero_counts_get_no_pmice(self, vocab):
        counts = ChainCounts(
            StateSpace(LOCATIONS3), [[0, 0, 0], [0, 0, 0], [2, 0, 1]], 1
        )
        g = Graph()
        writeback_cco_model(g, counts, "location3", 3)
        assert list(pmice_values(g, vocab)) == ["markovPMICE_3to1_d4", "markovPMICE_3to3_d4"]
        assert not g.match(None, None, Iri(EX + "markovPMICE_3to2_d4"))

    def test_round_trip_through_the_graph(self):
        g = ingest_rows(THREE_DAY_ROWS)
        counts = count_transitions(["location3", "location1", "location3"],
                                   StateSpace(LOCATIONS3))
        writeback_cco_model(g, counts, "location3", 3)
        d = read_probabilities(g, "location3", MODEL_CCO)
        # location2 never appears in these rows, so the graph cannot restore it
        assert d.space.states == ("location1", "location3")
        assert d.probability("location1") == 1.0

    def test_round_trip_on_a_bare_graph_covers_only_seen_states(self):
        # without ingested location individuals the zero states are unknowable
        g = Graph()
        writeback_cco_model(g, worked_counts(), "location1", 100)
        d = read_probabilities(g, "location1", MODEL_CCO)
        assert d.space.states == LOCATIONS3
        assert d.probability("location2") == 0.28125

    def test_round_trip_of_other_states_adds_no_location(self):
        """Locations used to be zero-filled into any readback, so states the
        writer never named came back; c has no PMICE, as on a bare graph."""
        g = ingest_rows(THREE_DAY_ROWS)
        counts = ChainCounts(StateSpace(("a", "b", "c")), [[1, 3, 0], [1, 1, 1], [0, 1, 0]], 1)
        writeback_cco_model(g, counts, "a", 3)
        d = read_probabilities(g, "a", MODEL_CCO)
        assert d.space.states == ("a", "b")
        assert d.probability("b") == 0.75

    def test_negative_day_rejected(self):
        with pytest.raises(WritebackError):
            writeback_cco_model(Graph(), worked_counts(), "location1", -1)

    @pytest.mark.parametrize("day", [1.5, True])
    @pytest.mark.parametrize("model", [MODEL_PROFILE, MODEL_CCO])
    def test_a_day_that_is_not_an_int_is_refused_before_any_write(self, model, day):
        """On 10 days, a cco writeback for day 1.5 wrote fishingTripPart_2.5
        and markovPMICE_1to2_d2.5, which read back as the states 2_d2.5 and
        3_d2.5; True wrote day 2's IRIs."""
        rows = generate(GenConfig(days=10))
        g = ingest_rows(rows)
        before = len(g)
        write = writeback_profile_model if model == MODEL_PROFILE else writeback_cco_model
        with pytest.raises(WritebackError, match=f"^day_index must be an integer, not {day!r}$"):
            write(g, count_transitions([row.location for row in rows]), "location1", day)
        assert len(g) == before

    @pytest.mark.parametrize("model", [MODEL_PROFILE, MODEL_CCO])
    def test_day_zero_is_accepted(self, vocab, model):
        g = Graph()
        write = writeback_profile_model if model == MODEL_PROFILE else writeback_cco_model
        write(g, worked_counts(), "location1", 0)
        assert read_probabilities(g, "location1", model).probability("location2") > 0
        if model == MODEL_CCO:
            assert g.match(Iri(EX + "markovPMICE_1to2_d1"), vocab.modally_about,
                           Iri(EX + "fishingTripPart_1"))

    def test_writebacks_for_two_days_coexist(self, vocab):
        g = Graph()
        writeback_cco_model(g, worked_counts(), "location1", 100)
        writeback_cco_model(g, worked_counts(), "location1", 101)
        assert g.match(Iri(EX + "markovPMICE_1to2_d101"), None, None)
        assert g.match(Iri(EX + "markovPMICE_1to2_d102"), None, None)

    def test_reading_writebacks_for_two_days_is_refused(self):
        g = ingest_rows(THREE_DAY_ROWS)
        writeback_cco_model(g, worked_counts(), "location1", 8)
        later = ChainCounts(StateSpace(LOCATIONS3), [[1, 0, 1], [0, 0, 0], [0, 0, 0]], 1)
        writeback_cco_model(g, later, "location1", 9)
        with pytest.raises(WritebackError,
                           match="'location1'.*fishingTripPart_10, fishingTripPart_9"):
            read_probabilities(g, "location1", MODEL_CCO)

    def test_writeback_is_idempotent(self):
        g = Graph()
        writeback_cco_model(g, worked_counts(), "location1", 100)
        text = serialize_ntriples(g)
        writeback_cco_model(g, worked_counts(), "location1", 100)
        assert serialize_ntriples(g) == text


class TestReadback:
    def test_both_models_agree_on_the_same_counts(self):
        g1, g2 = Graph(), Graph()
        writeback_profile_model(g1, worked_counts(), "location1", 100)
        writeback_cco_model(g2, worked_counts(), "location1", 100)
        d1 = read_probabilities(g1, "location1", MODEL_PROFILE)
        d2 = read_probabilities(g2, "location1", MODEL_CCO)
        assert d1.space.states == d2.space.states
        assert d1.values == d2.values

    def test_unknown_model_name(self):
        with pytest.raises(WritebackError, match="model"):
            read_probabilities(Graph(), "location1", "bayes")

    def test_missing_writeback_is_an_error(self):
        g = ingest_rows(THREE_DAY_ROWS)
        with pytest.raises(WritebackError, match="location1"):
            read_probabilities(g, "location1", MODEL_PROFILE)

    @pytest.mark.parametrize("model", [MODEL_PROFILE, MODEL_CCO])
    @pytest.mark.parametrize("edit", ["two-values", "string-value", "no-value"])
    def test_a_pmice_without_exactly_one_decimal_value_is_refused(self, vocab, model, edit):
        """Two values used to read the first one, a string value raised a bare
        ValueError, and no value gave a distribution that does not sum to 1."""
        g = Graph()
        write = writeback_profile_model if model == MODEL_PROFILE else writeback_cco_model
        write(g, worked_counts(), "location1", 100)
        pmice = g.match(None, vocab.type, vocab.MarkovPMICE)[0].subject
        value = g.match(pmice, vocab.has_decimal_value, None)[0]
        objects = {"two-values": [value.object, decimal_literal(0.5)],
                   "string-value": [Literal("half")],
                   "no-value": []}[edit]
        edited = graph_of([*(t for t in g if t != value),
                           *(Triple(pmice, vocab.has_decimal_value, o) for o in objects)])
        tail = ", not none$" if edit == "no-value" else ", not "
        with pytest.raises(WritebackError, match=f"^{pmice.local_name()} must have exactly "
                                                 f"one xsd:decimal value{tail}"):
            read_probabilities(edited, "location1", model)

    def test_reading_the_wrong_state_is_an_error(self):
        g = Graph()
        writeback_profile_model(g, worked_counts(), "location1", 100)
        with pytest.raises(WritebackError):
            read_probabilities(g, "location2", MODEL_PROFILE)
