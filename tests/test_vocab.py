from importlib import resources
from types import SimpleNamespace

import pytest

from kgmarkov import vocab as vocab_module
from kgmarkov.datagen import GenConfig, generate
from kgmarkov.ingest import VESSEL, ex, ingest_rows, location_sequence
from kgmarkov.markov import count_transitions
from kgmarkov.rdf import Iri, Literal
from kgmarkov.vocab import (
    CLASS,
    DATA_PROPERTY,
    OBJECT_PROPERTY,
    PrefixError,
    PrefixTable,
    Vocab,
    VocabularyError,
    load_manifest,
)
from kgmarkov.writeback import writeback_cco_model, writeback_profile_model

from conftest import THREE_DAY_ROWS

BFO_NS = Vocab().prefixes.namespace("bfo")
CCO_NS = Vocab().prefixes.namespace("cco")
EX_NS = Vocab().prefixes.namespace("ex")


class TestPrefixTable:
    def test_resolves_default_prefixes(self):
        t = Vocab().prefixes
        assert t.resolve("bfo:precedes") == Iri(BFO_NS + "precedes")
        assert t.resolve("cco:Watercraft") == Iri(CCO_NS + "Watercraft")
        assert t.resolve("ex:fishingVessel") == Iri(EX_NS + "fishingVessel")

    @pytest.mark.parametrize("spelling", ["bfo:precedes", "Bfo:precedes", "BFO:precedes"])
    def test_prefix_lookup_ignores_case(self, spelling):
        assert Vocab().prefixes.resolve(spelling) == Iri(BFO_NS + "precedes")

    def test_alias_folds_spatial_part_of(self):
        t = Vocab().prefixes
        assert t.resolve("cco:spatial_part_of") == Iri(BFO_NS + "spatial_part_of")
        assert t.resolve("cco:spatial_part_of") == t.resolve("bfo:spatial_part_of")

    def test_alias_folds_misspelled_occurrent_part(self):
        t = Vocab().prefixes
        expected = Iri(BFO_NS + "has_occurrent_part")
        assert t.resolve("bfo:has_occurent_part") == expected
        assert t.resolve("Bfo:has_occurent_part") == expected

    @pytest.mark.parametrize("bad", ["unknown:x", "bare", "bfo:", ":x"])
    def test_resolve_rejects_bad_names(self, bad):
        with pytest.raises(PrefixError):
            Vocab().prefixes.resolve(bad)

    def test_custom_namespace_registration(self):
        t = PrefixTable({"App": "http://example.org/app/"})
        assert t.resolve("APP:thing") == Iri("http://example.org/app/thing")
        with pytest.raises(PrefixError):
            t.resolve("bfo:thing")
        with pytest.raises(PrefixError) as err:
            PrefixTable({"app": "http://example.org/app/", "not a prefix": "http://example.org/x/"})
        assert str(err.value) == "bad prefix: 'not a prefix'"


_EXPECTED_CLASSES = [
    "bfo:SpatiotemporalRegion", "bfo:SpatialRegion", "bfo:TemporalRegion",
    "bfo:TemporalInstant", "bfo:Process", "bfo:ProcessBoundary", "bfo:History",
    "bfo:Disposition", "bfo:SpatiotemporalInstant", "cco:ProcessProfile",
    "cco:PatternProcessProfile", "cco:PatternOfLife", "cco:Watercraft",
    "cco:VehicleTrackPoint", "cco:ProbabilityMeasurementICE", "cco:MarkovPMICE",
    "cco:TransitionCountICE", "cco:TransitionTotalICE",
]

_EXPECTED_PROPERTIES = [
    "rdf:type", "bfo:precedes", "bfo:has_occurrent_part", "bfo:occurrent_part_of",
    "bfo:has_temporal_part", "bfo:history_of", "bfo:spatially_projects_onto",
    "bfo:temporally_projects_onto", "bfo:participates_in", "bfo:inheres_in",
    "bfo:realizes", "bfo:occupies_spatial_region", "bfo:occupies_spatiotemporal_region",
    "bfo:spatial_part_of", "cco:is_a_measurement_of", "cco:modally_about",
    "cco:is_about", "cco:has_datetime_value", "cco:has_decimal_value",
    "cco:has_integer_value", "ex:predicted",
]


class TestVocabulary:
    def test_required_terms_cover_expected_names(self):
        names = {t.prefixed_name for t in Vocab().terms}
        for name in _EXPECTED_CLASSES + _EXPECTED_PROPERTIES:
            assert name in names, name

    def test_term_kinds(self, vocab):
        kinds = {t.prefixed_name: t.kind for t in vocab.terms}
        for name in _EXPECTED_CLASSES:
            assert kinds[name] == CLASS
        for name in _EXPECTED_PROPERTIES:
            assert kinds[name] in (OBJECT_PROPERTY, DATA_PROPERTY)
        assert kinds["cco:has_decimal_value"] == DATA_PROPERTY
        assert kinds["bfo:precedes"] == OBJECT_PROPERTY

    def test_every_term_has_label_and_definition(self, vocab):
        for term in vocab.terms:
            assert term.label.strip()
            assert term.definition.strip()

    def test_term_iris_are_unique(self, vocab):
        iris = [t.iri for t in vocab.terms]
        assert len(set(iris)) == len(iris)

    def test_attribute_handles_resolve(self, vocab):
        assert vocab.Process == vocab.prefixes.resolve("bfo:Process")
        assert vocab.type == vocab.prefixes.resolve("rdf:type")
        assert vocab.predicted == vocab.prefixes.resolve("ex:predicted")
        assert vocab.MarkovPMICE == vocab.prefixes.resolve("cco:MarkovPMICE")

    def test_class_and_property_partition(self, vocab):
        assert vocab.class_iris() | {t.iri for t in vocab.terms if t.kind != CLASS} == {
            t.iri for t in vocab.terms}
        assert not vocab.class_iris() & {t.iri for t in vocab.terms if t.kind != CLASS}


class TestManifest:
    def test_shipped_manifest_matches_defaults(self, vocab):
        text = resources.files("kgmarkov").joinpath("data", "vocabulary.tsv").read_text()
        loaded = load_manifest(text)
        assert loaded.terms == vocab.terms
        assert vars(loaded.prefixes) == vars(vocab.prefixes)

    @pytest.mark.parametrize(
        "line,message",
        [
            ("prefix\tonly-two", "line 2: prefix rows need 3 fields"),
            ("term\tbfo:Process\tclass\tProcess", "line 2: term rows need 5 or 6 fields"),
            ("term\tbfo:Process\tnoun\tProcess\tdef", "unknown term kind: 'noun'"),
            ("term\tmystery:Process\tclass\tProcess\tdef",
             "term 'mystery:Process': unknown prefix: 'mystery'"),
            ("widget\tbfo:Process", "line 2: unknown row kind 'widget'"),
            ("prefix\tBFO\thttp://example.org/other/", "line 2: duplicate prefix 'BFO'"),
            ("prefix\tCCO\thttp://example.org/cco/\nprefix\tcco\thttp://example.org/other/",
             "line 3: duplicate prefix 'cco'"),
            ("prefix\tcco\thttp://example.org/cco/\nterm\tbfo:Process\tclass\tProcess\tdef\n"
             "term\tcco:Process\tclass\tProcess\tdef",
             "local name clash: cco:Process vs bfo:Process"),
        ],
    )
    def test_load_rejects_malformed_rows(self, line, message):
        base = "prefix\tbfo\t" + BFO_NS + "\n"
        with pytest.raises(VocabularyError) as err:
            load_manifest(base + line + "\n")
        assert str(err.value) == message

    def test_vocabs_share_the_shipped_terms_and_prefix_table(self):
        shipped = vocab_module._shipped()
        first, second = Vocab(), Vocab()
        assert first.prefixes is second.prefixes is shipped.prefixes
        assert first.terms is second.terms is shipped.terms
        text = resources.files("kgmarkov").joinpath("data", "vocabulary.tsv").read_text()
        assert second.terms == load_manifest(text).terms

    def test_prefix_rows_of_the_shipped_manifest_drive_ingest_and_queries(
            self, tmp_path, monkeypatch):
        """Moving the bfo and ex namespaces in vocabulary.tsv moves the prefix
        table, the vocabulary and the minted IRIs together, so the bundled
        location query still reads every ingested day back."""
        text = resources.files("kgmarkov").joinpath("data", "vocabulary.tsv").read_text()
        moved = text.replace(f"prefix\tbfo\t{BFO_NS}\n", "prefix\tbfo\thttp://example.org/v2/bfo/\n")
        moved = moved.replace(f"prefix\tex\t{EX_NS}\n", "prefix\tex\thttp://example.org/v2/ex/\n")
        assert moved.count("http://example.org/v2/") == 2
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "vocabulary.tsv").write_text(moved, encoding="utf-8")
        monkeypatch.setattr(vocab_module, "resources", SimpleNamespace(files=lambda _: tmp_path))
        vocab_module._shipped.cache_clear()
        try:
            assert Vocab().Process == Iri("http://example.org/v2/bfo/Process")
            assert Vocab().prefixes.resolve("bfo:Process") == Vocab().Process
            assert ex(VESSEL) == Iri("http://example.org/v2/ex/fishingVessel")
            graph = ingest_rows(generate(GenConfig(days=10)))
            assert len(location_sequence(graph)) == 10
        finally:
            monkeypatch.undo()
            vocab_module._shipped.cache_clear()
        assert Vocab().prefixes.namespace("bfo") == BFO_NS

    def test_load_keeps_every_column_of_a_term_row(self):
        text = (f"prefix\tbfo\t{BFO_NS}\n"
                "term\tbfo:Process\tclass\tProcess\tAn occurrent.\tA comment.\n"
                "term\tbfo:a\tclass\tA\tThe a class.\n"
                "term\tbfo:a:b\tobject-property\tA b\tThe a:b relation.\n")
        loaded = load_manifest(text)
        process, a, ab = loaded.terms
        assert (process.label, process.definition, process.comment) == (
            "Process", "An occurrent.", "A comment.")
        assert (a.label, a.definition, a.comment) == ("A", "The a class.", "")
        # as in SPARQL, a local name may hold ':', and the handle is all of it
        assert ab.iri == Iri(BFO_NS + "a:b") == getattr(loaded, "a:b")
        assert loaded.a == a.iri

    def test_load_rejects_duplicate_terms(self):
        text = (
            f"prefix\tbfo\t{BFO_NS}\n"
            "term\tbfo:Process\tclass\tProcess\tdef\n"
            "term\tbfo:Process\tclass\tProcess\tdef\n"
        )
        with pytest.raises(VocabularyError):
            load_manifest(text)


class TestClosedVocabulary:
    def test_emitted_graphs_stay_inside_the_vocabulary(self, vocab):
        """Every predicate written by ingest or writeback must be a declared
        property, and every rdf:type object a declared class."""
        graph = ingest_rows(list(THREE_DAY_ROWS))
        labels = [row.location for row in THREE_DAY_ROWS]
        counts = count_transitions(labels)
        writeback_profile_model(graph, counts, "location1", 3)
        writeback_cco_model(graph, counts, "location1", 3)
        properties = {t.iri for t in vocab.terms if t.kind != CLASS}
        classes = vocab.class_iris()
        for t in graph:
            assert t.predicate in properties, t.predicate
            if t.predicate == vocab.type:
                assert t.object in classes, t.object

    def test_predicted_marker_is_a_declared_data_property(self, vocab):
        graph = ingest_rows(list(THREE_DAY_ROWS))
        counts = count_transitions([row.location for row in THREE_DAY_ROWS])
        writeback_cco_model(graph, counts, "location1", 3)
        flagged = graph.match(None, vocab.predicted, None)
        assert flagged and all(isinstance(t.object, Literal) for t in flagged)
