import re
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgmarkov.rdf import (
    DATATYPE_IRIS,
    DATETIME,
    DECIMAL,
    INTEGER,
    STRING,
    Graph,
    Iri,
    Literal,
    NTriplesError,
    TermError,
    Triple,
    datetime_literal,
    decimal_literal,
    escape_lexical,
    integer_literal,
    parse_ntriples,
    serialize_ntriples,
    string_literal,
    unescape_lexical,
)

from conftest import one_string_per_key
from oracles import scan_escapes

EX = "http://example.org/data/"


def iri(name):
    return Iri(EX + name)


def nt_key(t: Triple) -> tuple[str, str, str]:
    return (t.subject.key, t.predicate.key, t.object.key)


class TestTerms:
    def test_iri_accepts_ordinary_values(self):
        assert Iri("http://example.org/a#b").value == "http://example.org/a#b"

    @pytest.mark.parametrize("bad", ["", "relative", "has space:x", "a<b:c", 'q"uote:x'])
    def test_iri_rejects_malformed_values(self, bad):
        with pytest.raises(TermError):
            Iri(bad)

    def test_local_name_splits_on_hash_and_slash(self):
        assert Iri("http://example.org/a/b").local_name() == "b"
        assert Iri("http://example.org/a#frag").local_name() == "frag"

    @given(st.text(alphabet=["#", "/", "a", ":", "."], max_size=8))
    def test_local_name_is_the_text_after_the_last_hash_or_slash(self, tail):
        iri = Iri("x:" + tail)
        assert iri.local_name() == re.split(r"[#/]", iri.value)[-1]

    def test_literal_defaults_to_string(self):
        assert Literal("hello").datatype == STRING

    @pytest.mark.parametrize(
        "lexical,datatype",
        [("12", INTEGER), ("-3", INTEGER), ("0.5", DECIMAL), ("-0.25", DECIMAL),
         ("7", DECIMAL), ("2023-04-08T12:00:00", DATETIME)],
    )
    def test_literal_accepts_valid_lexical_forms(self, lexical, datatype):
        assert Literal(lexical, datatype).lexical == lexical

    @pytest.mark.parametrize(
        "lexical,datatype",
        [("1.5", INTEGER), ("", INTEGER), ("1e3", DECIMAL), ("", DECIMAL),
         ("2023-04-08 12:00:00", DATETIME), ("2023-02-30T00:00:00", DATETIME),
         ("2023-13-01T00:00:00", DATETIME), ("yesterday", DATETIME)],
    )
    def test_literal_rejects_invalid_lexical_forms(self, lexical, datatype):
        with pytest.raises(TermError):
            Literal(lexical, datatype)

    @pytest.mark.parametrize(
        "lexical",
        ["2023-02-29T00:00:00", "0000-01-01T00:00:00", "2023-00-01T00:00:00",
         "2023-13-01T00:00:00", "2023-01-00T00:00:00", "2023-01-01T24:00:00",
         "2023-01-01T00:60:00", "2023-01-01T00:00:60", "2023-01-01T00:00:61"],
    )
    def test_datetime_rejects_impossible_values(self, lexical):
        with pytest.raises(TermError):
            Literal(lexical, DATETIME)

    def test_literal_rejects_unknown_datatype(self):
        with pytest.raises(TermError):
            Literal("1", "float")

    def test_decimal_literal_uses_plain_notation(self):
        assert decimal_literal(5e-05).lexical == "0.00005"
        assert decimal_literal(0.375).lexical == "0.375"
        assert decimal_literal(1.0).lexical == "1.0"

    @given(st.floats(min_value=0, max_value=1, allow_nan=False))
    def test_decimal_literal_round_trips_floats_exactly(self, value):
        assert float(decimal_literal(value).lexical) == value

    def test_helper_constructors(self):
        assert integer_literal(7) == Literal("7", INTEGER)
        assert string_literal("x") == Literal("x", STRING)
        assert datetime_literal(datetime(2023, 4, 8, 12)) == Literal(
            "2023-04-08T12:00:00", DATETIME
        )

    def test_triple_positions_are_validated(self):
        lit = string_literal("x")
        with pytest.raises(TermError):
            Triple(lit, iri("p"), iri("o"))
        with pytest.raises(TermError):
            Triple(iri("s"), lit, iri("o"))
        with pytest.raises(TermError):
            Triple(iri("s"), iri("p"), "bare string")
        with pytest.raises(TermError, match="can only insert Triple instances"):
            Graph().insert((iri("s"), iri("p"), iri("o")))


class TestEscaping:
    @pytest.mark.parametrize(
        "raw,escaped",
        [('say "hi"', 'say \\"hi\\"'), ("a\\b", "a\\\\b"), ("a\nb", "a\\nb"),
         ("a\tb", "a\\tb"), ("a\rb", "a\\rb")],
    )
    def test_escape_pairs(self, raw, escaped):
        assert escape_lexical(raw) == escaped
        assert unescape_lexical(escaped) == raw

    def test_every_echar_is_read_and_the_writer_keeps_five(self):
        """The grammar's \\b, \\f and \\' were refused as unknown escapes."""
        assert unescape_lexical("a\\bb\\fc\\'d") == "a\bb\fc'd"
        assert escape_lexical("a\bb\fc'd") == "a\bb\fc'd"
        g = parse_ntriples(f"<{EX}s> <{EX}p> \"a\\bc\\f\\'\" .")
        assert list(g) == [Triple(iri("s"), iri("p"), string_literal("a\bc\f'"))]

    @given(st.text(max_size=50))
    def test_escape_round_trips(self, text):
        assert unescape_lexical(escape_lexical(text)) == text

    @pytest.mark.parametrize(
        "escaped,raw",
        [("caf\\u00e9", "caf\u00e9"), ("\\u00E9", "\u00e9"), ("A\\U0001F600", "A\U0001F600"),
         ("\\u0022q\\u005C", '"q\\')],
    )
    def test_unescape_decodes_unicode_escapes(self, escaped, raw):
        assert unescape_lexical(escaped) == raw

    @pytest.mark.parametrize(
        "bad,message",
        [("trailing\\", "dangling backslash in literal"),
         ("bad\\q", "unknown escape sequence: \\q"),
         ("\\u12G4", "bad escape sequence: \\u12G4"),
         ("\\u00", "bad escape sequence: \\u00"),
         ("\\U0001F60", "bad escape sequence: \\U0001F60"),
         ("\\u+123", "bad escape sequence: \\u+123"),
         ("\\u\n12\\t", "bad escape sequence: \\u\n12\\"),
         ("a\\uD800", "escape is not a Unicode scalar value: \\uD800"),
         ("\\uDFFF", "escape is not a Unicode scalar value: \\uDFFF"),
         ("\\U00110000", "escape is not a Unicode scalar value: \\U00110000")],
    )
    def test_unescape_rejects_bad_sequences(self, bad, message):
        with pytest.raises(TermError) as err:
            unescape_lexical(bad)
        assert str(err.value) == message

    @given(st.text(alphabet=["\\", "u", "U", "0", "1", "a", "F", "D", "8", "g", "+", "n", "t",
                             "r", '"', "b", "f", "'", "\n", "\r", "\u00e9", "\U0001F600"],
                   max_size=14))
    @settings(max_examples=300)
    def test_unescape_agrees_with_the_reference_scanner(self, text):
        """The same decoded string, or a TermError with the same message."""
        try:
            expected = scan_escapes(text)
        except TermError as exc:
            with pytest.raises(TermError) as err:
                unescape_lexical(text)
            assert str(err.value) == str(exc)
        else:
            assert unescape_lexical(text) == expected


class TestGraph:
    def test_insert_is_set_like(self):
        g = Graph()
        t = Triple(iri("s"), iri("p"), iri("o"))
        assert g.insert(t) is True
        assert g.insert(t) is False
        assert len(g) == 1
        assert t in g

    def test_equality_is_by_triple_set(self):
        t1 = Triple(iri("s"), iri("p"), iri("o1"))
        t2 = Triple(iri("s"), iri("p"), iri("o2"))
        assert Graph([t1, t2]) == Graph([t2, t1])
        assert Graph([t1]) != Graph([t2])

    def test_copy_is_independent(self):
        g = Graph([Triple(iri("s"), iri("p"), iri("o"))])
        h = g.copy()
        h.insert(Triple(iri("s"), iri("p"), iri("o2")))
        assert len(g) == 1 and len(h) == 2

    def test_copy_shares_what_neither_graph_has_written(self):
        g = Graph(Triple(iri(s), iri("p"), iri("o")) for s in ("s1", "s2", "s3"))
        h = g.copy()
        g.insert(Triple(iri("s1"), iri("p"), iri("o2")))
        h.insert(Triple(iri("s2"), iri("p"), iri("o2")))
        key = iri("s3").key
        assert h._spo[key] is g._spo[key]
        assert len(g.match(iri("s1"))) == 2 and len(h.match(iri("s1"))) == 1
        assert len(g.match(iri("s2"))) == 1 and len(h.match(iri("s2"))) == 2

    @pytest.mark.parametrize("written", ["copy", "source"])
    def test_a_write_after_a_copy_into_shared_sets_stays_in_its_graph(self, written):
        """The first write lands in a set bucket of spo (s1 p -> o1, o2) and
        one of pos (p o3 -> s2, s3) that the copy shares; the second adds a
        key to the inner dict spo[s1] and lands in the set pos[q][o1]."""
        g = Graph(Triple(iri(s), iri(p), iri(o)) for s, p, o in [
            ("s1", "p", "o1"), ("s1", "p", "o2"), ("s2", "p", "o3"), ("s3", "p", "o3"),
            ("s2", "q", "o1"), ("s3", "q", "o1")])
        h = g.copy()
        target, other = (h, g) if written == "copy" else (g, h)

        def key(name):
            return iri(name).key

        patterns = [(s, p, o) for s in (None, key("s1")) for p in (None, key("p"), key("q"))
                    for o in (None, key("o1"), key("o3"))]
        before = [sorted(other.match_keys(*pattern)) for pattern in patterns]
        assert target.insert(Triple(iri("s1"), iri("p"), iri("o3")))
        assert target.insert(Triple(iri("s1"), iri("q"), iri("o1")))
        assert [sorted(other.match_keys(*pattern)) for pattern in patterns] == before
        assert sorted(target.match_keys(key("s1"), key("p"))) == [
            (key("s1"), key("p"), key(o)) for o in ("o1", "o2", "o3")]
        assert sorted(target.match_keys(None, key("p"), key("o3"))) == [
            (key(s), key("p"), key("o3")) for s in ("s1", "s2", "s3")]
        assert len(target) == 8 and len(other) == 6

    def test_copying_again_shares_what_the_original_had_made_its_own(self):
        g = Graph([Triple(iri("s"), iri("p"), iri("o"))])
        g.copy()
        g.insert(Triple(iri("s"), iri("p"), iri("o2")))
        k = g.copy()
        g.insert(Triple(iri("s"), iri("p"), iri("o3")))
        k.insert(Triple(iri("s2"), iri("p"), iri("o3")))
        assert len(k) == 3 and len(k.match(iri("s"))) == 2
        assert len(g) == 3 and g.match(None, iri("p"), iri("o3")) == [
            Triple(iri("s"), iri("p"), iri("o3"))]

    def _sample(self):
        g = Graph()
        for s in ("a", "b"):
            for p in ("p", "q"):
                for o in ("x", "y"):
                    g.insert(Triple(iri(s), iri(p), iri(o)))
        g.insert(Triple(iri("a"), iri("p"), integer_literal(5)))
        return g

    def test_match_covers_every_binding_combination(self):
        g = self._sample()
        patterns = [
            (None, None, None),
            (iri("a"), None, None),
            (None, iri("p"), None),
            (None, None, iri("x")),
            (iri("a"), iri("p"), None),
            (iri("a"), None, iri("x")),
            (None, iri("p"), iri("x")),
            (iri("a"), iri("p"), iri("x")),
            (iri("missing"), None, None),
            (None, None, integer_literal(5)),
        ]
        for s, p, o in patterns:
            expected = sorted(
                (
                    t
                    for t in g
                    if (s is None or t.subject == s)
                    and (p is None or t.predicate == p)
                    and (o is None or t.object == o)
                ),
                key=nt_key,
            )
            assert g.match(s, p, o) == expected

    def test_match_returns_sorted_results(self):
        g = self._sample()
        results = g.match(None, None, None)
        assert results == sorted(results, key=nt_key)


class TestSerialization:
    def test_term_serialization_forms(self):
        assert iri("s").key == f"<{EX}s>"
        assert integer_literal(5).key == '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_serialize_golden(self):
        g = Graph(
            [
                Triple(iri("b"), iri("p"), string_literal('say "hi"')),
                Triple(iri("a"), iri("p"), iri("o")),
            ]
        )
        assert serialize_ntriples(g) == (
            f'<{EX}a> <{EX}p> <{EX}o> .\n'
            f'<{EX}b> <{EX}p> "say \\"hi\\""'
            '^^<http://www.w3.org/2001/XMLSchema#string> .\n'
        )

    def test_serialize_sorts_by_key_tuple_where_keys_prefix_one_another(self):
        strings = ["a", 'a"', "a\\", "a\t", "a\n", "a\x01", "a\u00e9", "a\U0001F600", "a>"]
        objects = [*map(string_literal, strings), Literal("1", INTEGER),
                   Literal("10", INTEGER), Literal("0.5", DECIMAL), Literal("0.50", DECIMAL),
                   Literal("2023-04-08T12:00:00", DATETIME), *_PREFIX_IRIS]
        g = Graph(Triple(s, p, o) for s in _PREFIX_IRIS for p in _PREFIX_IRIS[:2]
                  for o in objects)
        text = serialize_ntriples(g)
        assert text == _text_in_key_order(g)
        subjects = [line.split(" ", 1)[0] for line in text.split("\n")[:-1]]
        assert list(dict.fromkeys(subjects)) == [
            f"<{EX}{name}>" for name in ("a#b", "a-", "a/b", "a", "ab", "b")]

    def test_serialize_empty_graph(self):
        assert serialize_ntriples(Graph()) == ""

    def test_parse_accepts_comments_and_blank_lines(self):
        text = (
            "# a comment\n"
            "\n"
            f"<{EX}s> <{EX}p> <{EX}o> .\n"
            f'<{EX}s> <{EX}p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
            f"<{EX}s> <{EX}p> <{EX}o2> . # a comment after the dot\n"
            f'<{EX}s> <{EX}p> "x # y" .#\n'
        )
        g = parse_ntriples(text)
        assert len(g) == 4
        assert Triple(iri("s"), iri("p"), string_literal("x # y")) in g

    def test_parse_plain_literal_is_string(self):
        g = parse_ntriples(f'<{EX}s> <{EX}p> "plain" .')
        [t] = list(g)
        assert t.object == string_literal("plain")

    @pytest.mark.parametrize(
        "line,lineno",
        [
            (f"<{EX}s> <{EX}p> <{EX}o>", 1),
            (f"<{EX}s> <{EX}p> .", 1),
            (f"<{EX}s <{EX}p> <{EX}o> .", 1),
            (f'<{EX}s> <{EX}p> "x"^^<http://example.org/custom> .', 1),
            (f"<{EX}s> <{EX}p> _:b0 .", 1),
            (f"<{EX}s> <{EX}p> <{EX}o> . extra", 1),
            (f'<{EX}s> <{EX}p> "unterminated .', 1),
            (f'<{EX}s> <{EX}p> "bad\\q" .', 1),
            (f'<{EX}s> <{EX}p> "nope"^^<http://www.w3.org/2001/XMLSchema#dateTime> .', 1),
            (f'<{EX}s> <{EX}p> "x"@en .', 1),
            (f"<{EX}s> <{EX}p> <{EX}o> . .", 1),
        ],
    )
    def test_parse_rejects_malformed_lines(self, line, lineno):
        with pytest.raises(NTriplesError) as err:
            parse_ntriples(line)
        assert err.value.line_no == lineno

    def test_parse_decodes_unicode_escapes_and_writes_raw_characters(self):
        g = parse_ntriples(f'<{EX}s> <{EX}p> "A\\U0001F600" .\n')
        [t] = list(g)
        assert t.object == string_literal("A\U0001F600")
        assert serialize_ntriples(g) == (
            f'<{EX}s> <{EX}p> "A\U0001F600"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
        )

    @pytest.mark.parametrize("escape", ["\\u12G4", "\\u00"])
    def test_parse_rejects_bad_unicode_escapes_on_their_line(self, escape):
        text = f'<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> "x{escape}" .\n'
        with pytest.raises(NTriplesError) as err:
            parse_ntriples(text)
        assert err.value.line_no == 2

    def test_parse_error_reports_the_right_line(self):
        text = f"<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> broken .\n"
        with pytest.raises(NTriplesError) as err:
            parse_ntriples(text)
        assert err.value.line_no == 2

    def test_a_lone_cr_ends_a_line(self):
        """Lines were split on LF only, so this was refused at line 1."""
        g = parse_ntriples(f"<{EX}s> <{EX}p> <{EX}o> .\r<{EX}s> <{EX}p> <{EX}o2> .")
        assert len(g) == 2

    def test_line_numbers_count_cr_crlf_and_lf_line_ends(self):
        good = f"<{EX}s> <{EX}p> <{EX}o> ."
        text = f"{good}\r{good}\r\n\r\n{good}\n\r<{EX}s> <{EX}p> broken .\r\n{good}"
        with pytest.raises(NTriplesError) as err:
            parse_ntriples(text)
        assert err.value.line_no == 6

    def test_a_raw_cr_inside_a_literal_is_refused(self):
        with pytest.raises(NTriplesError) as err:
            parse_ntriples(f'<{EX}s> <{EX}p> "a\rb" .')
        assert err.value.line_no == 1

    def test_nel_and_line_separator_stay_inside_a_literal(self):
        """str.splitlines() would break the line at both."""
        g = parse_ntriples(f'<{EX}s> <{EX}p> "a\x85b\u2028c" .\n')
        assert list(g) == [Triple(iri("s"), iri("p"), string_literal("a\x85b\u2028c"))]


_POOL_IRIS = [Iri(EX + name) for name in "abcdef"]
_POOL_PREDS = [Iri(EX + name) for name in ("p", "q", "r")]

_literals = st.one_of(
    st.integers(-100, 100).map(integer_literal),
    st.text(max_size=8).map(string_literal),
    st.floats(0, 1, allow_nan=False).map(decimal_literal),
    st.datetimes(datetime(2000, 1, 1), datetime(2050, 1, 1)).map(
        lambda d: datetime_literal(d.replace(microsecond=0))
    ),
)
_triples = st.builds(
    Triple,
    st.sampled_from(_POOL_IRIS),
    st.sampled_from(_POOL_PREDS),
    st.one_of(st.sampled_from(_POOL_IRIS), _literals),
)
_graphs = st.lists(_triples, max_size=40).map(Graph)
_gaps = st.sampled_from(["", " ", "\t", " \t "])
# what may follow a triple's '.': nothing, or a comment
_comments = st.sampled_from(["", "", " # note", "\t#<a> <b> <c> .", "#"])

# IRIs that prefix one another, and lexical forms that prefix one another
# and hold every character the writer escapes or passes through raw: key
# order and the order of whole lines differ for these unless no key is a
# proper prefix of another.
_PREFIX_IRIS = [Iri(EX + name) for name in ("a", "ab", "a/b", "a#b", "a-", "b")]
_tricky_text = st.text(
    alphabet=["a", '"', "\\", "\t", "\n", "\r", "\x01", "\x1f", " ", ">", "<", "^",
              "\u00e9", "\u2028", "\U0001F600"],
    max_size=4,
)
_tricky_literals = st.one_of(
    _tricky_text.map(string_literal),
    st.sampled_from(["1", "10", "-1", "+1", "01", "100"]).map(lambda x: Literal(x, INTEGER)),
    st.sampled_from(["0.5", "0.50", "0.05", "1", "1.", ".5"]).map(lambda x: Literal(x, DECIMAL)),
    st.sampled_from(["2023-04-08T12:00:00", "2023-04-08T02:00:00"]).map(
        lambda x: Literal(x, DATETIME)),
)
_prefix_graphs = st.lists(
    st.builds(Triple, st.sampled_from(_PREFIX_IRIS), st.sampled_from(_PREFIX_IRIS),
              st.one_of(st.sampled_from(_PREFIX_IRIS), _tricky_literals)),
    max_size=40,
).map(Graph)


def _text_in_key_order(g: Graph) -> str:
    return "".join(f"{s} {p} {o} .\n" for s, p, o in sorted(g.match_keys()))


# a domain small enough that graphs and their copies often write the same
# spo and pos containers, and every pattern over it; a predicate may also be
# a subject, so one key can name an inner dict of spo and one of pos
_SMALL_IRIS = _POOL_IRIS[:3]
_SMALL_PREDS = [*_POOL_PREDS, *_SMALL_IRIS]
_SMALL_OBJECTS = [*_SMALL_IRIS, integer_literal(1)]
_small_triples = st.builds(Triple, st.sampled_from(_SMALL_IRIS), st.sampled_from(_SMALL_PREDS),
                           st.sampled_from(_SMALL_OBJECTS))
_SMALL_KEY_PATTERNS = [(s, p, o) for s in [None, *(t.key for t in _SMALL_IRIS)]
                       for p in [None, *(t.key for t in _SMALL_PREDS)]
                       for o in [None, *(t.key for t in _SMALL_OBJECTS)]]
_SMALL_ALL_TRIPLES = [Triple(s, p, o) for s in _SMALL_IRIS for p in _SMALL_PREDS
                      for o in _SMALL_OBJECTS]


def _one_key_buckets_are_1_tuples(g: Graph) -> bool:
    """The store's invariant: an innermost index bucket is a 1-tuple when it
    holds one key, and a set of two or more keys otherwise."""
    return all(type(bucket) is (tuple if len(bucket) == 1 else set) and bucket
               for index in (g._spo, g._pos) for by_key in index.values()
               for bucket in by_key.values())


def _respelled_line(draw, triple: Triple) -> str:
    """The triple as a valid but non-canonical N-Triples line: any spacing,
    characters of a literal written as \\u or \\U escapes, a string
    literal's datatype left off, and a comment after the '.'."""
    obj = triple.object
    if isinstance(obj, Literal):
        body = "".join(
            (f"\\u{ord(ch):04X}" if ord(ch) <= 0xFFFF else f"\\U{ord(ch):08X}")
            if draw(st.booleans()) else escape_lexical(ch)
            for ch in obj.lexical
        )
        plain = obj.datatype == STRING and draw(st.booleans())
        obj_text = f'"{body}"' + ("" if plain else f"^^<{DATATYPE_IRIS[obj.datatype]}>")
    else:
        obj_text = obj.key
    return (f"{draw(_gaps)}{triple.subject.key}{draw(_gaps)}"
            f"{triple.predicate.key}{draw(_gaps)}{obj_text}{draw(_gaps)}."
            f"{draw(_comments)}")


class TestProperties:
    @given(_graphs)
    @settings(max_examples=60)
    def test_ntriples_round_trip(self, g):
        assert parse_ntriples(serialize_ntriples(g)) == g

    @given(_graphs)
    @settings(max_examples=30)
    def test_serialization_is_canonical(self, g):
        text = serialize_ntriples(g)
        assert serialize_ntriples(parse_ntriples(text)) == text

    @given(_graphs, st.data())
    @settings(max_examples=60)
    def test_respelled_lines_parse_to_the_same_graph(self, g, data):
        lines = [_respelled_line(data.draw, t) for t in g]
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, data.draw(st.sampled_from(["", "# comment", " \t# <a> <b> <c> ."])))
        newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        parsed = parse_ntriples(newline.join(lines))
        assert parsed == g
        assert parsed.match() == g.match()
        assert one_string_per_key(parsed)

    @given(_graphs, st.lists(_triples, max_size=20))
    @settings(max_examples=40)
    def test_inserting_into_a_copy_leaves_the_original_alone(self, g, batch):
        objects = [None, *_POOL_IRIS, *{t.object for t in [*g, *batch]}]
        patterns = [(s, p, o) for s in [None, *_POOL_IRIS] for p in [None, *_POOL_PREDS]
                    for o in objects]
        text, size = serialize_ntriples(g), len(g)
        matches = [g.match(*pattern) for pattern in patterns]
        h = g.copy()
        for t in batch:
            h.insert(t)
        assert all(t in h for t in batch)
        assert serialize_ntriples(g) == text
        assert len(g) == size
        assert [g.match(*pattern) for pattern in patterns] == matches

    @given(st.lists(_small_triples, max_size=10), st.data())
    @settings(max_examples=100, deadline=None)
    def test_copies_and_inserts_in_any_order_match_a_fresh_graph(self, triples, data):
        """Each graph against its model, a plain set of triples: inserts,
        duplicates included, interleave with copies of copies and serializes,
        and any live graph may be written next, so every other graph must stay
        as it was.  A serialize may come at any step, so the sorted lines that
        copies share get built by a copy that has added triples, by a source
        written after it was copied, or by a copy of a copy, and are merged
        into later.  A graph's term dict holds exactly the keys of its own
        triples, and every key is one string object across the term dict and
        both indexes."""
        def text(model):
            return "".join(sorted(f"{s} {p} {o} .\n" for s, p, o in map(nt_key, model)))

        def check(graph, model):
            keys = {nt_key(t) for t in model}
            assert len(graph) == len(keys)
            assert set(graph._terms) == {k for key in keys for k in key}
            for pattern in _SMALL_KEY_PATTERNS:
                assert sorted(graph.match_keys(*pattern)) == sorted(
                    k for k in keys if all(x is None or x == y for x, y in zip(pattern, k)))
            assert [t in graph for t in _SMALL_ALL_TRIPLES] == [
                t in model for t in _SMALL_ALL_TRIPLES]
            assert graph.match() == sorted(model, key=nt_key)
            assert serialize_ntriples(graph) == text(model)
            assert graph == Graph(model)
            assert _one_key_buckets_are_1_tuples(graph)
            assert one_string_per_key(graph)

        graphs, models = [Graph(triples)], [set(triples)]
        check(graphs[0], models[0])
        for _ in range(data.draw(st.integers(1, 24))):
            i = data.draw(st.integers(0, len(graphs) - 1))
            action = data.draw(st.sampled_from(["copy", "insert", "serialize"]))
            if action == "copy":
                graphs.append(graphs[i].copy())
                models.append(set(models[i]))
            elif action == "insert":
                t = data.draw(_small_triples)
                assert graphs[i].insert(t) is (t not in models[i])
                models[i].add(t)
            else:
                assert serialize_ntriples(graphs[i]) == text(models[i])
        for graph, model in zip(graphs, models):
            check(graph, model)

    @given(_prefix_graphs)
    @settings(max_examples=100)
    def test_serialization_is_in_key_tuple_order(self, g):
        assert serialize_ntriples(g) == _text_in_key_order(g)

    @given(
        _graphs,
        st.one_of(st.none(), st.sampled_from(_POOL_IRIS)),
        st.one_of(st.none(), st.sampled_from(_POOL_PREDS)),
        st.one_of(st.none(), st.sampled_from(_POOL_IRIS)),
    )
    @settings(max_examples=60)
    def test_match_agrees_with_linear_scan(self, g, s, p, o):
        expected = sorted(
            (
                t
                for t in g
                if (s is None or t.subject == s)
                and (p is None or t.predicate == p)
                and (o is None or t.object == o)
            ),
            key=nt_key,
        )
        assert g.match(s, p, o) == expected
