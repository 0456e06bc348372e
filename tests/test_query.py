import random
import re
from collections import Counter
from dataclasses import replace
from datetime import datetime
from types import CodeType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgmarkov.datagen import GenConfig, generate
from kgmarkov.ingest import ingest_rows, load_bundled_query
from kgmarkov.query import (
    BOUND,
    FREE,
    REPEAT,
    Query,
    QueryError,
    TriplePattern,
    Var,
    _compile,
    _plan,
    _Stream,
    display_value,
    evaluate,
    parse_query,
)
from kgmarkov.rdf import (
    Graph,
    Iri,
    Literal,
    Triple,
    datetime_literal,
    integer_literal,
)
from kgmarkov.vocab import Vocab

from conftest import graph_of
from oracles import brute_force_rows, random_graph_and_query, scan_tokens

BFO_NS = Vocab().prefixes.namespace("bfo")
EX_NS = Vocab().prefixes.namespace("ex")

EX = "http://example.org/data/"


def iri(name):
    return Iri(EX + name)


class TestParsing:
    def test_location_query_shape(self):
        q = parse_query(load_bundled_query("location_by_time"))
        assert len(q.patterns) == 5
        assert q.projection == (Var("datetime"), Var("location"))
        assert q.order_by == Var("datetime")
        assert q.patterns[0].subject == Iri(EX_NS + "fishingVessel")

    def test_transitions_query_shape(self):
        q = parse_query(load_bundled_query("transitions"))
        assert len(q.patterns) == 9
        assert q.projection == (
            Var("startLocationOffFishingVessel"),
            Var("endLocationOffFishingVessel"),
        )
        assert q.order_by is None

    def test_legacy_spellings_parse_to_the_same_ast(self):
        canonical = parse_query(
            "SELECT ?loc WHERE { ?tp bfo:spatial_part_of ?loc . "
            "?part bfo:has_occurrent_part ?obs . }"
        )
        legacy = parse_query(
            "SELECT ?loc WHERE { ?tp cco:spatial_part_of ?loc . "
            "?part Bfo:has_occurent_part ?obs . }"
        )
        assert canonical == legacy

    def test_keywords_ignore_case(self):
        q = parse_query(
            "select ?s where { ?s bfo:precedes ?o . } order by ?s"
        )
        assert q.order_by == Var("s")

    def test_final_dot_is_optional(self):
        q = parse_query("SELECT ?s WHERE { ?s bfo:precedes ?o }")
        assert len(q.patterns) == 1

    @pytest.mark.parametrize("body", ["?t rdf:type bfo:Process.",
                                      "?t rdf:type bfo:Process. ?t bfo:precedes ?u"])
    def test_a_dot_right_after_a_prefixed_name_ends_the_pattern(self, body):
        spaced = body.replace("Process.", "Process .")
        assert parse_query(f"SELECT ?t WHERE {{ {body} }}") == parse_query(
            f"SELECT ?t WHERE {{ {spaced} }}")

    def test_a_dot_inside_a_local_name_stays_in_the_name(self):
        q = parse_query("SELECT ?s WHERE { ?s ex:a.b ?o . }")
        assert q.patterns[0].predicate == Iri(EX_NS + "a.b")

    def test_full_iri_terms(self):
        q = parse_query(f"SELECT ?s WHERE {{ ?s <{BFO_NS}precedes> <{EX}o> . }}")
        assert q.patterns[0].predicate == Iri(BFO_NS + "precedes")

    def test_typed_literal_objects(self):
        q = parse_query(
            'SELECT ?t WHERE { ?t cco:has_datetime_value '
            '"2023-04-08T12:00:00"^^xsd:dateTime . }'
        )
        assert q.patterns[0].object == Literal("2023-04-08T12:00:00", "dateTime")
        q2 = parse_query(
            'SELECT ?t WHERE { ?t cco:has_integer_value '
            '"5"^^<http://www.w3.org/2001/XMLSchema#integer> . }'
        )
        assert q2.patterns[0].object == integer_literal(5)

    def test_plain_literal_objects_are_strings(self):
        q = parse_query('SELECT ?s WHERE { ?s ex:predicted "true" . }')
        assert q.patterns[0].object == Literal("true")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("WHERE { ?s ?p ?o . }", "SELECT"),
            ("SELECT WHERE { ?s ?p ?o . }", "at least one variable"),
            ("SELECT ?s WHERE { }", "must not be empty"),
            ("SELECT ?s WHERE { ?s ?p ?o .", "unterminated"),
            ('SELECT ?s WHERE { "lit" ?p ?o . }', "object position"),
            ('SELECT ?s WHERE { ?s "lit" ?o . }', "object position"),
            ("SELECT ?s WHERE { ?s mystery:p ?o . }", "unknown prefix"),
            ("SELECT ?s ?gone WHERE { ?s bfo:precedes ?o . }", "?gone"),
            ("SELECT ?s WHERE { ?s bfo:precedes ?o . } ORDER BY ?gone", "?gone"),
            ("SELECT ?s WHERE { ?s bfo:precedes ?o . } EXTRA", "unexpected"),
            ("SELECT ?s WHERE { ?s bfo:precedes ?o . } ORDER ?s", "BY"),
            ("SELECT ?s WHERE { ?s bfo:precedes ?o } @", "unexpected character"),
            ('SELECT ?s WHERE { ?s ?p "x"^^cco:made_up . }', "unsupported datatype"),
            ("SELECT ?s WHERE { ?s ?p ?o ?extra . }", "'.'"),
            ("SELECT ?s WHERE ?s ?p ?o }", "expected '{'"),
            ('SELECT ?s WHERE { ?s ?p "x"^^?v . }', "expected a datatype after ^^"),
            ("SELECT ?s WHERE { ?s <nocolon> ?o . }", "scheme separator"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(QueryError) as err:
            parse_query(text)
        assert fragment in str(err.value)

    def test_errors_carry_positions(self):
        with pytest.raises(QueryError) as err:
            parse_query("SELECT ?s\nWHERE { ?s mystery:p ?o . }")
        assert "line 2:" in str(err.value)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("SELECT ?s\r\nWHERE { ?s mystery:p ?o . }",
             "line 2:12: unknown prefix: 'mystery'"),
            ("# q\nselect ?s # ?t\n  where { ?s ?p ?o } @",
             "line 3:22: unexpected character '@'"),
            ("SELECT ?s WHERE {\r\n ?s ?p ?o ?x }", "line 2:11: expected '.' between patterns"),
            ("SELECT ?s WHERE { ?s ?p ?o .\n# end", "line 2:6: unterminated pattern block"),
            ("SELECT ?s WHERE { ?s ?p ?o } ORDER\n\tby x",
             "line 2:5: expected a variable after ORDER BY, found 'x'"),
            ("\n\nSELECT ?s WHERE { ?s ?p \"\\q\" }",
             "line 3:25: unknown escape sequence: \\q"),
            ("SELECT ?s WHERE { ?s ?p ?o . } limit",
             "line 1:32: unexpected content after query: 'limit'"),
            ("SELECT ?s WHERE ?s ?p ?o }", "line 1:17: expected '{', found '?s'"),
        ],
    )
    def test_error_messages_name_line_and_column(self, text, message):
        with pytest.raises(QueryError) as err:
            parse_query(text)
        assert str(err.value) == message


_FRAGMENTS = ["SELECT", "select", "WHERE", "where", "ORDER", "BY", "?s", "?o", "{", "}", ".",
              "ex:a", "ex:a.b", "bfo:Process.", "mystery:p", "<http://example.org/a>",
              "<nocolon>", "<bad", '"x"', '"a\\"b"', '"\\q"', '"x', "^^", "xsd:integer",
              "#", "# c", "@", " ", " ", "\t", "\n", "\r\n", "\n\n"]
_BUNDLED = [load_bundled_query(name) for name in ("location_by_time", "transitions")]


@st.composite
def _query_texts(draw):
    """Query text built from token fragments, or a bundled query with one
    span replaced by fragments and its line ends maybe turned into CRLF."""
    pieces = st.lists(st.sampled_from(_FRAGMENTS), max_size=30)
    if draw(st.booleans()):
        return "".join(draw(pieces))
    text = draw(st.sampled_from(_BUNDLED))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, min(len(text), start + 12)))
    return text[:start] + "".join(draw(pieces)) + text[end:]


class TestPositions:
    @given(_query_texts())
    @settings(max_examples=300)
    def test_tokens_sit_where_the_reference_tokenizer_puts_them(self, text):
        """Each token's kind, text and line:column, or the refusal of a
        character, agree with the line-counting reference tokenizer."""
        try:
            expected = scan_tokens(text)
        except QueryError as exc:
            with pytest.raises(QueryError) as err:
                _Stream(text)
            assert str(err.value) == str(exc)
            return
        stream = _Stream(text)
        found = stream._tokens
        assert len(found) == len(expected)
        for tok, (kind, tok_text, line, col) in zip(found, expected):
            assert tok.kind == (tok_text.upper() if kind == "word" else kind)
            assert tok.text == tok_text
            assert str(stream.error(tok, "m")) == f"line {line}:{col}: m"

    @given(_query_texts())
    @settings(max_examples=300)
    def test_a_refusal_names_the_place_of_a_token(self, text):
        """Past the tokenizer, every positioned QueryError is placed at the
        line:column of a token the reference tokenizer found."""
        try:
            places = {(line, col) for _, _, line, col in scan_tokens(text)}
        except QueryError:
            return
        try:
            parse_query(text)
        except QueryError as exc:
            place = re.match(r"line (\d+):(\d+): ", str(exc))
            assert place is not None or "never occurs in a pattern" in str(exc)
            assert place is None or (int(place[1]), int(place[2])) in places


class TestEvaluation:
    def test_location_query_over_three_days(self, three_day_graph):
        q = parse_query(load_bundled_query("location_by_time"))
        table = evaluate(q, three_day_graph)
        rendered = [tuple(display_value(t) for t in row) for row in table.rows]
        assert rendered == [
            ("2023-04-08 12:00:00", "location3"),
            ("2023-04-09 12:00:00", "location1"),
            ("2023-04-10 12:00:00", "location3"),
        ]

    def test_transitions_query_over_three_days(self, three_day_graph):
        q = parse_query(load_bundled_query("transitions"))
        table = evaluate(q, three_day_graph)
        rendered = {tuple(display_value(t) for t in row) for row in table.rows}
        assert len(table.rows) == 2
        assert rendered == {("location3", "location1"), ("location1", "location3")}

    def test_a_dot_right_after_a_prefixed_name_gives_the_spaced_rows(self, three_day_graph):
        tight = evaluate(parse_query("SELECT ?t WHERE { ?t rdf:type bfo:Process. }"),
                         three_day_graph)
        spaced = evaluate(parse_query("SELECT ?t WHERE { ?t rdf:type bfo:Process . }"),
                          three_day_graph)
        assert len(tight.rows) == 4
        assert tight.rows == spaced.rows

    def test_empty_graph_gives_empty_table(self):
        q = parse_query("SELECT ?s WHERE { ?s bfo:precedes ?o . }")
        assert evaluate(q, Graph()).rows == []

    def test_missing_shape_gives_empty_not_error(self, three_day_graph):
        q = parse_query("SELECT ?s WHERE { ?s bfo:history_of ?o . }")
        assert evaluate(q, three_day_graph).rows == []

    def test_bag_semantics_preserves_duplicates(self):
        # two different mid nodes produce two identical projected rows
        g = graph_of(
            [
                Triple(iri("s"), iri("p"), iri("m1")),
                Triple(iri("s"), iri("p"), iri("m2")),
                Triple(iri("m1"), iri("q"), iri("end")),
                Triple(iri("m2"), iri("q"), iri("end")),
            ]
        )
        q = Query(
            (Var("a"), Var("c")),
            (
                TriplePattern(Var("a"), iri("p"), Var("b")),
                TriplePattern(Var("b"), iri("q"), Var("c")),
            ),
        )
        table = evaluate(q, g)
        assert table.rows == [(iri("s"), iri("end")), (iri("s"), iri("end"))]

    def test_rows_sort_by_serialization_without_order_by(self):
        g = graph_of(
            [
                Triple(iri("b"), iri("p"), iri("x")),
                Triple(iri("a"), iri("p"), iri("y")),
                Triple(iri("c"), iri("p"), iri("w")),
            ]
        )
        q = parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . }}")
        assert [row[0] for row in evaluate(q, g).rows] == [iri("a"), iri("b"), iri("c")]

    def test_order_by_overrides_default_order(self):
        g = graph_of(
            [
                Triple(iri("a"), iri("p"), datetime_literal(datetime(2023, 4, 10))),
                Triple(iri("b"), iri("p"), datetime_literal(datetime(2023, 4, 8))),
                Triple(iri("c"), iri("p"), datetime_literal(datetime(2023, 4, 9))),
            ]
        )
        q = parse_query(f"SELECT ?s WHERE {{ ?s <{EX}p> ?when . }} ORDER BY ?when")
        assert [row[0] for row in evaluate(q, g).rows] == [iri("b"), iri("c"), iri("a")]

    def test_order_by_ties_break_on_projected_row(self):
        when = datetime_literal(datetime(2023, 4, 8))
        g = graph_of(
            [
                Triple(iri("b"), iri("p"), when),
                Triple(iri("a"), iri("p"), when),
            ]
        )
        q = parse_query(f"SELECT ?s WHERE {{ ?s <{EX}p> ?when . }} ORDER BY ?when")
        assert [row[0] for row in evaluate(q, g).rows] == [iri("a"), iri("b")]

    def _dated_graph(self):
        """Four subjects on three days; a and d share the 8th."""
        day = {n: datetime_literal(datetime(2023, 4, n)) for n in (8, 9, 10)}
        return graph_of([Triple(iri(s), iri("p"), day[n])
                         for s, n in (("d", 8), ("c", 9), ("b", 10), ("a", 8))])

    def test_one_variable_select_with_and_without_order_by(self):
        g = self._dated_graph()
        plain = evaluate(parse_query(f"SELECT ?s WHERE {{ ?s <{EX}p> ?when . }}"), g)
        ordered = evaluate(parse_query(
            f"SELECT ?when WHERE {{ ?s <{EX}p> ?when . }} ORDER BY ?when"), g)
        assert plain.rows == [(iri("a"),), (iri("b"),), (iri("c"),), (iri("d"),)]
        assert [row[0].lexical[:10] for row in ordered.rows] == [
            "2023-04-08", "2023-04-08", "2023-04-09", "2023-04-10"]
        assert all(type(row) is tuple and len(row) == 1 for row in plain.rows + ordered.rows)

    def test_a_variable_projected_twice(self):
        g = self._dated_graph()
        table = evaluate(parse_query(f"SELECT ?s ?s WHERE {{ ?s <{EX}p> ?when . }}"), g)
        assert table.variables == (Var("s"), Var("s"))
        assert table.rows == [(iri(n), iri(n)) for n in "abcd"]
        assert table.as_csv() == "s,s\na,a\nb,b\nc,c\nd,d\n"

    def test_order_by_a_variable_not_projected_breaks_ties_on_the_row(self):
        g = self._dated_graph()
        table = evaluate(parse_query(
            f"SELECT ?s WHERE {{ ?s <{EX}p> ?when . }} ORDER BY ?when"), g)
        # a and d tie on the 8th and break the tie on ?s, before c and b
        assert table.rows == [(iri("a"),), (iri("d"),), (iri("c"),), (iri("b"),)]

    def test_an_order_by_query_that_matches_nothing(self, three_day_graph):
        table = evaluate(parse_query(
            "SELECT ?s ?o WHERE { ?s bfo:history_of ?o . } ORDER BY ?o"), three_day_graph)
        assert table.rows == []
        assert table.as_csv() == "s,o\n"

    def test_repeated_variable_within_a_pattern(self):
        g = graph_of(
            [
                Triple(iri("loop"), iri("p"), iri("loop")),
                Triple(iri("s"), iri("p"), iri("o")),
            ]
        )
        q = Query((Var("x"),), (TriplePattern(Var("x"), iri("p"), Var("x")),))
        assert evaluate(q, g).rows == [(iri("loop"),)]

    def test_join_order_does_not_change_the_bag(self):
        """The reversed order and 30 seeded orders of each bundled query join
        to the written order's table.  Some orders are cross products, so the
        graph stays at five days."""
        graph = ingest_rows(generate(GenConfig(days=5)))
        rng = random.Random(2011)
        for name, rows in (("location_by_time", 5), ("transitions", 4)):
            query = parse_query(load_bundled_query(name))
            written = evaluate(query, graph)
            assert len(written.rows) == rows
            orders = [tuple(reversed(query.patterns))]
            orders += [tuple(rng.sample(query.patterns, len(query.patterns))) for _ in range(30)]
            for patterns in orders:
                assert evaluate(replace(query, patterns=patterns), graph) == written


class TestTableRendering:
    def test_csv_rendering(self, three_day_graph):
        q = parse_query(load_bundled_query("location_by_time"))
        assert evaluate(q, three_day_graph).as_csv() == (
            "datetime,location\n"
            "2023-04-08 12:00:00,location3\n"
            "2023-04-09 12:00:00,location1\n"
            "2023-04-10 12:00:00,location3\n"
        )

    def test_text_table_rendering(self, three_day_graph):
        q = parse_query(load_bundled_query("location_by_time"))
        text = evaluate(q, three_day_graph).as_table()
        lines = text.splitlines()
        assert lines[0].split() == ["datetime", "location"]
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 5


class TestOracle:
    def test_matches_brute_force_on_random_cases(self):
        rng = random.Random(8675309)
        kinds, steps = set(), set()
        for _ in range(40):
            graph, query = random_graph_and_query(rng)
            first_row, _, shapes = _plan(query)
            for shape in shapes:
                # a constant is the BOUND slot of a first-row key
                kinds.update(enumerate("constant" if slot < len(first_row) else kind
                                       for kind, slot in shape))
                steps.add(tuple(kind for kind, _ in shape))
            fast = Counter(evaluate(query, graph).rows)
            slow = Counter(brute_force_rows(query, graph))
            assert fast == slow
        # every kind in every position, except a repeat in the subject: a
        # repeat names a variable bound earlier in the same pattern
        assert kinds == {(position, kind) for position in range(3)
                         for kind in ("constant", BOUND, FREE, REPEAT)} - {(0, REPEAT)}
        # every shape evaluate tells apart when it picks a pattern's step
        assert steps == {
            (s, p, o)
            for s in (BOUND, FREE)
            for p in (BOUND, FREE, REPEAT)
            for o in (BOUND, FREE, REPEAT)
            if (p != REPEAT or s == FREE) and (o != REPEAT or FREE in (s, p))
        }

    def test_rows_come_in_order_on_random_cases(self):
        """Rows are the brute-force rows sorted by (ORDER BY key, projected
        keys), for an ORDER BY variable that is projected, not projected or
        absent, and a shuffled projection that may name a variable twice."""
        rng, draw = random.Random(8675309), random.Random(1017)
        seen = set()
        for _ in range(40):
            graph, query = random_graph_and_query(rng)
            used = sorted({v for p in query.patterns for v in p.variables()},
                          key=lambda v: v.name)
            projection = tuple(draw.choice(used) for _ in range(draw.randint(1, len(used) + 1)))
            order_by = draw.choice((None, *used))
            query = Query(projection, query.patterns, order_by)
            seen.add("none" if order_by is None else
                     "projected" if order_by in projection else "not projected")
            seen.add("repeat" if len(set(projection)) < len(projection) else "distinct")
            seen.add("shuffled" if list(projection) != sorted(projection, key=lambda v: v.name)
                     else "sorted")

            def sort_key(entry):
                order, row = entry
                return tuple(t.key for t in (row if order is None else (order, *row)))

            expected = sorted(brute_force_rows(query, graph, order_key=True), key=sort_key)
            assert evaluate(query, graph).rows == [row for _, row in expected]
        assert seen == {"none", "projected", "not projected", "repeat", "distinct",
                        "shuffled", "sorted"}


class TestCompiledJoin:
    def test_no_graph_or_query_text_enters_the_generated_code(self):
        """Keys and variable names that are Python source, or that shadow the
        join's own locals, reach it only as values: its names are the fixed
        ones, and no key or variable name is among its constants."""
        code = "__import__('os').system('x')"
        a, b, p = iri("a#" + code), iri("b)]#"), iri("p'")
        text = Literal('"}\n\\ #' + code)
        graph = graph_of([Triple(a, p, b), Triple(b, p, text), Triple(a, p, a),
                          Triple(b, p, a), Triple(a, iri("q"), text)])
        r0, e, spo_get, evil = Var("r0"), Var("E"), Var("spo_get"), Var(f"x') or {code} #")
        query = Query((evil, r0, e, spo_get), (
            TriplePattern(a, p, r0),
            TriplePattern(r0, e, text),                # free predicate
            TriplePattern(spo_get, p, spo_get),        # repeated variable
            TriplePattern(evil, p, r0),
            TriplePattern(spo_get, p, r0),             # all three bound
        ), order_by=evil)
        rows = evaluate(query, graph).rows
        assert rows == [(a, a, iri("q"), a), (a, b, p, a), (b, a, iri("q"), a)]
        assert Counter(rows) == Counter(brute_force_rows(query, graph))

        first_row, join = _compile(query)
        names, constants, codes = set(), set(), [join.__code__]
        while codes:
            c = codes.pop()
            names.update(c.co_names, c.co_varnames, c.co_cellvars, c.co_freevars)
            for const in c.co_consts:
                if isinstance(const, CodeType):
                    codes.append(const)
                else:
                    constants.add(const)
        texts = {*first_row, *(v.name for v in (evil, r0, e, spo_get))}
        assert {a.key, p.key, text.key} <= set(first_row)
        assert not texts & constants
        assert not set(first_row) & names
        assert all(re.fullmatch(r"r\d+|q[12]|t|_|E|spo_get|pos_get|match_keys|get|items|\.0",
                                name) for name in names), names
        assert not any(code in const for const in constants if isinstance(const, str))

    def test_a_30_pattern_chain(self):
        """CPython refuses more than 20 nested ``for`` statements; the join's
        one comprehension takes a clause for each of 30 patterns."""
        nodes = [iri(f"n{i:02}") for i in range(33)]
        graph = graph_of([Triple(s, iri("p"), o) for s, o in zip(nodes, nodes[1:])])
        x = [Var(f"x{i}") for i in range(31)]
        query = Query((x[0], x[30]),
                      tuple(TriplePattern(s, iri("p"), o) for s, o in zip(x, x[1:])))
        assert evaluate(query, graph).rows == [(nodes[i], nodes[i + 30]) for i in range(3)]
