"""A small SELECT query language over the triple store.

Grammar: ``SELECT ?v ... WHERE { pattern ... } [ORDER BY ?v]`` where each
pattern is three terms (variable, IRI, prefixed name, or literal in object
position) ended by ``.``.  Keywords are case-insensitive.  Evaluation uses
bag semantics: every join solution appears, duplicates included.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from .errors import ToolkitError
from .rdf import (
    DATETIME,
    IRIREF_PATTERN,
    LITERAL_PATTERN,
    Graph,
    Iri,
    Literal,
    Term,
    TermError,
    decode_literal,
)
from .vocab import PrefixError, PrefixTable, _shipped


class QueryError(ToolkitError):
    """Syntax or validity error in a query, with line:column position."""


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"Var(?{self.name})"


PatternTerm = Union[Var, Iri, Literal]


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> set[Var]:
        return {t for t in (self.subject, self.predicate, self.object) if isinstance(t, Var)}


@dataclass(frozen=True)
class Query:
    projection: tuple[Var, ...]
    patterns: tuple[TriplePattern, ...]
    order_by: Optional[Var] = None


@dataclass
class SolutionTable:
    """Query results: a projected variable header plus value rows."""

    variables: tuple[Var, ...]
    rows: list[tuple[Term, ...]]

    def as_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([v.name for v in self.variables])
        for row in self.rows:
            writer.writerow([display_value(t) for t in row])
        return buf.getvalue()

    def as_table(self) -> str:
        header = [v.name for v in self.variables]
        body = [[display_value(t) for t in row] for row in self.rows]
        widths = [len(h) for h in header]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"


def display_value(term: Term) -> str:
    """Human-oriented rendering: IRIs by local name, dateTimes with a space."""
    if isinstance(term, Iri):
        return term.local_name()
    if term.datatype == DATETIME:
        return term.lexical.replace("T", " ")
    return term.lexical


# A prefixed name's local part may hold '.' but not end with one (SPARQL's
# PN_LOCAL), so the '.' that closes a pattern is never part of the name.
# Space and comments match no named group; any other character is "bad".
_TOKEN_RE = re.compile(
    rf"""\s+ | \#[^\n]*
      | (?P<lbrace>\{{)
      | (?P<rbrace>\}})
      | (?P<dot>\.)
      | (?P<dtsep>\^\^)
      | (?P<iriref>{IRIREF_PATTERN})
      | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
      | (?P<literal>{LITERAL_PATTERN})
      | (?P<pname>[A-Za-z_][A-Za-z0-9_.\-]*:[A-Za-z_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)
      | (?P<word>[A-Za-z]+)
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    """A token: its kind (a word's kind is the word in upper case, so that
    keywords ignore case), its text, and its offset in the query text."""

    kind: str
    text: str
    offset: int


class _Stream:
    """The tokens of a query text, read front to back."""

    def __init__(self, text: str):
        self._text = text
        self._tokens = [_Token(m.group().upper() if m.lastgroup == "word" else m.lastgroup,
                               m.group(), m.start())
                        for m in _TOKEN_RE.finditer(text) if m.lastgroup]
        self._tokens.append(_Token("eof", "", len(text)))
        self._pos = 0
        for tok in self._tokens:
            if tok.kind == "bad":
                raise self.error(tok, f"unexpected character {tok.text!r}")

    def error(self, tok: _Token, message: str) -> QueryError:
        """A QueryError placing ``message`` at the token's line and column."""
        line_start = self._text.rfind("\n", 0, tok.offset) + 1
        line = self._text.count("\n", 0, line_start) + 1
        return QueryError(f"line {line}:{tok.offset - line_start + 1}: {message}")

    def peek(self) -> _Token:
        return self._tokens[self._pos]

    def next(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(tok, f"expected {what}, found {tok.text!r}")
        return tok


def _resolve_pname(stream: _Stream, tok: _Token, prefixes: PrefixTable) -> Iri:
    try:
        return prefixes.resolve(tok.text)
    except PrefixError as exc:
        raise stream.error(tok, str(exc)) from None


def _parse_literal(stream: _Stream, tok: _Token, prefixes: PrefixTable) -> Literal:
    datatype_iri = None
    if stream.peek().kind == "dtsep":
        stream.next()
        dt_tok = stream.next()
        if dt_tok.kind == "iriref":
            datatype_iri = dt_tok.text[1:-1]
        elif dt_tok.kind == "pname":
            datatype_iri = _resolve_pname(stream, dt_tok, prefixes).value
        else:
            raise stream.error(dt_tok, "expected a datatype after ^^")
    try:
        return decode_literal(tok.text[1:-1], datatype_iri)
    except TermError as exc:
        raise stream.error(tok, str(exc)) from None


def _parse_pattern_term(stream: _Stream, prefixes: PrefixTable, position: str) -> PatternTerm:
    tok = stream.next()
    if tok.kind == "var":
        return Var(tok.text[1:])
    if tok.kind == "iriref":
        try:
            return Iri(tok.text[1:-1])
        except TermError as exc:
            raise stream.error(tok, str(exc)) from None
    if tok.kind == "pname":
        return _resolve_pname(stream, tok, prefixes)
    if tok.kind == "literal":
        if position != "object":
            raise stream.error(tok, "literals may only appear in object position")
        return _parse_literal(stream, tok, prefixes)
    article = "an" if position == "object" else "a"
    raise stream.error(tok, f"expected {article} {position} term, found {tok.text!r}")


def parse_query(text: str, prefixes: Optional[PrefixTable] = None) -> Query:
    """Parse query text into an AST, resolving prefixed names as it goes."""
    if prefixes is None:
        prefixes = _shipped().prefixes
    stream = _Stream(text)
    stream.expect("SELECT", "SELECT")
    projection: list[Var] = []
    while stream.peek().kind == "var":
        projection.append(Var(stream.next().text[1:]))
    if not projection:
        raise stream.error(stream.peek(), "SELECT requires at least one variable")
    stream.expect("WHERE", "WHERE")
    stream.expect("lbrace", "'{'")
    patterns: list[TriplePattern] = []
    while stream.peek().kind != "rbrace":
        if stream.peek().kind == "eof":
            raise stream.error(stream.peek(), "unterminated pattern block")
        subject = _parse_pattern_term(stream, prefixes, "subject")
        predicate = _parse_pattern_term(stream, prefixes, "predicate")
        obj = _parse_pattern_term(stream, prefixes, "object")
        patterns.append(TriplePattern(subject, predicate, obj))
        if stream.peek().kind == "dot":
            stream.next()
        elif stream.peek().kind != "rbrace":
            raise stream.error(stream.peek(), "expected '.' between patterns")
    brace = stream.next()
    if not patterns:
        raise stream.error(brace, "pattern block must not be empty")
    order_by = None
    if stream.peek().kind == "ORDER":
        stream.next()
        stream.expect("BY", "BY")
        order_by = Var(stream.expect("var", "a variable after ORDER BY").text[1:])
    trailing = stream.peek()
    if trailing.kind != "eof":
        raise stream.error(trailing, f"unexpected content after query: {trailing.text!r}")
    pattern_vars = set()
    for p in patterns:
        pattern_vars |= p.variables()
    for var in projection:
        if var not in pattern_vars:
            raise QueryError(f"projected variable ?{var.name} never occurs in a pattern")
    if order_by is not None and order_by not in pattern_vars:
        raise QueryError(f"ORDER BY variable ?{order_by.name} never occurs in a pattern")
    return Query(tuple(projection), tuple(patterns), order_by)


# How a pattern position gets its key; fixed per query by the pattern order.
BOUND, FREE, REPEAT = "bound", "free", "repeat"


def _plan(query: Query) -> tuple[tuple[str, ...], dict[Union[str, Var], int], list[tuple]]:
    """The first row (the query's constant keys), the slot of each constant
    key and variable, and per pattern a (kind, slot) pair for each position.
    A constant is BOUND to its first-row slot; a REPEAT is a variable that a
    FREE position of the same pattern binds."""
    terms = [(p.subject, p.predicate, p.object) for p in query.patterns]
    first_row = tuple({t.key: None for ts in terms for t in ts
                       if not isinstance(t, Var)})
    slots: dict[Union[str, Var], int] = {key: slot for slot, key in enumerate(first_row)}
    shapes = []
    for pattern_terms in terms:
        bound = len(slots)
        shape = []
        for term in pattern_terms:
            if not isinstance(term, Var):
                shape.append((BOUND, slots[term.key]))
            elif term in slots:
                shape.append((BOUND if slots[term] < bound else REPEAT, slots[term]))
            else:
                slots[term] = len(slots)
                shape.append((FREE, slots[term]))
        shapes.append(tuple(shape))
    return first_row, slots, shapes


def _clause(shape: tuple) -> str:
    """One pattern's clause of the join comprehension (see ``_compile``)."""
    (s_kind, s), (p_kind, p), (o_kind, o) = shape
    if p_kind != BOUND:
        targets = ", ".join(f"r{slot}" if kind == FREE else f"q{i}" if kind == REPEAT else "_"
                            for i, (kind, slot) in enumerate(shape))
        keys = ", ".join(f"r{slot}" if kind == BOUND else "None" for kind, slot in shape)
        same = "".join(f" if q{i} == r{slot}" for i, (kind, slot) in enumerate(shape)
                       if kind == REPEAT)
        return f"for {targets} in match_keys({keys}){same}"
    if s_kind == BOUND:
        found = f"spo_get(r{s}, E).get(r{p}, ())"
        return f"if r{o} in {found}" if o_kind == BOUND else f"for r{o} in {found}"
    if o_kind == FREE:
        return f"for r{o}, t in pos_get(r{p}, E).items() for r{s} in t"
    if o_kind == REPEAT:
        return f"for r{o}, t in pos_get(r{p}, E).items() if r{o} in t"
    return f"for r{s} in pos_get(r{p}, E).get(r{o}, ())"


@lru_cache(maxsize=32)
def _compile(query: Query) -> tuple:
    """The query's first row, and its join: a function whose body is one list
    comprehension, with one clause per pattern in written order.

    Slot ``i`` of ``_plan`` is the local ``r{i}``.  The arguments are the
    graph's ``_spo.get`` and ``_pos.get``, its ``match_keys``, an empty dict
    ``E`` and the first row.  Each clause walks an index by its pattern's
    shape (``S``, ``P``, ``O`` stand for slot numbers):

    - S and P bound, O free: ``for rO in spo_get(rS, E).get(rP, ())``;
    - all three bound: ``if rO in spo_get(rS, E).get(rP, ())``;
    - S free, O bound: ``for rS in pos_get(rP, E).get(rO, ())``;
    - S and O free: ``for rO, t in pos_get(rP, E).items() for rS in t``, or
      ``... if rO in t`` when O repeats S;
    - P free or repeated: ``for`` over ``match_keys``, given each bound slot
      or ``None``, and an ``if qI == rJ`` for each position I repeating slot J.

    A leading ``for _ in (None,)`` lets the first clause be an ``if``.  The
    comprehension yields each solution's sort key.  CPython refuses more than
    20 nested ``for`` statements, but takes any number of ``for`` clauses.

    The source holds only slot numbers, these fixed names and punctuation.
    No IRI, literal, key or variable name ever enters it: those reach the
    code only as argument values.  It runs without builtins.  The cache,
    keyed by the frozen ``Query``, holds code and the query's own keys, never
    rows, so every call reads the graph afresh.
    """
    first_row, slots, shapes = _plan(query)
    order = () if query.order_by is None else (query.order_by,)
    params = ", ".join(["spo_get", "pos_get", "match_keys", "E",
                        *(f"r{slot}" for slot in range(len(first_row)))])
    sort_key = "".join(f"r{slots[v]}, " for v in (*order, *query.projection))
    source = (f"def join({params}):\n"
              f"    return [({sort_key}) for _ in (None,) {' '.join(map(_clause, shapes))}]\n")
    namespace: dict = {"__builtins__": {}}
    exec(compile(source, "<query join>", "exec"), namespace)
    return first_row, namespace["join"]


def evaluate(query: Query, graph: Graph) -> SolutionTable:
    """Join the patterns in written order against the graph and project.

    The join is compiled once per distinct query (``_compile``) and builds
    no partial rows; candidates come unsorted.  Output order is deterministic
    and set only here, by sorting each solution's key (the ORDER BY slot, if
    any, then the projected slots) as key strings, the terms' serializations.
    Keys become terms at the end, a column at a time: the term lookup is
    mapped over each projected column, and the columns are zipped back into
    rows.
    """
    first_row, join = _compile(query)
    keyed = sorted(join(graph._spo.get, graph._pos.get, graph.match_keys, {}, *first_row))
    columns = list(zip(*keyed))[0 if query.order_by is None else 1:]
    term = graph._terms.__getitem__
    return SolutionTable(query.projection, list(zip(*(map(term, c) for c in columns))))
