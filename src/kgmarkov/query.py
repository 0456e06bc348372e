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
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Union

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
from .vocab import PrefixError, PrefixTable


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
    raise stream.error(tok, f"expected a {position} term, found {tok.text!r}")


def parse_query(text: str, prefixes: Optional[PrefixTable] = None) -> Query:
    """Parse query text into an AST, resolving prefixed names as it goes."""
    if prefixes is None:
        prefixes = PrefixTable()
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


def _step(shape: tuple, graph: Graph) -> Callable[[list[tuple]], list[tuple]]:
    """One pattern as a function from partial rows to all their extensions:
    a direct index walk, or ``match_keys`` for the rare free predicate."""
    (s_kind, s), (p_kind, p), (o_kind, o) = shape
    spo, pos, empty = graph._spo, graph._pos, {}
    if p_kind in (FREE, REPEAT):
        known = [slot if kind == BOUND else None for kind, slot in shape]
        fresh = [i for i, (kind, _) in enumerate(shape) if kind == FREE]
        same = [(i, j) for i, (kind, slot) in enumerate(shape) if kind == REPEAT
                for j in fresh if shape[j][1] == slot]
        return lambda rows: [
            row + tuple(keys[i] for i in fresh) for row in rows
            for keys in graph.match_keys(*(None if k is None else row[k] for k in known))
            if all(keys[i] == keys[j] for i, j in same)]
    if s_kind == BOUND:
        if o_kind == FREE:
            return lambda rows: [row + (obj,) for row in rows
                                 for obj in spo.get(row[s], empty).get(row[p], ())]
        return lambda rows: [row for row in rows
                             if row[o] in spo.get(row[s], empty).get(row[p], ())]
    if o_kind == FREE:
        return lambda rows: [row + (subj, obj) for row in rows
                             for obj, subjects in pos.get(row[p], empty).items()
                             for subj in subjects]
    if o_kind == REPEAT:
        return lambda rows: [row + (obj,) for row in rows
                             for obj, subjects in pos.get(row[p], empty).items()
                             if obj in subjects]
    return lambda rows: [row + (subj,) for row in rows
                         for subj in pos.get(row[p], empty).get(row[o], ())]


def evaluate(query: Query, graph: Graph) -> SolutionTable:
    """Join the patterns in written order against the graph and project.

    A row is a tuple of N-Triples keys: the query's constants, then each
    variable in the order the patterns bind it (``_plan``).  Each pattern
    compiles once, from which positions are bound (constants included), free
    or repeated, into a step that walks the indexes and appends the keys it
    binds to each row (``_step``).  Candidates come unsorted.

    Output order is deterministic and set only here, by sorting key strings
    (the terms' serializations).  One ``itemgetter`` takes each row's sort
    key: the ORDER BY slot, if any, then the projected slots.  Keys become
    terms at the end, a column at a time: the term lookup is mapped over
    each projected column, and the columns are zipped back into rows.
    """
    first_row, slots, shapes = _plan(query)
    rows = [first_row]
    for shape in shapes:
        rows = _step(shape, graph)(rows)
        if not rows:
            break

    order = () if query.order_by is None else (slots[query.order_by],)
    sort_slots = (*order, *(slots[v] for v in query.projection))
    keyed = sorted(map(itemgetter(*sort_slots), rows))
    # an itemgetter of one slot gives bare keys, not 1-tuples
    columns = [keyed] if len(sort_slots) == 1 else list(zip(*keyed))[len(order):]
    term = graph._terms.__getitem__
    return SolutionTable(query.projection, list(zip(*(map(term, c) for c in columns))))
