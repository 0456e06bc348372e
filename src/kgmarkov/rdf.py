"""In-memory RDF triple store with a small N-Triples reader and writer.

The store covers exactly what the rest of the package needs: IRI nodes,
typed literals in four XSD datatypes (string, integer, decimal, dateTime),
triple insertion with set semantics, and indexed pattern matching.  Blank
nodes, language tags, and named graphs are out of scope and rejected.

Terms are validated once, when they are built.  A ``Graph`` keys each term
by its N-Triples text and keeps triples as key triples in two permutation
indexes (see ``Graph``); only ``Graph.match``, ``serialize_ntriples`` and
query projection sort, and they sort those key strings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal
from typing import Iterable, Iterator, Optional, Union

from .errors import ToolkitError

XSD_NS = "http://www.w3.org/2001/XMLSchema#"

STRING = "string"
INTEGER = "integer"
DECIMAL = "decimal"
DATETIME = "dateTime"

DATATYPES = (STRING, INTEGER, DECIMAL, DATETIME)

DATATYPE_IRIS = {name: XSD_NS + name for name in DATATYPES}
IRI_DATATYPES = {iri: name for name, iri in DATATYPE_IRIS.items()}

_INTEGER_RE = re.compile(r"^[+-]?[0-9]+$")
_DECIMAL_RE = re.compile(r"^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)$")
_DATETIME_RE = re.compile(r"^[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}$")
# Regex source for an IRI in angle brackets and for a literal in quotes; the
# N-Triples line pattern and the query tokenizer share them.  Characters the
# IRI pattern admits but an Iri rejects fail with the Iri's message.
IRIREF_PATTERN = r"<[^<>\x00-\x20]*>"
LITERAL_PATTERN = r'"(?:[^"\\\n]|\\.)*"'
# characters an IRIREF may not contain per the N-Triples grammar
_IRI_BAD_RE = re.compile(r'[\x00-\x20<>"{}|^`\\]')


class TermError(ToolkitError):
    """A node or literal failed validation."""


class NTriplesError(ToolkitError):
    """Malformed N-Triples input.  Carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


@dataclass(frozen=True)
class Iri:
    """An absolute IRI node."""

    value: str

    def __post_init__(self):
        if not self.value:
            raise TermError("IRI must be non-empty")
        if _IRI_BAD_RE.search(self.value):
            raise TermError(f"IRI contains a forbidden character: {self.value!r}")
        if ":" not in self.value:
            raise TermError(f"IRI must contain a scheme separator: {self.value!r}")

    def local_name(self) -> str:
        """Text after the last '#' or '/', used for display and state labels."""
        return self.value[max(self.value.rfind("#"), self.value.rfind("/")) + 1:]

    def __repr__(self):
        return f"Iri({self.value!r})"


@dataclass(frozen=True)
class Literal:
    """A typed literal.  The lexical form must be valid for the datatype."""

    lexical: str
    datatype: str = STRING

    def __post_init__(self):
        if self.datatype not in DATATYPES:
            raise TermError(f"unsupported datatype: {self.datatype!r}")
        if self.datatype == INTEGER and not _INTEGER_RE.match(self.lexical):
            raise TermError(f"bad integer lexical form: {self.lexical!r}")
        if self.datatype == DECIMAL and not _DECIMAL_RE.match(self.lexical):
            raise TermError(f"bad decimal lexical form: {self.lexical!r}")
        if self.datatype == DATETIME:
            if not _DATETIME_RE.match(self.lexical):
                raise TermError(f"bad dateTime lexical form: {self.lexical!r}")
            try:
                datetime.fromisoformat(self.lexical)
            except ValueError:
                raise TermError(f"bad dateTime value: {self.lexical!r}") from None

    def to_python(self) -> Union[str, int, float, datetime]:
        if self.datatype == INTEGER:
            return int(self.lexical)
        if self.datatype == DECIMAL:
            return float(self.lexical)
        if self.datatype == DATETIME:
            return datetime.fromisoformat(self.lexical)
        return self.lexical

    def __repr__(self):
        return f"Literal({self.lexical!r}, {self.datatype})"


Term = Union[Iri, Literal]


@dataclass(frozen=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: Term

    def __post_init__(self):
        if not isinstance(self.subject, Iri):
            raise TermError("triple subject must be an IRI")
        if not isinstance(self.predicate, Iri):
            raise TermError("triple predicate must be an IRI")
        if not isinstance(self.object, (Iri, Literal)):
            raise TermError("triple object must be an IRI or literal")


def string_literal(value: str) -> Literal:
    return Literal(value, STRING)


def integer_literal(value: int) -> Literal:
    return Literal(str(int(value)), INTEGER)


def decimal_literal(value: float) -> Literal:
    """Build an xsd:decimal literal from a float.

    The float goes through repr() so the lexical form round-trips to the
    exact same float, then through Decimal to force plain (non-exponent)
    notation, which xsd:decimal requires.
    """
    return Literal(format(Decimal(repr(float(value))), "f"), DECIMAL)


def datetime_literal(value: datetime) -> Literal:
    return Literal(value.strftime("%Y-%m-%dT%H:%M:%S"), DATETIME)


# The grammar's eight ECHAR escapes: the letter after the backslash, and the
# character it stands for.  The writer escapes only backslash, quote, LF, CR
# and tab, so it never writes \b, \f or \'.
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_ESCAPE_TABLE = str.maketrans({_ECHAR[letter]: "\\" + letter for letter in '\\"nrt'})
# One escape: a UCHAR's hex digits (\uXXXX or \UXXXXXXXX), or else the text
# after the backslash that a refusal quotes (a UCHAR's width, one character,
# or none at the end of the text).
_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(u.{0,4}|U.{0,8}|.?))", re.S)


def escape_lexical(text: str) -> str:
    return text.translate(_ESCAPE_TABLE)


def _decode_escape(m: re.Match) -> str:
    digits, other = m.group(1) or m.group(2), m.group(3)
    if digits:
        code = int(digits, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise TermError(f"escape is not a Unicode scalar value: {m.group()}")
        return chr(code)
    if other in _ECHAR:
        return _ECHAR[other]
    if not other:
        raise TermError("dangling backslash in literal")
    kind = "bad" if other[0] in "uU" else "unknown"
    raise TermError(f"{kind} escape sequence: {m.group()}")


def unescape_lexical(text: str) -> str:
    return _ESCAPE_RE.sub(_decode_escape, text) if "\\" in text else text


def decode_literal(escaped: str, datatype_iri: Optional[str] = None) -> Literal:
    """The literal written ``"escaped"`` or ``"escaped"^^<datatype_iri>``."""
    lexical = unescape_lexical(escaped)
    if datatype_iri is None:
        return Literal(lexical, STRING)
    if datatype_iri not in IRI_DATATYPES:
        raise TermError(f"unsupported datatype IRI: {datatype_iri}")
    return Literal(lexical, IRI_DATATYPES[datatype_iri])


def term_to_ntriples(term: Term) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    body = f'"{escape_lexical(term.lexical)}"'
    return f"{body}^^<{DATATYPE_IRIS[term.datatype]}>"


class Graph:
    """A set of triples held as N-Triples keys in two permutation indexes.

    Every term is keyed by its N-Triples text and stored once, in a key ->
    term dict; ``_key`` is the one place that keys a built term and writes
    that dict.  Triples live only as keys, in the nested
    permutation indexes ``spo`` (subject -> predicate -> objects) and
    ``pos`` (predicate -> object -> subjects).  A pattern binding only the
    object walks ``pos`` over its predicates; one binding subject and object
    walks ``spo[subject]``.  Query evaluation walks both indexes directly.

    An innermost bucket (the objects of ``spo[s][p]``, the subjects of
    ``pos[p][o]``) is a 1-tuple exactly when it holds one key, and a set
    when it holds more; ``_add`` replaces a 1-tuple by a set on the second
    distinct key.  Nearly every bucket of an ingested graph holds one key,
    and a 1-tuple of strings is a quarter of an empty set's size and drops
    out of the garbage collector's passes.  Readers only iterate a bucket
    and test ``in``, which both shapes answer alike.  ``__eq__`` compares
    the indexes and so relies on the invariant; a mutator that shrinks a
    bucket (a future ``remove``) must turn a set left with one key back
    into a 1-tuple.

    Nothing is kept sorted.  Sorting happens only where order is part of
    the contract: in ``match``, in ``serialize_ntriples`` and at query
    projection.  Sorting key tuples gives the N-Triples order, because the
    keys are the serialized terms.

    Copies share inner containers (see ``copy``).  ``_add`` is the only
    write path, and on a graph that may share it first calls ``_unshare``,
    which applies one rule to both indexes: copy the inner dict the write
    lands in, then the bucket there if it is a set.  A 1-tuple bucket is
    never written, only replaced, so copies go on sharing it.  Any future
    mutator, such as a ``remove``, must go through the same step.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._terms: dict[str, Term] = {}
        # innermost buckets: a 1-tuple for one key, a set for more
        self._spo: dict[str, dict[str, Union[tuple[str], set[str]]]] = {}
        self._pos: dict[str, dict[str, Union[tuple[str], set[str]]]] = {}
        self._size = 0
        # None until a copy(); then, for spo and for pos, what it made its own
        # since: an inner dict by its key, a bucket by its pair of keys
        self._owned: Optional[tuple[set, set]] = None
        for t in triples:
            self.insert(t)

    def insert(self, triple: Triple) -> bool:
        """Add a triple.  Returns False if it was already present."""
        if not isinstance(triple, Triple):
            raise TermError("can only insert Triple instances")
        key = self._key
        return self._add(key(triple.subject), key(triple.predicate), key(triple.object))

    def _key(self, term: Term) -> str:
        """Store ``term`` under its N-Triples text and return that key."""
        k = term_to_ntriples(term)
        self._terms[k] = term
        return k

    def _add(self, s: str, p: str, o: str) -> bool:
        """Index a key triple whose terms are already in ``_terms``."""
        if self._owned is not None:
            self._unshare(s, p, o)
        by_p = self._spo.get(s)
        if by_p is None:
            self._spo[s] = {p: (o,)}
        else:
            objects = by_p.get(p)
            if objects is None:
                by_p[p] = (o,)
            elif o in objects:
                return False
            elif type(objects) is tuple:
                by_p[p] = {objects[0], o}
            else:
                objects.add(o)
        by_o = self._pos.get(p)
        if by_o is None:
            self._pos[p] = {o: (s,)}
        else:
            subjects = by_o.get(o)
            if subjects is None:
                by_o[o] = (s,)
            elif type(subjects) is tuple:
                by_o[o] = {subjects[0], s}
            else:
                subjects.add(s)
        self._size += 1
        return True

    def _unshare(self, s: str, p: str, o: str) -> None:
        """In each index, copy the inner dict ``_add(s, p, o)`` writes, then its
        bucket if that is a set (``spo[s]`` and ``spo[s][p]``, ``pos[p]`` and
        ``pos[p][o]``), each at most once between copies.  1-tuples stay shared."""
        for index, owned, outer, inner in ((self._spo, self._owned[0], s, p),
                                           (self._pos, self._owned[1], p, o)):
            if (outer, inner) not in owned:
                by_inner = index.get(outer)
                if by_inner is not None:
                    if outer not in owned:
                        by_inner = index[outer] = by_inner.copy()
                    if type(by_inner.get(inner)) is set:
                        by_inner[inner] = by_inner[inner].copy()
                owned.add(outer)
                owned.add((outer, inner))

    def term(self, key: str) -> Term:
        """The term whose N-Triples text is ``key``."""
        return self._terms[key]

    def match_keys(
        self,
        s: Optional[str] = None,
        p: Optional[str] = None,
        o: Optional[str] = None,
    ) -> list[tuple[str, str, str]]:
        """Key triples matching the given keys (None is a wildcard), unsorted."""
        if s is not None:
            by_p = self._spo.get(s)
            if by_p is None:
                return []
            if p is not None:
                objects = by_p.get(p, ())
                if o is not None:
                    return [(s, p, o)] if o in objects else []
                return [(s, p, obj) for obj in objects]
            if o is not None:
                return [(s, pred, o) for pred, objects in by_p.items() if o in objects]
            return [(s, pred, obj) for pred, objects in by_p.items() for obj in objects]
        if p is not None:
            by_o = self._pos.get(p)
            if by_o is None:
                return []
            if o is not None:
                return [(subj, p, o) for subj in by_o.get(o, ())]
            return [(subj, p, obj) for obj, subjects in by_o.items() for subj in subjects]
        if o is not None:
            return [
                (subj, pred, o)
                for pred, by_o in self._pos.items()
                for subj in by_o.get(o, ())
            ]
        return [
            (subj, pred, obj)
            for subj, by_p in self._spo.items()
            for pred, objects in by_p.items()
            for obj in objects
        ]

    def match(
        self,
        subject: Optional[Iri] = None,
        predicate: Optional[Iri] = None,
        object: Optional[Term] = None,
    ) -> list[Triple]:
        """All triples matching the given terms (None is a wildcard).

        Results come back in a deterministic order, sorted by the N-Triples
        serialization of subject, then predicate, then object.
        """
        found = self.match_keys(
            None if subject is None else term_to_ntriples(subject),
            None if predicate is None else term_to_ntriples(predicate),
            None if object is None else term_to_ntriples(object),
        )
        found.sort()
        terms = self._terms
        return [Triple(terms[s], terms[p], terms[o]) for s, p, o in found]

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        terms = self._terms
        for s, p, o in self.match_keys():
            yield Triple(terms[s], terms[p], terms[o])

    def __contains__(self, triple: Triple) -> bool:
        if not isinstance(triple, Triple):
            return False
        return bool(self.match_keys(
            term_to_ntriples(triple.subject),
            term_to_ntriples(triple.predicate),
            term_to_ntriples(triple.object),
        ))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._spo == other._spo

    def copy(self) -> "Graph":
        """An independent graph with the same triples; no term is revalidated.

        Only the term dict and the top-level ``spo``/``pos`` dicts are
        copied.  Both graphs then share every inner dict and bucket, and a
        later write to either one first copies, in each index, the inner
        dict it lands in and then the bucket if it is a set (``_unshare``).
        What either graph owned before is shared from now on, so both start
        owning nothing.
        """
        new = Graph()
        new._terms = self._terms.copy()
        new._spo = self._spo.copy()
        new._pos = self._pos.copy()
        new._size = self._size
        new._owned = (set(), set())
        self._owned = (set(), set())
        return new


def serialize_ntriples(graph: Graph) -> str:
    """Render a graph as N-Triples text, one sorted line per triple.

    One sort of the whole lines gives the order of sorted (subject,
    predicate, object) key tuples, because no key is a proper prefix of
    another: an IRI key is ``<...>`` with no ``>`` inside, and a literal key
    is ``"..."^^<datatype>``, whose text ends at its first unescaped ``"``
    and then at the datatype's ``>``.  So two lines first differ inside the
    first key where their triples differ, at the same character where those
    keys differ.
    """
    lines = [
        f"{s} {p} {o} .\n"
        for s, by_p in graph._spo.items()
        for p, objects in by_p.items()
        for o in objects
    ]
    lines.sort()
    return "".join(lines)


# One N-Triples line, matched whole: subject IRI, predicate IRI, an IRI or a
# literal with an optional ^^datatype, then '.' and an optional '#' comment,
# with spaces or tabs between.
_LINE_RE = re.compile(
    rf"({IRIREF_PATTERN})[ \t]*({IRIREF_PATTERN})[ \t]*"
    rf"({IRIREF_PATTERN}|({LITERAL_PATTERN})(?:\^\^({IRIREF_PATTERN}))?)[ \t]*\.[ \t]*(?:#.*)?"
)


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples text into a Graph.

    Lines end with LF, CRLF or a lone CR.  Accepts blank lines, '#' comment
    lines and a comment after a triple's '.'.  The first malformed line
    aborts the parse with an NTriplesError naming that line.  Each distinct
    text read is built and validated once and keyed by ``Graph._key``; every
    spelling of a term then maps to the one key string the graph keeps.
    """
    graph = Graph()
    key = graph._key
    # each text read, and each literal's canonical key -> the key the graph keeps
    keys: dict[str, str] = {}
    match_line = _LINE_RE.fullmatch
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line[0] == "#":
            continue
        m = match_line(line)
        if m is None:
            raise NTriplesError(line_no, "expected <subject> <predicate> <object-or-literal> .")
        s, p, o, literal, datatype = m.groups()
        try:
            if s not in keys:
                keys[s] = key(Iri(s[1:-1]))
            if p not in keys:
                keys[p] = key(Iri(p[1:-1]))
            if o not in keys:
                if literal is None:
                    keys[o] = key(Iri(o[1:-1]))
                else:
                    k = key(decode_literal(literal[1:-1], datatype and datatype[1:-1]))
                    keys[o] = keys.setdefault(k, k)
        except TermError as exc:
            raise NTriplesError(line_no, str(exc)) from None
        graph._add(keys[s], keys[p], keys[o])
    return graph
