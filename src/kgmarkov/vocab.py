"""Prefix handling and the fixed vocabulary of classes and properties.

The vocabulary is the bundled ``data/vocabulary.tsv`` manifest: ``Vocab()``
and ``PrefixTable()`` share the terms and namespaces read from there once per
process, so that file is the one place a prefix or a term is defined, and
``load_manifest`` the one place its rows are checked.

Prefix lookup is case-insensitive because source material for this domain
mixes spellings like ``bfo:`` and ``Bfo:``.  A small alias table folds two
historical spellings onto their canonical terms so queries written either
way resolve to the same IRIs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional

from .errors import ToolkitError
from .rdf import Iri

# (prefix, local) spellings folded onto their canonical term
ALIASES = {
    ("cco", "spatial_part_of"): ("bfo", "spatial_part_of"),
    ("bfo", "has_occurent_part"): ("bfo", "has_occurrent_part"),
}

CLASS = "class"
OBJECT_PROPERTY = "object-property"
DATA_PROPERTY = "data-property"
KINDS = (CLASS, OBJECT_PROPERTY, DATA_PROPERTY)


class PrefixError(ToolkitError):
    """A prefixed name used an unknown or malformed prefix."""


class VocabularyError(ToolkitError):
    """The vocabulary table or a manifest file is inconsistent."""


class PrefixTable:
    """Maps prefixes (case-insensitively) to namespace IRIs; read-only once built."""

    def __init__(self, namespaces: Optional[dict[str, str]] = None):
        if namespaces is None:  # share the bundled vocabulary.tsv's table
            self._namespaces = _shipped().prefixes._namespaces
            return
        for prefix in namespaces:
            if not prefix.isidentifier():
                raise PrefixError(f"bad prefix: {prefix!r}")
        self._namespaces = {prefix.lower(): ns for prefix, ns in namespaces.items()}

    def namespace(self, prefix: str) -> str:
        try:
            return self._namespaces[prefix.lower()]
        except KeyError:
            raise PrefixError(f"unknown prefix: {prefix!r}") from None

    def resolve(self, prefixed_name: str) -> Iri:
        """Expand ``prefix:local`` to a full IRI, applying alias folding."""
        if ":" not in prefixed_name:
            raise PrefixError(f"not a prefixed name: {prefixed_name!r}")
        prefix, local = prefixed_name.split(":", 1)
        if not local:
            raise PrefixError(f"empty local name in {prefixed_name!r}")
        key = (prefix.lower(), local)
        if key in ALIASES:
            prefix, local = ALIASES[key]
        return Iri(self.namespace(prefix) + local)


@dataclass(frozen=True)
class VocabTerm:
    prefixed_name: str
    iri: Iri
    kind: str
    label: str
    definition: str
    comment: str = ""


@functools.cache
def _shipped() -> Vocab:
    """The bundled vocabulary.tsv, namespaces and terms, parsed once per process."""
    text = resources.files("kgmarkov").joinpath("data", "vocabulary.tsv").read_text("utf-8")
    return load_manifest(text)


class Vocab:
    """The resolved vocabulary, with one attribute handle per term.

    Handles use the term's local name, so ``v.Process`` is the Process
    class IRI and ``v.precedes`` the precedes property IRI.  Without
    ``prefixes`` or ``terms``, the bundled vocabulary.tsv's are shared.
    Terms are taken as ``load_manifest`` checked them.
    """

    def __init__(self, prefixes: Optional[PrefixTable] = None,
                 terms: Optional[Iterable[VocabTerm]] = None):
        self.prefixes = prefixes if prefixes is not None else _shipped().prefixes
        self.terms = tuple(terms) if terms is not None else _shipped().terms
        for term in self.terms:
            setattr(self, term.prefixed_name.split(":", 1)[1], term.iri)

    def property_iris(self) -> frozenset[Iri]:
        return frozenset(t.iri for t in self.terms if t.kind != CLASS)

    def class_iris(self) -> frozenset[Iri]:
        return frozenset(t.iri for t in self.terms if t.kind == CLASS)


def load_manifest(text: str) -> Vocab:
    """Parse manifest text into a Vocab, refusing any row that does not fit."""
    namespaces: dict[str, str] = {}
    rows: list[tuple[str, str, str, str, str]] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if fields[0] == "prefix":
            if len(fields) != 3:
                raise VocabularyError(f"line {line_no}: prefix rows need 3 fields")
            if fields[1].lower() in map(str.lower, namespaces):
                raise VocabularyError(f"line {line_no}: duplicate prefix {fields[1]!r}")
            namespaces[fields[1]] = fields[2]
        elif fields[0] == "term":
            if len(fields) not in (5, 6):
                raise VocabularyError(f"line {line_no}: term rows need 5 or 6 fields")
            comment = fields[5] if len(fields) == 6 else ""
            rows.append((fields[1], fields[2], fields[3], fields[4], comment))
        else:
            raise VocabularyError(f"line {line_no}: unknown row kind {fields[0]!r}")
    prefixes = PrefixTable(namespaces)
    terms = []
    seen_locals: dict[str, str] = {}
    for name, kind, label, definition, comment in rows:
        try:
            iri = prefixes.resolve(name)
        except PrefixError as exc:
            raise VocabularyError(f"term {name!r}: {exc}") from None
        if kind not in KINDS:
            raise VocabularyError(f"unknown term kind: {kind!r}")
        local = name.split(":", 1)[1]
        if local in seen_locals:
            raise VocabularyError(f"duplicate term: {name}" if seen_locals[local] == name
                                  else f"local name clash: {name} vs {seen_locals[local]}")
        seen_locals[local] = name
        terms.append(VocabTerm(name, iri, kind, label, definition, comment))
    return Vocab(prefixes, terms)

