"""Prefix handling and the fixed vocabulary of classes and properties.

The vocabulary is the bundled ``data/vocabulary.tsv`` manifest: ``Vocab()``
and ``PrefixTable()`` load their terms and namespaces from there, so that
file is the one place a prefix or a term is defined.

Prefix lookup is case-insensitive because source material for this domain
mixes spellings like ``bfo:`` and ``Bfo:``.  A small alias table folds two
historical spellings onto their canonical terms so queries written either
way resolve to the same IRIs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
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
    """Maps prefixes (case-insensitively) to namespace IRIs."""

    def __init__(self, namespaces: Optional[dict[str, str]] = None):
        self._namespaces: dict[str, str] = {}
        source = _shipped().prefixes.namespaces() if namespaces is None else namespaces
        for prefix, ns in source.items():
            self.add(prefix, ns)

    def add(self, prefix: str, namespace: str) -> None:
        if not prefix or not prefix.isidentifier():
            raise PrefixError(f"bad prefix: {prefix!r}")
        self._namespaces[prefix.lower()] = namespace

    def namespace(self, prefix: str) -> str:
        try:
            return self._namespaces[prefix.lower()]
        except KeyError:
            raise PrefixError(f"unknown prefix: {prefix!r}") from None

    def namespaces(self) -> dict[str, str]:
        return dict(self._namespaces)

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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise VocabularyError(f"unknown term kind: {self.kind!r}")


@functools.cache
def _shipped() -> Vocab:
    """The bundled vocabulary.tsv, namespaces and terms, parsed once per process."""
    text = resources.files("kgmarkov").joinpath("data", "vocabulary.tsv").read_text("utf-8")
    return load_manifest(text)


class Vocab:
    """The resolved vocabulary, with one attribute handle per term.

    Handles use the term's local name, so ``v.Process`` is the Process
    class IRI and ``v.precedes`` the precedes property IRI.  Without
    ``prefixes`` or ``terms``, those of the bundled vocabulary.tsv are used.
    """

    def __init__(self, prefixes: Optional[PrefixTable] = None,
                 terms: Optional[Iterable[VocabTerm]] = None):
        self.prefixes = prefixes if prefixes is not None else PrefixTable()
        self.terms = tuple(terms) if terms is not None else _shipped().terms
        seen_locals: dict[str, str] = {}
        for term in self.terms:
            local = term.prefixed_name.split(":", 1)[1]
            if seen_locals.get(local) == term.prefixed_name:
                raise VocabularyError(f"duplicate term: {term.prefixed_name}")
            if local in seen_locals:
                raise VocabularyError(
                    f"local name clash: {term.prefixed_name} vs {seen_locals[local]}")
            seen_locals[local] = term.prefixed_name
            setattr(self, local, term.iri)

    def property_iris(self) -> frozenset[Iri]:
        return frozenset(t.iri for t in self.terms if t.kind != CLASS)

    def class_iris(self) -> frozenset[Iri]:
        return frozenset(t.iri for t in self.terms if t.kind == CLASS)


def load_manifest(text: str) -> Vocab:
    """Parse manifest text into a Vocab."""
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
            if fields[1].lower() in namespaces:
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
    for name, kind, label, definition, comment in rows:
        try:
            iri = prefixes.resolve(name)
        except PrefixError as exc:
            raise VocabularyError(f"term {name!r}: {exc}") from None
        terms.append(VocabTerm(name, iri, kind, label, definition, comment))
    return Vocab(prefixes, terms)

