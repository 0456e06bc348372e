"""Materialize estimated transition probabilities back into the graph.

Two target shapes are supported and kept deliberately comparable:

* cco model: each probability becomes a Markov PMICE that is modally_about
  a freshly minted future trip part, so the numbers hang off a process that
  has not happened.
* profile model: the vessel gets a pattern-of-life individual with one
  profile part per transition option; counts, the row total, and the
  division-derived probabilities all attach to those actual-pattern parts,
  and nothing points at a future process.

Counts and totals are stored as integer ICEs so each probability's exact
fraction stays recoverable from the graph.
"""

from __future__ import annotations

import re

from .errors import ToolkitError
from .ingest import default_manifest, transition_pairs
from .markov import ChainCounts, Distribution, StateSpace
from .rdf import (
    DECIMAL,
    Graph,
    Iri,
    Literal,
    Triple,
    decimal_literal,
    integer_literal,
    string_literal,
    term_to_ntriples,
)
from .vocab import Vocab, _shipped

MODEL_CCO = "cco"
MODEL_PROFILE = "profile"
MODELS = (MODEL_CCO, MODEL_PROFILE)

_LOCATION_LABEL_RE = re.compile(r"^location([0-9]+)$")
PREDICTED_FLAG = "true"


class WritebackError(ToolkitError):
    """Writeback preconditions not met, or nothing to read back."""


def state_token(label: str) -> str:
    """Short token used inside minted IRIs: locationN collapses to N,
    anything else keeps its identifier characters."""
    m = _LOCATION_LABEL_RE.match(label)
    if m:
        return m.group(1)
    return re.sub(r"[^A-Za-z0-9_]", "_", label)


def _detokenize(token: str) -> str:
    if token.isdigit():
        return "location" + token
    return token


def _row_or_error(counts: ChainCounts, current: str, day_index: int) -> tuple[list[int], int, str]:
    """The checks both models open with; the from-state's count row, total and IRI token."""
    if day_index < 0:
        raise WritebackError("day_index must be non-negative")
    # read_probabilities would rename a label whose minted IRIs read back as
    # another label, or merge it with that label
    tokens = {label: state_token(label) for label in counts.space.states}
    for label, token in tokens.items():
        if _detokenize(token) != label:
            raise WritebackError(f"state label {label!r} cannot be written back: its "
                                 f"IRIs read back as {_detokenize(token)!r}")
    # "{s}to{j}" names are distinct, and "{s}to" prefixes only s's names,
    # exactly when no token starts with another token followed by "to"
    for label, token in tokens.items():
        for other, other_token in tokens.items():
            if other_token.startswith(token + "to"):
                raise WritebackError(f"state labels {label!r} and {other!r} cannot be "
                                     f"written back together: the IRIs minted for "
                                     f"{other!r} start with those of {label!r}")
    row = [int(x) for x in counts.matrix[counts.row_index(current)]]
    total = sum(row)
    if total == 0:
        raise WritebackError(
            f"no observed transitions leave {current!r}; nothing to normalize"
        )
    return row, total, tokens[current]


def _refuse_a_different_rewrite(graph: Graph, model: str, current: str, predicate: Iri,
                                expected: dict[Iri, Literal]) -> None:
    # readback would mix the old and new rows; replacing them is not supported
    for subject, value in expected.items():
        for t in graph.match(subject, predicate, None):
            if t.object != value:
                raise WritebackError(f"the graph already holds a different {model} writeback "
                                     f"for {current!r}: {subject.local_name()} is "
                                     f"{t.object.lexical}, not {value.lexical}")


def writeback_profile_model(
    graph: Graph,
    counts: ChainCounts,
    current: str,
    day_index: int,
    link_realizations: bool = False,
) -> None:
    """Attach the pattern-of-life structure for one from-state.

    Mints the pattern-of-life individual, a profile part and disposition per
    target state, count and total ICEs (counts always, zeros included), and
    a PMICE per nonzero target.  With link_realizations, each historical day
    whose transition matches an option also gains a realizes edge; that adds
    about one triple per observed day, hence the flag.  Locations match by
    local name, the labels ``estimate`` uses; a matching transition whose
    arriving trip part is not in the graph is refused before any write.
    day_index names the day being predicted; profile IRIs do not depend on
    it, but a negative one is refused as in the cco model, so both model
    calls stay interchangeable.
    """
    manifest = default_manifest()
    vocab = _shipped()
    row, total, s_tok = _row_or_error(counts, current, day_index)
    ns = manifest.namespace
    add = graph.insert

    total_ice = Iri(f"{ns}total{s_tok}toXTransitions")
    count_ices = [Iri(f"{ns}{s_tok}to{state_token(to_state)}TransitionCount")
                  for to_state in counts.space.states]
    _refuse_a_different_rewrite(graph, MODEL_PROFILE, current, vocab.has_integer_value, {
        ice: integer_literal(value) for ice, value in zip([total_ice, *count_ices], [total, *row])})
    realized: dict[str, list[Iri]] = {}  # to-state -> trip parts that realize it
    pairs = transition_pairs(graph) if link_realizations else []
    for day, (start, end) in enumerate(pairs, start=1):
        if start.local_name() == current and end.local_name() in counts.space.states:
            # the transition into day+1 happens during that day's part
            day_part = manifest.trip_part(day + 1)
            if not graph.match_keys(term_to_ntriples(day_part)):
                raise WritebackError(f"cannot link a realization: the graph has no trip part "
                                     f"{day_part.local_name()!r}")
            realized.setdefault(end.local_name(), []).append(day_part)

    pol = Iri(f"{ns}{manifest.vessel.local_name()}_PoL")
    add(Triple(pol, vocab.type, vocab.PatternOfLife))
    add(Triple(pol, vocab.type, vocab.PatternProcessProfile))
    add(Triple(pol, vocab.occurrent_part_of, manifest.trip))

    add(Triple(total_ice, vocab.type, vocab.TransitionTotalICE))
    add(Triple(total_ice, vocab.has_integer_value, integer_literal(total)))

    for j, to_state in enumerate(counts.space.states):
        j_tok = state_token(to_state)
        part = Iri(f"{ns}{s_tok}to{j_tok}_PoL_Part")
        add(Triple(part, vocab.type, vocab.PatternProcessProfile))
        add(Triple(part, vocab.occurrent_part_of, pol))

        disposition = Iri(f"{ns}{s_tok}to{j_tok}_Disposition")
        add(Triple(disposition, vocab.type, vocab.Disposition))
        add(Triple(disposition, vocab.inheres_in, manifest.vessel))
        for day_part in realized.get(to_state, ()):
            add(Triple(day_part, vocab.realizes, disposition))

        count_ice = count_ices[j]
        add(Triple(count_ice, vocab.type, vocab.TransitionCountICE))
        add(Triple(count_ice, vocab.is_a_measurement_of, part))
        add(Triple(count_ice, vocab.has_integer_value, integer_literal(row[j])))

        if row[j] > 0:
            pmice = Iri(f"{ns}markovPMICE_{s_tok}to{j_tok}")
            add(Triple(pmice, vocab.type, vocab.MarkovPMICE))
            add(Triple(pmice, vocab.is_a_measurement_of, part))
            add(Triple(pmice, vocab.has_decimal_value, decimal_literal(row[j] / total)))


def writeback_cco_model(
    graph: Graph,
    counts: ChainCounts,
    current: str,
    day_index: int,
) -> None:
    """Attach probabilities as PMICEs modally_about a future trip part.

    The future part is minted as day day_index + 1, typed Process, and
    flagged predicted; it carries no datetime and no track point because it
    has not occurred.  PMICE IRIs carry the future day so writebacks for
    different days can coexist.
    """
    manifest = default_manifest()
    vocab = _shipped()
    row, total, s_tok = _row_or_error(counts, current, day_index)
    ns = manifest.namespace
    add = graph.insert

    pmices = [Iri(f"{ns}markovPMICE_{s_tok}to{state_token(to_state)}_d{day_index + 1}")
              for to_state in counts.space.states]
    # a zero-count target has no PMICE, so any value an earlier writeback left differs
    values = [decimal_literal(count / total) for count in row]
    _refuse_a_different_rewrite(graph, MODEL_CCO, current, vocab.has_decimal_value,
                                dict(zip(pmices, values)))

    future = manifest.future_trip_part(day_index + 1)
    add(Triple(future, vocab.type, vocab.Process))
    add(Triple(future, vocab.predicted, string_literal(PREDICTED_FLAG)))

    for pmice, count, value in zip(pmices, row, values):
        if count == 0:
            continue
        add(Triple(pmice, vocab.type, vocab.MarkovPMICE))
        add(Triple(pmice, vocab.modally_about, future))
        add(Triple(pmice, vocab.has_decimal_value, value))


def _decimal_value(graph: Graph, pmice: Iri, vocab: Vocab) -> float:
    """A PMICE's value, refused unless it has exactly one xsd:decimal value."""
    values = [t.object for t in graph.match(pmice, vocab.has_decimal_value, None)]
    if len(values) != 1 or not isinstance(values[0], Literal) or values[0].datatype != DECIMAL:
        raise WritebackError(f"{pmice.local_name()} must have exactly one xsd:decimal value, "
                             f"not {', '.join(map(term_to_ntriples, values)) or 'none'}")
    return float(values[0].lexical)


def _read_profile(graph: Graph, current: str) -> dict[str, float]:
    manifest = default_manifest()
    vocab = _shipped()
    s_tok = state_token(current)
    prefix = f"{s_tok}to"
    suffix = "_PoL_Part"
    pol = Iri(f"{manifest.namespace}{manifest.vessel.local_name()}_PoL")
    values: dict[str, float] = {}
    for t in graph.match(None, vocab.occurrent_part_of, pol):
        local = t.subject.local_name()
        if not (local.startswith(prefix) and local.endswith(suffix)):
            continue
        to_state = _detokenize(local[len(prefix):-len(suffix)])
        values[to_state] = 0.0
        for m in graph.match(None, vocab.is_a_measurement_of, t.subject):
            if Triple(m.subject, vocab.type, vocab.MarkovPMICE) not in graph:
                continue
            values[to_state] = _decimal_value(graph, m.subject, vocab)
    return values


def _read_cco(graph: Graph, current: str) -> dict[str, float]:
    vocab = _shipped()
    s_tok = state_token(current)
    prefix = f"markovPMICE_{s_tok}to"
    values: dict[str, float] = {}
    futures = []
    for t in graph.match(None, vocab.predicted, string_literal(PREDICTED_FLAG)):
        for m in graph.match(None, vocab.modally_about, t.subject):
            local = m.subject.local_name()
            if not local.startswith(prefix):
                continue
            token = local[len(prefix):]
            token = re.sub(r"_d[0-9]+$", "", token)
            values[_detokenize(token)] = _decimal_value(graph, m.subject, vocab)
            if t.subject not in futures:
                futures.append(t.subject)
    if len(futures) > 1:
        raise WritebackError(f"the graph holds cco writebacks for {current!r} on more "
                             f"than one predicted day: "
                             f"{', '.join(f.local_name() for f in futures)}")
    if values:
        # zero-count states have no PMICE; restore them from the graph's
        # known locations so the distribution keeps its full support
        for t in graph.match(None, vocab.type, vocab.SpatialRegion):
            values.setdefault(t.subject.local_name(), 0.0)
    return values


def read_probabilities(graph: Graph, current: str, model: str) -> Distribution:
    """Rebuild the next-state distribution for one from-state by querying
    the PMICE structure a previous writeback left in the graph."""
    if model not in MODELS:
        raise WritebackError(f"unknown model: {model!r}")
    if model == MODEL_PROFILE:
        values = _read_profile(graph, current)
    else:
        values = _read_cco(graph, current)
    if not values:
        raise WritebackError(
            f"no {model} writeback for state {current!r} found in the graph"
        )
    space = StateSpace(tuple(sorted(values)))
    return Distribution(space, [values[s] for s in space.states])
