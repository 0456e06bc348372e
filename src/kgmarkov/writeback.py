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
fraction stays recoverable from the graph.  Minted IRIs spell the from- and
to-states by ``state_token``, one token per label, so readback recovers the
labels from the names, and writebacks of distinct from-states share no IRI.
"""

from __future__ import annotations

import re
from urllib.parse import unquote

from .errors import ToolkitError
from .ingest import TRIP, TRIP_PART, VESSEL, _timeline, ex
from .markov import ChainCounts, Distribution, StateSpace
from .rdf import (
    DECIMAL,
    Graph,
    Iri,
    Literal,
    Triple,
    decimal_literal,
    integer_literal,
)
from .vocab import Vocab, _shipped

MODEL_CCO = "cco"
MODEL_PROFILE = "profile"
MODELS = (MODEL_CCO, MODEL_PROFILE)

_LOCATION_LABEL_RE = re.compile(r"location([0-9]+)")
_ESCAPED_RE = re.compile(r"^[0-9]|t(?=o)|_(?=d[0-9]+\Z)|[^A-Za-z0-9_]")
PREDICTED_FLAG = "true"


class WritebackError(ToolkitError):
    """Writeback preconditions not met, or nothing to read back."""


def state_token(label: str) -> str:
    """The label's token in minted IRIs, one per label: locationN gives N; any
    other label keeps letters, digits and _, and writes %XX per UTF-8 byte
    (RFC 3987's pct-encoded form) for every other character, a leading digit,
    each t before o and the _ of a trailing _d<digits>.  So no token holds
    "to" or ends like a cco PMICE's day, and only location tokens start with a digit."""
    m = _LOCATION_LABEL_RE.fullmatch(label)
    if m:
        return m.group(1)
    return _ESCAPED_RE.sub(lambda c: "".join(f"%{b:02X}" for b in c.group().encode()), label)


def _detokenize(token: str) -> str:
    if token.isdigit():
        return "location" + token
    return unquote(token)


def _row_or_error(counts: ChainCounts, current: str, day_index: int) -> tuple[list[int], int, str]:
    """The checks both models open with; the from-state's count row, total and IRI token."""
    if type(day_index) is not int:
        raise WritebackError(f"day_index must be an integer, not {day_index!r}")
    if day_index < 0:
        raise WritebackError("day_index must be non-negative")
    row = list(counts.rows[counts.row_index(current)])
    total = sum(row)
    if total == 0:
        raise WritebackError(
            f"no observed transitions leave {current!r}; nothing to normalize"
        )
    return row, total, state_token(current)


def _refuse_a_different_rewrite(graph: Graph, model: str, current: str, reached: dict[str, Iri],
                                counts: ChainCounts, predicate: Iri,
                                expected: dict[Iri, Literal]) -> None:
    # readback would mix the old and new rows; replacing them is not supported
    lacking = reached.keys() - set(counts.space.states)
    if lacking:
        raise WritebackError(f"the graph already holds a {model} writeback for {current!r} "
                             f"that reaches {min(lacking)!r}, which this state space lacks")
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
    a PMICE per nonzero target.  With link_realizations, each step of the
    timeline that leaves ``current`` for a listed state also gains a
    realizes edge from its arriving trip part, as many edges as the from-state's
    row total for counts taken from this graph.  The timeline is read, and
    refused, as ``location_sequence`` reads it, and locations match by local
    name, the labels ``estimate`` uses.  Each arriving part is reached by edges
    from the arriving row's track point, back along spatially_projects_onto,
    occupies_spatiotemporal_region and has_occurrent_part; a hop that finds no
    subject or several is refused before any write, naming the node and edge.
    day_index names the day being predicted; profile IRIs do not depend on
    it, but one that is not an int, or is negative, is refused as in the cco
    model, so both model calls stay interchangeable.
    """
    vocab = _shipped()
    row, total, s_tok = _row_or_error(counts, current, day_index)
    add = graph.insert

    total_ice = ex(f"total{s_tok}toXTransitions")
    count_ices = [ex(f"{s_tok}to{state_token(to_state)}TransitionCount")
                  for to_state in counts.space.states]
    _refuse_a_different_rewrite(graph, MODEL_PROFILE, current, _profile_parts(graph, current),
                                counts, vocab.has_integer_value, {
        ice: integer_literal(value) for ice, value in zip([total_ice, *count_ices], [total, *row])})
    realized: dict[str, list[str]] = {}  # to-state -> keys of the trip parts that realize it
    if link_realizations:
        timeline, rows = _timeline(graph)
        keys = [where.key for _, where in timeline]
        names = {key: graph.term(key).local_name() for key in set(keys)}
        # the step into a row happens during the trip part its track point was observed in
        hops = [(graph._pos.get(edge.key, {}), edge) for edge in (vocab.spatially_projects_onto,
                vocab.occupies_spatiotemporal_region, vocab.has_occurrent_part)]
        for start, end, (_, _, point) in zip(keys, keys[1:], rows[1:]):
            if names[start] == current and names[end] in counts.space.states:
                node = point.key
                for by_object, edge in hops:
                    subjects = by_object.get(node, ())
                    if len(subjects) != 1:
                        raise WritebackError(f"cannot link a realization: {node} is the object "
                                             f"of {len(subjects)} {edge.key} triples, not 1")
                    (node,) = subjects
                realized.setdefault(names[end], []).append(node)

    pol, vessel = ex(f"{VESSEL}_PoL"), ex(VESSEL)
    add(Triple(pol, vocab.type, vocab.PatternOfLife))
    add(Triple(pol, vocab.type, vocab.PatternProcessProfile))
    add(Triple(pol, vocab.occurrent_part_of, ex(TRIP)))

    add(Triple(total_ice, vocab.type, vocab.TransitionTotalICE))
    add(Triple(total_ice, vocab.has_integer_value, integer_literal(total)))

    for j, to_state in enumerate(counts.space.states):
        j_tok = state_token(to_state)
        part = ex(f"{s_tok}to{j_tok}_PoL_Part")
        add(Triple(part, vocab.type, vocab.PatternProcessProfile))
        add(Triple(part, vocab.occurrent_part_of, pol))

        disposition = ex(f"{s_tok}to{j_tok}_Disposition")
        add(Triple(disposition, vocab.type, vocab.Disposition))
        add(Triple(disposition, vocab.inheres_in, vessel))
        if to_state in realized:
            realizes, target = graph._key(vocab.realizes), graph._key(disposition)
            for day_part in realized[to_state]:
                graph._add(day_part, realizes, target)

        count_ice = count_ices[j]
        add(Triple(count_ice, vocab.type, vocab.TransitionCountICE))
        add(Triple(count_ice, vocab.is_a_measurement_of, part))
        add(Triple(count_ice, vocab.has_integer_value, integer_literal(row[j])))

        if row[j] > 0:
            pmice = ex(f"markovPMICE_{s_tok}to{j_tok}")
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
    vocab = _shipped()
    row, total, s_tok = _row_or_error(counts, current, day_index)
    add = graph.insert

    pmices = [ex(f"markovPMICE_{s_tok}to{state_token(to_state)}_d{day_index + 1}")
              for to_state in counts.space.states]
    # a zero-count target has no PMICE, so any value an earlier writeback left differs
    values = [decimal_literal(count / total) for count in row]
    future = ex(f"{TRIP_PART.name}_{day_index + 1}")  # no _d: the day is not observed
    _refuse_a_different_rewrite(graph, MODEL_CCO, current, _cco_pmices(graph, current, future),
                                counts, vocab.has_decimal_value, dict(zip(pmices, values)))

    add(Triple(future, vocab.type, vocab.Process))
    add(Triple(future, vocab.predicted, Literal(PREDICTED_FLAG)))

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
                             f"not {', '.join(value.key for value in values) or 'none'}")
    return float(values[0].lexical)


def _profile_parts(graph: Graph, current: str) -> dict[str, Iri]:
    """The profile parts of ``current``'s writeback in the graph, by to-state."""
    prefix, suffix = f"{state_token(current)}to", "_PoL_Part"
    parts = {}
    for t in graph.match(None, _shipped().occurrent_part_of, ex(f"{VESSEL}_PoL")):
        local = t.subject.local_name()
        if local.startswith(prefix) and local.endswith(suffix):
            parts[_detokenize(local[len(prefix):-len(suffix)])] = t.subject
    return parts


def _cco_pmices(graph: Graph, current: str, future: Iri) -> dict[str, Iri]:
    """The PMICEs of ``current``'s cco writeback about one future part, by to-state."""
    prefix = f"markovPMICE_{state_token(current)}to"
    pmices = {}
    for t in graph.match(None, _shipped().modally_about, future):
        local = t.subject.local_name()
        if local.startswith(prefix):
            pmices[_detokenize(local[len(prefix):].rpartition("_d")[0])] = t.subject
    return pmices


def _read_profile(graph: Graph, current: str) -> dict[str, float]:
    vocab = _shipped()
    values: dict[str, float] = {}
    for to_state, part in _profile_parts(graph, current).items():
        values[to_state] = 0.0
        for m in graph.match(None, vocab.is_a_measurement_of, part):
            if Triple(m.subject, vocab.type, vocab.MarkovPMICE) not in graph:
                continue
            values[to_state] = _decimal_value(graph, m.subject, vocab)
    return values


def _read_cco(graph: Graph, current: str) -> dict[str, float]:
    vocab = _shipped()
    values: dict[str, float] = {}
    futures = []
    for t in graph.match(None, vocab.predicted, Literal(PREDICTED_FLAG)):
        pmices = _cco_pmices(graph, current, t.subject)
        for to_state, pmice in pmices.items():
            values[to_state] = _decimal_value(graph, pmice, vocab)
        if pmices:
            futures.append(t.subject)
    if len(futures) > 1:
        raise WritebackError(f"the graph holds cco writebacks for {current!r} on more "
                             f"than one predicted day: "
                             f"{', '.join(f.local_name() for f in futures)}")
    # zero-count states have no PMICE; restore them from the graph's known
    # locations, but only when the states read back are locations too
    regions = {t.subject.local_name() for t in graph.match(None, vocab.type, vocab.SpatialRegion)}
    if values and values.keys() <= regions:
        values = dict.fromkeys(regions, 0.0) | values
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
