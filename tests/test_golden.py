"""Byte-identity pins for the 100-day default-seed pipeline.

Each digest is the SHA-256 of one output rendered from the same generated
graph.  A change to the triple store, the query engine, a writeback model or
the DOT exporter that alters a single output byte fails here.
"""

import hashlib

import pytest

from kgmarkov.datagen import DEFAULT_SEED, GenConfig, generate
from kgmarkov.dot import day_subgraph, graph_to_dot
from kgmarkov.ingest import ingest_rows, load_bundled_query, location_sequence
from kgmarkov.markov import (
    OBSERVED,
    count_pair_transitions,
    count_transitions,
    dumps_matrix,
    estimate_first_order,
    estimate_second_order,
    loads_matrix,
    matrix_power,
    predict,
    predict_second_order,
)
from kgmarkov.query import evaluate, parse_query
from kgmarkov.rdf import Graph, serialize_ntriples
from kgmarkov.vocab import Vocab
from kgmarkov.writeback import writeback_cco_model, writeback_profile_model

GRAPH_SHA = "d46371912b46976eb0d560e90e51e4fe6d1c9ea365dc1ae326863efd0555f4dd"
PROFILE_LINK_SHA = "9c14870c261db5304295c98d5c63b08622bfacdc3200098888c0d78b3811731b"
CCO_SHA = "5c1ddc545945b1d7333aa65cb8b1c32c4604f15b11aaf184c6224892825456f2"
TRANSITIONS_CSV_SHA = "bdd276602b13bb297e72e14a67645aaf2b373d65ebe0acb174b71da3e43b6526"
DAY1_DOT_SHA = "5b80cc7d89289446dae3c0faad048eec78453dc25465859a0ab96aea390be98e"
# `kgmarkov estimate --order 1` and `--order 2` files
ORDER1_MATRIX_SHA = "3910b5789e3495777cbfb30fc1232830bafba99c2aab4d20b7009581a53721c1"
ORDER2_MATRIX_SHA = "eb74355d157ca7e01593bc411670687794d238fa25b62d984e172b2bf257fb52"
# `kgmarkov power --steps 5` of the order-1 file; its products sum in a fixed
# order, so the bytes hold on every CPU
POWER_SHA = "b228f4423a104469a48429ff3de25625026c7bb1e8cf314b07ee864e4c33f026"
# every distribution `kgmarkov predict` prints from the two files: each state
# at 1 and 3 steps, and each observed pair with --prev, at full precision
PREDICT_SHA = "42b5dc4624c75273a3e8d8d75b5d58f88d98a6710561d2f1bf3e2f71dbf6ae46"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def graph():
    return ingest_rows(generate(GenConfig(days=100, seed=DEFAULT_SEED)))


@pytest.fixture(scope="module")
def counts(graph):
    return count_transitions([loc.local_name() for _, loc in location_sequence(graph)])


def test_graph_serialization(graph):
    assert _sha(serialize_ntriples(graph)) == GRAPH_SHA


@pytest.fixture
def source(graph):
    """A graph with ``graph``'s triples whose copies share a new, empty holder
    of sorted lines, so each test decides which serialize fills it."""
    return Graph(graph)


# A written copy serializes either by filling its holder of sorted lines
# itself, or, when an unwritten copy filled the holder first, by merging its
# new lines in; the second serialize of that copy merges again.
_SERIALIZE_WAYS = pytest.mark.parametrize("filled_before_writeback", [False, True],
                                          ids=["fills", "merges"])


@_SERIALIZE_WAYS
def test_profile_writeback_with_realizations(source, counts, filled_before_writeback):
    copy = source.copy()
    if filled_before_writeback:
        serialize_ntriples(copy)
    writeback_profile_model(copy, counts, "location2", 100, link_realizations=True)
    assert _sha(serialize_ntriples(copy)) == PROFILE_LINK_SHA
    assert _sha(serialize_ntriples(copy)) == PROFILE_LINK_SHA


@_SERIALIZE_WAYS
def test_cco_writeback(source, counts, filled_before_writeback):
    copy = source.copy()
    if filled_before_writeback:
        serialize_ntriples(copy)
    writeback_cco_model(copy, counts, "location2", 100)
    assert _sha(serialize_ntriples(copy)) == CCO_SHA
    assert _sha(serialize_ntriples(copy)) == CCO_SHA


def test_transitions_query_csv(graph):
    query = parse_query(load_bundled_query("transitions"), Vocab().prefixes)
    assert _sha(evaluate(query, graph).as_csv()) == TRANSITIONS_CSV_SHA


def test_day_dot(graph):
    assert _sha(graph_to_dot(day_subgraph(graph, 1), "d")) == DAY1_DOT_SHA


@pytest.mark.parametrize("count,estimate,digest", [
    (count_transitions, estimate_first_order, ORDER1_MATRIX_SHA),
    (count_pair_transitions, estimate_second_order, ORDER2_MATRIX_SHA),
], ids=["order1", "order2"])
def test_matrix_file(graph, count, estimate, digest):
    c = count([loc.local_name() for _, loc in location_sequence(graph)])
    assert _sha(dumps_matrix(estimate(c), c)) == digest


@pytest.fixture(scope="module")
def matrix_files(graph):
    labels = [loc.local_name() for _, loc in location_sequence(graph)]
    return [dumps_matrix(estimate(c), c) for c, estimate in (
        (count_transitions(labels), estimate_first_order),
        (count_pair_transitions(labels), estimate_second_order))]


@pytest.mark.parametrize("order", [1, 2])
def test_matrix_file_round_trips(matrix_files, order):
    text = matrix_files[order - 1]
    assert dumps_matrix(*loads_matrix(text)) == text


def test_predictions(matrix_files):
    first, _ = loads_matrix(matrix_files[0])
    second, _ = loads_matrix(matrix_files[1])
    lines = []
    for state in first.space:
        for steps in (1, 3):
            lines += [f"{state} {steps}: {s} {v!r}"
                      for s, v in predict(first, state, steps).as_pairs()]
    for prev in second.space:
        for state in second.space:
            if second.row_status[second.row_index(prev, state)] == OBSERVED:
                lines += [f"{prev} {state}: {s} {v!r}"
                          for s, v in predict_second_order(second, prev, state).as_pairs()]
    assert _sha("\n".join(lines) + "\n") == PREDICT_SHA


def test_power_file(counts):
    assert _sha(dumps_matrix(matrix_power(estimate_first_order(counts), 5))) == POWER_SHA


def test_writebacks_leave_the_source_graph_alone(graph, counts):
    writeback_profile_model(graph.copy(), counts, "location2", 100, link_realizations=True)
    writeback_cco_model(graph.copy(), counts, "location2", 100)
    assert _sha(serialize_ntriples(graph)) == GRAPH_SHA
