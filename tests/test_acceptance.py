"""Acceptance gate for the whole toolkit.

Each test checks one published or statistical property end to end and
prints a single PASS/FAIL line (run with -s to see them all).  Tolerances
are part of the contract and are stated next to each check.
"""

import random
from collections import Counter
from datetime import datetime

import numpy as np

from kgmarkov.datagen import DEFAULT_SEED, GenConfig, generate, rows_to_csv
from kgmarkov.ingest import (
    ingest_rows,
    load_bundled_query,
    location_sequence,
    transition_pairs,
)
from kgmarkov.markov import (
    LOADED_ROW_SUM_TOL,
    OBSERVED,
    ChainCounts,
    ChainMatrix,
    StateSpace,
    count_transitions,
    dumps_matrix,
    estimate_first_order,
    format_probability,
    loads_matrix,
    matrix_power,
    predict,
    predict_second_order,
)
from kgmarkov.query import display_value, evaluate, parse_query
from kgmarkov.rdf import Graph, Iri, Triple, serialize_ntriples
from kgmarkov.vocab import Vocab
from kgmarkov.writeback import (
    MODEL_PROFILE,
    read_probabilities,
    writeback_cco_model,
    writeback_profile_model,
)

from conftest import (
    EXAMPLE_P,
    EXAMPLE_P2,
    EXAMPLE_P_STEP5,
    LOCATIONS3,
    THREE_DAY_ROWS,
)
from oracles import brute_force_rows, naive_power, random_graph_and_query

VOCAB = Vocab()


def _verdict(name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"{status} {name}")
    assert not failures, f"{name}: " + "; ".join(failures)


def _example_matrix():
    text = dumps_matrix(
        ChainMatrix(StateSpace(LOCATIONS3), EXAMPLE_P, 1,
                    row_sum_tol=LOADED_ROW_SUM_TOL)
    )
    matrix, _ = loads_matrix(text)
    return matrix


def test_01_five_step_power_regression():
    # published 3-decimal rounding of the base matrix allows ±0.005
    failures = []
    powered = matrix_power(_example_matrix(), 5)
    for i in range(3):
        for j in range(3):
            got, want = powered.p[i, j], EXAMPLE_P_STEP5[i][j]
            if abs(got - want) > 0.005:
                failures.append(f"entry ({i},{j}): {got:.6f} vs {want}")
    _verdict("5-step power matches the published distribution (±0.005)", failures)


def test_02_worked_probability_display():
    failures = []
    counts = ChainCounts(StateSpace(LOCATIONS3),
                         [[12, 9, 11], [0, 0, 0], [0, 0, 0]], 1)
    value = estimate_first_order(counts).probability("location1", "location2")
    if value != 0.28125:
        failures.append(f"9/32 evaluated to {value!r}")
    if format_probability(value) != "0.281":
        failures.append(f"display was {format_probability(value)!r}")
    _verdict("worked example 9/32 = 0.28125 prints as 0.281", failures)


def test_03_one_step_prediction():
    failures = []
    d = predict(_example_matrix(), "location3", steps=1)
    got = d.probability("location2")
    if abs(got - 0.290) > 1e-9:
        failures.append(f"location2 mass {got!r}")
    _verdict("1-step prediction from location3 gives location2 = 0.290 (±1e-9)",
             failures)


def test_04_second_order_lookup():
    failures = []
    m = ChainMatrix(StateSpace(LOCATIONS3), EXAMPLE_P2, 2,
                    row_sum_tol=LOADED_ROW_SUM_TOL)
    got = predict_second_order(m, "location1", "location2").probability("location3")
    if abs(got - 0.222) > 1e-9:
        failures.append(f"location3 mass {got!r}")
    for i, row in enumerate(m.p):
        if abs(row.sum() - 1.0) > 0.002:
            failures.append(f"row {i} sums to {row.sum():.6f}")
    _verdict("second-order (location1,location2) gives location3 = 0.222 "
             "and all 9 rows sum to 1 (±0.002)", failures)


def test_05_three_day_fixture_and_queries():
    failures = []
    graph = ingest_rows(THREE_DAY_ROWS)
    if len(graph) != 46:
        failures.append(f"triple count {len(graph)}")

    q1 = parse_query(load_bundled_query("location_by_time"), VOCAB.prefixes)
    rows = [
        tuple(display_value(v) for v in row) for row in evaluate(q1, graph).rows
    ]
    expected = [
        ("2023-04-08 12:00:00", "location3"),
        ("2023-04-09 12:00:00", "location1"),
        ("2023-04-10 12:00:00", "location3"),
    ]
    if rows != expected:
        failures.append(f"timeline rows {rows}")

    q2 = parse_query(load_bundled_query("transitions"), VOCAB.prefixes)
    pairs = Counter(
        tuple(display_value(v) for v in row) for row in evaluate(q2, graph).rows
    )
    if pairs != Counter([("location3", "location1"), ("location1", "location3")]):
        failures.append(f"transition pairs {sorted(pairs.elements())}")
    _verdict("3-day fixture: 46 triples, exact timeline, 2 transition pairs",
             failures)


def test_06_end_to_end_determinism():
    failures = []

    def run():
        rows = generate(GenConfig(days=100, seed=DEFAULT_SEED))
        graph = ingest_rows(rows)
        labels = [loc.local_name() for _, loc in location_sequence(graph)]
        counts = count_transitions(labels, StateSpace.from_observations(labels))
        matrix = estimate_first_order(counts)
        wb = graph.copy()
        writeback_profile_model(wb, counts, labels[-1], 100)
        return rows, graph, labels, counts, matrix, wb

    rows, graph, labels, counts, matrix, wb = run()
    n_datetime = len(graph.match(None, VOCAB.has_datetime_value, None))
    n_precedes = len(graph.match(None, VOCAB.precedes, None))
    if n_datetime != 100:
        failures.append(f"{n_datetime} datetime triples")
    if n_precedes != 99:
        failures.append(f"{n_precedes} precedes triples")
    sequence = location_sequence(graph)
    if sequence[0][0] != datetime(2023, 4, 8, 12):
        failures.append(f"first timestamp {sequence[0][0]}")
    if sequence[-1][0] != datetime(2023, 7, 16, 12):
        failures.append(f"last timestamp {sequence[-1][0]}")

    for i, status in enumerate(matrix.row_status):
        if status == OBSERVED and abs(matrix.p[i].sum() - 1.0) > 1e-9:
            failures.append(f"estimated row {i} sums to {matrix.p[i].sum()!r}")

    d = read_probabilities(wb, labels[-1], MODEL_PROFILE)
    estimated_row = matrix.row(labels[-1])
    for state in d.space.states:
        got = d.probability(state)
        want = estimated_row[matrix.space.index(state)]
        if abs(got - want) > 1e-12:
            failures.append(f"readback {state}: {got!r} vs {want!r}")

    rows2, graph2, _, counts2, matrix2, wb2 = run()
    if rows_to_csv(rows) != rows_to_csv(rows2):
        failures.append("CSV text differs between runs")
    if serialize_ntriples(graph) != serialize_ntriples(graph2):
        failures.append("graph text differs between runs")
    if dumps_matrix(matrix, counts) != dumps_matrix(matrix2, counts2):
        failures.append("matrix text differs between runs")
    if serialize_ntriples(wb) != serialize_ntriples(wb2):
        failures.append("writeback text differs between runs")
    _verdict("100-day pipeline: counts, endpoints, row sums (±1e-9), "
             "readback (±1e-12), byte-identical repeat", failures)


def test_07_query_engine_against_brute_force():
    failures = []
    rng = random.Random(424242)
    for case in range(200):
        graph, query = random_graph_and_query(rng)
        got = Counter(tuple(row) for row in evaluate(query, graph).rows)
        want = Counter(tuple(row) for row in brute_force_rows(query, graph))
        if got != want:
            failures.append(f"case {case} diverged")
            break
    _verdict("200 random queries match brute-force enumeration as bags", failures)


def test_08_matrix_power_oracle_and_semigroup():
    failures = []
    rng = np.random.default_rng(20230408)
    for case in range(100):
        size = 3 if case % 2 == 0 else 5
        p = rng.random((size, size)) + 1e-9
        p /= p.sum(axis=1, keepdims=True)
        space = StateSpace(tuple(f"s{i}" for i in range(size)))
        m = ChainMatrix(space, p, 1)
        t = int(rng.integers(0, 13))
        diff = np.max(np.abs(matrix_power(m, t).p - naive_power(p, t)))
        if diff > 1e-12:
            failures.append(f"case {case}: naive diff {diff:.2e} at t={t}")
        a = int(rng.integers(0, 9))
        b = int(rng.integers(0, 9))
        semi = np.max(np.abs(matrix_power(m, a + b).p -
                             matrix_power(m, a).p @ matrix_power(m, b).p))
        if semi > 1e-9:
            failures.append(f"case {case}: semigroup diff {semi:.2e}")
    _verdict("100 random matrices: power oracle (±1e-12) and "
             "semigroup (±1e-9)", failures)


def test_09_model_structure():
    failures = []
    rows = generate(GenConfig(days=12, seed=7))
    labels = [r.location for r in rows]
    counts = count_transitions(labels, StateSpace.from_observations(labels))
    current = labels[-1]

    profile = ingest_rows(rows)
    writeback_profile_model(profile, counts, current, 12)
    pmices = [t.subject for t in profile.match(None, VOCAB.type, VOCAB.MarkovPMICE)]
    if not pmices:
        failures.append("profile writeback produced no PMICE")
    for pmice in pmices:
        targets = [
            t.object for t in profile.match(pmice, VOCAB.is_a_measurement_of, None)
        ]
        if len(targets) != 1:
            failures.append(f"{pmice.local_name()} measures {len(targets)} things")
            continue
        typed = Triple(targets[0], VOCAB.type, VOCAB.PatternProcessProfile)
        if typed not in profile:
            failures.append(f"{pmice.local_name()} target is not a profile part")
        if profile.match(pmice, VOCAB.modally_about, None):
            failures.append(f"{pmice.local_name()} points at a future process")
    if profile.match(None, VOCAB.predicted, None):
        failures.append("profile writeback marked something as predicted")

    cco = ingest_rows(rows)
    writeback_cco_model(cco, counts, current, 12)
    pmices = [t.subject for t in cco.match(None, VOCAB.type, VOCAB.MarkovPMICE)]
    if not pmices:
        failures.append("cco writeback produced no PMICE")
    for pmice in pmices:
        about = [t.object for t in cco.match(pmice, VOCAB.modally_about, None)]
        if len(about) != 1:
            failures.append(f"{pmice.local_name()} is about {len(about)} processes")
            continue
        if not cco.match(about[0], VOCAB.predicted, None):
            failures.append(f"{pmice.local_name()} target is not marked predicted")
    _verdict("writeback structure: profile PMICEs measure profile parts, "
             "cco PMICEs are about one predicted process", failures)


def test_10_kernel_recovery():
    failures = []
    kernel = ((0.2, 0.5, 0.3), (0.4, 0.4, 0.2), (0.25, 0.25, 0.5))
    config = GenConfig(days=20000, seed=99, kernel=kernel,
                       initial_location="location1")
    labels = [r.location for r in generate(config)]
    matrix = estimate_first_order(
        count_transitions(labels, StateSpace(LOCATIONS3))
    )
    for i in range(3):
        for j in range(3):
            got, want = matrix.p[i, j], kernel[i][j]
            if abs(got - want) > 0.02:
                failures.append(f"entry ({i},{j}): {got:.4f} vs {want}")
    _verdict("20000-step sample recovers the generating kernel (±0.02)", failures)
