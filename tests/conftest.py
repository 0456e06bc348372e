from datetime import datetime

import pytest

from kgmarkov.datagen import ObservationRow
from kgmarkov.ingest import ingest_rows
from kgmarkov.vocab import Vocab

LOCATIONS3 = ("location1", "location2", "location3")

# The running example used throughout the docs and tests: a 3-decimal
# day-to-day transition matrix for the three fishing locations, its fifth
# power (also 3-decimal), and the matching second-order matrix whose rows
# are keyed by (previous, current) pairs in row-major order.
EXAMPLE_P = [
    [0.375, 0.281, 0.344],
    [0.278, 0.500, 0.222],
    [0.355, 0.290, 0.355],
]

EXAMPLE_P_STEP5 = [
    [0.334, 0.363, 0.303],
    [0.334, 0.363, 0.303],
    [0.334, 0.363, 0.303],
]

EXAMPLE_P2 = [
    [0.364, 0.182, 0.455],
    [0.333, 0.444, 0.222],
    [0.273, 0.364, 0.364],
    [0.400, 0.500, 0.100],
    [0.222, 0.667, 0.111],
    [0.250, 0.250, 0.500],
    [0.364, 0.182, 0.455],
    [0.333, 0.222, 0.444],
    [0.455, 0.273, 0.273],
]

# First three days of the running example's observation log.
THREE_DAY_ROWS = (
    ObservationRow(datetime(2023, 4, 8, 12, 0, 0), "Day1", "location3"),
    ObservationRow(datetime(2023, 4, 9, 12, 0, 0), "Day2", "location1"),
    ObservationRow(datetime(2023, 4, 10, 12, 0, 0), "Day3", "location3"),
)


@pytest.fixture(scope="session")
def vocab():
    return Vocab()


@pytest.fixture
def three_day_graph():
    return ingest_rows(list(THREE_DAY_ROWS))


def one_string_per_key(graph) -> bool:
    """Each distinct key is one string object across the term dict's keys,
    the outer and inner keys of both indexes and every bucket entry."""
    kept = {k: k for k in graph._terms}
    strings = [key for index in (graph._spo, graph._pos) for outer, by_inner in index.items()
               for inner, bucket in by_inner.items() for key in (outer, inner, *bucket)]
    return all(kept[key] is key for key in strings)
