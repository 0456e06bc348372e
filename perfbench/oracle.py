"""Expected outputs derived without importing kgmarkov.

Every check here recomputes its answer from the documented formats and the
documented generator (splitmix64, one noon observation per day from
2023-04-08, uniform over three locations), so a defect in kgmarkov cannot
hide by also being in the oracle.  Each check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter
from datetime import datetime, timedelta
from math import floor

MASK64 = (1 << 64) - 1
LOCATIONS = ("location1", "location2", "location3")
START = datetime(2023, 4, 8, 12, 0, 0)
# row-sum tolerance the matrix file format documents for loaded files
FILE_ROW_SUM_TOL = 2e-3


def splitmix64(seed: int):
    """Endless stream of splitmix64 outputs."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def unit_stream(seed: int):
    """Floats in [0, 1) from the top 53 bits of each splitmix64 output."""
    for x in splitmix64(seed):
        yield (x >> 11) * 2.0**-53


def calib_ms(iterations: int = 100_000) -> float:
    """Wall time of a fixed pure-Python splitmix64 loop, in milliseconds."""
    stream = splitmix64(1)
    t0 = time.perf_counter()
    for _ in range(iterations):
        next(stream)
    return (time.perf_counter() - t0) * 1000.0


def expected_rows(days: int, seed: int) -> list[tuple[str, str, str]]:
    """(time, day label, location) per day, as the CSV must hold them."""
    units = unit_stream(seed)
    rows = []
    for day in range(days):
        when = START + timedelta(days=day)
        location = LOCATIONS[floor(next(units) * len(LOCATIONS))]
        rows.append((when.strftime("%Y-%m-%d %H:%M:%S"), f"Day{day + 1}", location))
    return rows


def expected_csv(rows) -> str:
    return "Time,Day,Location\n" + "".join(f"{t},{d},{loc}\n" for t, d, loc in rows)


def locations(rows) -> list[str]:
    return [loc for _, _, loc in rows]


def first_order_counts(rows) -> Counter:
    seq = locations(rows)
    return Counter(zip(seq, seq[1:]))


def second_order_counts(rows) -> Counter:
    seq = locations(rows)
    return Counter(zip(seq, seq[1:], seq[2:]))


def graph_triples(days: int, n_locations: int) -> int:
    """Triple count of an ingested graph: 13 per day, the day chain, 3 fixed, one per location."""
    return 13 * days + (days - 1) + 3 + n_locations


def row_counts(rows, state: str) -> tuple[list[int], int]:
    counts = first_order_counts(rows)
    states = sorted(set(locations(rows)))
    row = [counts[(state, to)] for to in states]
    return row, sum(row)


def token(label: str) -> str:
    m = re.fullmatch(r"location([0-9]+)", label)
    return m.group(1) if m else label


def writeback_triples(rows, state: str, model: str, link: bool = False) -> int:
    """How many triples one writeback adds to a graph that holds none yet."""
    row, total = row_counts(rows, state)
    nonzero = sum(1 for c in row if c)
    if model == "cco":
        return 2 + 3 * nonzero
    return 5 + 7 * len(row) + 3 * nonzero + (total if link else 0)


# ---------------------------------------------------------------- checks


def check_csv(text: str, rows) -> list[str]:
    if text != expected_csv(rows):
        return ["observation CSV differs from the splitmix64 oracle"]
    return []


def _local(iri) -> str:
    return iri.value.rsplit("/", 1)[-1]


def check_timeline(pairs, rows) -> list[str]:
    """pairs: (datetime, location IRI) as location_sequence returns them."""
    got = [(when.strftime("%Y-%m-%d %H:%M:%S"), _local(iri)) for when, iri in pairs]
    want = [(t, loc) for t, _, loc in rows]
    return [] if got == want else ["timeline differs from the CSV rows"]


def check_pairs(pairs, rows) -> list[str]:
    """Ordered (from, to) location IRIs, as transition_pairs returns them."""
    seq = locations(rows)
    got = [(_local(a), _local(b)) for a, b in pairs]
    return [] if got == list(zip(seq, seq[1:])) else ["transition pairs differ from the CSV rows"]


def check_transition_rows(table_rows, rows) -> list[str]:
    """Unordered transition query rows: the multiset of consecutive pairs."""
    got = Counter((_local(a), _local(b)) for a, b in table_rows)
    return [] if got == first_order_counts(rows) else ["transitions query rows differ from the CSV rows"]


_LINE_RE = re.compile(r'<[^<>"\s]+> <[^<>"\s]+> (?:<[^<>"\s]+>|"[^"\\]*"\^\^<[^<>"\s]+>) \.')
_VALUE_RE = re.compile(r'<[^>]*/([^/>]+)> <[^>]+> (?:<[^>]*/([^/>]+)>|"([^"]*)"\^\^<[^>]+>) \.')


def objects_of(text: str, predicate: str) -> dict[str, str]:
    """{subject local name: object local name or lexical form} over the
    lines whose predicate IRI ends in /predicate."""
    marker = f"/{predicate}> "
    out = {}
    pos = text.find(marker)
    while pos != -1:
        start = text.rfind("\n", 0, pos) + 1
        end = text.find("\n", pos)
        m = _VALUE_RE.fullmatch(text, start, end if end != -1 else len(text))
        if m:
            out[m.group(1)] = m.group(2) if m.group(2) is not None else m.group(3)
        pos = text.find(marker, pos + len(marker))
    return out


def check_nt(text: str, rows, triples: int) -> list[str]:
    """An N-Triples graph file: line count, canonical line shape and the timeline."""
    problems = []
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) - 1 != triples:
        problems.append(f"graph has {len(lines) - 1} lines, expected {triples}")
    bad = sum(1 for line in lines[:-1] if not _LINE_RE.fullmatch(line))
    if bad:
        problems.append(f"{bad} graph lines are not canonical N-Triples")
    places = objects_of(text, "spatial_part_of")
    times = objects_of(text, "has_datetime_value")
    want_places = {f"trackPoint_d{i}": loc for i, (_, _, loc) in enumerate(rows, start=1)}
    want_times = {f"tInstant_d{i}": t.replace(" ", "T") for i, (t, _, _) in enumerate(rows, start=1)}
    if places != want_places or times != want_times:
        problems.append("graph timeline differs from the CSV rows")
    return problems


def check_writeback_nt(text: str, rows, state: str, model: str, day: int = 0) -> list[str]:
    """Written-back counts, total and count/total probabilities in N-Triples text."""
    row, total = row_counts(rows, state)
    states = sorted(set(locations(rows)))
    s = token(state)
    ints = objects_of(text, "has_integer_value")
    decs = objects_of(text, "has_decimal_value")
    problems = []
    for to, count in zip(states, row):
        j = token(to)
        if model == "profile":
            if ints.get(f"{s}to{j}TransitionCount") != str(count):
                problems.append(f"count {state}->{to} is not {count}")
            pmice = f"markovPMICE_{s}to{j}"
        else:
            pmice = f"markovPMICE_{s}to{j}_d{day + 1}"
        value = decs.get(pmice)
        if count == 0:
            if value is not None:
                problems.append(f"unexpected probability for {state}->{to}")
        elif value is None or float(value) != count / total:
            problems.append(f"probability {state}->{to} is not {count}/{total}")
    if model == "profile" and ints.get(f"total{s}toXTransitions") != str(total):
        problems.append(f"total for {state} is not {total}")
    return problems


def check_distribution(pairs, rows, state: str) -> list[str]:
    """(state, probability) pairs, as read_probabilities gives them."""
    row, total = row_counts(rows, state)
    states = sorted(set(locations(rows)))
    want = [(to, c / total) for to, c in zip(states, row)]
    return [] if list(pairs) == want else [f"read-back distribution for {state} is not count/total"]


def check_matrix_json(text: str, rows, order: int) -> list[str]:
    """An estimate output file: states, counts and count/total rows."""
    data = json.loads(text)
    states = sorted(set(locations(rows)))
    n = len(states)
    if data.get("order") != order or data.get("states") != states:
        return ["matrix file has the wrong order or states"]
    if order == 1:
        counts = first_order_counts(rows)
        keys = [(a,) for a in states]
    else:
        counts = second_order_counts(rows)
        keys = [(a, b) for a in states for b in states]
    want = [[counts[key + (c,)] for c in states] for key in keys]
    if data.get("counts") != want:
        return ["matrix counts differ from a direct count of consecutive locations"]
    for i, row in enumerate(want):
        total = sum(row)
        p = [c / total for c in row] if total else [0.0] * n
        if data["p"][i] != p:
            return [f"matrix row {i} is not count/total"]
    return []


def check_dot(text: str, rows, day: int) -> list[str]:
    """A day fragment rendering: 17 edges, the day's location and time."""
    _, _, loc = rows[day - 1]
    when = rows[day - 1][0].replace(" ", "T")
    problems = []
    if text.count(" -> ") != 17:
        problems.append(f"day {day} rendering has {text.count(' -> ')} edges, expected 17")
    if f'/trackPoint_d{day}" -> "http://example.org/data/{loc}"' not in text:
        problems.append(f"day {day} rendering misses its location {loc}")
    if f'[label="{when}", shape=box]' not in text:
        problems.append(f"day {day} rendering misses its time {when}")
    return problems


def random_matrix(n: int, seed: int) -> list[list[float]]:
    """A dense row-stochastic n x n matrix from a splitmix64 stream."""
    units = unit_stream(seed)
    p = []
    for _ in range(n):
        weights = [0.5 + next(units) for _ in range(n)]
        total = sum(weights)
        p.append([w / total for w in weights])
    return p


def matrix_file(states, p) -> str:
    """The documented first-order matrix file format, without counts."""
    return json.dumps({
        "format": 1,
        "order": 1,
        "states": list(states),
        "p": p,
        "row_status": ["observed"] * len(states),
    }, indent=2) + "\n"


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_power(p, steps: int):
    n = len(p)
    result = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        result = mat_mul(result, p)
    return result


def stationary(p, iterations: int = 200) -> list[float]:
    v = [1.0 / len(p)] * len(p)
    for _ in range(iterations):
        v = [sum(v[i] * p[i][j] for i in range(len(p))) for j in range(len(p))]
    return v


def check_power_output(text: str, states, want, tol: float) -> list[str]:
    """power output: the expected states, rows summing to 1 within the file
    tolerance, and each entry within tol of the oracle's matrix."""
    data = json.loads(text)
    if data.get("states") != list(states):
        return ["power output has the wrong states"]
    problems = []
    for i, row in enumerate(data["p"]):
        if abs(sum(row) - 1.0) > FILE_ROW_SUM_TOL:
            problems.append(f"power row {i} sums to {sum(row)}")
        if any(abs(x - y) > tol for x, y in zip(row, want[i])):
            problems.append(f"power row {i} differs from the oracle")
    return problems[:3]


def check_predict_output(text: str, states, want, tol: float) -> list[str]:
    """predict output: one "state probability" line per state, 3 decimals."""
    lines = text.splitlines()
    if [line.split(" ")[0] for line in lines] != list(states):
        return ["predict output has the wrong states"]
    values = [float(line.split(" ")[1]) for line in lines]
    if any(abs(x - y) > tol + 5e-4 for x, y in zip(values, want)):
        return ["predict output differs from the oracle"]
    return []
