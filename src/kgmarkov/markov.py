"""Discrete-time Markov chain estimation and prediction.

An order-k chain has one row per history of its last k states, indexed by
the history's state indexes read as base-n digits: state i is first-order
row i, the pair (i, j) is second-order row i * n + j.  Rows whose history
was never observed leaving are flagged ``unobserved`` and left as zeros
rather than silently made uniform; powering and prediction refuse to touch
them.

Counts, matrices and distributions keep their rows as tuples of Python ints
or floats, so counting, estimation, the file format and one-step prediction
never import numpy.  numpy loads only to multiply matrices in
``matrix_power``, or when a caller reads ``ChainMatrix.p``, the one numpy
view: a read-only array of the rows, built at its first read.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cached_property
from itertools import zip_longest
from numbers import Real
from typing import Optional, Sequence

from .errors import ToolkitError

OBSERVED = "observed"
UNOBSERVED = "unobserved"

DEFAULT_ROW_SUM_TOL = 1e-9
# matrices read back from files may carry published 3-decimal rounding
LOADED_ROW_SUM_TOL = 2e-3

FILE_FORMAT = 1
ORDERS = (1, 2)

_ENTRY_SLACK = 1e-12
_INT64_MAX = 2**63 - 1


def _frozen(rows):
    """``rows`` as a read-only float64 numpy array; the only place this module imports numpy."""
    import numpy
    array = numpy.array(rows, dtype="float64")
    array.flags.writeable = False
    return array


class MarkovError(ToolkitError):
    """Invalid chain data or an operation the data cannot support."""


def _check_numbers(rows, what: str) -> None:
    if not all(isinstance(x, Real) for row in rows for x in row):
        raise MarkovError(f"{what} entries must be numbers")


def _floats(rows, what: str) -> tuple[tuple[float, ...], ...]:
    try:
        return tuple(tuple(map(float, row)) for row in rows)
    except OverflowError:  # an int past the float range
        raise MarkovError(f"{what} entries must be finite") from None


def _tolerance(value, name: str) -> float:
    """``value`` as a float; a NaN tolerance would admit any mass, and one below 0 refuse all."""
    if not (isinstance(value, Real) and 0 <= value <= sys.float_info.max):
        raise MarkovError(f"{name} must be a finite non-negative number, not {value!r}")
    return float(value)


def _check_mass(rows, tol: float, what: str, numbers=None) -> None:
    """Refuse the first of ``rows`` not finite, in [0, 1] and summing to 1 within ``tol``."""
    if not all(math.isfinite(x) for row in rows for x in row):
        raise MarkovError(f"{what} entries must be finite")
    for i, row in enumerate(rows):
        outside = any(x < -_ENTRY_SLACK or x > 1.0 + tol + _ENTRY_SLACK for x in row)
        # fsum, not sum(), which Python 3.12 changed to compensated summation
        total = math.fsum(row)
        if outside or abs(total - 1.0) > tol:
            where = what if numbers is None else f"{what}: row {numbers[i]}"
            raise MarkovError(f"{where} has an entry outside [0, 1]" if outside
                              else f"{where} sums to {total}, not 1")


class StateSpace:
    """An ordered, duplicate-free set of state labels."""

    def __init__(self, states: Sequence[str]):
        states = tuple(states)
        if not states:
            raise MarkovError("state space must not be empty")
        if len(set(states)) != len(states):
            raise MarkovError("state space contains duplicate labels")
        if any(not isinstance(s, str) or not s for s in states):
            raise MarkovError("state labels must be non-empty strings")
        self.states = states
        self._index = {s: i for i, s in enumerate(states)}

    @classmethod
    def from_observations(cls, labels: Sequence[str]) -> "StateSpace":
        """The distinct labels seen, in sorted order."""
        return cls(tuple(sorted(set(labels))))

    def index(self, state: str) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise MarkovError(f"unknown state: {state!r}") from None

    def __len__(self):
        return len(self.states)

    def __eq__(self, other):
        if not isinstance(other, StateSpace):
            return NotImplemented
        return self.states == other.states

    def __repr__(self):
        return f"StateSpace({list(self.states)!r})"


class _HistoryRows:
    """A table over a state space with one row per history of ``order`` states."""

    def __init__(self, space: StateSpace, order: int):
        if type(order) is not int or order not in ORDERS:
            raise MarkovError(f"unsupported chain order: {order!r}")
        self.space = space
        self.order = order

    def _table(self, rows, kind: str):
        shape = (len(self.space) ** self.order, len(self.space))
        # numpy's shape, but a ragged table shows each width, and a non-sequence row None
        got = (len(rows), *dict.fromkeys(len(row) if hasattr(row, "__len__") else None
                                         for row in rows)) if hasattr(rows, "__len__") else ()
        if got != shape:
            raise MarkovError(f"order-{self.order} {kind} must have shape {shape}, got {got}")
        _check_numbers(rows, f"order-{self.order} {kind}")
        return rows

    def row_index(self, *history: str) -> int:
        """The row of a history, oldest state first, read as base-n digits."""
        if len(history) != self.order:
            raise MarkovError(f"an order-{self.order} chain needs a history of "
                              f"{self.order} state(s), got {len(history)}")
        n = len(self.space)
        row = 0
        for state in history:
            row = row * n + self.space.index(state)
        return row


class ChainCounts(_HistoryRows):
    """How often each state followed each history of ``order`` states, as ``rows`` of Python
    ints."""

    def __init__(self, space: StateSpace, matrix, order: int):
        super().__init__(space, order)
        what = f"order-{self.order} count matrix"
        rows = self._table(matrix, "count matrix")
        if not all(x % 1 == 0 for row in rows for x in row):
            raise MarkovError(f"{what} entries must be integers")
        if any(x < 0 for row in rows for x in row):
            raise MarkovError(f"{what} entries must be non-negative")
        self.rows = tuple(tuple(map(int, row)) for row in rows)
        # summed as Python ints, which neither overflow nor wrap as int64 does
        for i, row in enumerate(self.rows):
            if sum(row) > _INT64_MAX:
                raise MarkovError(f"{what}: the total of row {i} does not fit in int64")

    def __eq__(self, other):
        if not isinstance(other, ChainCounts):
            return NotImplemented
        return (self.order == other.order and self.space == other.space
                and self.rows == other.rows)


def _count(labels: Sequence[str], space: Optional[StateSpace], order: int) -> ChainCounts:
    if space is None:
        space = StateSpace.from_observations(labels)
    n = len(space)
    rows = n ** order
    matrix = [[0] * n for _ in range(rows)]
    history = 0
    for t, label in enumerate(labels):
        state = space.index(label)
        if t >= order:
            matrix[history][state] += 1
        # keep only the last `order` states: drop the oldest base-n digit
        history = (history * n + state) % rows
    return ChainCounts(space, matrix, order)


def count_transitions(labels: Sequence[str], space: Optional[StateSpace] = None) -> ChainCounts:
    """Count consecutive pairs in an observed label sequence."""
    return _count(labels, space, 1)


def count_pair_transitions(labels: Sequence[str], space: Optional[StateSpace] = None) -> ChainCounts:
    """Count consecutive triples, keyed by their leading state pair."""
    return _count(labels, space, 2)


class ChainMatrix(_HistoryRows):
    """A matrix with one row per history of ``order`` states.  Every row is stochastic, or all
    zero for a history never observed leaving, which ``row_status`` marks unobserved.  ``rows``
    holds the floats; ``p`` is the same table as a read-only float64 numpy array."""

    def __init__(self, space: StateSpace, p, order: int,
                 row_sum_tol: float = DEFAULT_ROW_SUM_TOL):
        super().__init__(space, order)
        self.rows = _floats(self._table(p, "matrix"), f"order-{self.order} matrix")
        self.row_sum_tol = _tolerance(row_sum_tol, "row_sum_tol")
        self.row_status = tuple(OBSERVED if any(row) else UNOBSERVED for row in self.rows)
        numbers = [i for i, status in enumerate(self.row_status) if status == OBSERVED]
        _check_mass([self.rows[i] for i in numbers], self.row_sum_tol,
                    f"order-{self.order} matrix", numbers)

    p = cached_property(lambda self: _frozen(self.rows))

    def probability(self, *states: str) -> float:
        """The probability that the last state follows the history the others form."""
        return self.rows[self.row_index(*states[:-1])][self.space.index(states[-1])]

    def row(self, *history: str) -> tuple[float, ...]:
        return self.rows[self.row_index(*history)]


def _estimate(counts: ChainCounts, order: int) -> ChainMatrix:
    if counts.order != order:
        raise MarkovError(f"order-{order} estimation needs order-{order} counts, "
                          f"got order {counts.order}")
    # numpy's int64 true division, bit for bit: the exact total rounded once, then divided
    totals = [float(sum(row)) for row in counts.rows]
    p = [[float(c) / t if t else 0.0 for c in row] for row, t in zip(counts.rows, totals)]
    return ChainMatrix(counts.space, p, order)


def estimate_first_order(counts: ChainCounts) -> ChainMatrix:
    """Divide each count row by its total."""
    return _estimate(counts, 1)


def estimate_second_order(counts: ChainCounts) -> ChainMatrix:
    return _estimate(counts, 2)


def _product(a, b):
    """``a @ b`` summed over k = 0, 1, ... in turn.  Element-wise multiplies and
    adds round alike on every IEEE-754 machine; ``@`` goes to a BLAS kernel
    chosen per CPU, whose fused multiply-adds change the last bits."""
    result = a[:, 0, None] * b[0]
    for k in range(1, len(b)):
        result += a[:, k, None] * b[k]
    return result


def matrix_power(matrix: ChainMatrix, steps: int) -> ChainMatrix:
    """The t-step transition matrix, by binary exponentiation.

    Zero steps gives the identity.  Matrices with unobserved rows cannot be
    powered because those rows would poison every product.  Products sum in
    a fixed order, so the result's bytes do not depend on the CPU.
    """
    if matrix.order != 1:
        raise MarkovError(f"only first-order chains can be powered, got order {matrix.order}")
    if type(steps) is not int:
        raise MarkovError(f"steps must be an integer, not {steps!r}")
    if steps < 0:
        raise MarkovError("steps must be non-negative")
    bad = [matrix.space.states[i] for i, s in enumerate(matrix.row_status) if s == UNOBSERVED]
    if bad:
        raise MarkovError(f"cannot power a matrix with unobserved rows: {', '.join(bad)}")
    # rows off 1 by e (plus each float product's rounding) drift by up to
    # (1 + e)^t - 1 in t steps; from 1 on, a row drained to zero would pass
    n = len(matrix.rows)
    off = max(abs(math.fsum(row) - 1.0) for row in matrix.rows) + n * sys.float_info.epsilon
    growth = steps * math.log1p(off)
    if growth >= math.log(2):
        raise MarkovError(f"cannot power this matrix {steps} steps: its row sums are off 1 "
                          f"by up to {off:.3g}, so a row could drain to zero")
    result = _frozen([[float(i == j) for j in range(n)] for i in range(n)])
    base = _frozen(matrix.rows)
    exponent = steps
    while exponent:
        if exponent & 1:
            result = _product(result, base)
        base = _product(base, base)
        exponent >>= 1
    return ChainMatrix(matrix.space, result.tolist(), 1, row_sum_tol=math.expm1(growth) + 1e-12)


class Distribution:
    """A probability mass over the state space, as ``values``, a Python float per state."""

    def __init__(self, space: StateSpace, mass, tol: float = DEFAULT_ROW_SUM_TOL):
        self.space = space
        self.tol = _tolerance(tol, "tol")
        got = (len(mass),) if hasattr(mass, "__len__") else ()
        if got != (len(space),):
            raise MarkovError(f"mass must have shape ({len(space)},), got {got}")
        _check_numbers([mass], "distribution")
        self.values = _floats([mass], "distribution")[0]
        _check_mass([self.values], self.tol, "distribution")

    def probability(self, state: str) -> float:
        return self.values[self.space.index(state)]

    def as_pairs(self) -> list[tuple[str, float]]:
        return list(zip(self.space.states, self.values))


def _predict_row(matrix: ChainMatrix, history: tuple[str, ...], steps: int = 1) -> Distribution:
    row = matrix.row_index(*history)
    if matrix.row_status[row] == UNOBSERVED:
        shown = ", ".join(repr(state) for state in history)
        raise MarkovError(f"transitions leaving ({shown}) were never observed; cannot predict")
    powered = matrix if steps == 1 else matrix_power(matrix, steps)
    return Distribution(matrix.space, powered.rows[row], tol=powered.row_sum_tol)


def predict(matrix: ChainMatrix, current: str, steps: int = 1) -> Distribution:
    """Where the chain will be after a number of steps from a known state."""
    if type(steps) is not int:
        raise MarkovError(f"steps must be an integer, not {steps!r}")
    if steps < 1:
        raise MarkovError("steps must be at least 1")
    return _predict_row(matrix, (current,), steps)


def predict_second_order(matrix: ChainMatrix, prev: str, current: str) -> Distribution:
    """Next-state distribution given the last two states."""
    return _predict_row(matrix, (prev, current))


def format_probability(value: float) -> str:
    """Fixed three-decimal display form used everywhere probabilities print."""
    return f"{float(value):.3f}"


def _file_strings(data: dict, field: str) -> list:
    """A matrix file's field, refused unless it is a JSON list of strings."""
    value = data.get(field)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise MarkovError(f"matrix file: {field} must be a list of strings")
    return value


def _is_number(x) -> bool:
    # bool is a subclass of int, json reads NaN and Infinity as floats, and an
    # int past the float range would overflow (compared exactly, not converted)
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _file_table(data: dict, field: str) -> list:
    """A matrix file's field, refused unless it is a JSON list of
    equal-length lists of numbers."""
    rows = data.get(field)
    if (not isinstance(rows, list)
            or not all(isinstance(row, list) and all(map(_is_number, row)) for row in rows)
            or len({len(row) for row in rows}) > 1):
        raise MarkovError(f"matrix file: {field} must be a list of equal-length lists of numbers")
    return rows


def _check_counts_agree(matrix: ChainMatrix, counts: ChainCounts) -> None:
    """Refuse a file whose counts would give another p than the one it holds."""
    expected = _estimate(counts, matrix.order)
    for i, (want, got) in enumerate(zip(expected.row_status, matrix.row_status)):
        if want != got:
            raise MarkovError(f"matrix file: row {i} is {got}, "
                              f"but its counts total {sum(counts.rows[i])}")
    for i, (want, got) in enumerate(zip(expected.rows, matrix.rows)):
        if any(abs(a - b) > LOADED_ROW_SUM_TOL for a, b in zip(want, got)):
            raise MarkovError(f"matrix file: row {i} of p disagrees with its counts")


def dumps_matrix(matrix: ChainMatrix, counts: Optional[ChainCounts] = None) -> str:
    """The canonical on-disk JSON text of a matrix, optionally with its
    counts (stable byte-for-byte)."""
    if not isinstance(matrix, ChainMatrix):
        raise MarkovError(f"not a transition matrix: {type(matrix).__name__}")
    out = {
        "format": FILE_FORMAT,
        "order": matrix.order,
        "states": list(matrix.space.states),
        "p": matrix.rows,
        "row_status": list(matrix.row_status),
    }
    if counts is not None:
        if counts.order != matrix.order:
            raise MarkovError("counts do not match the matrix order")
        if counts.space != matrix.space:
            raise MarkovError("counts and matrix use different state spaces")
        out["counts"] = counts.rows
    return json.dumps(out, indent=2) + "\n"


def loads_matrix(text: str) -> tuple[ChainMatrix, Optional[ChainCounts]]:
    """Rebuild a matrix, and the counts stored alongside it if the file
    carries them, from the file text.

    The row sum tolerance, LOADED_ROW_SUM_TOL, is loose enough for tables
    published with three-decimal rounding.
    """
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MarkovError(f"matrix file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MarkovError("matrix file must contain a JSON object")
    if type(data.get("format")) is not int or data["format"] != FILE_FORMAT:
        raise MarkovError(f"matrix file: format must be the integer {FILE_FORMAT}, "
                          f"not {data.get('format')!r}")
    space = StateSpace(_file_strings(data, "states"))
    listed = _file_strings(data, "row_status")
    matrix = ChainMatrix(space, _file_table(data, "p"), data.get("order"),
                         row_sum_tol=LOADED_ROW_SUM_TOL)
    for i, (got, want) in enumerate(zip_longest(listed, matrix.row_status)):
        if got != want:
            raise MarkovError(f"matrix file: row_status[{i}] is {got!r}, but p makes it {want!r}")
    if "counts" not in data:
        return matrix, None
    counts = ChainCounts(space, _file_table(data, "counts"), matrix.order)
    _check_counts_agree(matrix, counts)
    return matrix, counts
