"""Deterministic synthetic observation data.

One observation per day at a fixed time of day, with the location either
drawn uniformly or driven by a first-order transition kernel.  All draws
come from a splitmix64 stream seeded by the caller, so a (days, seed,
kernel, initial location) tuple always produces byte-identical output.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import datetime, timedelta
from math import floor
from typing import Optional, Sequence

from .errors import ToolkitError

LOCATIONS = ("location1", "location2", "location3")

DEFAULT_START = datetime(2023, 4, 8, 12, 0, 0)
DEFAULT_SEED = 20230408

CSV_HEADER = ("Time", "Day", "Location")
TIME_FORMAT = "%Y-%m-%d %H:%M:%S"

_MASK64 = (1 << 64) - 1


class DatagenError(ToolkitError):
    """Bad generation parameters or malformed observation CSV."""


class SplitMix64:
    """The splitmix64 generator: 64-bit state, one output per step."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """A float in [0, 1) built from the top 53 bits of one output."""
        return (self.next_uint64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class ObservationRow:
    time: datetime
    day_label: str
    location: str


@dataclass(frozen=True)
class GenConfig:
    days: int
    seed: int = DEFAULT_SEED
    kernel: Optional[tuple[tuple[float, ...], ...]] = None
    initial_location: Optional[str] = None

    def __post_init__(self):
        if self.days < 1:
            raise DatagenError(f"days must be at least 1, got {self.days}")
        if self.initial_location is not None and self.initial_location not in LOCATIONS:
            raise DatagenError(f"unknown initial location: {self.initial_location!r}")
        if self.kernel is not None:
            kernel = tuple(tuple(float(x) for x in row) for row in self.kernel)
            n = len(LOCATIONS)
            if len(kernel) != n or any(len(row) != n for row in kernel):
                raise DatagenError(f"kernel must be {n}x{n}")
            for i, row in enumerate(kernel):
                if any(x < 0.0 for x in row):
                    raise DatagenError(f"kernel row {i} has a negative entry")
                if abs(sum(row) - 1.0) > 1e-12:
                    raise DatagenError(f"kernel row {i} does not sum to 1")
            object.__setattr__(self, "kernel", kernel)


def _sample_uniform(rng: SplitMix64) -> int:
    return floor(rng.next_unit() * len(LOCATIONS))


def _sample_row(rng: SplitMix64, row: Sequence[float]) -> int:
    u = rng.next_unit()
    acc = 0.0
    for k, p in enumerate(row):
        acc += p
        if u <= acc:
            return k
    return len(row) - 1


def generate(config: GenConfig) -> list[ObservationRow]:
    """Produce one row per day, deterministically from the config."""
    rng = SplitMix64(config.seed)
    rows = []
    current: Optional[int] = (
        LOCATIONS.index(config.initial_location)
        if config.initial_location is not None
        else None
    )
    for day in range(config.days):
        if day == 0 and current is not None:
            idx = current
        elif config.kernel is not None and current is not None:
            idx = _sample_row(rng, config.kernel[current])
        else:
            idx = _sample_uniform(rng)
        current = idx
        rows.append(
            ObservationRow(
                time=DEFAULT_START + timedelta(days=day),
                day_label=f"Day{day + 1}",
                location=LOCATIONS[idx],
            )
        )
    return rows


def rows_to_csv(rows: Sequence[ObservationRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([row.time.strftime(TIME_FORMAT), row.day_label, row.location])
    return buf.getvalue()


def rows_from_csv(text: str) -> list[ObservationRow]:
    """Parse and validate observation CSV; inverse of rows_to_csv.

    Rows must carry sequential day labels starting at Day1, strictly
    increasing times, and known location names.  Blank lines are skipped.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        records = list(reader)
    except csv.Error as exc:
        raise DatagenError(f"CSV line {reader.line_num}: {exc}") from None
    if not records:
        raise DatagenError("empty CSV: missing header")
    if tuple(records[0]) != CSV_HEADER:
        raise DatagenError(f"bad CSV header: {records[0]!r}")
    rows: list[ObservationRow] = []
    for record_no, record in enumerate(records[1:], start=1):
        if not record:
            continue
        if len(record) != 3:
            raise DatagenError(f"row {record_no}: expected 3 fields, got {len(record)}")
        time_text, day_label, location = record
        try:
            time = datetime.strptime(time_text, TIME_FORMAT)
        except ValueError:
            raise DatagenError(f"row {record_no}: bad time: {time_text!r}") from None
        expected_label = f"Day{len(rows) + 1}"
        if day_label != expected_label:
            raise DatagenError(
                f"row {record_no}: expected label {expected_label!r}, got {day_label!r}"
            )
        if location not in LOCATIONS:
            raise DatagenError(f"row {record_no}: unknown location: {location!r}")
        if rows and time <= rows[-1].time:
            raise DatagenError(f"row {record_no}: time does not increase")
        rows.append(ObservationRow(time, day_label, location))
    if not rows:
        raise DatagenError("CSV contains no observation rows")
    return rows
