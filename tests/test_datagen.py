import sys
from datetime import datetime, timedelta
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgmarkov.datagen import (
    DEFAULT_SEED,
    DEFAULT_START,
    LOCATIONS,
    DatagenError,
    GenConfig,
    ObservationRow,
    SplitMix64,
    generate,
    rows_from_csv,
    rows_to_csv,
)


class TestSplitMix64:
    def test_reference_vectors_for_seed_zero(self):
        # published reference outputs for the splitmix64 algorithm
        rng = SplitMix64(0)
        assert [rng.next_uint64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_streams_are_deterministic_per_seed(self):
        a = SplitMix64(99)
        b = SplitMix64(99)
        assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]
        c = SplitMix64(100)
        assert [SplitMix64(99).next_uint64()] != [c.next_uint64()]

    def test_unit_draws_stay_inside_the_half_open_interval(self):
        rng = SplitMix64(7)
        draws = [rng.next_unit() for _ in range(5000)]
        assert min(draws) >= 0.0
        assert max(draws) < 1.0

    def test_unit_draw_uses_53_bits(self):
        # the largest possible draw is (2^53 - 1) / 2^53, still below 1.0
        assert ((2**53 - 1) / 2**53) < 1.0
        rng = SplitMix64(0)
        first = rng.next_unit()
        assert first == (0xE220A8397B1DCDAF >> 11) * 2.0**-53


class TestGenConfig:
    @pytest.mark.parametrize("days", [0, -5])
    def test_rejects_nonpositive_days(self, days):
        with pytest.raises(DatagenError):
            GenConfig(days=days)

    def test_rejects_unknown_initial_location(self):
        with pytest.raises(DatagenError):
            GenConfig(days=1, initial_location="atlantis")

    @pytest.mark.parametrize(
        "kernel",
        [
            ((0.5, 0.5),),
            ((0.5, 0.5, 0.0), (0.5, 0.5, 0.0)),
            ((0.5, 0.6, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            ((-0.1, 0.6, 0.5), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ],
    )
    def test_rejects_bad_kernels(self, kernel):
        with pytest.raises(DatagenError):
            GenConfig(days=1, kernel=kernel)

    def test_kernel_is_normalized_to_tuples(self):
        config = GenConfig(days=1, kernel=[[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.25, 0.25, 0.5]])
        assert isinstance(config.kernel, tuple)
        assert all(isinstance(row, tuple) for row in config.kernel)


class TestGenerate:
    def test_single_day(self):
        [row] = generate(GenConfig(days=1, seed=3))
        assert row.time == DEFAULT_START
        assert row.day_label == "Day1"
        assert row.location in LOCATIONS

    def test_hundred_day_run_shape(self):
        rows = generate(GenConfig(days=100))
        assert len(rows) == 100
        assert rows[0].time == datetime(2023, 4, 8, 12, 0, 0)
        assert rows[-1].time == datetime(2023, 7, 16, 12, 0, 0)
        assert [r.day_label for r in rows] == [f"Day{i}" for i in range(1, 101)]
        assert all(
            b.time - a.time == timedelta(days=1) for a, b in zip(rows, rows[1:])
        )

    def test_same_config_reproduces_rows(self):
        assert generate(GenConfig(days=50, seed=11)) == generate(GenConfig(days=50, seed=11))

    def test_different_seeds_differ(self):
        a = generate(GenConfig(days=50, seed=1))
        b = generate(GenConfig(days=50, seed=2))
        assert [r.location for r in a] != [r.location for r in b]

    def test_uniform_sampling_reaches_every_location(self):
        rows = generate(GenConfig(days=300, seed=5))
        assert {r.location for r in rows} == set(LOCATIONS)

    def test_initial_location_pins_the_first_day(self):
        rows = generate(GenConfig(days=5, seed=9, initial_location="location2"))
        assert rows[0].location == "location2"

    def test_identity_kernel_freezes_the_walk(self):
        identity = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        rows = generate(
            GenConfig(days=20, seed=4, kernel=identity, initial_location="location3")
        )
        assert all(r.location == "location3" for r in rows)

    def test_cyclic_kernel_rotates_deterministically(self):
        cycle = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        rows = generate(
            GenConfig(days=6, seed=4, kernel=cycle, initial_location="location1")
        )
        assert [r.location for r in rows] == [
            "location1", "location2", "location3",
            "location1", "location2", "location3",
        ]

    def test_kernel_with_unpinned_start_samples_uniformly_first(self):
        kernel = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        rows = generate(GenConfig(days=2, seed=8, kernel=kernel))
        follow = {"location1": "location2", "location2": "location3", "location3": "location1"}
        assert rows[1].location == follow[rows[0].location]


class TestCsv:
    def test_round_trip(self):
        rows = generate(GenConfig(days=25, seed=42))
        assert rows_from_csv(rows_to_csv(rows)) == rows

    def test_exact_csv_text(self):
        rows = [
            ObservationRow(datetime(2023, 4, 8, 12, 0, 0), "Day1", "location3"),
            ObservationRow(datetime(2023, 4, 9, 12, 0, 0), "Day2", "location1"),
        ]
        assert rows_to_csv(rows) == (
            "Time,Day,Location\n"
            "2023-04-08 12:00:00,Day1,location3\n"
            "2023-04-09 12:00:00,Day2,location1\n"
        )

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "missing header"),
            ("When,Day,Location\n", "bad CSV header"),
            ("Time,Day,Location\n", "no observation rows"),
            ("Time,Day,Location\nnot-a-time,Day1,location1\n", "bad time"),
            ("Time,Day,Location\n2023-04-08 12:00:00,Day2,location1\n", "Day1"),
            (
                "Time,Day,Location\n2023-04-08 12:00:00,Day1,location1\n"
                "2023-04-09 12:00:00,Day3,location1\n",
                "Day2",
            ),
            ("Time,Day,Location\n2023-04-08 12:00:00,Day1,locationX\n", "unknown location"),
            (
                "Time,Day,Location\n2023-04-08 12:00:00,Day1,location1\n"
                "2023-04-08 12:00:00,Day2,location1\n",
                "does not increase",
            ),
            ("Time,Day,Location\n2023-04-08 12:00:00,Day1\n", "3 fields"),
            (
                "Time,Day,Location\n2023-04-08 12:00:00,Day1,location1\n\n"
                "2023-04-09 12:00:00,Day3,location1\n",
                "row 3: expected label 'Day2', got 'Day3'",
            ),
        ],
    )
    def test_rejects_malformed_csv(self, text, fragment):
        with pytest.raises(DatagenError) as err:
            rows_from_csv(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("field,message", [
        ("x" * 200_000, "CSV line 2: field larger than field limit"),
        ("loc\x00ation1", "CSV line 2: line contains NUL" if sys.version_info < (3, 11)
         else "row 1: unknown location"),
    ], ids=["long", "nul"])
    def test_a_field_the_csv_reader_refuses_is_a_datagen_error(self, field, message):
        """The csv module refuses a field past its 131,072-character limit,
        and before Python 3.11 a NUL byte (3.11 reads it, and the location
        check refuses it)."""
        with pytest.raises(DatagenError, match=message):
            rows_from_csv(f"Time,Day,Location\n2023-04-08 12:00:00,Day1,{field}\n")

    def test_blank_lines_are_skipped(self):
        rows = generate(GenConfig(days=4, seed=42))
        lines = rows_to_csv(rows).split("\n")
        lines.insert(2, "")
        lines.insert(4, "")
        assert rows_from_csv("\n".join(lines)) == rows

    def test_reference_csv_matches_the_default_run(self):
        text = resources.files("kgmarkov").joinpath(
            "data", "reference_observations.csv"
        ).read_text()
        assert rows_from_csv(text) == generate(GenConfig(days=100, seed=DEFAULT_SEED))

    @given(st.integers(1, 60), st.integers(0, 2**64 - 1))
    @settings(max_examples=40)
    def test_round_trip_for_arbitrary_runs(self, days, seed):
        rows = generate(GenConfig(days=days, seed=seed))
        assert rows_from_csv(rows_to_csv(rows)) == rows
