import json
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgmarkov.markov import (
    LOADED_ROW_SUM_TOL,
    OBSERVED,
    UNOBSERVED,
    ChainCounts,
    ChainMatrix,
    Distribution,
    MarkovError,
    StateSpace,
    count_pair_transitions,
    count_transitions,
    dumps_matrix,
    estimate_first_order,
    estimate_second_order,
    format_probability,
    loads_matrix,
    matrix_power,
    predict,
    predict_second_order,
)

from conftest import EXAMPLE_P, EXAMPLE_P2, LOCATIONS3
from oracles import naive_power, rational_estimate, row_loop_estimate

SPACE3 = StateSpace(LOCATIONS3)
AB = StateSpace(["a", "b"])


# JSON text for any value: what json.dumps writes (integers past the float
# range, NaN, Infinity and nested containers included), an exponent past the
# float range, and nesting deeper than the decoder's recursion limit
_ANY_JSON_TEXT = st.one_of(
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400)
        | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                   max_size=3),
        max_leaves=10,
    ).map(json.dumps),
    st.sampled_from(["1e999", "-1e999", "[" * 200_000]),
)


def example_matrix():
    return ChainMatrix(SPACE3, EXAMPLE_P, 1)


def example_second_order():
    return ChainMatrix(SPACE3, EXAMPLE_P2, 2, row_sum_tol=LOADED_ROW_SUM_TOL)


class TestStateSpace:
    def test_preserves_given_order(self):
        s = StateSpace(("b", "a"))
        assert s.states == ("b", "a")
        assert s.index("a") == 1

    def test_from_observations_sorts_distinct_labels(self):
        s = StateSpace.from_observations(["z", "a", "z", "m"])
        assert s.states == ("a", "m", "z")

    @pytest.mark.parametrize("bad", [(), ("a", "a"), ("a", ""), ("a", 3)])
    def test_rejects_bad_state_lists(self, bad):
        with pytest.raises(MarkovError):
            StateSpace(bad)

    def test_unknown_state_lookup(self):
        with pytest.raises(MarkovError, match="nowhere"):
            SPACE3.index("nowhere")


class TestCounting:
    def test_counts_a_short_sequence_by_hand(self):
        c = count_transitions(["a", "b", "a", "a", "b"])
        assert c.space.states == ("a", "b")
        assert c.rows == ((1, 2), (1, 0))

    def test_single_observation_yields_zero_counts(self):
        c = count_transitions(["a"], StateSpace(("a", "b")))
        assert c.rows == ((0, 0), (0, 0))

    def test_total_is_sequence_length_minus_one(self):
        labels = ["location1", "location2", "location2", "location3", "location1"]
        assert sum(map(sum, count_transitions(labels).rows)) == len(labels) - 1

    def test_unknown_label_is_named_in_the_error(self):
        with pytest.raises(MarkovError, match="location9"):
            count_transitions(["location1", "location9"], SPACE3)

    def test_pair_counts_by_hand(self):
        c = count_pair_transitions(["a", "b", "a", "b", "b"])
        # triples: (a,b)->a, (b,a)->b, (a,b)->b
        assert c.rows == ((0, 0), (1, 1), (0, 1), (0, 0))
        assert c.rows[c.row_index("a", "b")] == (1, 1)
        assert c.row_index("b", "a") == 2

    def test_pair_total_is_sequence_length_minus_two(self):
        labels = ["location1", "location2", "location2", "location3", "location1"]
        assert sum(map(sum, count_pair_transitions(labels, SPACE3).rows)) == len(labels) - 2

    @given(st.lists(st.sampled_from(("a", "b", "c")), max_size=60))
    @settings(max_examples=80)
    def test_every_cell_counts_its_label_windows(self, labels):
        space = StateSpace(("a", "b", "c"))
        pairs = Counter(zip(labels, labels[1:]))
        triples = Counter(zip(labels, labels[1:], labels[2:]))
        first = count_transitions(labels, space)
        second = count_pair_transitions(labels, space)
        for a in space.states:
            for b in space.states:
                assert first.rows[space.index(a)][space.index(b)] == pairs[a, b]
                for c in space.states:
                    assert second.rows[second.row_index(a, b)][space.index(c)] == triples[a, b, c]

    @given(st.lists(st.sampled_from(("a", "b", "c")), min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_count_conservation(self, labels):
        space = StateSpace(("a", "b", "c"))
        assert sum(map(sum, count_transitions(labels, space).rows)) == len(labels) - 1
        if len(labels) >= 2:
            assert sum(map(sum, count_pair_transitions(labels, space).rows)) == len(labels) - 2


    @pytest.mark.parametrize("row", [
        [2**62, 2**62], [1200000000000000000000, 0], [2**63, 0], [10**400, 1],
        [float(2**63), 0.0], [1e300, 1.0],
    ], ids=["total-2**63", "entry-1.2e21", "entry-2**63", "entry-10**400",
            "float-2**63", "float-1e300"])
    def test_counts_beyond_int64_are_refused(self, row):
        """[2**62, 2**62] used to construct, with a row total that wrapped to
        -2**63; an entry past int64 died with an OverflowError."""
        with pytest.raises(MarkovError, match="order-1 count matrix: the total of row 0 "
                                              "does not fit in int64"):
            ChainCounts(StateSpace(["a", "b"]), [row, [0, 0]], 1)

    def test_counts_differing_only_in_their_rows_are_unequal(self):
        assert ChainCounts(AB, [[1, 0], [0, 1]], 1) != ChainCounts(AB, [[0, 1], [0, 1]], 1)

    def test_counts_up_to_the_int64_limit_are_kept_exactly(self):
        c = ChainCounts(StateSpace(["a", "b"]), [[2**62, 2**62 - 1], [2**63 - 1, 0]], 1)
        assert c.rows == ((2**62, 2**62 - 1), (2**63 - 1, 0))
        assert sum(c.rows[0]) == sum(c.rows[1]) == 2**63 - 1

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.5])
    def test_non_integer_counts_are_refused(self, bad):
        with pytest.raises(MarkovError, match="order-1 count matrix entries must be integers"):
            ChainCounts(StateSpace(["a", "b"]), [[bad, 1], [0, 0]], 1)


class TestEstimation:
    def test_worked_row(self):
        c = ChainCounts(SPACE3, [[12, 9, 11], [0, 0, 0], [0, 0, 0]], 1)
        m = estimate_first_order(c)
        assert m.p[0].tolist() == [12 / 32, 9 / 32, 11 / 32]
        assert m.probability("location1", "location2") == 0.28125

    def test_unobserved_rows_are_flagged_not_uniform(self):
        c = ChainCounts(SPACE3, [[12, 9, 11], [0, 0, 0], [0, 0, 0]], 1)
        m = estimate_first_order(c)
        assert m.row_status == (OBSERVED, UNOBSERVED, UNOBSERVED)
        assert m.p[1].tolist() == [0.0, 0.0, 0.0]

    def test_smoothing_defaults_off(self):
        c = ChainCounts(SPACE3, [[2, 0, 0], [0, 0, 0], [0, 0, 0]], 1)
        assert estimate_first_order(c).p[0].tolist() == [1.0, 0.0, 0.0]

    @given(
        st.lists(
            st.lists(st.integers(0, 20), min_size=3, max_size=3),
            min_size=3, max_size=3,
        )
    )
    @settings(max_examples=60)
    def test_estimates_match_exact_rational_arithmetic(self, rows):
        c = ChainCounts(SPACE3, rows, 1)
        m = estimate_first_order(c)
        expected = rational_estimate(np.asarray(rows))
        for i in range(3):
            for j in range(3):
                assert m.p[i, j] == float(expected[i][j])

    def test_second_order_estimation(self):
        labels = ["a", "b", "a", "b", "a", "b", "b"]
        pc = count_pair_transitions(labels)
        m = estimate_second_order(pc)
        # (a,b) occurred 3 times: followed by a twice, b once
        assert m.probability("a", "b", "a") == pytest.approx(2 / 3)
        assert m.probability("a", "b", "b") == pytest.approx(1 / 3)
        assert m.row_status[m.row_index("a", "a")] == UNOBSERVED

    @given(st.sampled_from([1, 2]), st.integers(1, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_row_loop_reference_bit_for_bit(self, order, n, data):
        """The masked division gives the row-at-a-time loop's floats, its row
        statuses and its file text, for zero rows and for counts near 2**59."""
        cells = st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 2**59))
        row = st.one_of(st.just([0] * n), st.lists(cells, min_size=n, max_size=n))
        counts = np.array(data.draw(st.lists(row, min_size=n ** order, max_size=n ** order)),
                          dtype=np.int64)
        space = StateSpace([f"s{i}" for i in range(n)])
        m = (estimate_first_order if order == 1 else estimate_second_order)(
            ChainCounts(space, counts, order))
        p, status = row_loop_estimate(counts)
        assert m.p.tobytes() == p.tobytes()
        assert m.row_status == tuple(status)
        assert dumps_matrix(m) == json.dumps({
            "format": 1, "order": order, "states": list(space.states),
            "p": p.tolist(), "row_status": status}, indent=2) + "\n"

    @pytest.mark.parametrize("labels", [["a", "b", "a", "b"], ["a", "a", "a"]],
                             ids=["two-states", "one-state"])
    def test_counts_of_another_order_are_refused(self, labels):
        # one state gives 1x1 counts at both orders, so the shape cannot tell them apart
        with pytest.raises(MarkovError, match="order-1 estimation needs order-1 counts"):
            estimate_first_order(count_pair_transitions(labels))
        with pytest.raises(MarkovError, match="order-2 estimation needs order-2 counts"):
            estimate_second_order(count_transitions(labels))


class TestMatrixValidation:
    def test_shape_mismatch(self):
        with pytest.raises(MarkovError):
            ChainMatrix(SPACE3, np.zeros((2, 3)), 1)

    def test_row_sum_out_of_tolerance(self):
        bad = [[0.5, 0.4, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        with pytest.raises(MarkovError):
            ChainMatrix(SPACE3, bad, 1)

    def test_negative_entry(self):
        bad = [[1.2, -0.2, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        with pytest.raises(MarkovError):
            ChainMatrix(SPACE3, bad, 1)

    @pytest.mark.parametrize("make,what", [
        (lambda rows: ChainMatrix(AB, rows, 1), "order-1 matrix"),
        (lambda rows: ChainCounts(AB, rows, 1), "order-1 count matrix"),
    ], ids=["matrix", "counts"])
    @pytest.mark.parametrize("rows,refusal", [
        ([[1, 0], [1]], "must have shape (2, 2), got (2, 2, 1)"),
        ([[1, 0], 1], "must have shape (2, 2), got (2, 2, None)"),
        (None, "must have shape (2, 2), got ()"),
        ([[1, 0], ["x", 1]], "entries must be numbers"),
        ([[1, 0], ["1", 0]], "entries must be numbers"),
        ([[1, 0], [None, 1]], "entries must be numbers"),
    ], ids=["ragged", "number-for-a-row", "no-rows", "word", "numeric-string", "none"])
    def test_malformed_rows_are_refused(self, make, what, rows, refusal):
        """Ragged rows and words died in numpy with a ValueError, and numpy
        turned a numeric string into its number."""
        with pytest.raises(MarkovError, match="^" + re.escape(f"{what} {refusal}") + "$"):
            make(rows)

    def test_p_is_a_read_only_array_of_the_rows(self):
        matrix = estimate_first_order(ChainCounts(SPACE3, [[12, 9, 11], [5, 5, 0], [1, 2, 3]], 1))
        array = matrix.p
        assert array is matrix.p
        assert array.dtype == np.float64 and array.tolist() == [list(row) for row in matrix.rows]
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0

    def test_row_status_is_worked_out_from_p(self):
        p = [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [-0.0, 0.0, 0.0]]
        assert ChainMatrix(SPACE3, p, 1).row_status == (UNOBSERVED, OBSERVED, UNOBSERVED)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10**400],
                             ids=["nan", "inf", "-inf", "10**400"])
    @pytest.mark.parametrize("shape", ["all", "among-zeros", "among-mass"])
    @pytest.mark.parametrize("row", [0, 2])
    def test_non_finite_entries_are_refused(self, bad, shape, row):
        """A NaN row passed every range and sum check, so each prediction
        from it was NaN.  A row of a non-finite entry and zeros is not an
        all-zero row either.  An int past the float range died with an
        OverflowError in float()."""
        p = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        p[row] = {"all": [bad] * 3, "among-zeros": [bad, 0.0, 0.0],
                  "among-mass": [0.5, bad, 0.5]}[shape]
        with pytest.raises(MarkovError, match="order-1 matrix entries must be finite"):
            ChainMatrix(StateSpace(["a", "b", "c"]), p, 1)

    @pytest.mark.parametrize("row", [[1.0, -1e-12], [1.0 + 0.9995e-9, 0.0]],
                             ids=["the-slack-below-0", "within-the-tolerance-above-1"])
    def test_entries_just_outside_0_and_1_are_admitted(self, row):
        """An entry may sit up to 1e-12 below 0, and above 1 by up to the
        row tolerance plus 1e-12, when its row still sums to 1 within it."""
        assert ChainMatrix(AB, [row, [0.0, 1.0]], 1).rows[0] == tuple(row)

    def test_loose_tolerance_admits_published_rounding(self):
        m = ChainMatrix(SPACE3, EXAMPLE_P2[:3], 1, row_sum_tol=LOADED_ROW_SUM_TOL)
        assert m.row_sum_tol == LOADED_ROW_SUM_TOL
        with pytest.raises(MarkovError):
            ChainMatrix(SPACE3, EXAMPLE_P2[:3], 1, row_sum_tol=1e-9)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 10**400, "0.1"],
                             ids=["nan", "inf", "-1", "10**400", "string"])
    @pytest.mark.parametrize("p", [[[0.5, 0.0], [0, 1]], [[0.5, 0.5], [0, 1]]],
                             ids=["half-mass", "stochastic"])
    def test_a_tolerance_that_is_not_finite_or_is_negative_is_refused(self, tol, p):
        """A NaN tolerance admitted a row of half the mass, and a negative one
        refused every row as outside [0, 1]; an int past the float range died
        in float(), and a string was converted."""
        with pytest.raises(MarkovError, match=re.escape(
                f"row_sum_tol must be a finite non-negative number, not {tol!r}")):
            ChainMatrix(AB, p, 1, row_sum_tol=tol)

    def test_a_zero_tolerance_admits_only_rows_summing_to_exactly_1(self):
        assert ChainMatrix(AB, [[0.5, 0.5], [0, 1]], 1, row_sum_tol=0).row_sum_tol == 0.0
        assert Distribution(AB, [0.25, 0.75], tol=0.0).tol == 0.0
        with pytest.raises(MarkovError, match="sums to"):
            Distribution(AB, [0.1, 0.2 + 0.7], tol=0.0)


class TestPower:
    def test_zero_steps_is_identity(self):
        m = matrix_power(example_matrix(), 0)
        assert np.array_equal(m.p, np.eye(3))

    def test_one_step_is_the_matrix_itself(self):
        base = example_matrix()
        assert np.allclose(matrix_power(base, 1).p, base.p, atol=0)

    def test_permutation_matrix_cycles(self):
        cycle = ChainMatrix(SPACE3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1)
        assert np.array_equal(matrix_power(cycle, 3).p, np.eye(3))
        assert np.array_equal(matrix_power(cycle, 7).p, cycle.p)

    def test_negative_steps_rejected(self):
        with pytest.raises(MarkovError):
            matrix_power(example_matrix(), -1)

    @pytest.mark.parametrize("steps", [2.5, 2.0, True, "2", None])
    def test_steps_that_are_not_an_int_are_refused(self, steps):
        """A float died in ``exponent & 1``, and True powered one step."""
        refusal = f"steps must be an integer, not {steps!r}"
        with pytest.raises(MarkovError, match="^" + re.escape(refusal) + "$"):
            matrix_power(example_matrix(), steps)

    def test_second_order_matrix_cannot_be_powered(self):
        with pytest.raises(MarkovError, match="order 2"):
            matrix_power(example_second_order(), 2)

    def test_unobserved_rows_block_powering(self):
        c = ChainCounts(SPACE3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]], 1)
        m = estimate_first_order(c)
        with pytest.raises(MarkovError,
                           match="^cannot power a matrix with unobserved rows: location2, location3$"):
            matrix_power(m, 2)

    def test_rows_that_could_drain_to_zero_are_refused_by_step_count(self):
        """Rows that sum to 0.9982 pass the file tolerance, but powered they
        drain: (1 + 0.0018)^t - 1 reaches 1 at 386 steps, and from there a
        row of zeros would pass, so those step counts are refused.  Slower
        drift still prints."""
        m = ChainMatrix(StateSpace(("a", "b")), [[0.4991, 0.4991]] * 2, 1,
                        row_sum_tol=LOADED_ROW_SUM_TOL)
        assert matrix_power(m, 300).p.sum(axis=1) == pytest.approx([0.5825] * 2, abs=1e-4)
        matrix_power(m, 385)
        for steps in (386, 5000, 10**6):
            with pytest.raises(MarkovError, match=f"cannot power this matrix {steps} steps: its "
                                                  "row sums are off 1 by up to 0.0018"):
                matrix_power(m, steps)

    def test_the_rounding_of_float_products_counts_toward_the_drift(self):
        """These rows sum to exactly 1.0, yet after a million steps of float
        products the powered rows are about 7e-11 off 1."""
        m = ChainMatrix(StateSpace(("a", "b")), [[0.2, 0.8], [0.9, 0.1]], 1)
        assert np.all(m.p.sum(axis=1) == 1.0)
        powered = matrix_power(m, 10**6)
        assert np.abs(powered.p.sum(axis=1) - 1.0).max() > 1e-12
        assert powered.p == pytest.approx(np.array([[9, 8], [9, 8]]) / 17, abs=1e-9)

    @given(st.integers(0, 12), st.integers(0, 2**32 - 1), st.sampled_from((3, 5)))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_naive_oracle(self, steps, seed, size):
        rng = np.random.default_rng(seed)
        p = rng.random((size, size)) + 1e-9
        p /= p.sum(axis=1, keepdims=True)
        m = ChainMatrix(StateSpace(tuple(f"s{i}" for i in range(size))), p, 1)
        assert np.max(np.abs(matrix_power(m, steps).p - naive_power(p, steps))) <= 1e-12

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_semigroup_property(self, a, b, seed):
        rng = np.random.default_rng(seed)
        p = rng.random((3, 3)) + 1e-9
        p /= p.sum(axis=1, keepdims=True)
        m = ChainMatrix(SPACE3, p, 1)
        combined = matrix_power(m, a + b).p
        split = matrix_power(m, a).p @ matrix_power(m, b).p
        assert np.max(np.abs(combined - split)) <= 1e-9


class TestPrediction:
    def test_one_step_is_a_row_lookup(self):
        d = predict(example_matrix(), "location3")
        assert d.probability("location2") == 0.290
        assert d.as_pairs() == [
            ("location1", 0.355), ("location2", 0.290), ("location3", 0.355)
        ]

    def test_multi_step_uses_the_powered_matrix(self):
        base = example_matrix()
        d = predict(base, "location1", steps=2)
        assert np.allclose(d.values, (base.p @ base.p)[0], atol=0)

    def test_distribution_mass_sums_to_one(self):
        d = predict(example_matrix(), "location1", steps=5)
        assert abs(sum(d.values) - 1.0) <= d.tol

    def test_predicting_from_an_unobserved_state_fails(self):
        c = ChainCounts(SPACE3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]], 1)
        m = estimate_first_order(c)
        with pytest.raises(MarkovError, match="location2"):
            predict(m, "location2")

    def test_zero_steps_rejected(self):
        with pytest.raises(MarkovError):
            predict(example_matrix(), "location1", steps=0)

    @pytest.mark.parametrize("steps", [1.0, 2.0, True, "2"])
    def test_steps_that_are_not_an_int_are_refused(self, steps):
        """2.0 died in ``exponent & 1``, "2" in ``<``, and 1.0 and True
        were taken for one step."""
        refusal = f"steps must be an integer, not {steps!r}"
        with pytest.raises(MarkovError, match="^" + re.escape(refusal) + "$"):
            predict(example_matrix(), "location1", steps)

    def test_second_order_lookup(self):
        m = example_second_order()
        d = predict_second_order(m, "location1", "location2")
        assert d.probability("location3") == 0.222
        assert d.probability("location1") == 0.333

    def test_unobserved_pair_mentions_sparsity(self):
        labels = ["a", "b", "c"]
        m = estimate_second_order(count_pair_transitions(labels))
        with pytest.raises(MarkovError, match="never observed"):
            predict_second_order(m, "b", "a")

    def test_first_order_predict_refuses_a_second_order_matrix(self):
        with pytest.raises(MarkovError, match="order-2"):
            predict(example_second_order(), "location1")

    def test_second_order_predict_refuses_a_first_order_matrix(self):
        with pytest.raises(MarkovError, match="order-1"):
            predict_second_order(example_matrix(), "location1", "location2")

    def test_distribution_validation(self):
        with pytest.raises(MarkovError):
            Distribution(SPACE3, [0.5, 0.1, 0.1])
        with pytest.raises(MarkovError):
            Distribution(SPACE3, [1.5, -0.25, -0.25])
        with pytest.raises(MarkovError, match=r"mass must have shape \(3,\), got \(2,\)"):
            Distribution(SPACE3, [0.5, 0.5])
        with pytest.raises(MarkovError, match=r"mass must have shape \(3,\), got \(\)"):
            Distribution(SPACE3, 1.0)

    @pytest.mark.parametrize("mass", [["0.5", "0.5"], [None, 1.0], [[0.5], 0.5]])
    def test_distribution_refuses_entries_that_are_not_numbers(self, mass):
        with pytest.raises(MarkovError, match="^distribution entries must be numbers$"):
            Distribution(AB, mass)

    @pytest.mark.parametrize("mass", [[float("nan")] * 2, [float("inf"), 0.0],
                                      [float("nan"), 1.0], [10**400, 0]])
    def test_distribution_refuses_non_finite_mass(self, mass):
        with pytest.raises(MarkovError, match="distribution entries must be finite"):
            Distribution(StateSpace(["a", "b"]), mass)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 10**400, "0.1"],
                             ids=["nan", "inf", "-1", "10**400", "string"])
    @pytest.mark.parametrize("mass", [[0.2, 0.1], [0.5, 0.5]], ids=["short", "whole"])
    def test_distribution_refuses_a_tolerance_not_finite_or_negative(self, tol, mass):
        with pytest.raises(MarkovError, match="^" + re.escape(
                f"tol must be a finite non-negative number, not {tol!r}")):
            Distribution(AB, mass, tol=tol)


class TestDisplay:
    @pytest.mark.parametrize(
        "value,text",
        [(0.28125, "0.281"), (0.375, "0.375"), (0.29, "0.290"), (1.0, "1.000"),
         (0.34375, "0.344"), (0.0, "0.000")],
    )
    def test_three_decimal_rendering(self, value, text):
        assert format_probability(value) == text


class TestFileFormat:
    def test_first_order_round_trip_with_counts(self):
        c = ChainCounts(SPACE3, [[12, 9, 11], [5, 5, 0], [1, 2, 3]], 1)
        m = estimate_first_order(c)
        loaded_m, loaded_c = loads_matrix(dumps_matrix(m, c))
        assert loaded_m.order == 1
        assert loaded_m.space == m.space
        assert np.array_equal(loaded_m.p, m.p)
        assert loaded_m.row_status == m.row_status
        assert loaded_c == c

    def test_only_a_matrix_is_written(self):
        """Counts passed where a matrix belongs are refused, not written."""
        c = ChainCounts(SPACE3, [[12, 9, 11], [5, 5, 0], [1, 2, 3]], 1)
        with pytest.raises(MarkovError, match="^not a transition matrix: ChainCounts$"):
            dumps_matrix(c)

    @pytest.mark.parametrize("labels", [["a", "b", "a", "b", "a"], ["a", "a", "a", "a"]])
    def test_second_order_round_trip(self, labels):
        pc = count_pair_transitions(labels)
        m = estimate_second_order(pc)
        loaded_m, loaded_c = loads_matrix(dumps_matrix(m, pc))
        assert loaded_m.order == 2
        assert np.array_equal(loaded_m.p, m.p)
        assert loaded_c == pc

    @given(st.lists(st.one_of(st.sampled_from(["open sea", "Ålesund", "港口", " a b ", "a"]),
                              st.text(min_size=1, max_size=6)),
                    min_size=1, max_size=5, unique=True),
           st.data())
    @settings(max_examples=100)
    @pytest.mark.parametrize("order", [1, 2])
    def test_the_file_round_trips_every_chain(self, order, labels, data):
        """The text codec is the only way into and out of a matrix file, so
        what it writes must read back as the same chain and write again as
        the same bytes."""
        space = StateSpace(labels)
        sequence = data.draw(st.lists(st.sampled_from(labels), max_size=40))
        if order == 1:
            c = count_transitions(sequence, space)
            m = estimate_first_order(c)
        else:
            c = count_pair_transitions(sequence, space)
            m = estimate_second_order(c)
        text = dumps_matrix(m, c)
        loaded_m, loaded_c = loads_matrix(text)
        assert loaded_m.order == order
        assert loaded_m.space == space
        assert loaded_m.row_status == m.row_status
        assert np.array_equal(loaded_m.p, m.p)
        assert loaded_c == c
        assert dumps_matrix(loaded_m, loaded_c) == text

    def test_an_entry_exactly_the_tolerance_off_its_count_ratio_loads(self):
        # "within 2e-3": 0.002 - 0 is exactly LOADED_ROW_SUM_TOL
        data = json.loads(dumps_matrix(example_matrix()))
        data["counts"] = [[1, 1, 0], [1, 1, 0], [1, 1, 0]]
        data["p"] = [[0.499, 0.499, 0.002]] * 3
        m, c = loads_matrix(json.dumps(data))
        assert m.p[0, 2] == 0.002 and c.rows[0][2] == 0

    def test_counts_are_optional(self):
        text = dumps_matrix(example_matrix())
        m, c = loads_matrix(text)
        assert c is None

    def test_serialization_is_stable(self):
        c = ChainCounts(SPACE3, [[12, 9, 11], [5, 5, 0], [1, 2, 3]], 1)
        m = estimate_first_order(c)
        assert dumps_matrix(m, c) == dumps_matrix(m, c)

    def test_format_field_is_checked(self):
        data = json.loads(dumps_matrix(example_matrix()))
        data["format"] = 2
        with pytest.raises(MarkovError, match="format"):
            loads_matrix(json.dumps(data))

    @pytest.mark.parametrize("order", [3, True, 1.0, "1"])
    def test_order_field_is_checked(self, order):
        data = json.loads(dumps_matrix(example_matrix()))
        data["order"] = order
        with pytest.raises(MarkovError, match="order"):
            loads_matrix(json.dumps(data))

    def test_row_status_is_required(self):
        data = json.loads(dumps_matrix(example_matrix()))
        del data["row_status"]
        with pytest.raises(MarkovError, match="row_status"):
            loads_matrix(json.dumps(data))

    def test_counts_must_match_the_space(self):
        other = ChainCounts(StateSpace(("x", "y", "z")), np.ones((3, 3)), 1)
        with pytest.raises(MarkovError):
            dumps_matrix(example_matrix(), other)

    def test_counts_must_match_the_order(self):
        pc = ChainCounts(SPACE3, np.zeros((9, 3)), 2)
        with pytest.raises(MarkovError):
            dumps_matrix(example_matrix(), pc)

    def test_counts_that_disagree_with_p_are_refused(self):
        c = ChainCounts(SPACE3, [[12, 9, 11], [5, 5, 0], [1, 2, 3]], 1)
        data = json.loads(dumps_matrix(estimate_first_order(c), c))
        data["counts"][2] = [1, 2, 4]
        with pytest.raises(MarkovError, match="row 2 of p disagrees with its counts"):
            loads_matrix(json.dumps(data))
        data["counts"][2] = [1, -2, 3]
        with pytest.raises(MarkovError, match="order-1 count matrix entries must be non-negative"):
            loads_matrix(json.dumps(data))

    @pytest.mark.parametrize("row,counts,status", [
        (1, [0, 0, 0], "observed"), (2, [0, 1, 0], "unobserved"),
    ], ids=["observed-without-counts", "unobserved-with-counts"])
    def test_a_row_status_must_match_its_count_total(self, row, counts, status):
        c = ChainCounts(SPACE3, [[12, 9, 11], [5, 5, 0], [0, 0, 0]], 1)
        data = json.loads(dumps_matrix(estimate_first_order(c), c))
        data["counts"][row] = counts
        with pytest.raises(MarkovError, match=f"row {row} is {status}, but its counts total"):
            loads_matrix(json.dumps(data))

    @pytest.mark.parametrize("field,value", [
        ("states", "abc"),
        ("states", ["location1", 2, "location3"]),
        ("p", [[str(x) for x in row] for row in EXAMPLE_P]),
        ("p", [[True, False, False], *EXAMPLE_P[1:]]),
        ("p", [[float("nan")] * 3, *EXAMPLE_P[1:]]),
        ("p", [EXAMPLE_P[0][:2], *EXAMPLE_P[1:]]),
        ("p", None),
        ("row_status", 3),
        ("counts", [["12", "9", "11"], ["5", "5", "0"], ["1", "2", "3"]]),
        ("counts", [[12, 9, 11], [5, 5, 0], [True, 2, 3]]),
        ("counts", [[12, 9, 11], [5, 5], [1, 2, 3]]),
        ("counts", "counts"),
        ("p", [[10**400, 0, 0], *EXAMPLE_P[1:]]),
        ("counts", [[12 * 10**400, 9, 11], [5, 5, 0], [1, 2, 3]]),
        ("format", True),
        ("format", 1.0),
    ], ids=["states-string", "states-number", "p-strings", "p-booleans", "p-nan",
            "p-ragged", "p-missing", "row_status-number", "counts-strings",
            "counts-boolean", "counts-ragged", "counts-string", "p-past-float-range",
            "counts-past-float-range", "format-boolean", "format-float"])
    def test_field_types_are_checked(self, field, value):
        data = json.loads(dumps_matrix(example_matrix()))
        data[field] = value
        kind = "the integer 1" if field == "format" else "a list"
        with pytest.raises(MarkovError, match=f"matrix file: {field} must be {kind}"):
            loads_matrix(json.dumps(data))

    def test_the_largest_double_is_a_number_in_a_file(self):
        data = json.loads(dumps_matrix(example_matrix()))
        data["p"][0] = [sys.float_info.max, 0.0, 0.0]
        with pytest.raises(MarkovError, match="^order-1 matrix: row 0 has an entry outside"):
            loads_matrix(json.dumps(data))

    def test_counts_within_the_file_tolerance_of_p_load(self):
        c = ChainCounts(SPACE3, [[12, 9, 11], [5, 9, 4], [11, 9, 11]], 1)
        m = ChainMatrix(SPACE3, EXAMPLE_P, 1, row_sum_tol=LOADED_ROW_SUM_TOL)
        loaded_m, loaded_c = loads_matrix(dumps_matrix(m, c))
        assert np.array_equal(loaded_m.p, m.p)
        assert loaded_c == c

    @pytest.mark.parametrize("text,message", [
        ("not json at all", "matrix file is not valid JSON"),
        ("[[1.0, 0.0], [0.0, 1.0]]", "matrix file must contain a JSON object"),
        pytest.param("[" * 200_000, "matrix file is not valid JSON", id="nested-too-deep"),
    ])
    def test_bad_json_text(self, text, message):
        with pytest.raises(MarkovError, match=message):
            loads_matrix(text)

    @given(st.sampled_from([1, 2]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_anywhere_is_loaded_or_refused(self, order, data):
        """Put a JSON value into any field of an order-1 or order-2 file, or
        into any entry of a field or of a row: loading it raises nothing but
        MarkovError."""
        c = (ChainCounts(SPACE3, [[12, 9, 11], [5, 5, 0], [0, 0, 0]], 1) if order == 1
             else count_pair_transitions(["location1", "location2", "location1", "location3"]))
        doc = json.loads(dumps_matrix(estimate_first_order(c) if order == 1
                                      else estimate_second_order(c), c))
        places = [(doc, field) for field in [*doc, "extra"]]
        places += [(doc[field], i) for field in ("states", "p", "row_status", "counts")
                   for i in range(len(doc[field]))]
        places += [(row, j) for field in ("p", "counts") for row in doc[field]
                   for j in range(len(row))]
        where, key = data.draw(st.sampled_from(places))
        where[key] = "\x00hole"
        text = json.dumps(doc).replace('"\\u0000hole"', data.draw(_ANY_JSON_TEXT))
        try:
            loads_matrix(text)
        except MarkovError:
            pass

