"""Tests for error metrics and toolkit ranking, including property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics import average_ranks, rank_toolkits, smape
from repro.metrics.ranking import rank_histogram


class TestSmape:
    def test_perfect_forecast_is_zero(self):
        assert smape([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_opposite_signs_give_200(self):
        assert smape([1.0], [-1.0]) == pytest.approx(200.0)

    def test_zero_actual_and_forecast_contribute_zero(self):
        assert smape([0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_symmetry(self):
        a = np.array([1.0, 5.0, 10.0])
        b = np.array([2.0, 4.0, 12.0])
        assert smape(a, b) == pytest.approx(smape(b, a))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            smape([], [])

    def test_matrix_inputs(self):
        truth = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert smape(truth, truth) == 0.0

    @given(
        hnp.arrays(np.float64, 10, elements=st.floats(-1e6, 1e6)),
        hnp.arrays(np.float64, 10, elements=st.floats(-1e6, 1e6)),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_between_0_and_200(self, y_true, y_pred):
        value = smape(y_true, y_pred)
        assert 0.0 <= value <= 200.0 + 1e-9

    @given(hnp.arrays(np.float64, 8, elements=st.floats(-1e5, 1e5)))
    @settings(max_examples=50, deadline=None)
    def test_identity_is_zero(self, values):
        assert smape(values, values) == 0.0


class TestRanking:
    def test_rank_simple(self):
        ranks = rank_toolkits({"a": 1.0, "b": 3.0, "c": 2.0})
        assert ranks == {"a": 1, "c": 2, "b": 3}

    def test_rank_ties_share_rank(self):
        ranks = rank_toolkits({"a": 1.0, "b": 1.0, "c": 2.0})
        assert ranks["a"] == ranks["b"] == 1
        assert ranks["c"] == 3

    def test_rank_higher_is_better(self):
        ranks = rank_toolkits({"a": 0.9, "b": 0.5}, lower_is_better=False)
        assert ranks["a"] == 1

    def test_rank_excludes_names(self):
        ranks = rank_toolkits({"a": 1.0, "b": 2.0}, exclude=["b"])
        assert "b" not in ranks

    def test_rank_ignores_nan(self):
        ranks = rank_toolkits({"a": 1.0, "b": float("nan")})
        assert list(ranks) == ["a"]

    def test_empty_scores(self):
        assert rank_toolkits({}) == {}

    def test_average_ranks_and_histogram(self):
        per_dataset = [
            {"a": 1, "b": 2},
            {"a": 2, "b": 1},
            {"a": 1, "b": 2},
        ]
        summary = average_ranks(per_dataset)
        assert summary.n_datasets == 3
        assert summary.average_rank["a"] == pytest.approx(4 / 3)
        assert summary.wins("a") == 2
        assert summary.count_at_rank("b", 2) == 2
        assert summary.ordered_toolkits()[0] == "a"
        dense = rank_histogram(summary)
        assert dense["a"] == [2, 1]

    def test_average_ranks_skips_empty(self):
        summary = average_ranks([{}, {"a": 1}])
        assert summary.n_datasets == 1
