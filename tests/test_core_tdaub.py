"""Tests for T-Daub pipeline ranking and the original-Daub ablation variant."""

import numpy as np
import pytest

from repro.core import Daub, TDaub, clone
from repro.core.registry import PipelineRegistry
from repro.core.tdaub import PipelineEvaluation
from repro.exceptions import InvalidParameterError
from repro.forecasters.holtwinters import HoltWintersForecaster
from repro.exec.tasks import FitScoreTask, run_fit_score_task
from repro.forecasters.naive import DriftForecaster, MeanForecaster, ZeroModelForecaster
from repro.forecasters.theta import ThetaForecaster


@pytest.fixture()
def candidate_pipelines():
    """A small, fast pipeline pool with a clearly best model for seasonal data."""
    return [
        ZeroModelForecaster(horizon=12),
        DriftForecaster(horizon=12),
        HoltWintersForecaster(seasonal="additive", seasonal_period=12, horizon=12),
        ThetaForecaster(horizon=12),
    ]


class TestPipelineEvaluation:
    def test_projection_with_increasing_curve(self):
        evaluation = PipelineEvaluation(name="p")
        evaluation.allocation_sizes = [10, 20, 30]
        evaluation.scores = [-10.0, -6.0, -2.0]
        projected = evaluation.project(60)
        assert projected > -2.0  # extrapolates the improving trend

    def test_projection_single_point(self):
        evaluation = PipelineEvaluation(name="p", allocation_sizes=[10], scores=[-3.0])
        assert evaluation.project(100) == -3.0

    def test_projection_no_finite_scores(self):
        evaluation = PipelineEvaluation(
            name="p", allocation_sizes=[10], scores=[-np.inf]
        )
        assert evaluation.project(100) == -np.inf


class TestTDaub:
    def test_selects_seasonal_model_on_seasonal_data(self, seasonal_series, candidate_pipelines):
        selector = TDaub(pipelines=candidate_pipelines, horizon=12, run_to_completion=2)
        selector.fit(seasonal_series)
        assert selector.best_pipeline_name_ == "HW_Additive"
        assert selector.ranked_names_[0] == "HW_Additive"

    def test_predict_uses_best_pipeline(self, seasonal_series, candidate_pipelines):
        selector = TDaub(pipelines=candidate_pipelines, horizon=12).fit(seasonal_series)
        assert selector.predict(12).shape == (12, 1)

    def test_all_pipelines_evaluated(self, seasonal_series, candidate_pipelines):
        selector = TDaub(pipelines=candidate_pipelines, horizon=12).fit(seasonal_series)
        assert set(selector.evaluations_) == {"ZeroModelForecaster", "DriftForecaster",
                                              "HW_Additive", "Theta"}
        for evaluation in selector.evaluations_.values():
            assert evaluation.allocation_sizes  # everyone got at least one allocation

    def test_reverse_allocation_uses_most_recent_data(self, candidate_pipelines):
        # A series whose early half is garbage and late half is a clean trend:
        # reverse allocation (recent first) must rank Drift above ZeroModel.
        rng = np.random.default_rng(0)
        early = rng.normal(0, 20, 150)
        late = 100.0 + 2.0 * np.arange(150.0)
        series = np.concatenate([early, late])
        selector = TDaub(
            pipelines=[ZeroModelForecaster(horizon=6), DriftForecaster(horizon=6)],
            horizon=6,
            min_allocation_size=30,
        ).fit(series)
        sizes = selector.evaluations_["DriftForecaster"].allocation_sizes
        assert min(sizes) < len(series)  # small allocations happened

    def test_small_dataset_triggers_full_evaluation(self, candidate_pipelines, short_series):
        selector = TDaub(pipelines=candidate_pipelines, horizon=2, min_allocation_size=100)
        selector.fit(short_series)
        for evaluation in selector.evaluations_.values():
            assert len(evaluation.allocation_sizes) == 1

    def test_small_dataset_perfect_score_ranks_first(self):
        # A series that goes flat is forecast exactly by the Zero Model (its
        # final score is -0.0) while Drift extrapolates a spurious slope.
        # The perfect -0.0 must rank first, not be mistaken for missing.
        series = np.concatenate([[0.0], np.full(19, 42.0)])
        selector = TDaub(
            pipelines=[DriftForecaster(horizon=2), ZeroModelForecaster(horizon=2)],
            horizon=2,
            min_allocation_size=100,
        ).fit(series)
        zero_eval = selector.evaluations_["ZeroModelForecaster"]
        assert zero_eval.final_score == 0.0
        assert selector.evaluations_["DriftForecaster"].final_score < 0.0
        assert selector.ranked_names_[0] == "ZeroModelForecaster"

    def test_failing_pipeline_excluded_from_best(self, seasonal_series):
        class _Broken(ZeroModelForecaster):
            def fit(self, X, y=None):
                raise RuntimeError("always fails")

        selector = TDaub(
            pipelines=[_Broken(horizon=6), ZeroModelForecaster(horizon=6)], horizon=6
        ).fit(seasonal_series)
        assert selector.best_pipeline_name_ == "ZeroModelForecaster"
        assert selector.evaluations_["_Broken"].failed

    def test_no_pipelines_raises(self, seasonal_series):
        with pytest.raises(InvalidParameterError):
            TDaub(pipelines=[]).fit(seasonal_series)

    def test_invalid_direction_raises(self, seasonal_series, candidate_pipelines):
        with pytest.raises(InvalidParameterError):
            TDaub(pipelines=candidate_pipelines, allocation_direction="sideways").fit(
                seasonal_series
            )

    def test_duplicate_pipeline_names_get_suffixes(self, seasonal_series):
        selector = TDaub(
            pipelines=[ZeroModelForecaster(horizon=4), ZeroModelForecaster(horizon=4)], horizon=4
        ).fit(seasonal_series)
        assert len(selector.evaluations_) == 2

    def test_ranking_table_rows(self, seasonal_series, candidate_pipelines):
        selector = TDaub(pipelines=candidate_pipelines, horizon=12).fit(seasonal_series)
        rows = selector.result_.ranking_table()
        assert len(rows) == len(candidate_pipelines)
        names = [name for name, _, _ in rows]
        assert names == selector.ranked_names_

    def test_clone_roundtrip(self, candidate_pipelines):
        selector = TDaub(pipelines=candidate_pipelines, horizon=3)
        cloned = clone(selector)
        assert len(cloned.pipelines) == len(candidate_pipelines)
        assert cloned.horizon == 3

    def test_works_with_registry_pipelines(self, seasonal_series):
        pipelines = PipelineRegistry().create_all(
            lookback=12, horizon=6, names=["HW_Additive", "MT2RForecaster", "Arima"]
        )
        selector = TDaub(pipelines=pipelines, horizon=6).fit(seasonal_series)
        assert selector.best_pipeline_ is not None
        assert selector.predict(6).shape == (6, 1)


class TestDaubAblation:
    def test_daub_uses_oldest_first_allocation(self):
        assert Daub(pipelines=[ZeroModelForecaster()]).allocation_direction == "oldest_first"

    def test_daub_and_tdaub_can_disagree_on_shifted_data(self):
        # Regime change: old data favours ZeroModel (flat), recent data has a
        # strong trend favouring Drift.  T-Daub (recent first) should rank the
        # trend model at least as well as Daub does.
        flat = np.full(200, 50.0) + np.random.default_rng(1).normal(0, 0.5, 200)
        trend = 50.0 + 3.0 * np.arange(100.0)
        series = np.concatenate([flat, trend])
        pipelines = [ZeroModelForecaster(horizon=6), DriftForecaster(horizon=6)]
        tdaub_rank = TDaub(pipelines=[clone(p) for p in pipelines], horizon=6,
                           min_allocation_size=40).fit(series).ranked_names_
        daub_rank = Daub(pipelines=[clone(p) for p in pipelines], horizon=6,
                         min_allocation_size=40).fit(series).ranked_names_
        assert tdaub_rank.index("DriftForecaster") <= daub_rank.index("DriftForecaster")

    def test_daub_param_names_exclude_direction(self):
        assert "allocation_direction" not in Daub._get_param_names()


class _ExactThenInf(DriftForecaster):
    """Exact on a straight line until it trains on 96 rows, then forecasts inf."""

    def fit(self, X, y=None):
        self.n_fit_ = len(X)
        return super().fit(X, y)

    def predict(self, horizon=None):
        forecast = super().predict(horizon)
        return np.full_like(forecast, np.inf) if self.n_fit_ >= 96 else forecast


class TestNonFiniteScores:
    def test_cell_with_inf_forecast_fails_with_minus_inf(self):
        line = np.arange(1.0, 121.0).reshape(-1, 1)
        result = run_fit_score_task(
            FitScoreTask(tag=0, template=_ExactThenInf(horizon=12), train=line[:96],
                         test=line[96:108], horizon=12)
        )
        assert result.failed and result.score == -np.inf
        assert "not finite" in result.error

    @pytest.mark.parametrize("position", range(4))
    def test_inf_on_full_allocation_never_ranks_first(self, position):
        pipelines = [DriftForecaster(horizon=12), MeanForecaster(horizon=12),
                     ZeroModelForecaster(horizon=12)]
        pipelines.insert(position, _ExactThenInf(horizon=12))
        selector = TDaub(pipelines=pipelines, horizon=12, min_allocation_size=24).fit(
            np.arange(1.0, 121.0)
        )
        evaluation = selector.evaluations_["_ExactThenInf"]
        assert evaluation.allocation_sizes[:4] == [24, 48, 72, 96]
        assert evaluation.scores[:3] == [0.0, 0.0, 0.0]
        assert all(score == -np.inf for score in evaluation.scores[3:])
        assert evaluation.failed and "not finite" in evaluation.failure_message
        assert evaluation.final_score in (None, -np.inf)
        assert selector.ranked_names_[0] == "DriftForecaster"
        assert selector.best_pipeline_name_ == "DriftForecaster"
