"""Tests for T-Daub pipeline ranking, its allocation schedule and the Daub ablation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TDaub, clone
from repro.core.registry import PipelineRegistry
from repro.core.tdaub import PipelineEvaluation, allocation_schedule
from repro.exceptions import InvalidParameterError
from repro.forecasters.ets import SimpleExponentialSmoothing
from repro.forecasters.holtwinters import HoltWintersForecaster
from repro.exec.tasks import FitScoreTask, run_fit_score_task
from repro.forecasters.naive import (
    DriftForecaster,
    MeanForecaster,
    SeasonalNaiveForecaster,
    ZeroModelForecaster,
)
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

    def test_small_dataset_under_expired_budget_ranks_on_projection(self):
        # Every cell is skipped by the deadline, so no final score is set
        # and the (all -inf) projections keep the submission order.
        selector = TDaub(
            pipelines=[DriftForecaster(horizon=2), ZeroModelForecaster(horizon=2)],
            horizon=2,
            min_allocation_size=100,
            budget=0.0,
        ).fit(np.arange(20.0))
        assert selector.budget_exhausted_
        assert [e.final_score for e in selector.evaluations_.values()] == [None, None]
        assert selector.ranked_names_ == ["DriftForecaster", "ZeroModelForecaster"]

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

    @pytest.mark.parametrize(
        "param, value",
        [
            ("min_allocation_size", 0),
            ("min_allocation_size", -5),
            ("min_allocation_size", 2.5),
            ("allocation_size", 0),
            ("allocation_size", -3),
            ("fixed_allocation_cutoff", -1),
        ],
    )
    def test_bad_allocation_parameter_raises_before_any_cell(self, seasonal_series, param, value):
        fits = []

        class _Spy(ZeroModelForecaster):
            def fit(self, X, y=None):
                fits.append(len(X))
                return super().fit(X, y)

        with pytest.raises(InvalidParameterError, match=param):
            TDaub(pipelines=[_Spy(horizon=6)], horizon=6, **{param: value}).fit(seasonal_series)
        assert fits == []

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

    @staticmethod
    def _fingerprinted_fit(hash_count, executor=None):
        """Steps, ranking and BLAKE2 buffer hashes of one fit."""
        # Two acceleration steps and the scoring batch all use the
        # 2,400-row train slice; the fit must hash it once.
        rng = np.random.default_rng(0)
        t = np.arange(3000.0)
        series = 50 + 0.01 * t + 5 * np.sin(2 * np.pi * t / 7) + rng.normal(0, 1, 3000)
        steps = []
        before = hash_count()
        selector = TDaub(
            pipelines=[
                ZeroModelForecaster(horizon=6),
                DriftForecaster(horizon=6),
                MeanForecaster(horizon=6),
                SeasonalNaiveForecaster(seasonal_period=7, horizon=6),
                SimpleExponentialSmoothing(horizon=6),
            ],
            horizon=6,
            run_to_completion=2,
            executor=executor,
            progress_callback=lambda event: steps.append((event["phase"], event["allocation"])),
        ).fit(series)
        return steps, selector.ranked_names_, hash_count() - before

    def test_each_slice_fingerprinted_once_per_fit(self, hash_count):
        steps, _, hashes = self._fingerprinted_fit(hash_count)
        assert steps[-3:] == [("accelerate", 2400), ("accelerate", 2400), ("score", 2400)]
        # One hash per distinct slice, whatever its size: the 240, 480,
        # 720, 960, 1,200 and 2,400-row train slices and the test slice.
        assert hashes == 7

    def test_each_slice_fingerprinted_once_per_fit_by_ref(
        self, hash_count, shared_memory_fork_executor
    ):
        steps, ranking, hashes = self._fingerprinted_fit(
            hash_count, shared_memory_fork_executor(n_jobs=2)
        )
        assert (steps, ranking) == self._fingerprinted_fit(hash_count)[:2]
        # Keys fingerprint the same seven slices of the fit's own arrays,
        # and the plane hashes the two bases it registers.
        assert hashes == 9


def _drive(schedule, evaluations, scores, decline=()):
    """Run ``schedule`` with hand-set scores and no fitting.

    ``scores[name]`` maps an allocation to that cell's score.  Batches whose
    position is in ``decline`` are declined, as an expired budget does.
    """
    batches, ran = [], None
    while True:
        try:
            batch = schedule.send(ran)
        except StopIteration:
            return batches
        ran = len(batches) not in decline
        batches.append(batch)
        if ran:
            for name, allocation in batch[2]:
                evaluations[name].allocation_sizes.append(allocation)
                evaluations[name].scores.append(scores[name](allocation))


def _run_schedule(full_length, grid, run_to_completion=2, decline=()):
    evaluations = {name: PipelineEvaluation(name=name) for name in _SCORES}
    schedule = allocation_schedule(
        list(_SCORES), evaluations, full_length, grid, 2.0, run_to_completion
    )
    return _drive(schedule, evaluations, _SCORES, decline)


# A leads on small slices and collapses with more data, B and C are flat,
# D never scores.  The grid gives fixed rounds at 20, 40 and 60 of L=200;
# acceleration then steps 60 -> 120 -> 200.
_SCORES = {
    "A": lambda allocation: -1.0 if allocation <= 60 else -50.0,
    "B": lambda allocation: -2.0,
    "C": lambda allocation: -3.0,
    "D": lambda allocation: -np.inf,
}
_GRID = (20, 20, 60)


def _every(allocation):
    return [(name, allocation) for name in _SCORES]


_FIXED = [("fixed", allocation, _every(allocation)) for allocation in (20, 40, 60)]


class TestAllocationSchedule:
    @pytest.mark.parametrize("full_length", [40, 48])
    def test_small_data_is_one_scoring_batch(self, full_length):
        assert _run_schedule(full_length, (48, 48, 240)) == [
            ("score", full_length, _every(full_length))
        ]

    def test_fixed_rounds_end_at_the_round_that_reaches_full_length(self):
        assert _run_schedule(50, (20, 20, 100)) == [
            ("fixed", 20, _every(20)),
            ("fixed", 40, _every(40)),
            ("fixed", 50, _every(50)),
            ("score", 50, [("A", 50), ("B", 50)]),
        ]

    def test_acceleration_grows_one_pipeline_per_step(self):
        assert _run_schedule(200, _GRID) == _FIXED + [
            ("accelerate", 120, [("A", 120)]),
            ("accelerate", 120, [("B", 120)]),
            ("accelerate", 200, [("B", 200)]),
            ("accelerate", 120, [("C", 120)]),
            ("accelerate", 200, [("C", 200)]),
            ("score", 200, [("B", 200), ("C", 200)]),
        ]

    @pytest.mark.parametrize(
        "run_to_completion, waves, finalists",
        [
            (1, [("A", 120), ("B", 120), ("B", 200)], ["B"]),
            (2, [("A", 120), ("B", 120), ("B", 200), ("C", 120), ("C", 200)], ["B", "C"]),
            (
                3,
                [("A", 120), ("B", 120), ("B", 200), ("C", 120), ("C", 200), ("A", 200)],
                ["B", "C", "A"],
            ),
        ],
    )
    def test_acceleration_stops_once_run_to_completion_reach_full_length(
        self, run_to_completion, waves, finalists
    ):
        batches = _run_schedule(200, _GRID, run_to_completion=run_to_completion)
        assert batches[: len(_FIXED)] == _FIXED
        assert [cells for _, _, cells in batches[len(_FIXED) : -1]] == [[w] for w in waves]
        assert batches[-1] == ("score", 200, [(name, 200) for name in finalists])

    @pytest.mark.parametrize("declined", [0, 1, 3])
    def test_a_declined_batch_jumps_to_scoring(self, declined):
        # Declining a fixed round or a wave (the budget ran out) scores next,
        # on the projections so far: A and B lead (by submission order when
        # nothing was recorded).
        batches = _run_schedule(200, _GRID, decline={declined})
        assert batches == (_FIXED + [("accelerate", 120, [("A", 120)])])[: declined + 1] + [
            ("score", 200, [("A", 200), ("B", 200)])
        ]


# A few shared values make ties; -inf is a failed cell.
_CELL_SCORES = st.sampled_from([-1.0, -2.0, -2.0, -np.inf]) | st.floats(-100.0, 0.0)


@st.composite
def _schedule_case(draw):
    n = draw(st.integers(1, 6))
    names = [f"p{index}" for index in range(n)]
    grid = (draw(st.integers(1, 30)), draw(st.integers(1, 30)), draw(st.integers(1, 120)))
    return {
        "names": names,
        # Mostly longer than the minimum allocation, sometimes not.
        "full_length": max(grid[0] + draw(st.integers(-4, 480)), 1),
        "grid": grid,
        "geo": draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
        "run_to_completion": draw(st.integers(1, n + 1)),
        # Pipelines that fail every cell, so they never score finitely.
        "dead": draw(st.sets(st.sampled_from(names), max_size=n - 1)),
    }


class TestAllocationScheduleProperties:
    @given(case=_schedule_case(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_schedule_invariants(self, case, data):
        names, L, rtc = case["names"], case["full_length"], case["run_to_completion"]
        evaluations = {name: PipelineEvaluation(name=name) for name in names}
        schedule = allocation_schedule(names, evaluations, L, case["grid"], case["geo"], rtc)
        table: dict = {}

        def score(name, allocation):
            if name in case["dead"]:
                return -np.inf
            if (name, allocation) not in table:
                table[name, allocation] = data.draw(_CELL_SCORES)
            return table[name, allocation]

        decline_at = data.draw(st.none() | st.integers(0, 40))
        batches, ran, reached = [], None, {}
        while True:
            try:
                phase, allocation, cells = schedule.send(ran)
            except StopIteration:
                break
            if phase == "accelerate":
                assert len(cells) == 1
                [(name, size)] = cells
                assert any(np.isfinite(evaluations[name].scores))
                assert sum(1 for grown in reached.values() if grown >= L) < rtc
            if phase == "score":
                if L > case["grid"][0]:
                    # Stable sort: ties keep submission order.
                    top = sorted(
                        names, key=lambda n: evaluations[n].projected_score, reverse=True
                    )[: min(rtc, len(names))]
                else:
                    top = names  # smaller than the minimum allocation
                assert cells == [(name, L) for name in top]
            else:
                assert allocation == max(size for _, size in cells)
            ran = len(batches) != decline_at
            batches.append((phase, allocation, cells, ran))
            if ran:
                for name, size in cells:
                    evaluations[name].allocation_sizes.append(size)
                    evaluations[name].scores.append(score(name, size))
                    if phase != "score":
                        reached[name] = size

        assert batches[-1][0] == "score"
        assert [phase for phase, *_ in batches].count("score") == 1
        # Declining any batch jumps to scoring.
        declined = [index for index, (*_, ran) in enumerate(batches) if not ran]
        for index in declined:
            if batches[index][0] != "score":
                assert index + 2 == len(batches)
        # Each pipeline's allocations strictly increase and stop at L.
        for name in names:
            sizes = [size for phase, _, cells, _ in batches if phase != "score"
                     for cell, size in cells if cell == name]
            assert sizes == sorted(set(sizes))
            assert all(0 < size <= L for size in sizes)
        # Acceleration stopped at run_to_completion pipelines at L or an
        # empty heap: every pipeline still short of L has no finite score.
        if not declined and L > case["grid"][0]:
            at_full = [name for name in names if reached.get(name, 0) >= L]
            if len(at_full) < rtc:
                for name in names:
                    assert name in at_full or not np.isfinite(
                        evaluations[name].projected_score
                    )


class TestDaubAblation:
    def test_daub_and_tdaub_can_disagree_on_shifted_data(self):
        # Regime change: old data favours ZeroModel (flat), recent data has a
        # strong trend favouring Drift.  T-Daub (recent first) should rank the
        # trend model at least as well as the original Daub (oldest first).
        flat = np.full(200, 50.0) + np.random.default_rng(1).normal(0, 0.5, 200)
        trend = 50.0 + 3.0 * np.arange(100.0)
        series = np.concatenate([flat, trend])
        pipelines = [ZeroModelForecaster(horizon=6), DriftForecaster(horizon=6)]
        tdaub_rank = TDaub(pipelines=[clone(p) for p in pipelines], horizon=6,
                           min_allocation_size=40).fit(series).ranked_names_
        daub_rank = TDaub(pipelines=[clone(p) for p in pipelines], horizon=6,
                          min_allocation_size=40,
                          allocation_direction="oldest_first").fit(series).ranked_names_
        assert tdaub_rank.index("DriftForecaster") <= daub_rank.index("DriftForecaster")


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
