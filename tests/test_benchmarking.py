"""Tests for the benchmark runner, result containers and report rendering."""

import json

import numpy as np
import pytest

from repro.benchmarking import (
    BenchmarkRunner,
    FAST_PROFILE,
    FULL_PROFILE,
    ManifestMismatchError,
    ManifestMismatchWarning,
    RunManifest,
    SharedManifest,
    autoai_toolkit_factories,
    internal_pipeline_factories,
    profile_multivariate_datasets,
    profile_univariate_datasets,
    render_average_rank_figure,
    render_detail_table,
    render_rank_histogram,
    sota_toolkit_factories,
    suite_fingerprint,
)
from repro.benchmarking.results import BenchmarkResults, ToolkitRun
from repro.exec import SerialExecutor
from repro.forecasters.naive import DriftForecaster, MeanForecaster, ZeroModelForecaster
from repro.frame import TimeSeriesFrame


def _toy_toolkits():
    return {
        "Zero": lambda horizon: ZeroModelForecaster(horizon=horizon),
        "Drift": lambda horizon: DriftForecaster(horizon=horizon),
    }


def _toy_datasets():
    t = np.arange(120.0)
    return {
        "trend": 10.0 + 0.5 * t,
        "flat": np.full(120, 30.0) + np.sin(t / 9.0),
    }


class TestRunner:
    def test_runs_all_pairs(self):
        runner = BenchmarkRunner(horizon=6)
        results = runner.run(_toy_datasets(), _toy_toolkits())
        assert len(results.runs) == 4
        assert set(results.dataset_names) == {"trend", "flat"}
        assert set(results.toolkit_names) == {"Zero", "Drift"}

    def test_split_is_80_20(self):
        runner = BenchmarkRunner(horizon=6)
        train, test = runner.split(np.arange(100.0))
        assert len(train) == 80
        assert len(test) == 20

    def test_drift_wins_on_trend(self):
        results = BenchmarkRunner(horizon=6).run(_toy_datasets(), _toy_toolkits())
        ranking = results.accuracy_ranking()
        drift_rank_on_trend = None
        for run in results.runs:
            pass
        smape_table = results.smape_table()
        assert smape_table["trend"]["Drift"] < smape_table["trend"]["Zero"]
        assert ranking.average_rank["Drift"] <= ranking.average_rank["Zero"]

    def test_failed_toolkit_recorded_as_zero(self):
        def broken(horizon):
            raise RuntimeError("cannot build")

        results = BenchmarkRunner(horizon=6).run(
            _toy_datasets(), {"Broken": broken, "Zero": lambda h: ZeroModelForecaster(horizon=h)}
        )
        broken_runs = [run for run in results.runs if run.toolkit == "Broken"]
        assert all(run.failed for run in broken_runs)
        assert all(run.table_cell == "0 (0)" for run in broken_runs)
        assert results.failure_count("Broken") == 2
        # Failed toolkits never appear in the rankings.
        assert "Broken" not in results.accuracy_ranking().average_rank

    def test_non_finite_forecast_counts_as_failure(self):
        class _NaNModel(ZeroModelForecaster):
            def predict(self, horizon=None):
                return np.full((horizon or 1, 1), np.nan)

        results = BenchmarkRunner(horizon=4).run(
            {"flat": np.arange(50.0)}, {"NaN": lambda h: _NaNModel(horizon=h)}
        )
        assert results.runs[0].failed


def _summary_view(results: BenchmarkResults):
    """Everything the reports are built from, minus provenance flags."""
    return [
        (run.dataset, run.toolkit, round(run.smape, 10), run.failed, run.over_budget)
        for run in results.runs
    ]


class _CrashingExecutor(SerialExecutor):
    """Backend whose workers all die without returning a result."""

    def map_tasks(self, fn, tasks, timeout=None, deadline=None):
        outcomes = super().map_tasks(fn, tasks, timeout=timeout, deadline=deadline)
        for outcome in outcomes:
            outcome.value = None
            outcome.error = "worker died with exit code -9"
        return outcomes


class _InterruptingExecutor(SerialExecutor):
    """Serial backend that dies after a given number of completed cells."""

    def __init__(self, fail_after: int):
        super().__init__()
        self.fail_after = fail_after
        self.completed = 0

    def map_tasks(self, fn, tasks, timeout=None, deadline=None):
        if self.completed >= self.fail_after:
            raise RuntimeError("simulated interruption (node preempted)")
        self.completed += len(tasks)
        return super().map_tasks(fn, tasks, timeout=timeout, deadline=deadline)


class TestResumableRuns:
    def test_second_invocation_served_from_manifest(self, tmp_path):
        manifest_path = str(tmp_path / "manifest.json")
        first = BenchmarkRunner(horizon=6, manifest_path=manifest_path).run(
            _toy_datasets(), _toy_toolkits()
        )
        second = BenchmarkRunner(horizon=6, manifest_path=manifest_path).run(
            _toy_datasets(), _toy_toolkits()
        )
        assert first.from_cache_count() == 0
        assert second.from_cache_count() == len(second.runs) == 4
        assert _summary_view(second) == _summary_view(first)

    def test_interrupted_run_resumes_to_identical_summary(self, tmp_path):
        """Acceptance: resume after a crash == one uninterrupted run."""
        manifest_path = str(tmp_path / "manifest.json")
        uninterrupted = BenchmarkRunner(horizon=6).run(_toy_datasets(), _toy_toolkits())

        interrupted = BenchmarkRunner(
            horizon=6,
            manifest_path=manifest_path,
            executor=_InterruptingExecutor(fail_after=2),
        )
        with pytest.raises(RuntimeError, match="simulated interruption"):
            interrupted.run(_toy_datasets(), _toy_toolkits())

        resumed = BenchmarkRunner(horizon=6, manifest_path=manifest_path).run(
            _toy_datasets(), _toy_toolkits()
        )
        assert 0 < resumed.from_cache_count() < len(resumed.runs)
        assert _summary_view(resumed) == _summary_view(uninterrupted)
        assert resumed.smape_table() == uninterrupted.smape_table()
        assert (
            resumed.accuracy_ranking().average_rank
            == uninterrupted.accuracy_ranking().average_rank
        )

    def test_in_place_edit_of_a_dataset_is_not_resumed(self, tmp_path):
        """Regression: a dataset edited in place, away from its first and
        last bytes, no longer matches the manifest; its cell is recomputed
        on the edited bytes."""
        manifest_path = str(tmp_path / "manifest.json")
        toolkits = {"Mean": lambda horizon: MeanForecaster(horizon=horizon)}
        series = 50 + 5 * np.sin(np.arange(1200) / 7)
        BenchmarkRunner(horizon=12, manifest_path=manifest_path).run({"wave": series}, toolkits)
        series[500:700] += 100.0
        with pytest.warns(ManifestMismatchWarning, match="datasets"):
            resumed = BenchmarkRunner(horizon=12, manifest_path=manifest_path).run(
                {"wave": series}, toolkits, resume=True
            )
        fresh = BenchmarkRunner(horizon=12).run({"wave": series.copy()}, toolkits)
        cell = resumed.run_for("Mean", "wave")
        assert not cell.from_cache
        assert cell.smape == fresh.run_for("Mean", "wave").smape

    def test_in_place_edit_of_a_framed_array_leaves_the_frame_as_it_was(self, tmp_path):
        """Regression: a frame built from a writable array viewed it, so an
        in-place edit of the array changed the frame while its memoized
        fingerprint still matched the manifest, and a resumed run served a
        cell measured on the old bytes."""
        manifest_path = str(tmp_path / "manifest.json")
        toolkits = {"Mean": lambda horizon: MeanForecaster(horizon=horizon)}
        series = 50 + 5 * np.sin(np.arange(1200) / 7)
        datasets = {"wave": TimeSeriesFrame.from_columns({"y": series})}
        BenchmarkRunner(horizon=12, manifest_path=manifest_path).run(datasets, toolkits)
        series[500:700] += 100.0
        resumed = BenchmarkRunner(horizon=12, manifest_path=manifest_path).run(
            datasets, toolkits, resume=True
        )
        fresh = BenchmarkRunner(horizon=12).run(datasets, toolkits)
        cell = resumed.run_for("Mean", "wave")
        assert cell.from_cache
        assert cell.smape == fresh.run_for("Mean", "wave").smape

    def test_resume_false_recomputes_everything(self, tmp_path):
        manifest_path = str(tmp_path / "manifest.json")
        runner = BenchmarkRunner(horizon=6, manifest_path=manifest_path)
        runner.run(_toy_datasets(), _toy_toolkits())
        fresh = runner.run(_toy_datasets(), _toy_toolkits(), resume=False)
        assert fresh.from_cache_count() == 0

    def test_different_suite_discards_stale_manifest(self, tmp_path):
        manifest_path = str(tmp_path / "manifest.json")
        runner = BenchmarkRunner(horizon=6, manifest_path=manifest_path)
        runner.run(_toy_datasets(), _toy_toolkits())
        # Same names, different data: the fingerprint must not match.
        changed = {name: data * 2.0 for name, data in _toy_datasets().items()}
        results = runner.run(changed, _toy_toolkits())
        assert results.from_cache_count() == 0

    def test_corrupt_manifest_is_ignored(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text("not json at all", encoding="utf-8")
        results = BenchmarkRunner(horizon=6, manifest_path=str(manifest_path)).run(
            _toy_datasets(), _toy_toolkits()
        )
        assert results.from_cache_count() == 0
        # The broken manifest was overwritten with a valid one.
        record = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert len(record["cells"]) == 4

    def test_resumed_cells_marked_in_detail_table(self, tmp_path):
        manifest_path = str(tmp_path / "manifest.json")
        runner = BenchmarkRunner(horizon=6, manifest_path=manifest_path)
        runner.run(_toy_datasets(), _toy_toolkits())
        resumed = runner.run(_toy_datasets(), _toy_toolkits())
        table = render_detail_table(resumed, "Table R")
        assert "†" in table
        assert "served from the run manifest" in table

    def test_parallel_backend_checkpoints_per_dataset(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        results = BenchmarkRunner(
            horizon=6,
            manifest_path=str(manifest_path),
            n_jobs=2,
            executor="processes",
        ).run(_toy_datasets(), _toy_toolkits())
        assert results.from_cache_count() == 0
        record = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert len(record["cells"]) == 4

    def test_suite_fingerprint_sensitivity(self):
        datasets, toolkits = _toy_datasets(), _toy_toolkits()
        base = suite_fingerprint(datasets, toolkits, 6, 0.8, None)
        assert base == suite_fingerprint(dict(datasets), dict(toolkits), 6, 0.8, None)
        assert base != suite_fingerprint(datasets, toolkits, 12, 0.8, None)
        assert base != suite_fingerprint(datasets, toolkits, 6, 0.7, None)
        assert base != suite_fingerprint(datasets, {"Zero": toolkits["Zero"]}, 6, 0.8, None)
        # A different training budget changes which cells get preempted, so
        # it must not resume from the old budget's manifest.
        assert base != suite_fingerprint(datasets, toolkits, 6, 0.8, None, 30.0)

    def test_changed_budget_does_not_resume_stale_manifest(self, tmp_path):
        manifest_path = str(tmp_path / "manifest.json")
        BenchmarkRunner(
            horizon=6, max_train_seconds=0.001, manifest_path=manifest_path
        ).run(_toy_datasets(), _toy_toolkits())
        unbudgeted = BenchmarkRunner(horizon=6, manifest_path=manifest_path).run(
            _toy_datasets(), _toy_toolkits()
        )
        assert unbudgeted.from_cache_count() == 0

    def test_transient_worker_failure_retried_on_resume(self, tmp_path):
        """A crashed worker must not be pinned as a failure by the manifest."""
        manifest_path = str(tmp_path / "manifest.json")
        crashed = BenchmarkRunner(
            horizon=6, manifest_path=manifest_path, executor=_CrashingExecutor()
        ).run(_toy_datasets(), _toy_toolkits())
        assert all(run.failed for run in crashed.runs)

        retried = BenchmarkRunner(horizon=6, manifest_path=manifest_path).run(
            _toy_datasets(), _toy_toolkits()
        )
        assert retried.from_cache_count() == 0  # nothing poisoned
        assert not any(run.failed for run in retried.runs)

    def test_manifest_load_reports_resumption(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = RunManifest(path, "fp")
        manifest.record(ToolkitRun("tool", "data", smape=1.0, train_seconds=0.5))
        manifest.flush()
        reloaded = RunManifest(path, "fp")
        assert reloaded.load()
        cell = reloaded.get("data", "tool")
        assert cell is not None and cell.from_cache
        mismatched = RunManifest(path, "other-fp")
        assert not mismatched.load()


class TestStrictResume:
    def test_missing_manifest_raises(self, tmp_path):
        runner = BenchmarkRunner(horizon=6, manifest_path=str(tmp_path / "absent.json"))
        with pytest.raises(ManifestMismatchError, match="no manifest exists"):
            runner.run(_toy_datasets(), _toy_toolkits(), resume="strict")

    def test_suite_mismatch_raises_and_names_the_knob(self, tmp_path):
        manifest_path = str(tmp_path / "manifest.json")
        BenchmarkRunner(horizon=6, manifest_path=manifest_path).run(
            _toy_datasets(), _toy_toolkits()
        )
        with pytest.raises(ManifestMismatchError, match="horizon"):
            BenchmarkRunner(horizon=12, manifest_path=manifest_path).run(
                _toy_datasets(), _toy_toolkits(), resume="strict"
            )

    def test_non_strict_mismatch_warns_with_the_knob_named(self, tmp_path):
        """Regression: a stale manifest must never be discarded silently."""
        manifest_path = str(tmp_path / "manifest.json")
        BenchmarkRunner(horizon=6, manifest_path=manifest_path).run(
            _toy_datasets(), _toy_toolkits()
        )
        with pytest.warns(ManifestMismatchWarning, match="horizon"):
            results = BenchmarkRunner(horizon=12, manifest_path=manifest_path).run(
                _toy_datasets(), _toy_toolkits()
            )
        assert results.from_cache_count() == 0

    def test_toolkit_set_change_named_in_warning(self, tmp_path):
        manifest_path = str(tmp_path / "manifest.json")
        BenchmarkRunner(horizon=6, manifest_path=manifest_path).run(
            _toy_datasets(), _toy_toolkits()
        )
        with pytest.warns(ManifestMismatchWarning, match="toolkits"):
            BenchmarkRunner(horizon=6, manifest_path=manifest_path).run(
                _toy_datasets(), {"Zero": _toy_toolkits()["Zero"]}
            )

    def test_matching_strict_resume_succeeds(self, tmp_path):
        manifest_path = str(tmp_path / "manifest.json")
        runner = BenchmarkRunner(horizon=6, manifest_path=manifest_path)
        runner.run(_toy_datasets(), _toy_toolkits())
        resumed = runner.run(_toy_datasets(), _toy_toolkits(), resume="strict")
        assert resumed.from_cache_count() == len(resumed.runs)


class TestSharedManifestProtocol:
    def test_flush_merges_instead_of_clobbering(self, tmp_path):
        path = tmp_path / "m.json"
        alpha = SharedManifest(path, "fp")
        beta = SharedManifest(path, "fp")
        alpha.record(ToolkitRun("t1", "d1", smape=1.0, train_seconds=0.1))
        beta.record(ToolkitRun("t2", "d1", smape=2.0, train_seconds=0.2))
        alpha.flush()
        beta.flush()  # must not lose alpha's cell
        record = json.loads(path.read_text(encoding="utf-8"))
        assert len(record["cells"]) == 2


class TestShardedExecution:
    def test_worker_id_and_reclaim_stale_require_steal(self, tmp_path):
        from repro.exceptions import InvalidParameterError

        manifest_path = str(tmp_path / "m.json")
        with pytest.raises(InvalidParameterError, match="steal"):
            BenchmarkRunner(horizon=6, manifest_path=manifest_path, worker_id="w1")
        with pytest.raises(InvalidParameterError, match="steal"):
            BenchmarkRunner(horizon=6, manifest_path=manifest_path, reclaim_stale=60.0)
        with pytest.raises(InvalidParameterError, match="manifest_path"):
            BenchmarkRunner(horizon=6, worker_id="w1", steal=True)
        BenchmarkRunner(
            horizon=6,
            manifest_path=manifest_path,
            worker_id="w1",
            reclaim_stale=60.0,
            steal=True,
        )

    def test_interrupted_worker_releases_unfinished_claims(self, tmp_path):
        """An exception mid-run must hand the worker's leases back."""
        manifest_path = str(tmp_path / "m.json")
        interrupted = BenchmarkRunner(
            horizon=6,
            manifest_path=manifest_path,
            worker_id="worker-a",
            steal=True,
            executor=_InterruptingExecutor(fail_after=2),
        )
        with pytest.raises(RuntimeError, match="simulated interruption"):
            interrupted.run(_toy_datasets(), _toy_toolkits())
        assert interrupted.last_queue_.counts()["running"] == 0

        # No reclaim_stale: the peer finishes only if nothing was stranded.
        peer = BenchmarkRunner(
            horizon=6, manifest_path=manifest_path, worker_id="worker-b", steal=True
        )
        finished = peer.run(_toy_datasets(), _toy_toolkits())
        assert len(finished.runs) == 4  # nothing left wedged behind a lease
        assert not any(run.failed for run in finished.runs)
        assert 0 < finished.from_cache_count() < 4  # worker-a's cells reused
        assert peer.last_queue_.counts() == {
            "pending": 0,
            "running": 0,
            "done": 4,
            "abandoned": 0,
        }

    def test_keyboard_interrupt_requeues_leases(self, tmp_path):
        class _CtrlC(SerialExecutor):
            def map_tasks(self, fn, tasks, timeout=None, deadline=None):
                raise KeyboardInterrupt

        runner = BenchmarkRunner(
            horizon=6, manifest_path=str(tmp_path / "m.json"), steal=True, executor=_CtrlC()
        )
        with pytest.raises(KeyboardInterrupt):
            runner.run(_toy_datasets(), _toy_toolkits())
        assert runner.last_queue_.counts() == {
            "pending": 4,
            "running": 0,
            "done": 0,
            "abandoned": 0,
        }


class TestBenchmarkCli:
    def test_tiny_suite_resume_roundtrip(self, tmp_path, capsys):
        from repro.benchmarking.__main__ import main

        manifest = str(tmp_path / "manifest.json")
        summary1 = str(tmp_path / "run1.json")
        summary2 = str(tmp_path / "run2.json")
        base = ["--suite", "tiny", "--manifest", manifest, "--resume", "--quiet"]
        assert main(base + ["--json", summary1]) == 0
        assert main(base + ["--json", summary2]) == 0
        first = json.loads(open(summary1).read())
        second = json.loads(open(summary2).read())
        assert first["from_manifest"] == 0
        assert second["from_manifest"] == second["cells"] == first["cells"]
        assert capsys.readouterr().out.count("†") >= second["cells"]

    def test_sharded_workers_merge_to_full_matrix(self, tmp_path, capsys):
        from repro.benchmarking.__main__ import main

        manifest = str(tmp_path / "manifest.json")
        for worker in ("w1", "w2"):
            code = main(
                ["--steal", "--manifest", manifest, "--quiet", "--worker-id", worker]
            )
            assert code == 0
        merged_json = str(tmp_path / "merged.json")
        assert main(["--manifest", manifest, "--resume", "--quiet", "--json", merged_json]) == 0
        merged = json.loads(open(merged_json).read())
        assert merged["from_manifest"] == merged["cells"] == 12  # 4 datasets x 3 toolkits
        assert "shard" not in merged
        # Run one after the other, the first worker drains the whole queue.
        assert merged["workers"] == ["w1"]
        assert "Shard provenance" in capsys.readouterr().out

    def test_worker_id_requires_steal(self, tmp_path, capsys):
        from repro.benchmarking.__main__ import main

        manifest = str(tmp_path / "manifest.json")
        assert main(["--worker-id", "w1", "--manifest", manifest, "--quiet"]) == 2
        assert main(["--reclaim-stale", "60", "--manifest", manifest, "--quiet"]) == 2
        assert "--steal" in capsys.readouterr().err
        assert main(["--steal", "--quiet"]) == 2  # no --manifest

    def test_failed_cells_exit_nonzero_with_summary(self, tmp_path, monkeypatch, capsys):
        """Regression: CI shard jobs must be able to gate on the exit code."""
        import repro.benchmarking.__main__ as cli

        def with_broken():
            def broken(horizon):
                raise RuntimeError("toolkit cannot even build")

            return {"Broken": broken, "Zero": lambda h: ZeroModelForecaster(horizon=h)}

        monkeypatch.setattr(cli, "_tiny_toolkits", with_broken)
        code = cli.main(["--quiet", "--json", str(tmp_path / "s.json")])
        assert code == 1
        captured = capsys.readouterr()
        assert "Failed or over-budget cells:" in captured.err
        assert "Broken" in captured.err
        summary = json.loads(open(tmp_path / "s.json").read())
        assert summary["failures"] == 4  # Broken column on all four tiny datasets

    def test_resume_strict_missing_manifest_exits_2(self, tmp_path, capsys):
        from repro.benchmarking.__main__ import main

        code = main(
            ["--resume-strict", "--manifest", str(tmp_path / "absent.json"), "--quiet"]
        )
        assert code == 2
        assert "no manifest exists" in capsys.readouterr().err

    def test_executor_misconfiguration_exits_2(self, monkeypatch, capsys):
        from repro.benchmarking.__main__ import main

        monkeypatch.delenv("REPRO_REMOTE_WORKERS", raising=False)
        assert main(["--executor", "remote", "--quiet"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["--workers", "h:1", "--executor", "processes", "--quiet"]) == 2
        assert "only applies to --executor remote" in capsys.readouterr().err

    def test_resume_flags_require_manifest(self, capsys):
        """Regression: --resume-strict without --manifest must not silently
        recompute the whole suite with exit code 0."""
        from repro.benchmarking.__main__ import main

        assert main(["--resume-strict", "--quiet"]) == 2
        assert main(["--resume", "--quiet"]) == 2
        assert "--manifest" in capsys.readouterr().err

    def test_plain_manifest_run_leaves_no_lock_sidecar(self, tmp_path):
        from repro.benchmarking.__main__ import main

        manifest = tmp_path / "manifest.json"
        assert main(["--manifest", str(manifest), "--quiet"]) == 0
        assert manifest.exists()
        leftovers = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
        assert leftovers == set()


class TestResultsContainer:
    def test_time_ranking_prefers_faster(self):
        results = BenchmarkResults(horizon=6)
        results.add(ToolkitRun("fast", "d1", smape=5.0, train_seconds=0.1))
        results.add(ToolkitRun("slow", "d1", smape=4.0, train_seconds=10.0))
        time_summary = results.time_ranking()
        accuracy_summary = results.accuracy_ranking()
        assert time_summary.average_rank["fast"] < time_summary.average_rank["slow"]
        assert accuracy_summary.average_rank["slow"] < accuracy_summary.average_rank["fast"]

    def test_average_smape(self):
        results = BenchmarkResults(horizon=6)
        results.add(ToolkitRun("a", "d1", smape=10.0, train_seconds=1.0))
        results.add(ToolkitRun("a", "d2", smape=20.0, train_seconds=1.0))
        assert results.average_smape("a") == pytest.approx(15.0)
        assert np.isnan(results.average_smape("missing"))

    def test_run_for_lookup(self):
        results = BenchmarkResults(horizon=6)
        run = ToolkitRun("a", "d1", smape=10.0, train_seconds=1.0)
        results.add(run)
        assert results.run_for("a", "d1") is run
        assert results.run_for("a", "nope") is None


class TestReporting:
    @pytest.fixture()
    def sample_results(self):
        results = BenchmarkRunner(horizon=6).run(_toy_datasets(), _toy_toolkits())
        return results

    def test_detail_table_contains_all_cells(self, sample_results):
        table = render_detail_table(sample_results, "Table X")
        assert "Table X" in table
        assert "trend" in table and "flat" in table
        assert "Zero" in table and "Drift" in table
        assert "(" in table  # smape (seconds) cells

    def test_average_rank_figure(self, sample_results):
        figure = render_average_rank_figure(sample_results.accuracy_ranking(), "Figure X")
        assert "Figure X" in figure
        assert "#" in figure
        assert "lower is better" in figure

    def test_rank_histogram(self, sample_results):
        text = render_rank_histogram(sample_results.accuracy_ranking(), "Figure Y")
        assert "r1" in text
        assert "Drift" in text

    def test_empty_results_render_gracefully(self):
        empty = BenchmarkResults(horizon=6)
        assert "(no successful runs)" in render_average_rank_figure(
            empty.accuracy_ranking(), "Figure Z"
        )


class TestExperimentConfig:
    def test_profiles(self):
        assert FAST_PROFILE.max_series_length is not None
        assert FULL_PROFILE.max_series_length is None
        assert FAST_PROFILE.horizon == FULL_PROFILE.horizon == 12

    def test_sota_factories_complete(self):
        factories = sota_toolkit_factories()
        assert len(factories) == 10
        model = factories["Prophet"](6)
        assert model.horizon == 6

    def test_autoai_factory(self):
        model = autoai_toolkit_factories()["AutoAI-TS"](8)
        assert model.prediction_horizon == 8

    def test_internal_pipeline_factories_cover_inventory(self):
        factories = internal_pipeline_factories(lookback=6)
        assert len(factories) == 10
        pipeline = factories["HW_Additive"](4)
        assert pipeline.name == "HW_Additive"

    def test_profile_dataset_selection_spread(self):
        uni = profile_univariate_datasets(FAST_PROFILE)
        assert len(uni) == FAST_PROFILE.univariate_limit
        lengths = {len(series) for series in uni.values()}
        assert max(lengths) <= FAST_PROFILE.max_series_length
        multi = profile_multivariate_datasets(FAST_PROFILE)
        assert len(multi) == FAST_PROFILE.multivariate_limit
