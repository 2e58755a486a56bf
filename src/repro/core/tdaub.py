"""T-Daub: Time-series Data Allocation Using Upper bounds (Algorithm 1).

T-Daub ranks a set of candidate pipelines without training all of them on
the full data.  It allocates small, *most recent first* subsets of the
training data (reverse allocation, figure 3), projects each pipeline's
learning curve to the full data length with a linear regression, and then
lets only the most promising pipelines acquire geometrically growing
allocations (priority-queue driven acceleration).  Finally the top
``run_to_completion`` pipelines are retrained on the full training split and
re-scored to produce the final ranking.

Every fit-and-score evaluation is an independent unit of work, so the
algorithm is phrased as *batches* submitted to a pluggable execution engine
(:mod:`repro.exec`): each fixed-allocation round and the scoring phase fan
out as :class:`~repro.exec.FitScoreTask` lists over ``n_jobs`` workers, and
each acceleration step grows the one pipeline with the best projection, as
in the paper.  The schedule reads neither ``n_jobs`` nor the order in which
workers finish, so every backend and worker count ranks as the sequential
run does.  An :class:`~repro.exec.EvaluationCache` memoizes ``(pipeline
parameters, data slice, horizon)`` so identical refits (e.g. the
scoring-phase retrain of a pipeline that already reached the full
allocation) are never recomputed.  Each fit fingerprints every template
once and every distinct slice once, from its own array, and keys the
cache on those fingerprints alone.

The allocation policy itself is :func:`allocation_schedule`, a generator of
batches that reads recorded scores but never fits, caches, reads the clock
or touches an executor; :meth:`TDaub.fit` runs one loop over it.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Generator, Sequence

import numpy as np

from .._validation import as_2d_array, check_positive_int
from ..exceptions import InvalidParameterError, NotFittedError
from ..exec.cache import EvaluationCache, array_fingerprint, estimator_fingerprint
from ..exec.dataplane import share_payload
from ..exec.executor import BaseExecutor, Deadline, get_executor
from ..exec.tasks import FitScoreResult, FitScoreTask, _apply_horizon, run_fit_score_task
from ..stats.linear_model import ols_fit
from .base import BaseEstimator, BaseForecaster, clone

__all__ = ["TDaub", "TDaubResult", "TDaubWarmState", "PipelineEvaluation"]


@dataclass
class PipelineEvaluation:
    """Evaluation history of one pipeline across T-Daub allocations."""

    name: str
    allocation_sizes: list[int] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)
    train_seconds: float = 0.0
    projected_score: float = -np.inf
    final_score: float | None = None
    failed: bool = False
    failure_message: str = ""

    def project(self, full_length: int) -> float:
        """Project the learning curve to ``full_length`` samples.

        Uses a linear regression of score on allocation size (the paper fits
        a linear model on the fixed-allocation scores and predicts the score
        at the full data length).  With fewer than two points the latest
        score is used as-is.
        """
        usable = [
            (size, score)
            for size, score in zip(self.allocation_sizes, self.scores)
            if np.isfinite(score)
        ]
        if not usable:
            self.projected_score = -np.inf
        elif len(usable) == 1:
            self.projected_score = usable[0][1]
        else:
            sizes = np.array([size for size, _ in usable], dtype=float)
            scores = np.array([score for _, score in usable], dtype=float)
            fit = ols_fit(sizes.reshape(-1, 1), scores)
            self.projected_score = float(fit.predict(np.array([[float(full_length)]]))[0])
        return self.projected_score


@dataclass
class TDaubResult:
    """Outcome of a T-Daub run."""

    ranked_names: list[str]
    evaluations: dict[str, PipelineEvaluation]
    best_pipeline: BaseForecaster | None
    total_seconds: float

    def ranking_table(self) -> list[tuple[str, float, float]]:
        """Rows of (pipeline name, score used for ranking, training seconds)."""
        rows = []
        for name in self.ranked_names:
            evaluation = self.evaluations[name]
            score = (
                evaluation.final_score
                if evaluation.final_score is not None
                else evaluation.projected_score
            )
            rows.append((name, score, evaluation.train_seconds))
        return rows


@dataclass
class TDaubWarmState:
    """Everything a follow-up ranking needs to reuse this run's work.

    Produced by every :meth:`TDaub.fit` as ``warm_state_`` and accepted
    back via ``TDaub(warm_start=...)``.  It pins the *evaluation geometry*
    (protocol, internal test length, allocation grid) so the warm run
    replays the exact same deterministic schedule of evaluation cells,
    and carries the live :class:`~repro.exec.EvaluationCache` (adopted,
    stats reset) and the cost projection that seeds the wall-clock
    estimate.  The cache is the only way a cell is reused: its keys hold
    the pipeline's parameters and the bytes of both slices, so a
    re-parameterized pipeline re-fits.  Under
    ``eval_protocol="rolling_origin"`` every cell whose train+test window
    lies inside ``series_length`` is a pure function of bytes that appends
    cannot change, so the warm run re-fits only the cells that see new
    rows.  With ``cache`` set to ``None`` the warm run re-ranks cold on
    the pinned geometry.
    """

    series_length: int
    n_test: int
    horizon: int
    eval_protocol: str
    min_allocation: int
    allocation_size: int
    cutoff: int
    cost_projection: float | None = None
    cache: EvaluationCache | None = field(default=None, repr=False)


def allocation_schedule(
    names: Sequence[str],
    evaluations: dict[str, PipelineEvaluation],
    full_length: int,
    grid: tuple[int, int, int],
    geo_increment_size: float,
    run_to_completion: int,
) -> Generator[tuple[str, int, list[tuple[str, int]]], bool, None]:
    """T-Daub's allocation policy as a sequence of evaluation batches.

    Yields ``(phase, allocation, cells)``: ``phase`` is ``"fixed"``,
    ``"accelerate"`` or ``"score"``, ``cells`` the ``(name, allocation)``
    pairs to evaluate as one batch and ``allocation`` the largest of them.
    A fixed round holds every pipeline, an acceleration step one, and the
    last batch scores the top ``run_to_completion`` pipelines by
    projection at ``full_length``.  Before resuming, the caller records
    every cell's score in ``evaluations[name]`` and sends ``True``;
    sending ``False`` declines a batch (the budget ran out), after which
    the next batch is the scoring one.  ``grid`` is ``(min_allocation,
    allocation_size, cutoff)``.

    The schedule never fits, caches, reads the clock or touches an
    executor: it reads the recorded scores and updates the projections.
    """
    L = full_length
    min_allocation, allocation_size, cutoff = grid
    if L <= min_allocation:
        # Smaller than the minimum allocation: every pipeline sees it all.
        yield "score", L, [(name, L) for name in names]
        return

    # Fixed allocation: every round evaluates every pipeline on one slice.
    running = True
    for run_index in range(1, max(int(cutoff / min_allocation), 1) + 1):
        allocation = min(min_allocation * run_index, L)
        running = yield "fixed", allocation, [(name, allocation) for name in names]
        if not running or allocation >= L:
            break
    for name in names:
        evaluations[name].project(L)

    # Acceleration: the pipeline with the best projection grows
    # geometrically, one step at a time.  Submission order breaks ties, so
    # the schedule is deterministic; a -inf projection (no finite score at
    # any allocation) never re-enters the heap.
    heap = [
        (-evaluations[name].projected_score, order, name, allocation)
        for order, name in enumerate(names)
        if allocation < L and np.isfinite(evaluations[name].projected_score)
    ]
    heapq.heapify(heap)
    completed = 0
    while running and heap:
        _, order, name, current = heapq.heappop(heap)
        step = max(current + allocation_size, int(current * float(geo_increment_size)))
        size = min(int(np.ceil(step / allocation_size) * allocation_size), L)
        if not (yield "accelerate", size, [(name, size)]):
            break
        projection = evaluations[name].project(L)
        if size < L:
            if np.isfinite(projection):
                heapq.heappush(heap, (-projection, order, name, size))
            continue
        completed += 1
        if completed >= run_to_completion:
            break

    # Scoring: retrain the top pipelines on the full split (stable order).
    provisional = sorted(names, key=lambda n: evaluations[n].projected_score, reverse=True)
    yield "score", L, [(name, L) for name in provisional[:run_to_completion]]


class TDaub(BaseEstimator):
    """Pipeline ranking and selection by incremental reverse data allocation.

    Parameters (names follow the paper's Algorithm 1)
    --------------------------------------------------
    pipelines:
        Candidate pipelines (estimators implementing ``fit``/``predict``/``score``).
    min_allocation_size:
        Smallest data chunk given to pipelines.  ``None`` chooses
        ``max(len(T1) // 10, 4 * horizon, 8)`` at fit time.
    allocation_size:
        Increment added at each fixed-allocation step (defaults to
        ``min_allocation_size``).
    fixed_allocation_cutoff:
        Limit of the fixed-allocation phase (defaults to
        ``5 * allocation_size``).
    geo_increment_size:
        Multiplier applied to the allocation once the cutoff is passed.
    run_to_completion:
        Number of top pipelines retrained on the full training data in the
        scoring phase.
    test_fraction:
        Fraction of the training data held out as T2 (T-Daub's internal test
        split).
    allocation_direction:
        ``"recent_first"`` (T-Daub's reverse allocation) or ``"oldest_first"``
        (the original Daub of Sabharwal, Samulowitz & Tesauro, AAAI 2015,
        which the ablation benchmark compares against).
    n_jobs:
        Worker count of auto-created executors: the fixed-allocation
        rounds and the scoring phase run up to ``n_jobs`` evaluations at
        once.  It changes only the wall clock, never the schedule: every
        ``n_jobs`` and backend evaluates the cells of the paper's
        sequential algorithm and gives its ranking.  Default 1.
    executor:
        Execution backend: ``None`` (serial for ``n_jobs<=1``, processes
        otherwise), an alias (``"serial"``, ``"threads"``, ``"processes"``)
        or a :class:`~repro.exec.BaseExecutor` instance.
    store:
        A persistent evaluation store shared across fits, processes and
        runs: a directory path, an ``http://`` URL of a
        ``python -m repro.store.server`` object store (for shards with no
        shared filesystem), or any :class:`~repro.store.StoreBackend`.  A
        warm re-run against the same data serves every evaluation from the
        store.  ``None`` keeps the cache in-memory only.
    budget:
        Wall-clock budget in seconds for the whole ranking run.  Enforced
        cooperatively on every backend: once exhausted, remaining
        evaluations in the current batch are skipped (the process backend
        also terminates in-flight fits), no further rounds or steps start,
        and the ranking falls back to the projections gathered so far.
        ``budget_exhausted_`` reports whether the deadline fired.
        ``None`` (default) means unlimited.
    progress_callback:
        Called after every fixed-allocation round, acceleration step and
        the scoring phase with one dict: ``{"phase": "fixed" | "accelerate"
        | "score", "allocation": <samples>, "seconds_spent": <wall so
        far>, "projected_total_seconds": <learning-curve cost projection
        or None>}``.  The cost projection applies T-Daub's own
        linear-extrapolation trick to *cumulative wall-clock* instead of
        scores, so a scheduler learns what this fit will cost rounds
        before it finishes (this is how the work-stealing queue re-prices
        long cells online); it is also stored as ``cost_projection_``.
        Doubles as an in-fit liveness heartbeat.  Exceptions raised by the
        callback are swallowed — observers must never break the fit.
    eval_protocol:
        ``"holdout"`` (default): today's split — a fixed tail ``T2`` tests
        every allocation, with ``allocation_direction`` choosing which end
        of ``T1`` each slice comes from.  ``"rolling_origin"``: the
        streaming protocol — allocation ``a`` trains on the prefix
        ``T[:a]`` and tests on the next ``n_test`` rows ``T[a:a+n_test]``
        (``allocation_direction`` is ignored; the slices are inherently
        oldest-first).  Every rolling cell is a pure function of a prefix
        of ``T``, so appending arrivals leaves all previous cells —
        and their cache records — byte-identical.
    n_test:
        Length of the internal test window.  ``None`` derives it from
        ``test_fraction`` (or inherits the warm state's, so warm re-ranks
        keep the geometry that makes their cache records match).
    warm_start:
        A :class:`TDaubWarmState` (or a fitted :class:`TDaub`, whose
        ``warm_state_`` is taken) from a previous ranking over a prefix of
        the same data.  The warm run pins its allocation grid and test
        length to the prior run's, adopts its evaluation cache, and serves
        every unchanged-prefix cell the cache holds instead of re-fitting;
        only cells that see new bytes or new pipeline parameters run.
        ``warm_hits_`` / ``prefix_refits_`` count both sides.  Requires a
        matching ``eval_protocol`` and ``horizon``: a mismatch, or a value
        of another type, raises
        :class:`~repro.exceptions.InvalidParameterError`, and an unfitted
        :class:`TDaub` raises :class:`~repro.exceptions.NotFittedError`.
    """

    def __init__(
        self,
        pipelines: Sequence[BaseForecaster] = (),
        min_allocation_size: int | None = None,
        allocation_size: int | None = None,
        fixed_allocation_cutoff: int | None = None,
        geo_increment_size: float = 2.0,
        run_to_completion: int = 1,
        test_fraction: float = 0.2,
        horizon: int = 1,
        allocation_direction: str = "recent_first",
        verbose: bool = False,
        n_jobs: int | None = None,
        executor: str | BaseExecutor | None = None,
        store=None,
        budget: float | None = None,
        progress_callback: Callable[[dict], None] | None = None,
        eval_protocol: str = "holdout",
        n_test: int | None = None,
        warm_start: "TDaubWarmState | TDaub | None" = None,
    ):
        self.pipelines = list(pipelines)
        self.min_allocation_size = min_allocation_size
        self.allocation_size = allocation_size
        self.fixed_allocation_cutoff = fixed_allocation_cutoff
        self.geo_increment_size = geo_increment_size
        self.run_to_completion = run_to_completion
        self.test_fraction = test_fraction
        self.horizon = horizon
        self.allocation_direction = allocation_direction
        self.verbose = verbose
        self.n_jobs = n_jobs
        self.executor = executor
        self.store = store
        self.budget = budget
        self.progress_callback = progress_callback
        self.eval_protocol = eval_protocol
        self.n_test = n_test
        self.warm_start = warm_start

    # -- helpers -------------------------------------------------------------
    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[T-Daub] {message}")

    def _notify_progress(self, phase: str, allocation: int) -> None:
        """Record one cost-curve point and report progress outward.

        The cost curve is (allocation, cumulative wall-clock) per completed
        phase step — a learning curve over *cost* rather than score.  With
        two or more points the same linear extrapolation used by
        :meth:`PipelineEvaluation.project` predicts the total seconds this
        fit will take at the full data length; the projection is clipped
        below at the wall already spent (cost curves never go down).
        """
        spent = time.perf_counter() - self._fit_start
        self._cost_curve.append((float(allocation), float(spent)))
        if len(self._cost_curve) >= 2:
            sizes = np.array([size for size, _ in self._cost_curve], dtype=float)
            seconds = np.array([cost for _, cost in self._cost_curve], dtype=float)
            fit = ols_fit(sizes.reshape(-1, 1), seconds)
            projected = float(
                fit.predict(np.array([[float(self._full_length)]]))[0]
            )
            self.cost_projection_ = max(projected, spent)
        if self.progress_callback is None:
            return
        try:
            self.progress_callback(
                {
                    "phase": phase,
                    "allocation": int(allocation),
                    "seconds_spent": spent,
                    "projected_total_seconds": self.cost_projection_,
                }
            )
        except Exception:  # noqa: BLE001 — observers must never break the fit
            pass

    def _evaluate_batch(
        self,
        jobs: Sequence[tuple[str, BaseForecaster, tuple, tuple]],
        evaluations: dict[str, PipelineEvaluation],
    ) -> list[float]:
        """Evaluate a batch of independent ``(name, template, shipped, prints)`` jobs.

        ``shipped`` is the ``(train, test)`` pair a task carries (views or
        data-plane refs) and ``prints`` the fingerprints of the template and
        of both slices, which the cache keys on.  Cache hits are resolved
        immediately; only misses are submitted to the execution engine.
        Results are recorded into the evaluation history in job order, so
        the caller's schedule stays deterministic no matter how the backend
        interleaves the actual work.
        """
        results: dict[int, FitScoreResult] = {}
        pending: list[tuple[int, object, FitScoreTask]] = []
        for index, (_, template, (train, test), prints) in enumerate(jobs):
            # Under a rolling-origin warm start, a cell whose train+test
            # window fits inside the previously ranked prefix is untouched
            # by the appended rows: the adopted cache should hold it.
            is_prefix = (
                self._prefix_limit is not None
                and len(train) + len(test) <= self._prefix_limit
            )
            key = self._cache.make_key(*prints, self.horizon)
            hit = self._cache.get(key)
            if hit is not None:
                # The wall clock spent on a cache hit is ~0; keep the
                # per-pipeline timing honest by not re-charging it.
                results[index] = replace(hit, seconds=0.0, from_cache=True)
                if is_prefix:
                    self.warm_hits_ += 1
                continue
            if is_prefix:
                # An unchanged-prefix cell the cache does not hold (new
                # pipeline parameters, or a warm state without its cache)
                # is about to be re-fitted — the streaming benchmark gates
                # this at 0.
                self.prefix_refits_ += 1
            pending.append(
                (
                    index,
                    key,
                    FitScoreTask(
                        tag=index,
                        template=template,
                        train=train,
                        test=test,
                        horizon=int(self.horizon),
                    ),
                )
            )

        deadline_skips: set[int] = set()
        if pending:
            tasks = [task for _, _, task in pending]
            outcomes = self._engine.map_tasks(run_fit_score_task, tasks, deadline=self._deadline)
            for (index, key, task), outcome in zip(pending, outcomes):
                result = outcome.value
                if result is None:
                    # Executor-level failure (worker crash / timeout): fold it
                    # into the same -inf convention as an in-task exception,
                    # but never cache it — these failures are transient and a
                    # later identical evaluation deserves a fresh attempt.
                    result = FitScoreResult(
                        tag=index,
                        score=-np.inf,
                        seconds=outcome.seconds,
                        n_train=int(len(task.train)),
                        error=outcome.error or "execution engine returned no result",
                    )
                    if outcome.timed_out:
                        # Preempted/skipped by the run deadline, not broken:
                        # the pipeline must not be reported as failed.
                        deadline_skips.add(index)
                else:
                    # In-task failures stay memory-only: they are often
                    # environment-specific (missing optional dependency,
                    # resource exhaustion) and must not poison other runs
                    # or machines sharing the persistent store.
                    self._cache.put(key, result, persist=not result.failed)
                results[index] = result

        scores: list[float] = []
        for index, (name, _, (train, _), _) in enumerate(jobs):
            result = results[index]
            evaluation = evaluations[name]
            if result.failed and index not in deadline_skips:
                evaluation.failed = True
                evaluation.failure_message = result.error
            evaluation.train_seconds += result.seconds
            evaluation.allocation_sizes.append(int(len(train)))
            evaluation.scores.append(float(result.score))
            scores.append(float(result.score))
        return scores

    # -- main algorithm -----------------------------------------------------
    def fit(self, T, y=None) -> "TDaub":
        """Run T-Daub on the training data ``T`` and select the best pipeline."""
        if not self.pipelines:
            raise InvalidParameterError("TDaub requires at least one candidate pipeline.")
        if self.allocation_direction not in ("recent_first", "oldest_first"):
            raise InvalidParameterError(
                "allocation_direction must be 'recent_first' or 'oldest_first'."
            )
        if self.eval_protocol not in ("holdout", "rolling_origin"):
            raise InvalidParameterError(
                "eval_protocol must be 'holdout' or 'rolling_origin'."
            )
        check_positive_int(self.run_to_completion, "run_to_completion")
        for name in ("min_allocation_size", "allocation_size", "fixed_allocation_cutoff"):
            if getattr(self, name) is not None:
                check_positive_int(getattr(self, name), name)
        warm = self.warm_start
        if isinstance(warm, TDaub):
            warm = getattr(warm, "warm_state_", None)
            if warm is None:
                raise NotFittedError("TDaub")
        if warm is not None:
            if not isinstance(warm, TDaubWarmState):
                raise InvalidParameterError(
                    "warm_start must be None, a TDaubWarmState or a fitted TDaub, "
                    f"got {type(warm).__name__}."
                )
            if warm.eval_protocol != self.eval_protocol:
                raise InvalidParameterError(
                    f"warm_start was produced under eval_protocol="
                    f"{warm.eval_protocol!r}; this run uses {self.eval_protocol!r}."
                )
            if int(warm.horizon) != int(self.horizon):
                raise InvalidParameterError(
                    f"warm_start horizon {warm.horizon} != this run's {self.horizon}."
                )

        start_time = time.perf_counter()
        self._engine = get_executor(self.executor, self.n_jobs)
        self._plane = self._engine.create_dataplane()
        try:
            return self._fit(T, warm, start_time)
        finally:
            # The plane's registrations (shared-memory segments, remote blob
            # roster entries) live exactly as long as one fit.
            plane, self._plane = self._plane, None
            if plane is not None:
                plane.close()

    def _fit(self, T, warm: TDaubWarmState | None, start_time: float) -> "TDaub":
        self._fit_start = start_time
        self._cost_curve: list[tuple[float, float]] = []
        self.cost_projection_: float | None = None
        self.warm_hits_ = 0
        self.prefix_refits_ = 0
        if warm is not None and warm.cost_projection is not None:
            self.cost_projection_ = float(warm.cost_projection)

        if warm is not None and warm.cache is not None and self.store is None:
            # Adopt the prior ranking's cache wholesale: its memory tier
            # already holds every prefix cell, so a warm re-rank hits even
            # without a persistent store.  Stats reset so this run's
            # hit/miss counters describe this run only.
            self._cache = warm.cache
            self._cache.reset_stats()
        else:
            self._cache = EvaluationCache(store=self.store)
        self._deadline = Deadline(self.budget)
        T = as_2d_array(T)
        horizon = int(self.horizon)
        rolling = self.eval_protocol == "rolling_origin"

        # Split T into T1 (training) and T2 (internal test), temporal order.
        if self.n_test is not None:
            n_test = check_positive_int(self.n_test, "n_test")
        elif warm is not None:
            # Inherit the warm geometry: a different test length would move
            # every evaluation cell and forfeit all cache reuse.
            n_test = int(warm.n_test)
        else:
            n_test = max(int(round(len(T) * float(self.test_fraction))), horizon)
        n_test = min(n_test, len(T) // 2)
        n_test = max(n_test, 1)
        L = len(T) - n_test
        self._full_length = L
        self._n_test_resolved = int(n_test)
        # Prefix reuse applies only when the warm geometry matches: rolling
        # cells with train+test inside the previously ranked length are
        # byte-identical to that run's cells.
        self._prefix_limit = (
            int(warm.series_length)
            if warm is not None and rolling and n_test == int(warm.n_test)
            else None
        )
        # Share the inputs once per fit.  ``bases`` holds the train and the
        # test base (the one series, twice, under rolling origin) and
        # ``payload`` the same two as tasks receive them: read-only views,
        # or data-plane refs.
        if rolling:
            bases = (T, T)
            payload = (share_payload(self._plane, T),) * 2
        else:
            bases = (T[:L], T[L:])
            payload = tuple(share_payload(self._plane, base) for base in bases)

        def _rows(allocation: int) -> tuple:
            """The train and test row ranges of one allocation, in their bases."""
            allocation = min(int(allocation), L)
            if rolling:
                # Rolling origin is inherently oldest-first: the train slice
                # is the prefix the test window rolls away from.
                return (0, allocation), (allocation, allocation + n_test)
            if self.allocation_direction == "oldest_first":
                return (0, allocation), (0, n_test)
            return (L - allocation, L), (0, n_test)

        # Each distinct slice is cut and fingerprinted once per fit and
        # shared by every batch and cell that uses it: tasks carry the
        # payload's slice, and cache keys the fingerprint of the same rows
        # of the local base, which hold the bytes every backend delivers.
        cut: dict[tuple[int, int, int], tuple] = {}

        def _slice(side: int, rows: tuple[int, int]) -> tuple:
            key = (side, *rows)
            if key not in cut:
                piece = slice(*rows)
                cut[key] = (payload[side][piece], array_fingerprint(bases[side][piece]))
            return cut[key]

        # Resolve allocation parameters.  A warm run anchors the grid to
        # the prior run's: allocations derived from the *new* length would
        # shift every cell off the cached ones.
        if self.min_allocation_size is not None:
            min_allocation = int(self.min_allocation_size)
        elif warm is not None:
            min_allocation = int(warm.min_allocation)
        else:
            min_allocation = max(L // 10, 4 * horizon, 8)
        if self.allocation_size is not None:
            allocation_size = int(self.allocation_size)
        elif warm is not None:
            allocation_size = int(warm.allocation_size)
        else:
            allocation_size = min_allocation
        if self.fixed_allocation_cutoff is not None:
            cutoff = int(self.fixed_allocation_cutoff)
        elif warm is not None:
            cutoff = int(warm.cutoff)
        else:
            cutoff = 5 * allocation_size
        self._grid = (min_allocation, allocation_size, cutoff)

        # Duplicate pipeline names get an index suffix.
        base_names = [getattr(p, "name", None) or type(p).__name__ for p in self.pipelines]
        counts = Counter(base_names)
        names = [
            f"{name}#{index}" if counts[name] > 1 else name
            for index, name in enumerate(base_names)
        ]
        templates = dict(zip(names, self.pipelines))
        template_prints = {name: estimator_fingerprint(t) for name, t in templates.items()}
        evaluations = {name: PipelineEvaluation(name=name) for name in names}

        schedule = allocation_schedule(
            names, evaluations, L, self._grid, self.geo_increment_size, int(self.run_to_completion)
        )
        ran = None
        while True:
            try:
                phase, allocation, cells = schedule.send(ran)
            except StopIteration:
                break
            # The scoring batch is always submitted: cache hits are free and
            # the executor skips the rest under an expired deadline.
            ran = phase == "score" or not self._deadline.expired
            if not ran:
                self._log(f"Budget exhausted before a {phase} batch; scoring now.")
                continue
            self._log(
                f"{phase} batch: " + ", ".join(f"{name} -> {size}" for name, size in cells)
            )
            jobs = []
            for name, size in cells:
                (train, train_fp), (test, test_fp) = map(_slice, (0, 1), _rows(size))
                prints = (template_prints[name], train_fp, test_fp)
                jobs.append((name, templates[name], (train, test), prints))
            scores = self._evaluate_batch(jobs, evaluations)
            self._notify_progress(phase, allocation)
            if phase == "score":
                expired = self._deadline.expired
                for (name, _), score in zip(cells, scores):
                    # A retrain the deadline skipped was never evaluated: the
                    # projection ranks it, not a phantom -inf score.
                    if np.isfinite(score) or not expired:
                        evaluations[name].final_score = score

        def _ranking_key(name: str) -> float:
            # Explicit None check: a perfect forecast scores -0.0, which is
            # falsy and must not be confused with "never scored".
            evaluation = evaluations[name]
            if evaluation.final_score is not None:
                return evaluation.final_score
            return evaluation.projected_score

        ranked = sorted(names, key=_ranking_key, reverse=True)
        self._finalise(T, ranked, templates, evaluations, start_time)
        return self

    def _finalise(
        self,
        T: np.ndarray,
        ranked: list[str],
        templates: dict[str, BaseForecaster],
        evaluations: dict[str, PipelineEvaluation],
        start_time: float,
    ) -> None:
        """Retrain the winning pipeline on the full data and store results."""
        best_pipeline = None
        for name in ranked:
            template = templates[name]
            try:
                best_pipeline = clone(template)
                _apply_horizon(best_pipeline, self.horizon)
                best_pipeline.fit(T)
                self.best_pipeline_name_ = name
                break
            except Exception:  # noqa: BLE001 - try the next-best pipeline
                best_pipeline = None
                continue

        self.ranked_names_ = ranked
        self.evaluations_ = evaluations
        self.best_pipeline_ = best_pipeline
        self.cache_stats_ = self._cache.stats
        self.budget_exhausted_ = self._deadline.expired
        min_allocation, allocation_size, cutoff = self._grid
        self.warm_state_ = TDaubWarmState(
            series_length=int(len(T)),
            n_test=int(self._n_test_resolved),
            horizon=int(self.horizon),
            eval_protocol=self.eval_protocol,
            min_allocation=int(min_allocation),
            allocation_size=int(allocation_size),
            cutoff=int(cutoff),
            cost_projection=self.cost_projection_,
            cache=self._cache,
        )
        self.result_ = TDaubResult(
            ranked_names=ranked,
            evaluations=evaluations,
            best_pipeline=best_pipeline,
            total_seconds=time.perf_counter() - start_time,
        )

    # -- estimator API ---------------------------------------------------------
    def predict(self, horizon: int | None = None) -> np.ndarray:
        """Forecast with the best pipeline selected by :meth:`fit`."""
        if getattr(self, "best_pipeline_", None) is None:
            raise InvalidParameterError("TDaub has no successfully trained pipeline.")
        return self.best_pipeline_.predict(horizon if horizon is not None else self.horizon)

    def score(self, X_true, horizon: int | None = None) -> float:
        """Score the best pipeline on held-out data (negative SMAPE)."""
        if getattr(self, "best_pipeline_", None) is None:
            raise InvalidParameterError("TDaub has no successfully trained pipeline.")
        return self.best_pipeline_.score(X_true, horizon=horizon)
