"""Cold-vs-incremental parity of every native ``update()`` and the
rolling-origin determinism of warm-started T-Daub re-ranking.

Parity taxonomy (each case states which bucket it is in and why):

- **byte-identical** — the incremental path evaluates the *same IEEE
  expressions over the same operand bytes* as a cold refit: the naive
  family's O(1) state rolls, and the fixed-parameter exponential
  smoothing recursions (scalar-vs-vectorized elementwise float64 ops
  round identically, and Holt-Winters' initializer is prefix-stable).
- **documented tolerance** — the incremental path is *algebraically*
  the cold fit but sums in a different association order (running
  sufficient statistics vs one vectorized pass), so results agree to
  float accumulation error: Mean's running sum, Theta's trend moments,
  and ``StreamingRidge``'s raw-moment blocks through
  :class:`~repro.hybrid.window_regressor.WindowRegressor` (tolerance
  contract documented in ``repro.ml.linear``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import BaseForecaster
from repro.core.tdaub import TDaub
from repro.exceptions import InvalidParameterError
from repro.forecasters import (
    DriftForecaster,
    DoubleExponentialSmoothing,
    HoltWintersForecaster,
    MeanForecaster,
    SeasonalNaiveForecaster,
    SimpleExponentialSmoothing,
    ThetaForecaster,
    ZeroModelForecaster,
)
from repro.hybrid.window_regressor import WindowRegressor
from repro.ml.linear import StreamingRidge
from repro.store import LocalFSBackend


@pytest.fixture(scope="module")
def stream_series() -> np.ndarray:
    rng = np.random.default_rng(42)
    t = np.arange(160, dtype=float)
    seasonal = 10.0 * np.sin(2.0 * np.pi * t / 12.0)
    walk = np.cumsum(rng.normal(0.1, 0.8, size=(160, 2)), axis=0)
    return 50.0 + seasonal[:, None] + walk


# Each entry: (id, factory, horizon, mode). "exact" asserts byte-identical
# forecasts; a float means np.allclose with that rtol and a justification
# in the taxonomy above.
UPDATE_CASES = [
    # O(1) re-copy of the final row: same bytes either way.
    ("zero", lambda: ZeroModelForecaster(), 4, "exact"),
    # The rolled observed tail reproduces X[-period:] byte-for-byte.
    ("seasonal_naive", lambda: SeasonalNaiveForecaster(seasonal_period=12), 12, "exact"),
    # drift_ = (last - first) / (n - 1): identical operand bytes.
    ("drift", lambda: DriftForecaster(), 4, "exact"),
    # Fixed alpha: the continued level recursion is the same elementwise
    # IEEE expression sequence as a cold refit's.
    ("ses_fixed", lambda: SimpleExponentialSmoothing(alpha=0.35), 4, "exact"),
    # Fixed alpha/beta (and damped phi): same recursion, same bytes.
    ("des_fixed", lambda: DoubleExponentialSmoothing(alpha=0.4, beta=0.1), 4, "exact"),
    (
        "des_damped",
        lambda: DoubleExponentialSmoothing(alpha=0.4, beta=0.1, damped=True),
        4,
        "exact",
    ),
    # Fixed parameters + explicit period + >= 2 seasons in the original
    # fit: the prefix-stable initializer makes the continued filter the
    # cold filter.
    (
        "hw_additive",
        lambda: HoltWintersForecaster(
            seasonal_period=12, alpha=0.3, beta=0.05, gamma=0.1
        ),
        6,
        "exact",
    ),
    (
        "hw_multiplicative",
        lambda: HoltWintersForecaster(
            seasonal="multiplicative", seasonal_period=12, alpha=0.3, beta=0.05, gamma=0.1
        ),
        6,
        "exact",
    ),
    # Running sum vs one vectorized sum: algebraically equal, float
    # association differs -> accumulation-error tolerance.
    ("mean", lambda: MeanForecaster(), 4, 1e-9),
    # SES side is exact (fixed alpha); the trend slope comes from
    # accumulated (n, sum y, sum t*y) vs a centered one-pass OLS —
    # algebraically identical, associatively different.
    ("theta", lambda: ThetaForecaster(alpha=0.35), 4, 1e-9),
    # StreamingRidge folds windows in blocks; its documented contract is
    # approximate equality across summation orders (raw-moment
    # centering reassociates — see repro/ml/linear.py).
    (
        "window_ridge",
        lambda: WindowRegressor(StreamingRidge(alpha=0.5), lookback=6),
        3,
        1e-6,
    ),
]


class TestUpdateParity:
    @pytest.mark.parametrize(
        "factory,horizon,mode",
        [case[1:] for case in UPDATE_CASES],
        ids=[case[0] for case in UPDATE_CASES],
    )
    def test_incremental_matches_cold_fit(self, stream_series, factory, horizon, mode):
        split = 140
        cold = factory().fit(stream_series)
        warm = factory().fit(stream_series[:split])
        assert warm.supports_incremental_update
        warm.update(stream_series[split:])
        expected = cold.predict(horizon)
        actual = warm.predict(horizon)
        if mode == "exact":
            np.testing.assert_array_equal(actual, expected)
        else:
            np.testing.assert_allclose(actual, expected, rtol=mode, atol=1e-9)

    @pytest.mark.parametrize(
        "factory,horizon,mode",
        [case[1:] for case in UPDATE_CASES],
        ids=[case[0] for case in UPDATE_CASES],
    )
    def test_row_at_a_time_equals_one_block(self, stream_series, factory, horizon, mode):
        split = 148
        block = factory().fit(stream_series[:split]).update(stream_series[split:])
        stepped = factory().fit(stream_series[:split])
        for row in stream_series[split:]:
            stepped.update(row.reshape(1, -1))
        # Same recursion state regardless of arrival batching (the ridge
        # window path re-blocks, hence its documented tolerance).
        rtol = 1e-9 if mode == "exact" else (mode if mode != "exact" else 0)
        np.testing.assert_allclose(
            stepped.predict(horizon), block.predict(horizon), rtol=max(rtol, 1e-9)
        )


class TestUpdateFallback:
    class _NoUpdate(BaseForecaster):
        def fit(self, X, y=None):
            X = np.asarray(X, dtype=float).reshape(len(X), -1)
            self.level_ = X.mean(axis=0)
            self.n_fit_calls_ = getattr(self, "n_fit_calls_", 0) + 1
            return self

        def predict(self, horizon=None):
            return np.tile(self.level_, (int(horizon or 1), 1))

    def test_fallback_requires_full_history(self):
        model = self._NoUpdate().fit(np.ones((10, 1)))
        assert not model.supports_incremental_update
        with pytest.raises(InvalidParameterError):
            model.update(np.ones((2, 1)))

    def test_fallback_refits_on_full_history(self, stream_series):
        cold = self._NoUpdate().fit(stream_series)
        warm = self._NoUpdate().fit(stream_series[:100])
        warm.update(stream_series[100:], X_full=stream_series)
        np.testing.assert_array_equal(warm.predict(3), cold.predict(3))
        assert warm.n_fit_calls_ == 2  # the fallback really is a refit

    def test_unfitted_update_raises(self):
        from repro.exceptions import NotFittedError

        with pytest.raises(NotFittedError):
            self._NoUpdate().update(np.ones((2, 1)), X_full=np.ones((5, 1)))


def _candidates():
    return [
        ZeroModelForecaster(),
        DriftForecaster(),
        MeanForecaster(),
        ThetaForecaster(alpha=0.35),
        SeasonalNaiveForecaster(seasonal_period=12),
    ]


def _ranking_and_cells(ranker: TDaub):
    cells = {
        name: (tuple(ev.allocation_sizes), tuple(ev.scores))
        for name, ev in ranker.evaluations_.items()
    }
    return list(ranker.ranked_names_), cells


class TestRollingOriginDeterminism:
    """Satellite 3: warm ``update()``-era re-ranks and cold full re-ranks
    must agree byte-for-byte — rankings and every evaluation cell — on
    every executor and store backend."""

    GRID = dict(min_allocation_size=30, n_test=16, horizon=4)

    @pytest.mark.parametrize("executor", ["serial", "processes"])
    @pytest.mark.parametrize("store_kind", ["localfs", "objectstore"])
    def test_warm_rerank_is_byte_identical_to_cold(
        self, stream_series, tmp_path, executor, store_kind
    ):
        servers = []
        if store_kind == "localfs":
            warm_store = LocalFSBackend(tmp_path / "warm-store")
            cold_store = LocalFSBackend(tmp_path / "cold-store")
        else:
            from repro.store import ObjectStoreBackend
            from repro.store.server import StoreServer

            # warm and cold need isolated stores (cache keys would
            # otherwise collide and the cold control would hit warm cache)
            stores = []
            for role in ("warm", "cold"):
                server = StoreServer(tmp_path / f"{role}-root")
                server.serve_in_background()
                servers.append(server)
                stores.append(ObjectStoreBackend(server.url))
            warm_store, cold_store = stores
        try:
            self._check_warm_vs_cold(stream_series, executor, warm_store, cold_store)
        finally:
            for server in servers:
                server.close()

    def _check_warm_vs_cold(self, stream_series, executor, warm_store, cold_store):
        n_jobs = 2 if executor == "processes" else None
        prefix, full = stream_series[:140], stream_series

        ranker = TDaub(
            _candidates(),
            eval_protocol="rolling_origin",
            executor=executor,
            n_jobs=n_jobs,
            store=warm_store,
            **self.GRID,
        ).fit(prefix)

        warm = TDaub(
            _candidates(),
            eval_protocol="rolling_origin",
            executor=executor,
            n_jobs=n_jobs,
            store=warm_store,
            warm_start=ranker.warm_state_,
            **self.GRID,
        ).fit(full)
        assert warm.warm_hits_ > 0
        assert warm.prefix_refits_ == 0

        # the cold control uses a separate store: every cell re-fits
        cold = TDaub(
            _candidates(),
            eval_protocol="rolling_origin",
            executor=executor,
            n_jobs=n_jobs,
            store=cold_store,
            **self.GRID,
        ).fit(full)

        warm_ranking, warm_cells = _ranking_and_cells(warm)
        cold_ranking, cold_cells = _ranking_and_cells(cold)
        assert warm_ranking == cold_ranking
        assert warm_cells == cold_cells  # byte-identical scores and schedule

    def test_warm_points_survive_cache_eviction(self, stream_series):
        """Without any persistent store the warm state's recorded score
        points still serve every prefix cell."""
        ranker = TDaub(
            _candidates(), eval_protocol="rolling_origin", **self.GRID
        ).fit(stream_series[:140])
        state = ranker.warm_state_
        state.cache = None  # simulate the cache being gone entirely
        warm = TDaub(
            _candidates(),
            eval_protocol="rolling_origin",
            warm_start=state,
            **self.GRID,
        ).fit(stream_series)
        assert warm.warm_hits_ > 0
        assert warm.prefix_refits_ == 0
        cold = TDaub(
            _candidates(), eval_protocol="rolling_origin", **self.GRID
        ).fit(stream_series)
        assert warm.ranked_names_ == cold.ranked_names_

    def test_warm_start_rejects_mismatched_geometry(self, stream_series):
        ranker = TDaub(
            _candidates(), eval_protocol="rolling_origin", **self.GRID
        ).fit(stream_series[:140])
        with pytest.raises(InvalidParameterError):
            TDaub(
                _candidates(),
                eval_protocol="holdout",
                warm_start=ranker.warm_state_,
            ).fit(stream_series)
        with pytest.raises(InvalidParameterError):
            TDaub(
                _candidates(),
                eval_protocol="rolling_origin",
                horizon=9,
                warm_start=ranker.warm_state_,
            ).fit(stream_series)

    def test_holdout_protocol_unchanged_by_default(self, stream_series):
        ranker = TDaub(_candidates(), min_allocation_size=30).fit(stream_series)
        assert ranker.eval_protocol == "holdout"
        assert ranker.warm_state_.eval_protocol == "holdout"
        assert ranker.ranked_names_
