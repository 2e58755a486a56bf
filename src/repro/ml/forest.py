"""Random forest regressor: bagged CART trees with feature sub-sampling."""

from __future__ import annotations

import numpy as np

from .._validation import check_consistent_length, check_positive_int
from ..core.base import BaseRegressor, check_is_fitted
from ..exceptions import InvalidParameterError
from .tree import grow_trees, resolve_max_features

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor(BaseRegressor):
    """Bootstrap-aggregated regression trees.

    Defaults are sized for the window-regression workloads in the pipeline
    inventory (hundreds to a few thousand windows with tens of features) so a
    full T-Daub evaluation finishes in seconds rather than minutes.  All
    trees grow together (see :func:`~repro.ml.tree.grow_trees`) and predict
    together from one :class:`~repro.ml.tree.TreeArrays`.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = 10,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestRegressor":
        check_positive_int(self.n_estimators, "n_estimators")
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        check_consistent_length(X, y)

        # Per-tree seeds and bootstrap draws, in the order one tree at a
        # time would take them from the forest's generator.
        rng = np.random.default_rng(self.random_state)
        n_samples = len(y)
        n_trees = int(self.n_estimators)
        seeds = []
        samples = []
        for _ in range(n_trees):
            seeds.append(int(rng.integers(0, 2**31 - 1)))
            if self.bootstrap:
                samples.append(rng.integers(0, n_samples, size=n_samples))
        if n_samples == 0:
            raise InvalidParameterError("Cannot fit a tree on empty data.")
        rows = np.array(samples) if self.bootstrap else np.tile(np.arange(n_samples), (n_trees, 1))

        n_draw = resolve_max_features(self.max_features, X.shape[1])
        self.trees_ = grow_trees(
            X,
            y,
            rows,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            n_draw=n_draw,
            rngs=[np.random.default_rng(seed) for seed in seeds] if n_draw < X.shape[1] else None,
        )

        self.oob_mae_ = float("nan")
        if self.bootstrap:
            out_of_bag = np.ones(rows.shape, dtype=bool)
            out_of_bag[np.arange(n_trees)[:, None], rows] = False
            covered = out_of_bag.any(axis=0)
            if covered.any():
                votes = np.where(out_of_bag, self.trees_.predict(X), 0.0)
                oob_predictions = _tree_order_sum(votes)[covered] / out_of_bag.sum(axis=0)[covered]
                self.oob_mae_ = float(np.mean(np.abs(y[covered] - oob_predictions)))
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ("trees_",))
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        return _tree_order_sum(self.trees_.predict(X)) / len(self.trees_.roots)


def _tree_order_sum(values: np.ndarray) -> np.ndarray:
    """Column sums of ``(trees, rows)`` added one tree after another from 0.0.

    Overwrites ``values``; a pairwise ``sum`` would round differently.
    """
    values[0] += 0.0  # 0.0 + -0.0 is 0.0, as in an accumulator started at zero
    return np.cumsum(values, axis=0)[-1]
