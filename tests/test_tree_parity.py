"""Parity oracle: the flat-array CART against a frozen recursive reference.

The reference below is the recursive, node-object CART and the
one-tree-at-a-time forest and boosting loops that the flat kernel in
:mod:`repro.ml.tree` replaced, copied with only argument validation trimmed.  Every case of a randomized grid
(ties, duplicate and cumulative columns, NaN and +-inf features, constant
targets, every stopping rule and feature-draw mode) must give byte-identical
predictions, staged predictions, OOB error and training scores, and equal
node counts and depths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.ml import DecisionTreeRegressor, GradientBoostingRegressor, RandomForestRegressor

# Both implementations warn alike on the grid's inf and NaN features.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# -- frozen reference ------------------------------------------------------------


@dataclass
class _Node:
    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(X, y, feature_indices, min_samples_leaf):
    n_samples = len(y)
    total_sum = y.sum()
    total_sq_sum = float(np.dot(y, y))
    parent_sse = total_sq_sum - total_sum**2 / n_samples

    best_gain = 1e-12
    best = None

    for feature in feature_indices:
        order = np.argsort(X[:, feature], kind="stable")
        x_sorted = X[order, feature]
        y_sorted = y[order]

        left_counts = np.arange(1, n_samples)
        left_sums = np.cumsum(y_sorted)[:-1]
        left_sq_sums = np.cumsum(y_sorted**2)[:-1]
        right_counts = n_samples - left_counts
        right_sums = total_sum - left_sums
        right_sq_sums = total_sq_sum - left_sq_sums

        left_sse = left_sq_sums - left_sums**2 / left_counts
        right_sse = right_sq_sums - right_sums**2 / right_counts
        gains = parent_sse - (left_sse + right_sse)

        valid = (np.diff(x_sorted) > 0) & (left_counts >= min_samples_leaf) & (
            right_counts >= min_samples_leaf
        )
        if not valid.any():
            continue
        gains = np.where(valid, gains, -np.inf)
        best_position = int(np.argmax(gains))
        gain = float(gains[best_position])
        if gain > best_gain:
            threshold = float((x_sorted[best_position] + x_sorted[best_position + 1]) / 2.0)
            best_gain = gain
            best = (int(feature), threshold, gain)
    return best


class _ReferenceTree:
    def __init__(self, max_depth=None, min_samples_split=2, min_samples_leaf=1,
                 max_features=None, random_state=None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def _resolve_max_features(self, n_features):
        max_features = self.max_features
        if max_features is None:
            return n_features
        if isinstance(max_features, str):
            if max_features == "sqrt":
                return max(1, int(np.sqrt(n_features)))
            return max(1, int(np.log2(n_features)))
        if isinstance(max_features, float):
            return max(1, int(round(max_features * n_features)))
        return min(int(max_features), n_features)

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        self._rng = np.random.default_rng(self.random_state)
        self._max_features_resolved = self._resolve_max_features(X.shape[1])
        max_depth = np.inf if self.max_depth is None else int(self.max_depth)
        self.root_ = self._grow(X, y, depth=0, max_depth=max_depth)
        self.n_nodes_ = self._count(self.root_)
        return self

    def _grow(self, X, y, depth, max_depth):
        node = _Node(prediction=float(np.mean(y)))
        if (
            depth >= max_depth
            or len(y) < int(self.min_samples_split)
            or len(y) < 2 * int(self.min_samples_leaf)
            or np.ptp(y) == 0.0
        ):
            return node
        n_features = X.shape[1]
        if self._max_features_resolved < n_features:
            feature_indices = self._rng.choice(
                n_features, size=self._max_features_resolved, replace=False
            )
        else:
            feature_indices = np.arange(n_features)
        split = _best_split(X, y, feature_indices, int(self.min_samples_leaf))
        if split is None:
            return node
        feature, threshold, _ = split
        mask = X[:, feature] <= threshold
        if mask.all() or not mask.any():
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1, max_depth)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, max_depth)
        return node

    def _count(self, node):
        return 0 if node is None else 1 + self._count(node.left) + self._count(node.right)

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        predictions = np.empty(len(X))
        for i, row in enumerate(X):
            node = self.root_
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            predictions[i] = node.prediction
        return predictions

    @property
    def depth(self):
        def _depth(node):
            if node is None or node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self.root_)


def _reference_forest(X, y, n_estimators, max_depth, min_samples_split, min_samples_leaf,
                      max_features, bootstrap, random_state):
    rng = np.random.default_rng(random_state)
    n_samples = len(y)
    trees = []
    oob_sums = np.zeros(n_samples)
    oob_counts = np.zeros(n_samples)
    for _ in range(n_estimators):
        tree = _ReferenceTree(max_depth, min_samples_split, min_samples_leaf, max_features,
                              random_state=int(rng.integers(0, 2**31 - 1)))
        if bootstrap:
            sample_indices = rng.integers(0, n_samples, size=n_samples)
        else:
            sample_indices = np.arange(n_samples)
        tree.fit(X[sample_indices], y[sample_indices])
        trees.append(tree)
        if bootstrap:
            out_of_bag = np.setdiff1d(
                np.arange(n_samples), np.unique(sample_indices), assume_unique=True
            )
            if len(out_of_bag):
                oob_sums[out_of_bag] += tree.predict(X[out_of_bag])
                oob_counts[out_of_bag] += 1
    covered = oob_counts > 0
    if bootstrap and covered.any():
        residuals = y[covered] - oob_sums[covered] / oob_counts[covered]
        oob_mae = float(np.mean(np.abs(residuals)))
    else:
        oob_mae = float("nan")

    def predict(X_new):
        predictions = np.zeros(len(X_new))
        for tree in trees:
            predictions += tree.predict(X_new)
        return predictions / len(trees)

    return trees, oob_mae, predict


def _reference_boosting(X, y, n_estimators, learning_rate, max_depth, min_samples_leaf,
                        subsample, loss, huber_delta, n_iter_no_change, validation_fraction,
                        random_state):
    def negative_gradient(y_true, predictions):
        residuals = y_true - predictions
        if loss == "squared_error":
            return residuals
        return np.where(np.abs(residuals) <= huber_delta, residuals,
                        huber_delta * np.sign(residuals))

    rng = np.random.default_rng(random_state)
    n_samples = len(y)
    if n_iter_no_change is not None and n_samples >= 20:
        n_validation = max(1, int(round(validation_fraction * n_samples)))
        X_train, y_train = X[:-n_validation], y[:-n_validation]
        X_val, y_val = X[-n_validation:], y[-n_validation:]
    else:
        X_train, y_train = X, y
        X_val = y_val = None
    init = float(np.mean(y_train))
    predictions = np.full(len(y_train), init)
    validation_predictions = np.full(len(y_val), init) if y_val is not None else None
    trees, train_scores = [], []
    best_validation_loss = np.inf
    rounds_without_improvement = 0
    for _ in range(n_estimators):
        gradient = negative_gradient(y_train, predictions)
        if subsample < 1.0:
            sample_size = max(2, int(round(subsample * len(y_train))))
            sample_indices = rng.choice(len(y_train), size=sample_size, replace=False)
        else:
            sample_indices = np.arange(len(y_train))
        tree = _ReferenceTree(max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                              random_state=int(rng.integers(0, 2**31 - 1)))
        tree.fit(X_train[sample_indices], gradient[sample_indices])
        trees.append(tree)
        predictions += learning_rate * tree.predict(X_train)
        train_scores.append(float(np.mean((y_train - predictions) ** 2)))
        if validation_predictions is not None:
            validation_predictions += learning_rate * tree.predict(X_val)
            validation_loss = float(np.mean((y_val - validation_predictions) ** 2))
            if validation_loss < best_validation_loss - 1e-12:
                best_validation_loss = validation_loss
                rounds_without_improvement = 0
            else:
                rounds_without_improvement += 1
                if rounds_without_improvement >= int(n_iter_no_change):
                    break

    def staged_predict(X_new):
        staged = np.full(len(X_new), init)
        for tree in trees:
            staged = staged + learning_rate * tree.predict(X_new)
            yield staged.copy()

    return trees, train_scores, staged_predict


# -- randomized grid ----------------------------------------------------------------


def _case_data(rng):
    """Features with ties, duplicate and cumulative columns, non-finite values."""
    n = int(rng.integers(2, 201))
    n_features = int(rng.integers(1, 13))
    X = rng.normal(size=(n, n_features)) * 10.0 ** rng.integers(-2, 4)
    for column in range(n_features):
        kind = rng.integers(0, 5)
        if kind == 0:
            X[:, column] = np.round(X[:, column], int(rng.integers(0, 2)))
        elif kind == 1 and column:
            X[:, column] = X[:, int(rng.integers(0, column))]
        elif kind == 2:
            X[:, column] = np.cumsum(X[:, column])
        elif kind == 3:
            X[:, column] = rng.integers(0, 3, size=n)
    if rng.random() < 0.3:
        cells = rng.random(X.shape) < 0.08
        X[cells] = rng.choice([np.nan, np.inf, -np.inf], size=int(cells.sum()))
    kind = rng.integers(0, 5)
    if kind == 0:
        y = np.full(n, [float(rng.normal()), -0.0][int(rng.integers(0, 2))])
    elif kind == 1:
        y = np.round(rng.normal(size=n))
    else:
        y = np.nan_to_num(X[:, 0], nan=0.0, posinf=3.0, neginf=-3.0) + rng.normal(size=n)
        y = y * 10.0 ** rng.integers(-3, 4)
    X_test = np.vstack([X[rng.permutation(n)[: min(n, 20)]], rng.normal(size=(15, n_features))])
    return X, y, X_test


def _tree_params(rng):
    return {
        "max_depth": [None, 1, 3, 8][int(rng.integers(0, 4))],
        "min_samples_split": int(rng.integers(1, 6)),
        "min_samples_leaf": int(rng.integers(1, 6)),
        "max_features": [None, "sqrt", "log2", 0.5, 2][int(rng.integers(0, 5))],
    }


def _same(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(120))
def test_tree_matches_reference(seed):
    rng = np.random.default_rng(seed)
    X, y, X_test = _case_data(rng)
    params = _tree_params(rng)
    params["random_state"] = int(rng.integers(0, 1000))
    reference = _ReferenceTree(**params).fit(X, y)
    tree = DecisionTreeRegressor(**params).fit(X, y)
    assert tree.n_nodes_ == reference.n_nodes_
    assert tree.depth == reference.depth
    for rows in (X, X_test, X_test[:1]):
        assert _same(tree.predict(rows), reference.predict(rows))


@pytest.mark.parametrize("seed", range(60))
def test_forest_matches_reference(seed):
    rng = np.random.default_rng(1000 + seed)
    X, y, X_test = _case_data(rng)
    params = _tree_params(rng)
    params.update(
        n_estimators=int(rng.integers(1, 13)),
        bootstrap=bool(rng.integers(0, 2)),
        random_state=int(rng.integers(0, 1000)),
    )
    trees, oob_mae, predict = _reference_forest(X, y, **params)
    forest = RandomForestRegressor(**params).fit(X, y)
    assert _same(forest.oob_mae_, oob_mae)
    assert forest.trees_.n_nodes.tolist() == [tree.n_nodes_ for tree in trees]
    assert forest.trees_.depths.tolist() == [tree.depth for tree in trees]
    for rows in (X, X_test, X_test[:1]):
        assert _same(forest.predict(rows), predict(rows))


@pytest.mark.parametrize("seed", range(60))
def test_boosting_matches_reference(seed):
    rng = np.random.default_rng(2000 + seed)
    X, y, X_test = _case_data(rng)
    params = {
        "n_estimators": int(rng.integers(1, 40)),
        "learning_rate": float(rng.choice([0.05, 0.1, 0.3])),
        "max_depth": [1, 3, 8][int(rng.integers(0, 3))],
        "min_samples_leaf": int(rng.integers(1, 6)),
        "subsample": float(rng.choice([1.0, 0.5, 0.8])),
        "loss": ["squared_error", "huber"][int(rng.integers(0, 2))],
        "huber_delta": float(rng.choice([0.5, 1.0])),
        "n_iter_no_change": [None, 3][int(rng.integers(0, 2))],
        "validation_fraction": 0.2,
        "random_state": int(rng.integers(0, 1000)),
    }
    trees, train_scores, staged_predict = _reference_boosting(X, y, **params)
    model = GradientBoostingRegressor(**params).fit(X, y)
    assert _same(model.train_scores_, train_scores)
    assert [tree.n_nodes_ for tree in model.estimators_] == [tree.n_nodes_ for tree in trees]
    assert [tree.depth for tree in model.estimators_] == [tree.depth for tree in trees]
    for rows in (X, X_test, X_test[:1]):
        staged = list(model.staged_predict(rows))
        expected = list(staged_predict(rows))
        assert len(staged) == len(expected)
        assert all(_same(a, b) for a, b in zip(staged, expected))
        assert _same(model.predict(rows), expected[-1])


@pytest.mark.parametrize("seed", range(12))
def test_grouped_blocks_match_reference(seed, monkeypatch):
    """Tiny block limits split every batch into many groups; outputs hold."""
    import repro.ml.tree as tree_module

    monkeypatch.setattr(tree_module, "_PAD_SLACK", 0)
    monkeypatch.setattr(tree_module, "_MAX_BLOCK", 64)
    test_tree_matches_reference(seed)
    test_forest_matches_reference(seed)
    test_boosting_matches_reference(seed)
