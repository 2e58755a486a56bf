"""Tests for the from-scratch ML regressors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    KNeighborsRegressor,
    LinearRegression,
    MLPRegressor,
    RandomForestRegressor,
    RidgeRegression,
    SGDRegressor,
    SVR,
)


@pytest.fixture(scope="module")
def linear_problem():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 4))
    coefficients = np.array([2.0, -1.0, 0.5, 3.0])
    y = X @ coefficients + 1.5 + 0.05 * rng.normal(size=400)
    return X[:300], y[:300], X[300:], y[300:]


@pytest.fixture(scope="module")
def nonlinear_problem():
    rng = np.random.default_rng(1)
    X = rng.uniform(-2, 2, size=(500, 2))
    y = np.sin(X[:, 0] * 2.0) + X[:, 1] ** 2 + 0.05 * rng.normal(size=500)
    return X[:400], y[:400], X[400:], y[400:]


class TestLinearModels:
    def test_ols_recovers_coefficients(self, linear_problem):
        X_train, y_train, X_test, y_test = linear_problem
        model = LinearRegression().fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.99
        assert model.coef_.ravel()[0] == pytest.approx(2.0, abs=0.05)
        assert model.intercept_.ravel()[0] == pytest.approx(1.5, abs=0.05)

    def test_ols_without_intercept(self):
        X = np.arange(1.0, 21.0).reshape(-1, 1)
        y = 4.0 * X.ravel()
        model = LinearRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_.ravel()[0] == 0.0
        assert model.coef_.ravel()[0] == pytest.approx(4.0)

    def test_multi_output(self):
        X = np.random.default_rng(2).normal(size=(100, 3))
        Y = np.column_stack([X @ [1.0, 0.0, 2.0], X @ [0.0, -1.0, 1.0]])
        model = LinearRegression().fit(X, Y)
        assert model.predict(X).shape == (100, 2)

    def test_ridge_shrinks_towards_zero(self, linear_problem):
        X_train, y_train, _, _ = linear_problem
        small = RidgeRegression(alpha=0.01).fit(X_train, y_train)
        large = RidgeRegression(alpha=1e6).fit(X_train, y_train)
        assert np.linalg.norm(large.coef_) < np.linalg.norm(small.coef_)

    def test_ridge_negative_alpha_raises(self):
        with pytest.raises(InvalidParameterError):
            RidgeRegression(alpha=-1.0).fit(np.ones((4, 1)), np.ones(4))

    def test_ridge_accuracy(self, linear_problem):
        X_train, y_train, X_test, y_test = linear_problem
        assert RidgeRegression(alpha=0.1).fit(X_train, y_train).score(X_test, y_test) > 0.99


class TestSGD:
    def test_fits_linear_problem(self, linear_problem):
        X_train, y_train, X_test, y_test = linear_problem
        model = SGDRegressor(max_iter=150, random_state=0).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.95

    @pytest.mark.parametrize("loss", ["squared_error", "huber", "epsilon_insensitive"])
    def test_all_losses_run(self, loss, linear_problem):
        X_train, y_train, X_test, y_test = linear_problem
        # The robust losses trade a little accuracy for outlier resistance, so
        # the bar here is "clearly learned the relationship", not "matches OLS".
        model = SGDRegressor(loss=loss, max_iter=200).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.75

    def test_unknown_loss_raises(self):
        with pytest.raises(InvalidParameterError):
            SGDRegressor(loss="absolute").fit(np.ones((4, 1)), np.ones(4))

    def test_huber_robust_to_outliers(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 1))
        y = 2.0 * X.ravel()
        y[::20] += 50.0  # gross outliers
        huber = SGDRegressor(loss="huber", epsilon=0.5, max_iter=200).fit(X, y)
        squared = SGDRegressor(loss="squared_error", max_iter=200).fit(X, y)
        grid = np.linspace(-2, 2, 50).reshape(-1, 1)
        truth = 2.0 * grid.ravel()
        assert np.mean(np.abs(huber.predict(grid) - truth)) <= np.mean(
            np.abs(squared.predict(grid) - truth)
        )


class TestDecisionTree:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (X.ravel() > 0.5).astype(float) * 10.0
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert model.score(X, y) > 0.99

    def test_max_depth_limits_depth(self, nonlinear_problem):
        X_train, y_train, _, _ = nonlinear_problem
        model = DecisionTreeRegressor(max_depth=3).fit(X_train, y_train)
        assert model.depth <= 3

    def test_min_samples_leaf_respected(self):
        X = np.arange(20.0).reshape(-1, 1)
        y = np.arange(20.0)
        model = DecisionTreeRegressor(min_samples_leaf=5).fit(X, y)
        # With 20 samples and leaves of >= 5 there can be at most 4 leaves.
        assert model.n_nodes_ <= 7

    def test_near_duplicate_feature_values_never_produce_nan(self):
        # Adjacent feature values so close that the split midpoint rounds onto
        # one of them used to create an empty child whose prediction was NaN.
        rng = np.random.default_rng(0)
        base = rng.normal(size=200)
        X = np.column_stack([base, base + rng.normal(0, 1e-15, 200)])
        y = rng.normal(size=200)
        model = DecisionTreeRegressor(max_depth=12).fit(X, y)
        assert np.all(np.isfinite(model.predict(X)))

    def test_constant_target_single_leaf(self):
        model = DecisionTreeRegressor().fit(np.arange(10.0).reshape(-1, 1), np.full(10, 3.0))
        assert model.n_nodes_ == 1
        assert np.allclose(model.predict(np.array([[100.0]])), 3.0)

    def test_nonlinear_performance(self, nonlinear_problem):
        X_train, y_train, X_test, y_test = nonlinear_problem
        model = DecisionTreeRegressor(max_depth=8).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.85

    def test_invalid_max_features_raises(self):
        with pytest.raises(InvalidParameterError):
            DecisionTreeRegressor(max_features="bogus").fit(np.ones((5, 2)), np.ones(5))

    def test_empty_data_raises(self):
        with pytest.raises(InvalidParameterError):
            DecisionTreeRegressor().fit(np.empty((0, 2)), np.empty(0))

    def test_predict_with_missing_split_feature_raises(self):
        X = np.column_stack([np.zeros(20), np.arange(20.0)])
        model = DecisionTreeRegressor(max_depth=2).fit(X, np.arange(20.0))
        with pytest.raises(InvalidParameterError):
            model.predict(X[:, :1])


class TestRandomForest:
    def test_beats_single_tree_on_noise(self, nonlinear_problem):
        X_train, y_train, X_test, y_test = nonlinear_problem
        tree = DecisionTreeRegressor(max_depth=6, random_state=0).fit(X_train, y_train)
        forest = RandomForestRegressor(n_estimators=30, max_depth=6, random_state=0).fit(
            X_train, y_train
        )
        assert forest.score(X_test, y_test) >= tree.score(X_test, y_test) - 0.02

    def test_oob_mae_recorded(self, nonlinear_problem):
        X_train, y_train, _, _ = nonlinear_problem
        forest = RandomForestRegressor(n_estimators=15, random_state=0).fit(X_train, y_train)
        assert np.isfinite(forest.oob_mae_)

    def test_no_bootstrap_has_no_oob(self, nonlinear_problem):
        X_train, y_train, _, _ = nonlinear_problem
        forest = RandomForestRegressor(n_estimators=5, bootstrap=False).fit(X_train, y_train)
        assert np.isnan(forest.oob_mae_)

    def test_deterministic_given_seed(self, nonlinear_problem):
        X_train, y_train, X_test, _ = nonlinear_problem
        first = RandomForestRegressor(n_estimators=10, random_state=7).fit(X_train, y_train)
        second = RandomForestRegressor(n_estimators=10, random_state=7).fit(X_train, y_train)
        assert np.allclose(first.predict(X_test), second.predict(X_test))


class TestGradientBoosting:
    def test_nonlinear_accuracy(self, nonlinear_problem):
        X_train, y_train, X_test, y_test = nonlinear_problem
        model = GradientBoostingRegressor(n_estimators=100, random_state=0).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.9

    def test_training_loss_decreases(self, nonlinear_problem):
        X_train, y_train, _, _ = nonlinear_problem
        model = GradientBoostingRegressor(n_estimators=40).fit(X_train, y_train)
        assert model.train_scores_[-1] < model.train_scores_[0]

    def test_early_stopping_reduces_estimators(self, linear_problem):
        X_train, y_train, _, _ = linear_problem
        model = GradientBoostingRegressor(
            n_estimators=200, n_iter_no_change=5, random_state=0
        ).fit(X_train, y_train)
        assert model.n_estimators_ < 200

    def test_staged_predict_improves(self, nonlinear_problem):
        X_train, y_train, X_test, y_test = nonlinear_problem
        model = GradientBoostingRegressor(n_estimators=30, random_state=0).fit(X_train, y_train)
        stages = list(model.staged_predict(X_test))
        first_error = np.mean((stages[0] - y_test) ** 2)
        last_error = np.mean((stages[-1] - y_test) ** 2)
        assert last_error < first_error

    def test_invalid_subsample_raises(self):
        with pytest.raises(InvalidParameterError):
            GradientBoostingRegressor(subsample=0.0).fit(np.ones((5, 1)), np.ones(5))

    def test_unknown_loss_raises(self):
        with pytest.raises(InvalidParameterError):
            GradientBoostingRegressor(loss="poisson").fit(np.ones((5, 1)), np.ones(5))


class TestSVR:
    def test_linear_kernel_on_linear_problem(self, linear_problem):
        X_train, y_train, X_test, y_test = linear_problem
        model = SVR(kernel="linear", C=10.0).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.98

    def test_rbf_kernel_on_nonlinear_problem(self, nonlinear_problem):
        X_train, y_train, X_test, y_test = nonlinear_problem
        model = SVR(kernel="rbf", C=10.0).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.9

    def test_poly_kernel_runs(self, linear_problem):
        X_train, y_train, X_test, y_test = linear_problem
        model = SVR(kernel="poly", degree=2).fit(X_train, y_train)
        assert np.all(np.isfinite(model.predict(X_test)))

    def test_max_train_size_subsamples(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(500, 2))
        y = X[:, 0]
        model = SVR(max_train_size=100).fit(X, y)
        assert len(model.dual_coef_) == 100

    def test_invalid_parameters_raise(self):
        with pytest.raises(InvalidParameterError):
            SVR(C=-1.0).fit(np.ones((5, 1)), np.ones(5))
        with pytest.raises(InvalidParameterError):
            SVR(kernel="sigmoid").fit(np.ones((5, 1)), np.ones(5))
        with pytest.raises(InvalidParameterError):
            SVR(gamma=-2.0).fit(np.ones((5, 1)), np.ones(5))


class TestKNN:
    def test_exact_neighbor_lookup(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 10.0, 20.0, 30.0])
        model = KNeighborsRegressor(n_neighbors=1).fit(X, y)
        assert model.predict(np.array([[1.1]]))[0] == pytest.approx(10.0)

    def test_uniform_average(self):
        X = np.array([[0.0], [1.0], [10.0]])
        y = np.array([0.0, 2.0, 100.0])
        model = KNeighborsRegressor(n_neighbors=2).fit(X, y)
        assert model.predict(np.array([[0.5]]))[0] == pytest.approx(1.0)

    def test_distance_weighting_prefers_closer(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 10.0])
        model = KNeighborsRegressor(n_neighbors=2, weights="distance").fit(X, y)
        assert model.predict(np.array([[0.1]]))[0] < 5.0

    def test_k_larger_than_dataset_clamped(self):
        model = KNeighborsRegressor(n_neighbors=50).fit(np.arange(5.0).reshape(-1, 1), np.arange(5.0))
        assert np.isfinite(model.predict(np.array([[2.0]]))[0])

    def test_invalid_weights_raise(self):
        with pytest.raises(InvalidParameterError):
            KNeighborsRegressor(weights="gaussian").fit(np.ones((3, 1)), np.ones(3))


class TestMLP:
    def test_fits_nonlinear_function(self, nonlinear_problem):
        X_train, y_train, X_test, y_test = nonlinear_problem
        model = MLPRegressor(hidden_layer_sizes=(32, 16), max_iter=150, random_state=0)
        model.fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.85

    def test_loss_curve_decreases(self, linear_problem):
        X_train, y_train, _, _ = linear_problem
        model = MLPRegressor(max_iter=50, random_state=0).fit(X_train, y_train)
        assert model.loss_curve_[-1] < model.loss_curve_[0]

    def test_multi_output_shapes(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        Y = np.column_stack([X[:, 0], X[:, 1] * 2.0])
        model = MLPRegressor(max_iter=30).fit(X, Y)
        assert model.predict(X).shape == (200, 2)


class TestDeterminism:
    @given(st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_forest_deterministic_for_any_seed(self, seed):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = X[:, 0] + rng.normal(0, 0.1, 60)
        a = RandomForestRegressor(n_estimators=5, random_state=seed).fit(X, y).predict(X[:5])
        b = RandomForestRegressor(n_estimators=5, random_state=seed).fit(X, y).predict(X[:5])
        assert np.allclose(a, b)
