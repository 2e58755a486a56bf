"""Kernel support vector regression (epsilon-insensitive loss).

The WindowSVR pipeline of the paper wraps an SVR behind the look-back window
transform.  This implementation solves the primal problem with the
representer theorem: the prediction function is a kernel expansion over the
training points and the coefficients are found with L-BFGS on a smoothed
epsilon-insensitive loss.  This avoids an external QP solver while keeping
the familiar SVR behaviour (flat epsilon tube, C-controlled regularisation,
RBF/linear/polynomial kernels, sparse-ish support vectors).
"""

from __future__ import annotations

import numpy as np

from .._validation import check_consistent_length
from ..core.base import BaseRegressor, check_is_fitted
from ..exceptions import InvalidParameterError

__all__ = ["SVR"]

_KERNELS = ("rbf", "linear", "poly")


class SVR(BaseRegressor):
    """Epsilon-insensitive support vector regression.

    Parameters
    ----------
    kernel:
        ``"rbf"`` (default), ``"linear"`` or ``"poly"``.
    C:
        Inverse regularisation strength; larger values fit the data harder.
    epsilon:
        Half-width of the insensitive tube.
    gamma:
        RBF/poly kernel coefficient; ``"scale"`` uses ``1 / (n_features * var(X))``.
    degree:
        Degree of the polynomial kernel.
    max_train_size:
        When the training set is larger, only the most recent
        ``max_train_size`` rows are used (keeps the kernel matrix small, the
        same trick production AutoML systems use for SVR on long series).
    """

    def __init__(
        self,
        kernel: str = "rbf",
        C: float = 1.0,
        epsilon: float = 0.1,
        gamma: str | float = "scale",
        degree: int = 3,
        max_iter: int = 200,
        max_train_size: int = 1500,
        random_state: int | None = 0,
    ):
        self.kernel = kernel
        self.C = C
        self.epsilon = epsilon
        self.gamma = gamma
        self.degree = degree
        self.max_iter = max_iter
        self.max_train_size = max_train_size
        self.random_state = random_state

    # -- kernels ---------------------------------------------------------
    def _gamma_value(self, X: np.ndarray) -> float:
        if isinstance(self.gamma, str):
            if self.gamma != "scale":
                raise InvalidParameterError("gamma must be a float or 'scale'.")
            variance = float(X.var())
            if variance <= 0:
                variance = 1.0
            return 1.0 / (X.shape[1] * variance)
        value = float(self.gamma)
        if value <= 0:
            raise InvalidParameterError("gamma must be positive.")
        return value

    def _kernel_matrix(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if self.kernel == "linear":
            return A @ B.T
        if self.kernel == "poly":
            return (self._gamma_ * (A @ B.T) + 1.0) ** int(self.degree)
        if self.kernel == "rbf":
            squared_a = np.sum(A**2, axis=1)[:, None]
            squared_b = np.sum(B**2, axis=1)[None, :]
            squared_distance = np.clip(squared_a + squared_b - 2.0 * A @ B.T, 0.0, None)
            return np.exp(-self._gamma_ * squared_distance)
        raise InvalidParameterError(
            f"Unknown kernel {self.kernel!r}; expected one of {_KERNELS}."
        )

    # -- fitting ----------------------------------------------------------
    def fit(self, X, y) -> "SVR":
        if self.C <= 0:
            raise InvalidParameterError("C must be positive.")
        if self.epsilon < 0:
            raise InvalidParameterError("epsilon must be non-negative.")

        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        check_consistent_length(X, y)

        # Keep only the most recent rows when the problem is large.
        if len(y) > int(self.max_train_size):
            X = X[-int(self.max_train_size) :]
            y = y[-int(self.max_train_size) :]

        # Standardise features and target for numerical stability.
        self._x_mean = X.mean(axis=0)
        x_scale = X.std(axis=0)
        x_scale[x_scale == 0] = 1.0
        self._x_scale = x_scale
        self._y_mean = float(y.mean())
        y_scale = float(y.std())
        self._y_scale = y_scale if y_scale > 0 else 1.0

        Xs = (X - self._x_mean) / self._x_scale
        ys = (y - self._y_mean) / self._y_scale

        self._gamma_ = self._gamma_value(Xs)
        K = self._kernel_matrix(Xs, Xs)
        n_samples = len(ys)
        regularisation = 1.0 / (2.0 * self.C * n_samples)
        epsilon = self.epsilon / self._y_scale
        smoothing = 1e-3  # huberisation width of the epsilon-insensitive loss

        def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
            beta = params[:-1]
            bias = params[-1]
            predictions = K @ beta + bias
            residuals = ys - predictions
            excess = np.abs(residuals) - epsilon
            outside = excess > 0
            # Smoothed epsilon-insensitive loss and its derivative w.r.t. prediction.
            quadratic = outside & (excess <= smoothing)
            linear = excess > smoothing
            loss_terms = np.zeros(n_samples)
            loss_terms[quadratic] = 0.5 * excess[quadratic] ** 2 / smoothing
            loss_terms[linear] = excess[linear] - 0.5 * smoothing
            dloss_dpred = np.zeros(n_samples)
            sign = -np.sign(residuals)
            dloss_dpred[quadratic] = sign[quadratic] * excess[quadratic] / smoothing
            dloss_dpred[linear] = sign[linear]

            value = float(np.mean(loss_terms)) + regularisation * float(beta @ K @ beta)
            grad_beta = K @ dloss_dpred / n_samples + 2.0 * regularisation * (K @ beta)
            grad_bias = float(np.mean(dloss_dpred))
            return value, np.append(grad_beta, grad_bias)

        from scipy import optimize

        initial = np.zeros(n_samples + 1)
        result = optimize.minimize(
            objective,
            initial,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": int(self.max_iter)},
        )
        params = result.x
        self.dual_coef_ = params[:-1]
        self.intercept_ = float(params[-1])
        self._X_train = Xs
        support_mask = np.abs(self.dual_coef_) > 1e-8
        self.support_ = np.where(support_mask)[0]
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ("dual_coef_",))
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        Xs = (X - self._x_mean) / self._x_scale
        K = self._kernel_matrix(Xs, self._X_train)
        standardized = K @ self.dual_coef_ + self.intercept_
        # A target scale that overflowed gives a non-finite forecast, which
        # is refused where it is scored or served; it need not warn here.
        with np.errstate(over="ignore", invalid="ignore"):
            return standardized * self._y_scale + self._y_mean
