"""Feed-forward neural network with back-propagation and Adam, in numpy.

This is the deep-learning substrate: the DL forecasters are thin wrappers
around :class:`FeedForwardNetwork`.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = ["FeedForwardNetwork"]

_ACTIVATIONS = ("relu", "tanh", "identity")


def _activate(name: str, values: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(values, 0.0)
    if name == "tanh":
        return np.tanh(values)
    return values


def _activate_gradient(name: str, pre_activation: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (pre_activation > 0).astype(float)
    if name == "tanh":
        return 1.0 - np.tanh(pre_activation) ** 2
    return np.ones_like(pre_activation)


class FeedForwardNetwork:
    """Dense network trained with mini-batch Adam on squared error.

    Parameters
    ----------
    layer_sizes:
        Sizes of every layer including input and output, e.g. ``(10, 64, 32, 1)``.
    activation:
        Hidden-layer activation: ``"relu"``, ``"tanh"`` or ``"identity"``.
        The output layer is always linear (regression).
    learning_rate, weight_decay:
        Adam step size and L2 penalty.
    """

    def __init__(
        self,
        layer_sizes: tuple[int, ...],
        activation: str = "relu",
        learning_rate: float = 1e-3,
        weight_decay: float = 0.0,
        random_state: int | None = 0,
    ):
        if len(layer_sizes) < 2:
            raise InvalidParameterError("Need at least an input and an output layer.")
        if any(size < 1 for size in layer_sizes):
            raise InvalidParameterError("Every layer must have at least one unit.")
        if activation not in _ACTIVATIONS:
            raise InvalidParameterError(
                f"Unknown activation {activation!r}; expected one of {_ACTIVATIONS}."
            )
        self.layer_sizes = tuple(int(size) for size in layer_sizes)
        self.activation = activation
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.random_state = random_state
        self._initialise_parameters()

    def _initialise_parameters(self) -> None:
        rng = np.random.default_rng(self.random_state)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        # Adam moment estimates.
        self._m_w = [np.zeros_like(w) for w in self.weights]
        self._v_w = [np.zeros_like(w) for w in self.weights]
        self._m_b = [np.zeros_like(b) for b in self.biases]
        self._v_b = [np.zeros_like(b) for b in self.biases]
        self._adam_step = 0

    # -- forward / backward ------------------------------------------------
    def forward(self, X: np.ndarray) -> np.ndarray:
        """Forward pass returning the network output."""
        activations = np.asarray(X, dtype=float)
        last_layer = len(self.weights) - 1
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            pre_activation = activations @ weight + bias
            if index == last_layer:
                activations = pre_activation
            else:
                activations = _activate(self.activation, pre_activation)
        return activations

    def _forward_cached(self, X: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        activations = [np.asarray(X, dtype=float)]
        pre_activations = []
        last_layer = len(self.weights) - 1
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            pre = activations[-1] @ weight + bias
            pre_activations.append(pre)
            if index == last_layer:
                activations.append(pre)
            else:
                activations.append(_activate(self.activation, pre))
        return activations, pre_activations

    def _backward(
        self,
        activations: list[np.ndarray],
        pre_activations: list[np.ndarray],
        targets: np.ndarray,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        batch_size = len(targets)
        grads_w = [np.zeros_like(w) for w in self.weights]
        grads_b = [np.zeros_like(b) for b in self.biases]

        # Squared-error loss gradient at the (linear) output layer.
        delta = 2.0 * (activations[-1] - targets) / batch_size
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = activations[layer].T @ delta + self.weight_decay * self.weights[layer]
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * _activate_gradient(
                    self.activation, pre_activations[layer - 1]
                )
        return grads_w, grads_b

    def _adam_update(self, grads_w: list[np.ndarray], grads_b: list[np.ndarray]) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self._adam_step += 1
        step = self._adam_step
        for layer in range(len(self.weights)):
            for params, grads, m, v in (
                (self.weights, grads_w, self._m_w, self._v_w),
                (self.biases, grads_b, self._m_b, self._v_b),
            ):
                m[layer] = beta1 * m[layer] + (1 - beta1) * grads[layer]
                v[layer] = beta2 * v[layer] + (1 - beta2) * grads[layer] ** 2
                m_hat = m[layer] / (1 - beta1**step)
                v_hat = v[layer] / (1 - beta2**step)
                params[layer] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    # -- training -----------------------------------------------------------
    def train(
        self,
        X: np.ndarray,
        y: np.ndarray,
        epochs: int = 100,
        batch_size: int = 32,
        tol: float = 1e-6,
    ) -> list[float]:
        """Train on ``(X, y)`` and return the per-epoch loss curve."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y.reshape(-1, 1)
        rng = np.random.default_rng(self.random_state)
        n_samples = len(X)
        batch_size = max(1, min(int(batch_size), n_samples))

        loss_curve: list[float] = []
        previous_loss = np.inf
        for _ in range(int(epochs)):
            order = rng.permutation(n_samples)
            for start in range(0, n_samples, batch_size):
                batch = order[start : start + batch_size]
                activations, pre_activations = self._forward_cached(X[batch])
                grads_w, grads_b = self._backward(activations, pre_activations, y[batch])
                self._adam_update(grads_w, grads_b)

            predictions = self.forward(X)
            loss = float(np.mean((predictions - y) ** 2))
            loss_curve.append(loss)
            if abs(previous_loss - loss) < tol:
                break
            previous_loss = loss
        return loss_curve

    @property
    def n_parameters(self) -> int:
        """Total number of trainable parameters."""
        return int(sum(w.size for w in self.weights) + sum(b.size for b in self.biases))
