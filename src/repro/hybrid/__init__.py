"""Statistical-ML hybrid and window-based ML forecasters.

These are the "Stats-ML Hybrid Models" and "ML Models" boxes of the paper's
architecture (figure 2): IID regressors wrapped behind look-back window
transforms (``WindowRegressor`` and its ``WindowRandomForest`` /
``WindowSVR`` instantiations), the AutoEnsembler family over flattened
look-back windows, and the multivariate trend-to-residual forecaster
(``MT2RForecaster``).
"""

from .auto_ensembler import (
    DifferenceFlattenAutoEnsembler,
    FlattenAutoEnsembler,
    LocalizedFlattenAutoEnsembler,
)
from .mt2r import MT2RForecaster
from .window_regressor import WindowRandomForestForecaster, WindowRegressor, WindowSVRForecaster

__all__ = [
    "WindowRegressor",
    "WindowRandomForestForecaster",
    "WindowSVRForecaster",
    "FlattenAutoEnsembler",
    "DifferenceFlattenAutoEnsembler",
    "LocalizedFlattenAutoEnsembler",
    "MT2RForecaster",
]
