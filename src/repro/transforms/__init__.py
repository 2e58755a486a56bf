"""Data transformations used to build forecasting pipelines.

* :class:`LogTransform` — the stateless transform of the paper's
  ``(log)`` pipelines, inverted element-wise at prediction time.
* :class:`InterpolationImputer` — fills missing values; the quality-check
  stage runs its :func:`~repro.transforms.impute.interpolate_series`.
* :func:`make_supervised_windows` — frames a series into look-back windows
  for the window regressors.

The difference, flatten and localized-flatten windows of the three
AutoEnsemblers are built inline by
:class:`~repro.hybrid.auto_ensembler.FlattenAutoEnsembler` and its
subclasses, not by separate transform objects.
"""

from .impute import InterpolationImputer
from .stateless import LogTransform
from .window import make_supervised_windows

__all__ = [
    "LogTransform",
    "InterpolationImputer",
    "make_supervised_windows",
]
