"""Exception hierarchy for the AutoAI-TS reproduction.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class NotFittedError(ReproError, RuntimeError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""

    def __init__(self, estimator_name: str = "estimator"):
        super().__init__(
            f"This {estimator_name} instance is not fitted yet. "
            "Call 'fit' before using this method."
        )


class DataQualityError(ReproError, ValueError):
    """Raised when the input data fails the initial quality check."""


class InvalidParameterError(ReproError, ValueError):
    """Raised when an estimator receives an invalid hyper-parameter value."""


class NonFiniteForecastError(ReproError, ValueError):
    """Raised when a forecast about to be returned or served contains NaN or inf."""


class PipelineExecutionError(ReproError, RuntimeError):
    """Raised when a pipeline fails during T-Daub evaluation.

    The orchestrator catches this error, records the failing pipeline and
    continues with the remaining candidates (mirroring the paper's behaviour
    where toolkits that do not finish are excluded from the ranking).
    """

    def __init__(self, pipeline_name: str, stage: str, original: Exception):
        self.pipeline_name = pipeline_name
        self.stage = stage
        self.original = original
        super().__init__(
            f"Pipeline '{pipeline_name}' failed during {stage}: {original!r}"
        )
