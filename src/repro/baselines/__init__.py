"""Re-implementations of the ten SOTA forecasting toolkits used in section 5.

The original toolkits (GluonTS DeepAR, Facebook Prophet, pmdarima, PyAF,
N-BEATS, and the five AutoTS model-list configurations) are not available in
this offline environment, so each baseline here re-implements the toolkit's
*core algorithmic idea* with the substrates of this library, keeps the
zero-conf defaults of Table 3, and exposes the same ``fit``/``predict``
forecaster API so the benchmark harness can swap them in and out freely.
"""

from .autots_family import (
    ComponentToolkit,
    GLSToolkit,
    MotifToolkit,
    RollingRegressorToolkit,
    WindowRegressorToolkit,
)
from .deepar_like import DeepARLike
from .nbeats_like import NBeatsBaseline
from .pmdarima_like import PmdarimaLike
from .prophet_like import ProphetLike
from .pyaf_like import PyAFLike

__all__ = [
    "ProphetLike",
    "DeepARLike",
    "PmdarimaLike",
    "NBeatsBaseline",
    "PyAFLike",
    "WindowRegressorToolkit",
    "GLSToolkit",
    "RollingRegressorToolkit",
    "MotifToolkit",
    "ComponentToolkit",
]

#: Toolkit display names as used in the paper's tables/figures, mapped to classes.
SOTA_TOOLKITS = {
    "PMDArima": PmdarimaLike,
    "DeepAR": DeepARLike,
    "WindowRegressor": WindowRegressorToolkit,
    "PyAF": PyAFLike,
    "GLS": GLSToolkit,
    "RollingRegressor": RollingRegressorToolkit,
    "NBeats": NBeatsBaseline,
    "Motif": MotifToolkit,
    "Component": ComponentToolkit,
    "Prophet": ProphetLike,
}
