"""Statistical substrate: regression, correlation, spectral and information tools.

These are the numerical building blocks used by the look-back window
discovery mechanism (paper section 4.1), the statistical forecasters and the
influence-vector ranking.
"""

from .acf import acf, yule_walker
from .boxcox import boxcox_lambda, boxcox_transform, inverse_boxcox_transform
from .linear_model import OLSResult, f_test_regression, ols_fit
from .mutual_info import mutual_information
from .spectral import dominant_period, periodogram
from .stattests import (
    adf_stationarity_stat,
    is_constant,
    mean_crossing_period,
    zero_crossings,
)

__all__ = [
    "acf",
    "yule_walker",
    "boxcox_lambda",
    "boxcox_transform",
    "inverse_boxcox_transform",
    "OLSResult",
    "ols_fit",
    "f_test_regression",
    "mutual_information",
    "periodogram",
    "dominant_period",
    "zero_crossings",
    "mean_crossing_period",
    "adf_stationarity_stat",
    "is_constant",
]
