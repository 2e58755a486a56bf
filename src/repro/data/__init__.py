"""Data sets used by the examples, tests and benchmark harness.

Three sources, mirroring section 5.1 of the paper:

* :mod:`repro.data.synthetic` — the 21-signal synthetic data set used for the
  controlled experiments of section 5.2 / figure 5.
* :mod:`repro.data.univariate_suite` — seeded surrogates for the 62 univariate
  real-world data sets (Table 4), preserving each set's name, size and signal
  character (trend, seasonality, noise level, spikes).
* :mod:`repro.data.multivariate_suite` — surrogates for the 9 multivariate
  data sets of Table 2/5.
"""

from .generators import SignalSpec, compose_signal
from .multivariate_suite import MULTIVARIATE_DATASET_SPECS, load_multivariate_dataset, multivariate_suite
from .synthetic import SYNTHETIC_SIGNAL_NAMES, synthetic_dataset, synthetic_signal
from .univariate_suite import UNIVARIATE_DATASET_SPECS, load_univariate_dataset, univariate_suite

__all__ = [
    "SignalSpec",
    "compose_signal",
    "synthetic_signal",
    "synthetic_dataset",
    "SYNTHETIC_SIGNAL_NAMES",
    "univariate_suite",
    "load_univariate_dataset",
    "UNIVARIATE_DATASET_SPECS",
    "multivariate_suite",
    "load_multivariate_dataset",
    "MULTIVARIATE_DATASET_SPECS",
]
