"""Surrogates for the 62 univariate benchmark data sets (Table 4).

The paper benchmarks on 62 public/real univariate series ranging from 144
observations (AirPassengers) to 145,366 (PJME-MW), drawn from R/forecast
example data, NAB cloud-monitoring traces, Twitter volumes and PJM hourly
energy consumption.  None of those files ship with this offline
reproduction, so each data set is replaced by a *seeded surrogate* that keeps

* the original name and (approximate) published length,
* the domain's signal character (seasonal periods, trend, noise level,
  spikes, random-walk behaviour), and
* the paper's timestamp-regeneration rule (daily below 1000 samples,
  minutely above — see ``repro.timeutils.regenerate_paper_timestamps``).

This keeps the rank-based comparisons of Figures 6-9 meaningful: what
matters for the benchmark is that the pool of data sets spans the same mix
of "easy seasonal", "trending", "bursty" and "random-walk like" behaviours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import SignalSpec, compose_signal

__all__ = ["UnivariateDatasetSpec", "UNIVARIATE_DATASET_SPECS", "load_univariate_dataset", "univariate_suite"]


@dataclass(frozen=True)
class UnivariateDatasetSpec:
    """Description of one surrogate data set.

    Attributes
    ----------
    name:
        Data set name as it appears in Table 4 of the paper.
    paper_size:
        Approximate number of observations reported/used in the paper.
    category:
        Signal family used to synthesise the surrogate (see ``_CATEGORIES``).
    """

    name: str
    paper_size: int
    category: str


# Signal families by application domain.  Periods are expressed in samples.
_CATEGORIES: dict[str, dict] = {
    "monthly_seasonal": dict(
        level=200.0, trend=0.25, seasonal_periods=(12.0,), seasonal_amplitudes=(40.0,),
        noise_std=8.0, positive=True,
    ),
    "quarterly_seasonal": dict(
        level=300.0, trend=0.4, seasonal_periods=(4.0,), seasonal_amplitudes=(35.0,),
        noise_std=10.0, positive=True,
    ),
    "weekly_seasonal": dict(
        level=120.0, trend=0.02, seasonal_periods=(7.0,), seasonal_amplitudes=(18.0,),
        noise_std=5.0, positive=True,
    ),
    "daily_dual_seasonal": dict(
        level=500.0, trend=0.01, seasonal_periods=(24.0, 168.0),
        seasonal_amplitudes=(60.0, 90.0), noise_std=20.0, positive=True,
    ),
    "yearly_temperature": dict(
        level=15.0, seasonal_periods=(365.25,), seasonal_amplitudes=(8.0,), noise_std=2.5,
    ),
    "random_walk_finance": dict(
        level=800.0, random_walk_std=6.0, noise_std=1.0, positive=True,
    ),
    "cloud_monitoring": dict(
        level=40.0, seasonal_periods=(288.0,), seasonal_amplitudes=(4.0,),
        noise_std=2.0, outlier_fraction=0.01, outlier_scale=10.0, positive=True,
    ),
    "bursty_counts": dict(
        level=30.0, seasonal_periods=(288.0,), seasonal_amplitudes=(8.0,),
        noise_std=6.0, noise_multiplicative=True, outlier_fraction=0.02,
        outlier_scale=12.0, positive=True,
    ),
    "traffic_sensor": dict(
        level=65.0, seasonal_periods=(288.0, 2016.0), seasonal_amplitudes=(10.0, 4.0),
        noise_std=3.0, outlier_fraction=0.005, outlier_scale=6.0, positive=True,
    ),
    "energy_hourly": dict(
        level=15000.0, trend=0.0, seasonal_periods=(24.0, 168.0, 8766.0),
        seasonal_amplitudes=(1800.0, 1200.0, 2500.0), noise_std=400.0, positive=True,
    ),
    "sunspot_cycle": dict(
        level=50.0, seasonal_periods=(132.0,), seasonal_amplitudes=(40.0,),
        noise_std=12.0, positive=True,
    ),
}


def _spec_entries() -> list[UnivariateDatasetSpec]:
    entries = [
        # R-forecast style monthly/quarterly sets (small, strongly seasonal).
        ("AirPassengers", 144, "monthly_seasonal"),
        ("a10", 204, "monthly_seasonal"),
        ("h02", 204, "monthly_seasonal"),
        ("ausbeer", 218, "quarterly_seasonal"),
        ("qauselec", 218, "quarterly_seasonal"),
        ("qgas", 218, "quarterly_seasonal"),
        ("ozone", 216, "monthly_seasonal"),
        ("qcement", 233, "quarterly_seasonal"),
        ("melsyd", 283, "weekly_seasonal"),
        ("elecdaily", 365, "weekly_seasonal"),
        ("hyndsight", 365, "weekly_seasonal"),
        ("Births", 365, "weekly_seasonal"),
        ("auscafe", 426, "monthly_seasonal"),
        ("usmelec", 486, "monthly_seasonal"),
        ("departures", 500, "monthly_seasonal"),
        ("goog", 1000, "random_walk_finance"),
        ("speed", 1400, "traffic_sensor"),
        ("gasoline", 1355, "weekly_seasonal"),
        # NAB ad-exchange and operational traces.
        ("exchange-3-cpc-results", 1538, "bursty_counts"),
        ("exchange-3-cpm-results", 1538, "bursty_counts"),
        ("exchange-2-cpc-results", 1624, "bursty_counts"),
        ("exchange-2-cpm-results", 1624, "bursty_counts"),
        ("exchange-4-cpc-results", 1643, "bursty_counts"),
        ("exchange-4-cpm-results", 1643, "bursty_counts"),
        ("TravelTime-451", 2162, "traffic_sensor"),
        ("occupancy-6005", 2380, "traffic_sensor"),
        ("speed-t4013", 2495, "traffic_sensor"),
        ("TravelTime-387", 2500, "traffic_sensor"),
        ("occupancy-t4013", 2500, "traffic_sensor"),
        ("speed-6005", 2500, "traffic_sensor"),
        ("Sunspots", 2820, "sunspot_cycle"),
        ("Min-Temp", 3650, "yearly_temperature"),
        # NAB AWS CloudWatch traces.
        ("ec2-cpu-utilization-24ae8d", 4032, "cloud_monitoring"),
        ("ec2-cpu-utilization-53ea38", 4032, "cloud_monitoring"),
        ("ec2-cpu-utilization-5f5533", 4032, "cloud_monitoring"),
        ("ec2-cpu-utilization-77c1ca", 4032, "cloud_monitoring"),
        ("ec2-cpu-utilization-825cc2", 4032, "cloud_monitoring"),
        ("ec2-cpu-utilization-ac20cd", 4032, "cloud_monitoring"),
        ("ec2-cpu-utilization-c6585a", 4032, "cloud_monitoring"),
        ("ec2-cpu-utilization-fe7f93", 4032, "cloud_monitoring"),
        ("ec2-network-in-257a54", 4032, "cloud_monitoring"),
        ("elb-request-count-8c0756", 4032, "bursty_counts"),
        ("rds-cpu-utilization-e47b3b", 4032, "cloud_monitoring"),
        ("rds-cpu-utilization-cc0c53", 4032, "cloud_monitoring"),
        ("ec2-network-in-5abac7", 4730, "bursty_counts"),
        # Twitter volume traces.
        ("Twitter-volume-AMZN", 15831, "bursty_counts"),
        ("Twitter-volume-UPS", 15866, "bursty_counts"),
        ("Twitter-volume-GOOG", 15842, "bursty_counts"),
        ("Twitter-volume-AAPL", 15902, "bursty_counts"),
        # Half-hourly / hourly demand data.
        ("elecdemand", 17520, "daily_dual_seasonal"),
        ("calls", 27716, "daily_dual_seasonal"),
        # PJM hourly energy consumption (Kaggle).
        ("PJM-Load-MW", 32896, "energy_hourly"),
        ("EKPC-MW", 45334, "energy_hourly"),
        ("DEOK-MW", 57739, "energy_hourly"),
        ("NI-MW", 58450, "energy_hourly"),
        ("FE-MW", 62874, "energy_hourly"),
        ("DOM-MW", 116189, "energy_hourly"),
        ("DUQ-MW", 119068, "energy_hourly"),
        ("AEP-MW", 121273, "energy_hourly"),
        ("DAYTON", 121275, "energy_hourly"),
        ("PJMW-MW", 143206, "energy_hourly"),
        ("PJME-MW", 145366, "energy_hourly"),
    ]
    return [UnivariateDatasetSpec(name, size, category) for name, size, category in entries]


#: Ordered specification of the 62 univariate surrogate data sets.
UNIVARIATE_DATASET_SPECS: tuple[UnivariateDatasetSpec, ...] = tuple(_spec_entries())


def load_univariate_dataset(
    name: str, max_length: int | None = None, seed_offset: int = 0
) -> np.ndarray:
    """Generate the surrogate series for one named data set.

    Parameters
    ----------
    name:
        One of the Table 4 data-set names (see ``UNIVARIATE_DATASET_SPECS``).
    max_length:
        Optional cap on the generated length so laptop-scale benchmark runs
        stay fast.  The paper-reported size is used when ``None``.
    seed_offset:
        Added to the per-dataset seed; lets tests draw independent replicas.
    """
    for index, spec in enumerate(UNIVARIATE_DATASET_SPECS):
        if spec.name == name:
            length = spec.paper_size if max_length is None else min(spec.paper_size, max_length)
            parameters = dict(_CATEGORIES[spec.category])
            signal_spec = SignalSpec(length=int(length), **parameters)
            return compose_signal(signal_spec, seed=1000 + index + seed_offset)
    known = [spec.name for spec in UNIVARIATE_DATASET_SPECS]
    raise KeyError(f"Unknown univariate data set {name!r}. Known: {known}")


def univariate_suite(
    max_length: int | None = None, limit: int | None = None, seed_offset: int = 0
) -> dict[str, np.ndarray]:
    """Generate the full univariate suite (optionally truncated for speed).

    Parameters
    ----------
    max_length:
        Cap on each series' length.
    limit:
        Only generate the first ``limit`` data sets (ordered as in Table 4,
        i.e. smallest first), used by the fast benchmark profiles.
    """
    specs = UNIVARIATE_DATASET_SPECS[: limit if limit is not None else None]
    return {
        spec.name: load_univariate_dataset(spec.name, max_length=max_length, seed_offset=seed_offset)
        for spec in specs
    }
