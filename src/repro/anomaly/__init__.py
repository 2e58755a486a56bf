"""Online residual drift watching for the streaming engine.

:class:`ResidualDriftWatcher` is a stateful observer fed one forecast
residual per arrival; it reports sustained regime change
(:class:`DriftReport`), which :mod:`repro.stream` answers with a
warm-started re-rank.
"""

from .watch import DriftReport, ResidualDriftWatcher

__all__ = ["DriftReport", "ResidualDriftWatcher"]
