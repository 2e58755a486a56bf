"""Histogram-based mutual information estimate.

One of the three influence measures the paper lists for ranking candidate
look-back windows ("mutual information based measure to capture any
relationship").
"""

from __future__ import annotations

import numpy as np

__all__ = ["mutual_information"]


def _entropy_from_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    probabilities = counts[counts > 0] / total
    return float(-np.sum(probabilities * np.log(probabilities)))


def mutual_information(x, y, bins: int = 16) -> float:
    """Estimate I(X; Y) in nats using an equal-width 2-D histogram.

    Returns 0 for degenerate inputs (constant series or too few samples).
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = min(len(x), len(y))
    if n < 4:
        return 0.0
    x = x[:n]
    y = y[:n]
    mask = np.isfinite(x) & np.isfinite(y)
    x, y = x[mask], y[mask]
    if len(x) < 4 or np.ptp(x) == 0 or np.ptp(y) == 0:
        return 0.0

    bins = int(max(2, min(bins, int(np.sqrt(len(x))))))
    joint, _, _ = np.histogram2d(x, y, bins=bins)
    h_x = _entropy_from_counts(joint.sum(axis=1))
    h_y = _entropy_from_counts(joint.sum(axis=0))
    h_xy = _entropy_from_counts(joint.ravel())
    return float(max(h_x + h_y - h_xy, 0.0))
