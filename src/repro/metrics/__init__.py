"""Forecast accuracy metrics and toolkit ranking utilities."""

from .errors import smape
from .ranking import RankSummary, average_ranks, rank_histogram, rank_toolkits

__all__ = [
    "smape",
    "rank_toolkits",
    "average_ranks",
    "rank_histogram",
    "RankSummary",
]
