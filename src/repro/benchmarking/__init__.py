"""Benchmarking framework (paper section 5, figure 4).

The container-based harness of the paper is reproduced as an in-process
framework with the same responsibilities: run AutoAI-TS and the ten SOTA
toolkits on every data set with a shared 80/20 train/test split, record
SMAPE and training time, mark toolkits that fail as "0 (0)" entries, and
aggregate everything into the rankings behind Figures 6-15 and the detail
rows of Tables 4-6.
"""

from .experiment import (
    BenchmarkProfile,
    FAST_PROFILE,
    FULL_PROFILE,
    autoai_toolkit_factories,
    internal_pipeline_factories,
    profile_multivariate_datasets,
    profile_univariate_datasets,
    sota_toolkit_factories,
)
from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    ManifestMismatchError,
    ManifestMismatchWarning,
    RunManifest,
    SharedManifest,
    suite_fingerprint,
    suite_spec,
)
from .costmodel import CellCostModel, pipeline_count, split_factories
from .results import BenchmarkResults, ToolkitRun
from .runner import BenchmarkRunner
from .sharding import CellQueue, entry_key
from .reporting import (
    render_average_rank_figure,
    render_detail_table,
    render_rank_histogram,
    render_shard_provenance,
    render_training_time_figure,
)

__all__ = [
    "BenchmarkRunner",
    "BenchmarkResults",
    "ToolkitRun",
    "RunManifest",
    "SharedManifest",
    "CellQueue",
    "entry_key",
    "CellCostModel",
    "pipeline_count",
    "split_factories",
    "ManifestMismatchError",
    "ManifestMismatchWarning",
    "suite_fingerprint",
    "suite_spec",
    "MANIFEST_SCHEMA_VERSION",
    "BenchmarkProfile",
    "FAST_PROFILE",
    "FULL_PROFILE",
    "sota_toolkit_factories",
    "autoai_toolkit_factories",
    "internal_pipeline_factories",
    "profile_univariate_datasets",
    "profile_multivariate_datasets",
    "render_detail_table",
    "render_average_rank_figure",
    "render_rank_histogram",
    "render_shard_provenance",
    "render_training_time_figure",
]
