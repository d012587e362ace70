"""Box-counting multifractal analysis with seeded shuffle significance tests."""

from .bootstrap import (
    BootstrapConfig,
    BootstrapReport,
    bootstrap_analysis,
    replicate_clouds,
    shuffle_report,
)
from .ingest import (
    BoxScheme,
    IngestError,
    PriceSeries,
    derive_box_scheme,
    parse_intraday_csv,
    segment_by_day,
)
from .partition import MomentGrid
from .pipeline import DayAnalysis, analyze_series
from .synth import (
    CascadeSpec,
    analytic_binomial_tau,
    binomial_cascade,
    constant_series,
    random_positive_series,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "BootstrapReport",
    "BoxScheme",
    "CascadeSpec",
    "DayAnalysis",
    "IngestError",
    "MomentGrid",
    "PriceSeries",
    "analytic_binomial_tau",
    "analyze_series",
    "binomial_cascade",
    "bootstrap_analysis",
    "constant_series",
    "derive_box_scheme",
    "parse_intraday_csv",
    "random_positive_series",
    "replicate_clouds",
    "segment_by_day",
    "shuffle_report",
]
