"""Tools for cleaning scraped auction data and scoring shill-bidding risk.

The pieces chain together: ingest reads raw scrape CSVs, preprocess
cleanses them into a typed bid table, metrics and dataset turn that
table into one feature row per (auction, bidder), and synth fabricates
corpora with known ground truth for testing the chain end to end.
"""
from .dataset import build_sb_dataset, pattern_stats, scan_outliers
from .errors import (
    ConfigError,
    DataConsistencyError,
    EmptyDatasetError,
    InvariantError,
    OutlierError,
    ParseError,
    SchemaError,
    ShillbidError,
)
from .ingest import (
    DEFAULT_RAW_SCHEMA,
    RawScanner,
    read_auctions,
    read_preprocessed,
    read_raw,
    read_sb_dataset,
    write_preprocessed,
    write_sb_dataset,
)
from .metrics import (
    DEFAULT_WEIGHTS,
    compute_global_aggregates,
    load_weights,
    weighted_score,
)
from .model import (
    METRIC_COLUMNS,
    PREPROCESSED_COLUMNS,
    SB_COLUMNS,
    AuctionView,
    Bid,
    BidRecord,
    SBInstance,
    group_bid_records,
    validate_dataset,
    winner_of,
)
from .preprocess import PipelineConfig, run_pipeline, run_pipeline_records
from .synth import SynthConfig, generate, write_corpus

__version__ = "0.1.0"

__all__ = [
    "AuctionView",
    "Bid",
    "BidRecord",
    "ConfigError",
    "DataConsistencyError",
    "DEFAULT_RAW_SCHEMA",
    "DEFAULT_WEIGHTS",
    "EmptyDatasetError",
    "InvariantError",
    "METRIC_COLUMNS",
    "OutlierError",
    "ParseError",
    "PipelineConfig",
    "PREPROCESSED_COLUMNS",
    "RawScanner",
    "SBInstance",
    "SB_COLUMNS",
    "SchemaError",
    "ShillbidError",
    "SynthConfig",
    "build_sb_dataset",
    "compute_global_aggregates",
    "generate",
    "group_bid_records",
    "load_weights",
    "pattern_stats",
    "read_auctions",
    "read_preprocessed",
    "read_raw",
    "read_sb_dataset",
    "run_pipeline",
    "run_pipeline_records",
    "scan_outliers",
    "validate_dataset",
    "weighted_score",
    "winner_of",
    "write_corpus",
    "write_preprocessed",
    "write_sb_dataset",
]
