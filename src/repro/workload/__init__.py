"""Workload synthesis and trace analysis (§IV-A, §VI-A)."""

from repro.workload.analysis import (
    keyword_frequency,
    repeated_columns_by_span,
    same_predicate_ratio_by_span,
    scan_query_share,
)
from repro.workload.datasets import (
    DatasetSpec,
    default_specs,
    load_paper_datasets,
    log_schema,
    synthesize,
    webpage_schema,
)
from repro.workload.generator import (
    TimedQuery,
    WorkloadConfig,
    WorkloadGenerator,
    scan_query_stream,
    skewed_join_dataset,
    skewed_join_queries,
)
from repro.workload.conversion import ConversionDaemon, start_conversion_daemons, write_raw_records
from repro.workload.loggen import LogIngestor, generate_log_records

__all__ = [
    "ConversionDaemon",
    "DatasetSpec",
    "LogIngestor",
    "TimedQuery",
    "WorkloadConfig",
    "WorkloadGenerator",
    "default_specs",
    "generate_log_records",
    "keyword_frequency",
    "load_paper_datasets",
    "log_schema",
    "repeated_columns_by_span",
    "same_predicate_ratio_by_span",
    "scan_query_share",
    "scan_query_stream",
    "skewed_join_dataset",
    "skewed_join_queries",
    "start_conversion_daemons",
    "write_raw_records",
    "synthesize",
    "webpage_schema",
]
