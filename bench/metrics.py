"""Every metric the benchmark reports, with its unit and what it should move.

BENCHMARK.json lists the same names, units, directions and bounds (a test
keeps the two in step); the `moves` column, which BENCHMARK.json has no field
for, records the end-to-end metric and workloads each per-layer metric
should move, so that a later change can name its prediction beforehand.
"""

# (name, unit, better, bound).  Both times are medians of times rescaled by
# the yardstick (yardstick.py); bounds come from their measured spread on a
# shared 2-core machine, and set-up keeps the largest bound.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("job_s", "s", "lower", 0.15),
)

_SETUP = "setup_s on every workload"
_INFER = "job_s on csv-eval and surface; flat on genrules"
_ORACLE = "job_s on csv-eval and genrules; flat on surface"
_GENRULES = "job_s on genrules"
_CSV = "job_s and peak_rss_mb on csv-eval"
_SURFACE = "job_s and peak_rss_mb on surface"
_SHARE = "none: an input property, cited by claims that depend on it"

# (name, unit, better, moves)
PER_LAYER = (
    ("cli.import_s", "s", "lower", _SETUP),
    ("dsl.parse_s", "s", "lower", _SETUP),
    ("dsl.build_fis_s", "s", "lower", _SETUP),
    ("regions.parse_regions_s", "s", "lower", _SETUP),
    ("dsl.serialize_s", "s", "lower", _GENRULES),
    ("dsl.reparse_s", "s", "lower", _GENRULES),
    ("engine.infer_us.p50", "us", "lower", _INFER),
    ("engine.infer_us.p99", "us", "lower", _INFER),
    ("engine.infer_calls", "calls/job", "lower", _INFER),
    ("engine.fired_per_call", "rules/call", "lower", _INFER),
    ("engine.fire_ratio", "ratio", "higher", _INFER),
    ("engine.anomaly_share", "ratio", "lower", _SHARE),
    ("regions.boundary_share", "ratio", "lower", _SHARE),
    ("regions.unlabeled_share", "ratio", "lower", _SHARE),
    ("regions.oracle_us.p50", "us", "lower", _ORACLE),
    ("regions.oracle_us.p99", "us", "lower", _ORACLE),
    ("regions.oracle_calls", "calls/job", "lower", _ORACLE),
    ("regions.classify_self_us", "us", "lower", "job_s on csv-eval"),
    ("rulegen.generate_rules_s", "s", "lower", _GENRULES),
    ("rulegen.oracle_calls", "calls/job", "lower", _GENRULES),
    ("rulegen.oracle_s", "s", "lower", _GENRULES),
    ("rulegen.self_s", "s", "lower", _GENRULES),
    ("rulegen.labeled_ratio", "ratio", "higher", _GENRULES),
    ("pipeline.ingest_us_per_row", "us/row", "lower", _CSV),
    ("pipeline.label_csv_self_us_per_row", "us/row", "lower", _CSV),
    ("pipeline.evaluate_self_us_per_row", "us/row", "lower", _CSV),
    ("pipeline.surface_grid_us_per_cell", "us/cell", "lower", _SURFACE),
    ("pipeline.export_format_us_per_cell", "us/cell", "lower", _SURFACE),
    ("trace.overhead", "x", "lower", "none: traced job_s over untraced job_s"),
)
