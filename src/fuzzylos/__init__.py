"""Fuzzy level-of-service toolkit.

A zeroth-order Takagi-Sugeno inference engine over (traffic flow, speed)
inputs, a small text DSL for describing systems, a rectangle-region oracle
for ground-truth LoS labels, and an evaluation pipeline.  The reference
calibration for Legerova Street (Prague, 3 lanes) ships as package data and
is the single source of truth for the default membership functions and rules.
"""

import os

from .dsl import (
    FisDocument,
    FisValidationError,
    ParseError,
    _read_text,
    build_fis,
    load_fis,
    parse,
    parse_fis,
    serialize,
)
from .engine import (
    FisConfigError,
    FuzzyVariable,
    InferenceResult,
    OutOfDomainError,
    Rule,
    SugenoFis,
    TrapezoidMF,
    infer,
)
from .pipeline import (
    EvaluationReport,
    IngestError,
    Measurement,
    evaluate,
    export_surface,
    generate_synthetic,
    ingest,
    label_csv,
)
from .regions import (
    LOS_DESCRIPTIONS,
    Classification,
    LosRegionModel,
    Rect,
    RegionError,
    classify,
    load_regions,
    oracle_label,
    parse_regions,
)
from .rulegen import RuleConflictError, generate_rules

__version__ = "0.1.0"

DEFAULT_FIS_NAME = "legerova.fis"
DEFAULT_REGIONS_NAME = "legerova.los"


def default_fis_text() -> str:
    return _read_text(os.path.join(os.path.dirname(__file__), "data", DEFAULT_FIS_NAME))


def default_regions_text() -> str:
    return _read_text(os.path.join(os.path.dirname(__file__), "data", DEFAULT_REGIONS_NAME))


def default_fis() -> SugenoFis:
    """The shipped Legerova Street inference system."""
    return parse_fis(default_fis_text())


def default_regions() -> LosRegionModel:
    """The shipped Legerova Street region model."""
    return parse_regions(default_regions_text())


__all__ = [
    "Classification",
    "EvaluationReport",
    "FisConfigError",
    "FisDocument",
    "FisValidationError",
    "FuzzyVariable",
    "IngestError",
    "InferenceResult",
    "LOS_DESCRIPTIONS",
    "LosRegionModel",
    "Measurement",
    "OutOfDomainError",
    "ParseError",
    "Rect",
    "RegionError",
    "Rule",
    "RuleConflictError",
    "SugenoFis",
    "TrapezoidMF",
    "build_fis",
    "classify",
    "default_fis",
    "default_fis_text",
    "default_regions",
    "default_regions_text",
    "evaluate",
    "export_surface",
    "generate_rules",
    "generate_synthetic",
    "infer",
    "ingest",
    "label_csv",
    "load_fis",
    "load_regions",
    "oracle_label",
    "parse",
    "parse_fis",
    "parse_regions",
    "serialize",
]
