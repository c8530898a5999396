"""Fuzzy level-of-service toolkit.

A zeroth-order Takagi-Sugeno inference engine over (traffic flow, speed)
inputs, a small text DSL for describing systems, a rectangle-region oracle
for ground-truth LoS labels, and an evaluation pipeline.  The reference
calibration for Legerova Street (Prague, 3 lanes) ships as package data and
is the single source of truth for the default membership functions and rules.
"""

from importlib import resources

from .dsl import (
    FisDocument,
    FisValidationError,
    ParseError,
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
    surface_grid,
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
    round_half_up,
)
from .rulegen import RuleConflictError, generate_rules, half_cut

__version__ = "0.1.0"

DEFAULT_FIS_NAME = "legerova.fis"
DEFAULT_REGIONS_NAME = "legerova.los"


def default_fis_text() -> str:
    return resources.files(__name__).joinpath("data", DEFAULT_FIS_NAME).read_text("utf-8")


def default_regions_text() -> str:
    return resources.files(__name__).joinpath("data", DEFAULT_REGIONS_NAME).read_text("utf-8")


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
    "half_cut",
    "infer",
    "ingest",
    "label_csv",
    "load_fis",
    "load_regions",
    "oracle_label",
    "parse",
    "parse_fis",
    "parse_regions",
    "round_half_up",
    "serialize",
    "surface_grid",
]
