"""Traffic-domain layer: LoS categories, the region oracle and classification.

The ground truth for a street is a set of pairwise disjoint rectangles in
(flow, speed) space, each carrying a level of service from 1 (free flow) to
6 (congested).  Containment is half open, closed on the low edge, except
that a rectangle touching the model's outer envelope keeps its high edge, so
every in-domain point belongs to at most one rectangle.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .engine import (
    FisConfigError,
    FuzzyVariable,
    InferenceResult,
    OutOfDomainError,
    SugenoFis,
    infer,
)

LOS_DESCRIPTIONS = {
    1: "The traffic flow is free.",
    2: "Traffic flow is almost continuous.",
    3: "The traffic situation is stable.",
    4: "The traffic situation is still stable.",
    5: "The lane capacity is full.",
    6: "The section is congested.",
}


class RegionError(ValueError):
    """A region model file or definition is invalid."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [flow_lo, flow_hi) x [speed_lo, speed_hi)
    with finite bounds."""

    flow_lo: float
    flow_hi: float
    speed_lo: float
    speed_hi: float

    def __post_init__(self) -> None:
        bounds = (self.flow_lo, self.flow_hi, self.speed_lo, self.speed_hi)
        if not all(math.isfinite(bound) for bound in bounds):
            raise RegionError(
                f"rectangle bounds must be finite, got flow [{self.flow_lo}, "
                f"{self.flow_hi}] speed [{self.speed_lo}, {self.speed_hi}]"
            )
        if not (self.flow_lo < self.flow_hi and self.speed_lo < self.speed_hi):
            raise RegionError(
                f"degenerate rectangle flow [{self.flow_lo}, {self.flow_hi}] "
                f"speed [{self.speed_lo}, {self.speed_hi}]"
            )

    def overlaps(self, other: "Rect") -> bool:
        return (
            self.flow_lo < other.flow_hi
            and other.flow_lo < self.flow_hi
            and self.speed_lo < other.speed_hi
            and other.speed_lo < self.speed_hi
        )


@dataclass(frozen=True)
class LosRegionModel:
    """Disjoint (level, rectangle) pairs plus lane-count provenance.

    The model's domain is the bounding envelope of its rectangles, computed
    once at construction as ``flow_domain`` and ``speed_domain``; a rectangle
    edge that coincides with the envelope maximum is treated as closed so
    envelope-boundary points stay labeled.
    """

    regions: tuple[tuple[int, Rect], ...]
    lanes: int = 1

    flow_domain: tuple[float, float] = field(init=False, repr=False, compare=False)
    speed_domain: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.regions:
            raise RegionError("a region model needs at least one rectangle")
        if self.lanes < 1:
            raise RegionError(f"lane count must be positive, got {self.lanes}")
        for level, _ in self.regions:
            if level not in LOS_DESCRIPTIONS:
                raise RegionError(f"level of service must be 1..6, got {level}")
        items = list(self.regions)
        for i, (level_a, a) in enumerate(items):
            for level_b, b in items[i + 1:]:
                if a.overlaps(b):
                    raise RegionError(
                        f"rectangles for LoS {level_a} and LoS {level_b} overlap"
                    )
        rects = [r for _, r in self.regions]
        object.__setattr__(
            self, "flow_domain",
            (min(r.flow_lo for r in rects), max(r.flow_hi for r in rects)),
        )
        object.__setattr__(
            self, "speed_domain",
            (min(r.speed_lo for r in rects), max(r.speed_hi for r in rects)),
        )

    def contains(self, flow: float, speed: float) -> bool:
        flo, fhi = self.flow_domain
        slo, shi = self.speed_domain
        return flo <= flow <= fhi and slo <= speed <= shi


def oracle_label(model: LosRegionModel, flow: float, speed: float) -> int | None:
    """Level of the unique rectangle containing the point, or None (unlabeled).

    Rectangles are half open (closed low edge); an edge lying on the model
    envelope's maximum is closed.  Points outside the envelope raise
    OutOfDomainError.
    """
    if not model.contains(flow, speed):
        flo, fhi = model.flow_domain
        slo, shi = model.speed_domain
        raise OutOfDomainError(
            f"point (flow={flow}, speed={speed}) outside model domain "
            f"[{flo}, {fhi}] x [{slo}, {shi}]"
        )
    _, env_flow_hi = model.flow_domain
    _, env_speed_hi = model.speed_domain
    for level, rect in model.regions:
        flow_ok = rect.flow_lo <= flow < rect.flow_hi or (
            flow == rect.flow_hi == env_flow_hi
        )
        speed_ok = rect.speed_lo <= speed < rect.speed_hi or (
            speed == rect.speed_hi == env_speed_hi
        )
        if flow_ok and speed_ok:
            return level
    return None


def parse_regions(source: str) -> LosRegionModel:
    """Parse a ``.los`` region file.

    One statement per line, ``#`` comments::

        lanes 3
        region 1 flow 0 1500 speed 50 80
    """
    lanes = 1
    regions: list[tuple[int, Rect]] = []
    for number, raw in enumerate(source.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if tokens[0] == "lanes":
            if len(tokens) != 2 or not re.fullmatch(r"\d+", tokens[1]):
                raise RegionError(f"line {number}: expected 'lanes <n>'")
            lanes = int(tokens[1])
        elif tokens[0] == "region":
            if (
                len(tokens) != 8
                or tokens[2] != "flow"
                or tokens[5] != "speed"
                or not re.fullmatch(r"\d+", tokens[1])
            ):
                raise RegionError(
                    f"line {number}: expected 'region <level> flow <lo> <hi> speed <lo> <hi>'"
                )
            try:
                flow_lo, flow_hi = float(tokens[3]), float(tokens[4])
                speed_lo, speed_hi = float(tokens[6]), float(tokens[7])
            except ValueError as exc:
                raise RegionError(f"line {number}: {exc}") from None
            try:
                regions.append((int(tokens[1]), Rect(flow_lo, flow_hi, speed_lo, speed_hi)))
            except RegionError as exc:
                raise RegionError(f"line {number}: {exc}") from None
        else:
            raise RegionError(f"line {number}: unknown statement {tokens[0]!r}")
    return LosRegionModel(regions=tuple(regions), lanes=lanes)


def load_regions(path) -> LosRegionModel:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_regions(handle.read())


@dataclass(frozen=True)
class Classification:
    """Rounded reading of one inference: raw value, level, boundary flag.

    ``level`` is None exactly when no rule fired (anomaly).  ``boundary``
    marks non-anomalous outputs that sit more than epsilon away from the
    nearest integer, i.e. inputs between two service levels.
    """

    raw: float
    level: int | None
    boundary: bool
    result: InferenceResult

    @property
    def is_anomaly(self) -> bool:
        return self.level is None

    def label(self) -> str:
        return "ANOMALY" if self.level is None else str(self.level)


def round_half_up(value: float) -> int:
    return math.floor(value + 0.5)


def los_inputs(fis: SugenoFis) -> tuple[FuzzyVariable, FuzzyVariable]:
    """The (flow, speed) inputs of a LoS system, in that order; FisConfigError
    unless ``fis`` has exactly two inputs."""
    if len(fis.inputs) != 2:
        raise FisConfigError(f"LoS needs a two-input system, got {len(fis.inputs)} inputs")
    flow_var, speed_var = fis.inputs
    return flow_var, speed_var


def check_classification(
    fis: SugenoFis, epsilon: float
) -> tuple[FuzzyVariable, FuzzyVariable]:
    """Check that ``fis`` and ``epsilon`` can classify (flow, speed) pairs and
    return the (flow, speed) inputs.

    Raises ValueError for an epsilon outside [0, 0.5), then FisConfigError
    for a system without exactly two inputs or without rules.  No point is
    involved, so a caller can make the check once, before its first point.
    """
    if not 0 <= epsilon < 0.5:
        raise ValueError(f"epsilon must lie in [0, 0.5), got {epsilon}")
    inputs = los_inputs(fis)
    fis.check_rules()
    return inputs


def classify(fis: SugenoFis, flow: float, speed: float, epsilon: float = 0.05) -> Classification:
    """Classify one (flow, speed) pair through a two-input LoS system.

    The first input variable of the system takes the flow, the second the
    speed.  ``check_classification`` runs first, so a bad epsilon or system
    raises before the point's domain is checked.  Raw outputs round half up
    and clamp to [1, 6]; a zero-fired inference is an anomaly, never a level.
    """
    flow_var, speed_var = check_classification(fis, epsilon)
    result = infer(fis, {flow_var.name: flow, speed_var.name: speed})
    if result.fired_rule_count == 0:
        return Classification(raw=result.raw, level=None, boundary=False, result=result)
    level = min(max(round_half_up(result.raw), 1), 6)
    boundary = abs(result.raw - round(result.raw)) > epsilon
    return Classification(raw=result.raw, level=level, boundary=boundary, result=result)
