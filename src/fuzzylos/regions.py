"""Traffic-domain layer: LoS categories, the region oracle and classification.

The ground truth for a street is a set of pairwise disjoint rectangles in
(flow, speed) space, each carrying a level of service from 1 (free flow) to
6 (congested).  Containment is half open, closed on the low edge, except
that a rectangle touching the model's outer envelope keeps its high edge, so
every in-domain point belongs to at most one rectangle.

Classification rounds a two-input system's output to a level.
``classifier`` checks the system once and returns the per-point function
that ``classify`` and ``pipeline.evaluate`` share; it fuzzifies both inputs
and fires the engine's kernel directly, as ``pipeline.surface_grid`` does.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field

from .engine import (
    FisConfigError, FuzzyVariable, Location, OutOfDomainError, SugenoFis, _infer_degrees
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
    """A region model file or definition is invalid.

    ``location`` says what a LosRegionModel refused: ``("lanes",)``, or
    ``("regions", k)`` for its k-th (level, rectangle) pair, the later one of
    two that overlap; ``()`` for the model as a whole or for a Rect.
    ``parse_regions`` maps a location to the line that states it.
    """

    def __init__(self, message: str, location: Location = ()):
        self.location = location
        super().__init__(message)


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
            raise RegionError(f"lane count must be positive, got {self.lanes}", ("lanes",))
        for k, (level, _) in enumerate(self.regions):
            if level not in LOS_DESCRIPTIONS:
                raise RegionError(f"level of service must be 1..6, got {level}", ("regions", k))
        for i, (level_a, a) in enumerate(self.regions):
            for k, (level_b, b) in enumerate(self.regions[i + 1:], start=i + 1):
                if a.overlaps(b):
                    raise RegionError(
                        f"rectangles for LoS {level_a} and LoS {level_b} overlap",
                        ("regions", k),
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

    Every error that concerns one statement, the model's own checks
    included, starts with that statement's "line N: ".
    """
    lanes = 1
    regions: list[tuple[int, Rect]] = []
    lines: dict[Location, int] = {}  # model location -> line number
    for number, raw in enumerate(source.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if tokens[0] == "lanes":
            if len(tokens) != 2 or not re.fullmatch(r"\d+", tokens[1]):
                raise RegionError(f"line {number}: expected 'lanes <n>'")
            lanes = int(tokens[1])
            lines[("lanes",)] = number
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
                bounds = float(tokens[3]), float(tokens[4]), float(tokens[6]), float(tokens[7])
                regions.append((int(tokens[1]), Rect(*bounds)))
            except ValueError as exc:  # a bad number, or a RegionError from Rect
                raise RegionError(f"line {number}: {exc}") from None
            lines[("regions", len(regions) - 1)] = number
        else:
            raise RegionError(f"line {number}: unknown statement {tokens[0]!r}")
    try:
        return LosRegionModel(regions=tuple(regions), lanes=lanes)
    except RegionError as exc:
        if exc.location not in lines:
            raise
        raise RegionError(f"line {lines[exc.location]}: {exc}", exc.location) from None


def load_regions(path) -> LosRegionModel:
    """``parse_regions`` of a UTF-8 file; a leading byte-order mark is ignored."""
    with open(path, "r", encoding="utf-8-sig") as handle:
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

    @property
    def is_anomaly(self) -> bool:
        return self.level is None

    def label(self) -> str:
        return "ANOMALY" if self.level is None else str(self.level)


def los_inputs(fis: SugenoFis) -> tuple[FuzzyVariable, FuzzyVariable]:
    """The (flow, speed) inputs of a LoS system, in that order; FisConfigError
    unless ``fis`` has exactly two inputs."""
    if len(fis.inputs) != 2:
        raise FisConfigError(f"LoS needs a two-input system, got {len(fis.inputs)} inputs")
    flow_var, speed_var = fis.inputs
    return flow_var, speed_var


def classifier(fis: SugenoFis, epsilon: float) -> Callable[[float, float], Classification]:
    """Check ``epsilon`` and ``fis`` once and return the function that
    classifies one (flow, speed) pair.

    Raises ValueError for an epsilon outside [0, 0.5), then FisConfigError
    for a system without exactly two inputs or without rules.  The function
    fuzzifies the flow, then the speed, and fires the kernel; raw outputs
    round half up and clamp to [1, 6], and no rule firing is an anomaly.
    """
    if not 0 <= epsilon < 0.5:
        raise ValueError(f"epsilon must lie in [0, 0.5), got {epsilon}")
    flow_var, speed_var = los_inputs(fis)
    fis.check_rules()

    def rate(flow: float, speed: float) -> Classification:
        result = _infer_degrees(fis, (flow_var.degrees(flow), speed_var.degrees(speed)))
        raw = result.raw
        if result.fired_rule_count == 0:
            return Classification(raw=raw, level=None, boundary=False)
        level = min(max(math.floor(raw + 0.5), 1), 6)
        return Classification(raw=raw, level=level, boundary=abs(raw - round(raw)) > epsilon)

    return rate


def classify(fis: SugenoFis, flow: float, speed: float, epsilon: float = 0.05) -> Classification:
    """Classify one (flow, speed) pair through a two-input LoS system whose
    first input takes the flow; ``classifier`` checks ``epsilon`` and the
    system first, so they raise before the point's domain is checked."""
    return classifier(fis, epsilon)(flow, speed)
