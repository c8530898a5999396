"""Traffic-domain layer: LoS categories, the region oracle and classification.

The ground truth for a street is a set of pairwise disjoint rectangles in
(flow, speed) space, each carrying a level of service from 1 (free flow) to
6 (congested).  Containment is half open, closed on the low edge, except
that a rectangle touching the model's outer envelope keeps its high edge, so
every in-domain point belongs to at most one rectangle.  The model decides
those closed edges once, at construction; the oracle and rule generation
then test plain half-open boxes.  ``.los`` files are read with the ``.fis``
line lexer of ``dsl``.

Classification rounds a two-input system's output to a level.  ``classifier``
checks the system once and returns the per-point function that ``classify``
and ``pipeline.evaluate`` share: it reads the engine's memo and fires its one
kernel, ``SugenoFis._fire``, as ``infer`` and ``pipeline.export_surface`` do,
and returns a plain ``(raw, level, boundary)``, which ``classify`` wraps.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .dsl import ParseError, _read_text, _statements
from .engine import FisConfigError, FuzzyVariable, Location, OutOfDomainError, SugenoFis

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
    once at construction as ``flow_domain`` and ``speed_domain``.  The model
    also decides its closed edges once: a rectangle edge that coincides with
    the envelope maximum is closed, so envelope-boundary points stay labeled.
    ``_boxes`` holds each pair as a half-open box ``(level, flow_lo, flow_hi,
    speed_lo, speed_hi)`` whose closed high edges moved up one float: for
    every float x, ``x <= hi`` exactly when ``x < nextafter(hi, inf)``.
    """

    regions: tuple[tuple[int, Rect], ...]
    lanes: int = 1

    flow_domain: tuple[float, float] = field(init=False, repr=False, compare=False)
    speed_domain: tuple[float, float] = field(init=False, repr=False, compare=False)
    _boxes: tuple[tuple[int, float, float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.regions:
            raise RegionError("a region model needs at least one rectangle")
        if type(self.lanes) is not int or self.lanes < 1:
            raise RegionError(f"lane count must be positive, got {self.lanes!r}", ("lanes",))
        for k, (level, _) in enumerate(self.regions):
            if type(level) is not int or level not in LOS_DESCRIPTIONS:
                raise RegionError(f"level of service must be 1..6, got {level!r}", ("regions", k))
        for i, (level_a, a) in enumerate(self.regions):
            for k, (level_b, b) in enumerate(self.regions[i + 1:], start=i + 1):
                if a.overlaps(b):
                    raise RegionError(
                        f"rectangles for LoS {level_a} and LoS {level_b} overlap",
                        ("regions", k),
                    )
        rects = [r for _, r in self.regions]
        flow_hi = max(r.flow_hi for r in rects)
        speed_hi = max(r.speed_hi for r in rects)
        object.__setattr__(self, "flow_domain", (min(r.flow_lo for r in rects), flow_hi))
        object.__setattr__(self, "speed_domain", (min(r.speed_lo for r in rects), speed_hi))
        flow_top, speed_top = math.nextafter(flow_hi, math.inf), math.nextafter(speed_hi, math.inf)
        object.__setattr__(self, "_boxes", tuple(
            (level, r.flow_lo, flow_top if r.flow_hi == flow_hi else r.flow_hi,
             r.speed_lo, speed_top if r.speed_hi == speed_hi else r.speed_hi)
            for level, r in self.regions
        ))


def oracle_label(model: LosRegionModel, flow: float, speed: float) -> int | None:
    """Level of the unique rectangle containing the point, or None (unlabeled).

    Rectangles are half open (closed low edge); an edge lying on the model
    envelope's maximum is closed, which the model's boxes already encode.
    Points outside the envelope raise OutOfDomainError; no box reaches past
    the envelope, so the check waits until no box holds the point.
    """
    for level, flow_lo, flow_hi, speed_lo, speed_hi in model._boxes:
        if flow_lo <= flow < flow_hi and speed_lo <= speed < speed_hi:
            return level
    flo, fhi = model.flow_domain
    slo, shi = model.speed_domain
    if not (flo <= flow <= fhi and slo <= speed <= shi):
        raise OutOfDomainError(
            f"point (flow={flow}, speed={speed}) outside model domain "
            f"[{flo}, {fhi}] x [{slo}, {shi}]"
        )
    return None


def parse_regions(source: str) -> LosRegionModel:
    """Parse a ``.los`` region file.

    One statement per line, ``#`` comments::

        lanes 3
        region 1 flow 0 1500 speed 50 80

    ``lanes`` may appear at most once.  A syntax error or a second ``lanes``
    starts with "line N, column C: ".  Every other error that
    concerns one statement, the model's own checks included, starts with
    that statement's "line N: ".
    """
    lanes = 1
    regions: list[tuple[int, Rect]] = []
    lines: dict[Location, int] = {}  # model location -> line number
    for line in _statements(source):
        try:
            statement, column = line.keyword("lanes", "region")
            if statement == "lanes":
                lanes, _ = line.count("the lane count")
                line.end()
                if ("lanes",) in lines:
                    raise ParseError(line.lineno, column, "duplicate lanes statement")
                lines[("lanes",)] = line.lineno
                continue
            level, _ = line.count("the level")
            line.keyword("flow")
            flow = line.number("a flow bound")[0], line.number("a flow bound")[0]
            line.keyword("speed")
            speed = line.number("a speed bound")[0], line.number("a speed bound")[0]
            line.end()
            regions.append((level, Rect(*flow, *speed)))
        except ParseError as exc:
            raise RegionError(str(exc)) from None
        except RegionError as exc:  # from Rect
            raise RegionError(f"line {line.lineno}: {exc}") from None
        lines[("regions", len(regions) - 1)] = line.lineno
    try:
        return LosRegionModel(regions=tuple(regions), lanes=lanes)
    except RegionError as exc:
        if exc.location not in lines:
            raise
        raise RegionError(f"line {lines[exc.location]}: {exc}", exc.location) from None


def load_regions(path) -> LosRegionModel:
    """``parse_regions`` of a UTF-8 file; a leading byte-order mark is ignored."""
    return parse_regions(_read_text(path))


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


def classifier(fis: SugenoFis, epsilon: float) -> Callable[[float, float], tuple]:
    """Check ``epsilon`` and ``fis`` once and return the function that rates
    one (flow, speed) pair as a plain ``(raw, level, boundary)`` tuple.

    Raises ValueError for an epsilon outside [0, 0.5), then FisConfigError
    for a system without exactly two inputs or without rules.  The function
    locates the flow, then the speed, and fires the kernel unless the cell
    tuple's record is decided; raw outputs round half up and clamp to
    [1, 6], and no rule firing is an anomaly.
    """
    if not 0 <= epsilon < 0.5:
        raise ValueError(f"epsilon must lie in [0, 0.5), got {epsilon}")
    flow_var, speed_var = los_inputs(fis)
    fis.check_rules()
    record, fire = fis._record, fis._fire

    def rate(flow: float, speed: float) -> tuple[float, int | None, bool]:
        flow_cell, speed_cell = flow_var._locate(flow), speed_var._locate(speed)
        candidates, decided = record((flow_cell, speed_cell))
        raw, fired = decided or fire(
            candidates, (flow_var._fill(flow_cell, flow), speed_var._fill(speed_cell, speed))
        )
        if fired == 0:
            return raw, None, False
        return raw, min(max(math.floor(raw + 0.5), 1), 6), abs(raw - round(raw)) > epsilon

    return rate


def classify(fis: SugenoFis, flow: float, speed: float, epsilon: float = 0.05) -> Classification:
    """Classify one (flow, speed) pair through a two-input LoS system whose
    first input takes the flow: ``classifier``'s tuple as a Classification.
    Its checks of ``epsilon`` and the system raise before the domain's."""
    return Classification(*classifier(fis, epsilon)(flow, speed))
