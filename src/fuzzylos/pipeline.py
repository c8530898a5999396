"""Measurement ingestion, synthetic data, accuracy evaluation, surface export.

The evaluation harness compares the inference system's rounded output with
the region oracle point by point, the same protocol as comparing an
approximation function against expert-labeled data.  Points the oracle does
not label are excluded from the accuracy denominator and reported separately,
as are points the system flags as anomalous.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Iterable, Iterator

from .engine import OutOfDomainError, SugenoFis, _infer_degrees, grid_value
from .regions import LosRegionModel, classifier, los_inputs, oracle_label

CSV_HEADER = ("timestamp", "speed_kmh", "flow_vph")
LABELED_CSV_HEADER = CSV_HEADER + ("los",)


class IngestError(ValueError):
    """The input CSV cannot be accepted (a bad header, or any bad row in ``label_csv``)."""


@dataclass(frozen=True)
class Measurement:
    """One traffic observation; the timestamp is carried through opaquely."""

    timestamp: str
    speed: float
    flow: float
    los: int | None = None


def _parse_quantity(text: str, column: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"line {line}: {column} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"line {line}: {column} must be finite, got {text!r}")
    if value < 0:
        raise ValueError(f"line {line}: {column} must be non-negative, got {text!r}")
    return value


_Quantities = tuple[float, float, int | None]


def _read_rows(
    text: str, labels: bool
) -> Iterator[tuple[int, list[str], _Quantities | ValueError]]:
    """Read measurement CSV through one ``csv.reader``, record by record.

    A missing or wrong header raises IngestError; ``labels`` admits the
    trailing ``los`` column.  Then, for each record that is not a blank or
    whitespace-only line, yields the record's first physical line (a quoted
    field may span several), its fields and either their validated
    (speed, flow, los) or the ValueError that rejects them, whose message
    names that line.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = tuple(h.strip() for h in next(reader))
    except StopIteration:
        raise IngestError("empty input: missing CSV header") from None
    except csv.Error as exc:
        raise IngestError(f"line 1: unparseable CSV ({exc})") from None
    labeled = labels and header == LABELED_CSV_HEADER
    if header != CSV_HEADER and not labeled:
        raise IngestError(
            f"bad CSV header {','.join(header)!r}; expected {','.join(CSV_HEADER)!r}"
            + (" (optionally with a trailing 'los' column)" if labels else "")
        )
    while True:
        line = reader.line_num + 1
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield line, [], ValueError(f"line {line}: unparseable CSV ({exc})")
            continue
        if len(record) < 2 and not "".join(record).strip():
            continue  # a blank or whitespace-only line
        try:
            if len(record) != len(header):
                raise ValueError(
                    f"line {line}: expected {len(header)} fields, got {len(record)}"
                )
            speed = _parse_quantity(record[1].strip(), "speed_kmh", line)
            flow = _parse_quantity(record[2].strip(), "flow_vph", line)
            los: int | None = None
            if labeled:
                los_text = record[3].strip()
                if los_text in {"1", "2", "3", "4", "5", "6"}:
                    los = int(los_text)
                elif los_text not in {"-", ""}:
                    raise ValueError(f"line {line}: los must be 1..6 or '-', got {los_text!r}")
            row: _Quantities | ValueError = (speed, flow, los)
        except ValueError as exc:
            row = exc
        yield line, record, row


def ingest(text: str) -> tuple[list[Measurement], list[str]]:
    """Parse measurement CSV, validating every row.

    The header must be ``timestamp,speed_kmh,flow_vph`` with an optional
    trailing ``los`` column of expert labels 1..6.  Quoted fields may hold
    commas, quotes and newlines.  Invalid rows are collected into the
    returned error list (with line numbers) and the valid rows are kept; a
    missing or wrong header raises IngestError.
    """
    rows: list[Measurement] = []
    errors: list[str] = []
    for _, record, row in _read_rows(text, labels=True):
        if isinstance(row, tuple):
            rows.append(Measurement(record[0].strip(), *row))
        else:
            errors.append(str(row))
    return rows, errors


def generate_synthetic(model: LosRegionModel, n: int, seed: int) -> list[Measurement]:
    """Manufacture measurements with the region model's labeled structure.

    Points fall uniformly inside the rectangles, proportionally to area.  A
    2% share of them is then pushed just across a randomly chosen internal
    rectangle edge (by up to 20 units, capped at the model envelope) to
    exercise boundary behavior.  Timestamps run at a 15-minute cadence from
    2023-01-02T00:00:00.  Deterministic for a given seed.
    """
    if n <= 0:
        raise ValueError(f"need a positive sample count, got {n}")
    rng = random.Random(seed)
    rects = [rect for _, rect in model.regions]
    areas = [
        (rect.flow_hi - rect.flow_lo) * (rect.speed_hi - rect.speed_lo) for rect in rects
    ]
    flow_env = model.flow_domain
    speed_env = model.speed_domain

    points: list[tuple[float, float]] = []
    chosen: list[int] = []
    for _ in range(n):
        index = rng.choices(range(len(rects)), weights=areas)[0]
        rect = rects[index]
        points.append(
            (rng.uniform(rect.flow_lo, rect.flow_hi), rng.uniform(rect.speed_lo, rect.speed_hi))
        )
        chosen.append(index)

    for i in rng.sample(range(n), round(n * 0.02)):
        rect = rects[chosen[i]]
        flow, speed = points[i]
        # internal edges only: never push a point out of the envelope
        edges = []
        if rect.flow_lo > flow_env[0]:
            edges.append(("flow", rect.flow_lo, -1.0, rect.flow_lo - flow_env[0]))
        if rect.flow_hi < flow_env[1]:
            edges.append(("flow", rect.flow_hi, +1.0, flow_env[1] - rect.flow_hi))
        if rect.speed_lo > speed_env[0]:
            edges.append(("speed", rect.speed_lo, -1.0, rect.speed_lo - speed_env[0]))
        if rect.speed_hi < speed_env[1]:
            edges.append(("speed", rect.speed_hi, +1.0, speed_env[1] - rect.speed_hi))
        if not edges:
            continue
        axis, edge, direction, room = rng.choice(edges)
        offset = direction * rng.uniform(0.0, min(20.0, room))
        if axis == "flow":
            flow = edge + offset
        else:
            speed = edge + offset
        points[i] = (flow, speed)

    t0 = datetime(2023, 1, 2)
    return [
        Measurement(
            timestamp=(t0 + timedelta(minutes=15 * i)).isoformat(),
            speed=speed,
            flow=flow,
        )
        for i, (flow, speed) in enumerate(points)
    ]


@dataclass
class EvaluationReport:
    """Point-by-point comparison of predictions against ground truth.

    ``confusion`` is indexed [truth - 1][predicted - 1] and counts the points
    that enter the accuracy denominator: ground-truth-labeled and not
    predicted anomalous.  ``total`` and ``mismatches`` derive from it, and
    ``points`` adds the unlabeled, anomalous and error points to ``total``.
    ``boundary_cases`` counts every classified point whose output sat
    between levels, labeled or not.
    """

    unlabeled: int = 0
    anomalies: int = 0
    boundary_cases: int = 0
    errors: list[str] = field(default_factory=list)
    confusion: list[list[int]] = field(
        default_factory=lambda: [[0] * 6 for _ in range(6)]
    )

    @property
    def total(self) -> int:
        return sum(map(sum, self.confusion))

    @property
    def mismatches(self) -> int:
        return self.total - sum(self.confusion[i][i] for i in range(6))

    @property
    def points(self) -> int:
        return self.total + self.unlabeled + self.anomalies + len(self.errors)

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            return 0.0
        return (self.total - self.mismatches) / self.total

    def to_dict(self) -> dict:
        return {
            "points": self.points,
            "total": self.total,
            "mismatches": self.mismatches,
            "unlabeled": self.unlabeled,
            "anomalies": self.anomalies,
            "boundary_cases": self.boundary_cases,
            "accuracy": self.accuracy,
            "errors": list(self.errors),
            "confusion": [row[:] for row in self.confusion],
        }

    def render(self) -> str:
        lines = [
            f"points:         {self.points}",
            f"evaluated:      {self.total}",
            f"mismatches:     {self.mismatches}",
            f"unlabeled:      {self.unlabeled}",
            f"anomalies:      {self.anomalies}",
            f"boundary cases: {self.boundary_cases}",
            f"errors:         {len(self.errors)}",
            f"accuracy:       {self.accuracy:.4%}",
            "",
            "confusion (rows = ground truth LoS, columns = predicted LoS):",
            "      " + "".join(f"{k:>7}" for k in range(1, 7)),
        ]
        for truth in range(6):
            row = "".join(f"{self.confusion[truth][p]:>7}" for p in range(6))
            lines.append(f"  {truth + 1:>2}  {row}")
        for message in self.errors:
            lines.append(f"error: {message}")
        return "\n".join(lines) + "\n"


def evaluate(
    fis: SugenoFis,
    model: LosRegionModel | None,
    data: Iterable[Measurement],
    epsilon: float = 0.05,
) -> EvaluationReport:
    """Score the system against ground truth, point by point.

    ``data`` is any iterable of measurements, read once, so a generator
    streams.  Ground truth is each measurement's ``los`` label when present,
    otherwise the region oracle (``model`` may be None only if every row is
    labeled).  Unlabeled points and anomalous predictions are excluded from
    the accuracy denominator.  A supplied ``los`` outside 1..6, and then a
    point outside the system's or the model's domain, are the per-point
    errors: they go into the report and never abort the run.  ``classifier``
    checks once, before any point is scored, so a bad ``epsilon`` raises
    ValueError and a system without exactly two inputs or without rules
    raises FisConfigError even if every point is out of domain.  Data
    without a single point then raises ValueError.
    """
    rate = classifier(fis, epsilon)
    report = EvaluationReport()
    for index, m in enumerate(data):
        truth = m.los
        if truth is not None and not 1 <= truth <= 6:
            report.errors.append(f"point {index} ({m.timestamp}): los must be 1..6, got {truth!r}")
            continue
        try:
            if truth is None and model is not None:
                truth = oracle_label(model, m.flow, m.speed)
            prediction = rate(m.flow, m.speed)
        except OutOfDomainError as exc:
            report.errors.append(f"point {index} ({m.timestamp}): {exc}")
            continue
        if prediction.boundary:
            report.boundary_cases += 1
        if truth is None:
            report.unlabeled += 1
            continue
        if prediction.is_anomaly:
            report.anomalies += 1
            continue
        assert prediction.level is not None
        report.confusion[truth - 1][prediction.level - 1] += 1
    if report.points == 0:
        raise ValueError("no data to evaluate")
    return report


def surface_grid(fis: SugenoFis, flow_steps: int, speed_steps: int):
    """Yield (flow, speed, InferenceResult) over an inclusive even grid,
    flow-major, whose last values are the domain maxima themselves.

    The grid is separable: each speed value and each flow row is fuzzified
    once, domain check included, and every cell goes through the kernel
    ``infer`` uses, so each cell is bit-identical to pointwise inference.
    The system must have exactly two inputs, flow first (FisConfigError
    otherwise), and an empty rule base raises from the first cell.
    """
    if flow_steps < 2 or speed_steps < 2:
        raise ValueError("surface export needs at least 2 steps per axis")
    flow_var, speed_var = los_inputs(fis)
    flo, fhi = flow_var.domain
    slo, shi = speed_var.domain
    flows = [grid_value(flo, fhi, flow_steps, i) for i in range(flow_steps)]
    speeds = [grid_value(slo, shi, speed_steps, j) for j in range(speed_steps)]
    speed_degrees = [speed_var.degrees(speed) for speed in speeds]
    for flow in flows:
        flow_degrees = flow_var.degrees(flow)
        for speed, degrees in zip(speeds, speed_degrees):
            yield flow, speed, _infer_degrees(fis, (flow_degrees, degrees))


def export_surface(fis: SugenoFis, flow_steps: int, speed_steps: int) -> str:
    """Render the raw inference surface as CSV ``flow_vph,speed_kmh,raw_los``.

    Values are raw, not rounded, so anomaly zones show up as the zero
    plateau.  Numbers use repr, the shortest round-trip form.
    """
    lines = ["flow_vph,speed_kmh,raw_los"]
    for flow, speed, result in surface_grid(fis, flow_steps, speed_steps):
        lines.append(f"{flow!r},{speed!r},{result.raw!r}")
    return "\n".join(lines) + "\n"


def label_csv(model: LosRegionModel, text: str) -> str:
    """Append an oracle ``los`` column to measurement CSV (all-or-nothing).

    Rows are read as ``ingest`` reads them; original field text is
    preserved and unlabeled rows get ``-``.  Any invalid row, or any row
    outside the model's envelope, rejects the whole input with an IngestError
    that names its line.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    # A "\n" terminator makes csv.writer quote "\n" but not a bare "\r",
    # which readers take for a line break, so such a row is quoted whole.
    quoting_writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(LABELED_CSV_HEADER)
    for line, record, row in _read_rows(text, labels=False):
        if not isinstance(row, tuple):
            raise IngestError(str(row))
        speed, flow, _ = row
        try:
            level = oracle_label(model, flow, speed)
        except OutOfDomainError as exc:
            raise IngestError(f"line {line}: {exc}") from None
        row_writer = quoting_writer if any("\r" in field for field in record) else writer
        row_writer.writerow(record + ["-" if level is None else level])
    return out.getvalue()
