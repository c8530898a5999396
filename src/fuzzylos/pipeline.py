"""Measurement ingestion, synthetic data, accuracy evaluation, surface export.

The evaluation harness compares the inference system's rounded output with
the region oracle point by point, the same protocol as comparing an
approximation function against expert-labeled data.  Points the oracle does
not label are excluded from the accuracy denominator and reported separately,
as are points the system flags as anomalous.
"""

from __future__ import annotations

# csv (in _read_rows only), random and datetime are imported where used: a CLI start loads none.
import io
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, groupby

from .engine import OutOfDomainError, SugenoFis, grid_value
from .regions import LosRegionModel, classifier, los_inputs, oracle_label

CSV_HEADER = ("timestamp", "speed_kmh", "flow_vph")
LABELED_CSV_HEADER = CSV_HEADER + ("los",)


class IngestError(ValueError):
    """The input CSV cannot be accepted (a bad header, or any bad row in ``label_csv``)."""


Measurement = namedtuple("Measurement", ("timestamp", "speed", "flow", "los"), defaults=(None,))
Measurement.__doc__ = "One traffic observation; the timestamp is carried through opaquely."


def _rejection(record: list[str], line: int) -> ValueError:
    """The error for a record whose speed or flow ``_read_rows`` refuses,
    naming the speed if both are refused."""
    for column, text in (("speed_kmh", record[1].strip()), ("flow_vph", record[2].strip())):
        try:
            value = float(text)
        except ValueError:
            return ValueError(f"line {line}: {column} {text!r} is not a number")
        if not math.isfinite(value):
            return ValueError(f"line {line}: {column} must be finite, got {text!r}")
        if value < 0:
            return ValueError(f"line {line}: {column} must be non-negative, got {text!r}")
    raise AssertionError(f"line {line}: speed and flow are both acceptable")


_Row = tuple[str, float, float, int | None]
_LOS = {"-": None, "": None, **{str(level): level for level in range(1, 7)}}


def _read_rows(text: str, labels: bool) -> Iterator[tuple[int, list[str], _Row | ValueError]]:
    """Read measurement CSV through one ``csv.reader``, record by record.

    A missing or wrong header raises IngestError; ``labels`` admits the
    trailing ``los`` column.  Then, for each record that is not a blank or
    whitespace-only line, yields the record's first physical line (a quoted
    field may span several), its fields and either their validated
    (timestamp, speed, flow, los) or the ValueError that rejects them, whose
    message names that line.  A quantity is accepted exactly when ``float``
    reads its stripped text as a finite number that is not negative.  Each
    quantity costs one ``float`` call as it stands; only if one of them
    fails, as padding such as ``\\x1c``-``\\x1f`` makes it, are both read
    again stripped.
    """
    import csv

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
    width, inf = len(header), math.inf
    line = reader.line_num + 1
    while True:
        try:
            for record in reader:
                if len(record) == width:
                    try:
                        speed, flow = float(record[1]), float(record[2])
                    except ValueError:
                        # float() refuses \x1c-\x1f around a number, strip() drops them
                        try:
                            speed, flow = float(record[1].strip()), float(record[2].strip())
                        except ValueError:
                            speed = flow = math.nan
                    row: _Row | ValueError
                    if not (0.0 <= speed < inf and 0.0 <= flow < inf):
                        row = _rejection(record, line)
                    elif not labeled:
                        row = (record[0].strip(), speed, flow, None)
                    elif (los_text := record[3].strip()) in _LOS:
                        row = (record[0].strip(), speed, flow, _LOS[los_text])
                    else:
                        row = ValueError(f"line {line}: los must be 1..6 or '-', got {los_text!r}")
                    yield line, record, row
                elif len(record) > 1 or "".join(record).strip():  # blank lines yield nothing
                    message = f"line {line}: expected {width} fields, got {len(record)}"
                    yield line, record, ValueError(message)
                line = reader.line_num + 1
            return
        except csv.Error as exc:
            yield line, [], ValueError(f"line {line}: unparseable CSV ({exc})")
            line = reader.line_num + 1


def ingest(text: str) -> tuple[list[Measurement], list[str]]:
    """Parse measurement CSV, validating every row.

    The header must be ``timestamp,speed_kmh,flow_vph`` with an optional
    trailing ``los`` column of expert labels 1..6.  Quoted fields may hold
    commas, quotes and newlines.  Invalid rows are collected into the
    returned error list (with line numbers) and the valid rows are kept; a
    missing or wrong header raises IngestError.  Each quantity is read with
    one ``float`` call unless it is padded with what ``float`` refuses
    (see ``_read_rows``).
    """
    rows: list[Measurement] = []
    errors: list[str] = []
    new = tuple.__new__  # the reader's rows always have four fields: no _make length check
    for _, _, row in _read_rows(text, labels=True):
        if type(row) is tuple:
            rows.append(new(Measurement, row))
        else:
            errors.append(str(row))
    return rows, errors


def generate_synthetic(model: LosRegionModel, n: int, seed: int) -> list[Measurement]:
    """Manufacture measurements with the region model's labeled structure.

    Points fall uniformly inside the rectangles, proportionally to area.  A
    2% share of them is then pushed just across a randomly chosen internal
    rectangle edge (by up to 20 units, capped at the model envelope) to
    exercise boundary behavior.  Timestamps run at a 15-minute cadence from
    2023-01-02T00:00:00.  Deterministic for a given seed.  A model whose
    rectangle areas sum to 0 or overflow to inf raises ValueError.
    """
    if type(n) is not int or n <= 0:
        raise ValueError(f"need a positive sample count, got {n!r}")
    import random
    from datetime import datetime, timedelta

    rng = random.Random(seed)
    rects = [rect for _, rect in model.regions]
    areas = ((rect.flow_hi - rect.flow_lo) * (rect.speed_hi - rect.speed_lo) for rect in rects)
    cum_areas = list(accumulate(areas))
    if not 0.0 < cum_areas[-1] < math.inf:  # every area underflows to 0, or the sum overflows
        raise ValueError(f"no area to draw points by: rectangle areas sum to {cum_areas[-1]!r}")
    samples = []  # (rect, [flow, speed]) per draw
    for _ in range(n):
        rect = rng.choices(rects, cum_weights=cum_areas)[0]
        flow = rng.uniform(rect.flow_lo, rect.flow_hi)
        samples.append((rect, [flow, rng.uniform(rect.speed_lo, rect.speed_hi)]))

    for i in rng.sample(range(n), round(n * 0.02)):
        rect, point = samples[i]
        # internal edges only: never push a point out of the envelope
        edges = []
        for axis, lo, hi, (env_lo, env_hi) in (
            (0, rect.flow_lo, rect.flow_hi, model.flow_domain),
            (1, rect.speed_lo, rect.speed_hi, model.speed_domain),
        ):
            if lo > env_lo:
                edges.append((axis, lo, -1.0, lo - env_lo))
            if hi < env_hi:
                edges.append((axis, hi, +1.0, env_hi - hi))
        if edges:
            axis, edge, direction, room = rng.choice(edges)
            point[axis] = edge + direction * rng.uniform(0.0, min(20.0, room))

    t0 = datetime(2023, 1, 2)
    return [
        Measurement(timestamp=(t0 + timedelta(minutes=15 * i)).isoformat(), speed=speed, flow=flow)
        for i, (_, (flow, speed)) in enumerate(samples)
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
    the accuracy denominator.  A supplied ``los`` that is not an int in
    1..6, and then a point outside the system's or the model's domain, are
    the per-point errors: they go into the report and never abort the run.
    Each point's ``(raw, level, boundary)`` from ``classifier`` is unpacked
    as is.  ``classifier`` checks once, before any point is scored, so a bad
    ``epsilon`` raises ValueError and a system without exactly two inputs or
    without rules raises FisConfigError even if every point is out of
    domain.  Data without a single point then raises ValueError.
    """
    rate = classifier(fis, epsilon)
    report = EvaluationReport()
    errors, confusion = report.errors, report.confusion
    unlabeled = anomalies = boundary_cases = 0
    for index, m in enumerate(data):
        truth = m.los
        if truth is not None and (type(truth) is not int or not 1 <= truth <= 6):
            errors.append(f"point {index} ({m.timestamp}): los must be 1..6, got {truth!r}")
            continue
        flow, speed = m.flow, m.speed
        try:
            if truth is None and model is not None:
                truth = oracle_label(model, flow, speed)
            _, level, boundary = rate(flow, speed)
        except OutOfDomainError as exc:
            errors.append(f"point {index} ({m.timestamp}): {exc}")
            continue
        if boundary:
            boundary_cases += 1
        if truth is None:
            unlabeled += 1
        elif level is None:
            anomalies += 1
        else:
            confusion[truth - 1][level - 1] += 1
    report.unlabeled, report.anomalies, report.boundary_cases = unlabeled, anomalies, boundary_cases
    if report.points == 0:
        raise ValueError("no data to evaluate")
    return report


def export_surface(fis: SugenoFis, flow_steps: int, speed_steps: int) -> str:
    """Render the raw inference surface as CSV ``flow_vph,speed_kmh,raw_los``.

    Both axes are inclusive even grids whose last values are the domain
    maxima themselves; rows run flow-major.  Values are raw, not rounded, so
    anomaly zones show up as the zero plateau.  Numbers use repr, the
    shortest round-trip form.  Step counts that are not ints of at least 2
    raise ValueError, and a system without exactly two inputs (flow first)
    or without rules raises FisConfigError.

    Each speed and each flow is located once, by ``_locate``, which checks
    the domain, and filled once, by ``_fill``.  Each axis is grouped by cell,
    then within a cell into runs of consecutive values with equal degrees;
    the grids ascend, so each cell is one group.  At the top of each flow
    cell each speed cell's record is read into a row of one entry per speed
    cell, in grid order: a decided pair's tails, speed and raw text, built
    once per speed cell and raw ``repr`` (0.0 == -0.0) and shared by every
    flow cell giving that text; or an undecided pair's candidates and speed
    runs.  Each flow run walks that row once.  Per undecided pair of runs
    the kernel ``infer`` uses, a pure function of its inputs, runs once, and
    the raw value is formatted once for all the speed run's values; degrees
    are never NaN or -0.0, so equal degrees are identical inputs and each
    value is bit-identical to ``infer``.
    """
    if not all(type(steps) is int and steps >= 2 for steps in (flow_steps, speed_steps)):
        raise ValueError("surface export needs at least 2 steps per axis")
    flow_var, speed_var = los_inputs(fis)
    fis.check_rules()
    speeds = (grid_value(*speed_var.domain, speed_steps, j) for j in range(speed_steps))
    speed_cells = []  # (cell, its runs' degrees and speed texts), in grid order
    for cell, values in groupby(speeds, speed_var._locate):
        runs = groupby(values, partial(speed_var._fill, cell))
        speed_cells.append((cell, [(degrees, [f",{s!r}," for s in run]) for degrees, run in runs]))
    record, fire = fis._record, fis._fire
    flows = (grid_value(*flow_var.domain, flow_steps, i) for i in range(flow_steps))
    lines = ["flow_vph,speed_kmh,raw_los"]
    shared = {}
    for flow_cell, values in groupby(flows, flow_var._locate):
        row = []  # per speed cell: its decided tails, or what firing its runs needs
        for speed_cell, speed_runs in speed_cells:
            candidates, decided = record((flow_cell, speed_cell))
            if decided:
                key = speed_cell, repr(decided[0])  # the raw's text, as 0.0 == -0.0
                if key not in shared:
                    shared[key] = [t + key[1] for _, texts in speed_runs for t in texts]
                row.append((shared[key], None, ()))
            else:
                row.append(((), candidates, speed_runs))
        for flow_degrees, run in groupby(values, partial(flow_var._fill, flow_cell)):
            tails = []
            for decided_tails, candidates, speed_runs in row:
                tails += decided_tails
                for degrees, texts in speed_runs:
                    raw_text = repr(fire(candidates, (flow_degrees, degrees))[0])
                    for speed_text in texts:
                        tails.append(speed_text + raw_text)
            for flow in run:
                flow_text = repr(flow)
                lines.append(flow_text + ("\n" + flow_text).join(tails))
    return "\n".join(lines) + "\n"


_LEVEL_TEXT = {None: "-", **{level: str(level) for level in range(1, 7)}}


def label_csv(model: LosRegionModel, text: str) -> str:
    """Append an oracle ``los`` column to measurement CSV (all-or-nothing).

    Rows are read as ``ingest`` reads them; original field text is
    preserved and unlabeled rows get ``-``.  Any invalid row, or any row
    outside the model's envelope, rejects the whole input with an IngestError
    that names its line.

    Records end in ``"\\n"`` and are quoted as ``csv.writer`` quotes them
    with that terminator: a field holding ``,``, ``"`` or ``"\\n"`` is quoted,
    its quotes doubled.  A reader takes a bare ``"\\r"`` for a line break, so
    a record with a field holding one has every field quoted, the level too.
    The text is searched for ``"`` once: without one, no field can hold any
    of those characters, and each record is written as its fields joined by
    commas with no test; with one, every field of every record is put
    through that rule, which leaves a field that needs no quotes as it is.
    """
    quoted = '"' in text  # without a quote in the text, no field holds , " \r or \n
    lines = [",".join(LABELED_CSV_HEADER)]
    for line, record, row in _read_rows(text, labels=False):
        if type(row) is not tuple:
            raise IngestError(str(row))
        _, speed, flow, _ = row
        try:
            level = oracle_label(model, flow, speed)
        except OutOfDomainError as exc:
            raise IngestError(f"line {line}: {exc}") from None
        record.append(_LEVEL_TEXT[level])
        if quoted:
            cr = any("\r" in f for f in record)
            record = ['"' + f.replace('"', '""') + '"'
                      if cr or "," in f or '"' in f or "\n" in f else f for f in record]
        lines.append(",".join(record))
    lines.append("")  # the last record ends in "\n" too
    return "\n".join(lines)
