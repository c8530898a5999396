"""The three benchmark workloads: seeded inputs, the timed job, the checker.

Each workload is built from the system under test (a SugenoFis and a
LosRegionModel made by the package) and from the benchmark's own reading of
the shipped calibration (reference.Calibration).  `job()` makes only calls
into public functions of fuzzylos and returns what they returned; `check()`
compares that with the benchmark's reference and returns the disagreements.

Why these three: `csv-eval` is the operational rating job (CSV reads and
writes, two oracle lookups per row, classify, pointwise inference on points
that fire 0 to 6 rules); `surface` is almost pure engine work plus CSV
formatting and never touches regions or rulegen; `genrules` is oracle work on
dense grids plus `.fis` serialize and parse and never calls the engine's
inference.  A change aimed at one layer shows on the workload that loads it
and should leave the others flat.
"""

from __future__ import annotations

import csv
import dataclasses
import random
from collections import Counter
from datetime import datetime, timedelta

from fuzzylos import dsl, engine, pipeline, rulegen

from reference import RAW_TOLERANCE, Calibration, classify_raw

EPSILON = 0.05  # evaluate()'s default boundary tolerance

CSV_HEADER = ["timestamp", "speed_kmh", "flow_vph"]
GLITCH_SHARE = 0.10  # uniform over the whole input domain
EDGE_SHARE = 0.03  # pushed just across an internal rectangle edge
EDGE_JITTER = 0.01  # push distance, as a share of the axis span
START = datetime(2023, 1, 2)

SURFACE_SAMPLED_CELLS = 256  # cells checked against pointwise infer per output


class Shares:
    """Input properties the layers' costs depend on, over a workload's points."""

    def __init__(self) -> None:
        self.points = 0
        self.unlabeled = 0
        self.anomalies = 0
        self.boundary = 0
        self.fired: Counter[int] = Counter()

    def add(self, label: int | None, raw: float, fired: int) -> tuple[int | None, bool]:
        level, boundary = classify_raw(raw, fired, EPSILON)
        self.points += 1
        self.fired[fired] += 1
        self.unlabeled += label is None
        self.anomalies += fired == 0
        self.boundary += boundary
        return level, boundary

    def as_dict(self) -> dict:
        n = self.points
        return {
            "points": n,
            "unlabeled_share": self.unlabeled / n,
            "anomaly_share": self.anomalies / n,
            "boundary_share": self.boundary / n,
            "fired_rules_histogram": {str(k): v for k, v in sorted(self.fired.items())},
        }


def grid(lo: float, hi: float, steps: int) -> list[float]:
    """Inclusive even grid, the spacing fuzzylos uses for surfaces and rule
    sampling."""
    if steps < 2 or lo == hi:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def generate_measurements(cal: Calibration, rows: int, seed: int) -> tuple[list[tuple[str, float, float]], dict]:
    """Seeded (timestamp, speed, flow) rows for csv-eval, plus how many were
    glitches or edge pushes.

    Most points are uniform inside the region rectangles, weighted by area;
    EDGE_SHARE of all points are then pushed just across one of their
    rectangle's internal edges, and GLITCH_SHARE are uniform over the input
    domain (sensor glitches: some unlabeled, a few anomalous).
    """
    rng = random.Random(seed)
    env_flo, env_fhi, env_slo, env_shi = cal.envelope
    flo, fhi = max(cal.flow_domain[0], env_flo), min(cal.flow_domain[1], env_fhi)
    slo, shi = max(cal.speed_domain[0], env_slo), min(cal.speed_domain[1], env_shi)
    rects = [r[1:] for r in cal.regions]
    areas = [(r[1] - r[0]) * (r[3] - r[2]) for r in rects]
    edge_probability = EDGE_SHARE / (1.0 - GLITCH_SHARE)
    out = []
    kinds: Counter[str] = Counter()
    for i in range(rows):
        if rng.random() < GLITCH_SHARE:
            flow, speed = rng.uniform(flo, fhi), rng.uniform(slo, shi)
            kinds["glitch"] += 1
        else:
            r_flo, r_fhi, r_slo, r_shi = rng.choices(rects, weights=areas)[0]
            flow, speed = rng.uniform(r_flo, r_fhi), rng.uniform(r_slo, r_shi)
            if rng.random() < edge_probability:
                edges = []
                if r_flo > env_flo:
                    edges.append(("flow", r_flo, -1.0, r_flo - env_flo))
                if r_fhi < env_fhi:
                    edges.append(("flow", r_fhi, 1.0, env_fhi - r_fhi))
                if r_slo > env_slo:
                    edges.append(("speed", r_slo, -1.0, r_slo - env_slo))
                if r_shi < env_shi:
                    edges.append(("speed", r_shi, 1.0, env_shi - r_shi))
                axis, edge, direction, room = rng.choice(edges)
                span = (fhi - flo) if axis == "flow" else (shi - slo)
                pushed = edge + direction * rng.uniform(0.0, min(EDGE_JITTER * span, room))
                if axis == "flow":
                    flow = pushed
                else:
                    speed = pushed
                kinds["edge"] += 1
        timestamp = (START + timedelta(minutes=15 * i)).isoformat()
        out.append((timestamp, speed, flow))
    return out, {"glitch_share": kinds["glitch"] / rows, "edge_share": kinds["edge"] / rows}


def measurement_csv(rows: list[tuple[str, float, float]]) -> str:
    lines = [",".join(CSV_HEADER)]
    lines.extend(f"{ts},{speed!r},{flow!r}" for ts, speed, flow in rows)
    return "\n".join(lines) + "\n"


class CsvEval:
    """label_csv on the raw CSV text, then ingest and evaluate with the
    oracle as ground truth."""

    name = "csv-eval"
    size = 3000  # rows

    def __init__(self, cal: Calibration, fis, model, seed: int, size: int | None = None):
        self.fis = fis
        self.model = model
        self.items = size or self.size
        measurements, kinds = generate_measurements(cal, self.items, seed)
        self.text = measurement_csv(measurements)
        self.expected_rows = [(ts, speed, flow, None) for ts, speed, flow in measurements]
        self.expected_labeled = [CSV_HEADER + ["los"]]
        self.expected_report = {
            "points": self.items,
            "total": 0,
            "mismatches": 0,
            "unlabeled": 0,
            "anomalies": 0,
            "boundary_cases": 0,
            "errors": [],
            "confusion": [[0] * 6 for _ in range(6)],
        }
        shares = Shares()
        report = self.expected_report
        for ts, speed, flow in measurements:
            truth = cal.label(flow, speed)
            self.expected_labeled.append([ts, repr(speed), repr(flow), "-" if truth is None else str(truth)])
            level, boundary = shares.add(truth, *cal.raw(flow, speed))
            report["boundary_cases"] += boundary
            if truth is None:
                report["unlabeled"] += 1
            elif level is None:
                report["anomalies"] += 1
            else:
                report["total"] += 1
                report["confusion"][truth - 1][level - 1] += 1
                report["mismatches"] += level != truth
        self.shares = {**shares.as_dict(), **kinds}

    def job(self):
        labeled = pipeline.label_csv(self.model, self.text)
        rows, errors = pipeline.ingest(self.text)
        report = pipeline.evaluate(self.fis, self.model, rows)
        return labeled, rows, errors, report

    def check(self, output) -> list[str]:
        labeled, rows, errors, report = output
        problems = []
        got = list(csv.reader(labeled.splitlines()))
        if got != self.expected_labeled:
            bad = sum(a != b for a, b in zip(got, self.expected_labeled))
            bad += abs(len(got) - len(self.expected_labeled))
            problems.append(f"label_csv: {bad} rows differ from the rectangle lookup")
        if errors:
            problems.append(f"ingest: {len(errors)} row errors, first {errors[0]!r}")
        if [(m.timestamp, m.speed, m.flow, m.los) for m in rows] != self.expected_rows:
            problems.append("ingest: rows differ from the generated measurements")
        got_report = report.to_dict()
        for key, want in self.expected_report.items():
            if got_report.get(key) != want:
                problems.append(f"evaluate: {key} {got_report.get(key)!r}, reference {want!r}")
        return problems


class Surface:
    """export_surface on a dense regular grid over the full FIS domain."""

    name = "surface"
    size = 100  # steps per axis

    def __init__(self, cal: Calibration, fis, model, seed: int, size: int | None = None):
        self.cal = cal
        self.fis = fis
        self.steps = size or self.size
        self.items = self.steps * self.steps
        self.flows = grid(*cal.flow_domain, self.steps)
        self.speeds = grid(*cal.speed_domain, self.steps)
        rng = random.Random(seed)
        self.sampled = sorted(rng.sample(range(self.items), min(SURFACE_SAMPLED_CELLS, self.items)))
        shares = Shares()
        speed_degrees = [cal.speed_degrees(s) for s in self.speeds]
        for flow in self.flows:
            flow_deg = cal.flow_degrees(flow)
            for speed, speed_deg in zip(self.speeds, speed_degrees):
                shares.add(cal.label(flow, speed), *cal.raw_from_degrees(flow_deg, speed_deg))
        self.shares = shares.as_dict()
        self._verified: tuple[str, list[str]] | None = None

    def job(self):
        return pipeline.export_surface(self.fis, self.steps, self.steps)

    def check(self, text: str) -> list[str]:
        if self._verified is not None and self._verified[0] == text:
            return list(self._verified[1])
        problems = self._verify(text)
        self._verified = (text, problems)
        return list(problems)

    def _verify(self, text: str) -> list[str]:
        lines = text.splitlines()
        if not lines or lines[0] != "flow_vph,speed_kmh,raw_los":
            return ["surface: missing or wrong header"]
        cells = lines[1:]
        if len(cells) != self.items:
            return [f"surface: {len(cells)} cells, expected {self.items}"]
        flow_name, speed_name = (var.name for var in self.fis.inputs[:2])
        sampled = set(self.sampled)
        off_grid = far = pointwise = 0
        degrees_at = flow_deg = None
        for index, line in enumerate(cells):
            i, j = divmod(index, self.steps)
            flow_text, speed_text, raw_text = line.split(",")
            flow, speed, raw = float(flow_text), float(speed_text), float(raw_text)
            if abs(flow - self.flows[i]) > 1e-9 * max(1.0, abs(self.flows[i])) or abs(
                speed - self.speeds[j]
            ) > 1e-9 * max(1.0, abs(self.speeds[j])):
                off_grid += 1
                continue
            if flow != degrees_at:
                degrees_at, flow_deg = flow, self.cal.flow_degrees(flow)
            expected, fired = self.cal.raw_from_degrees(flow_deg, self.cal.speed_degrees(speed))
            if (fired == 0 and raw != 0.0) or abs(raw - expected) > RAW_TOLERANCE:
                far += 1
            if index in sampled:
                result = engine.infer(self.fis, {flow_name: flow, speed_name: speed})
                if repr(result.raw) != raw_text:
                    pointwise += 1
        problems = []
        if off_grid:
            problems.append(f"surface: {off_grid} cells off the inclusive even grid")
        if far:
            problems.append(f"surface: {far} cells differ from brute force by more than {RAW_TOLERANCE}")
        if pointwise:
            problems.append(f"surface: {pointwise} sampled cells not bit-identical to infer")
        return problems


class Genrules:
    """generate_rules on the shipped calibration, then serialize and
    parse_fis of the completed system: the `fuzzylos genrules` path."""

    name = "genrules"
    size = 60  # grid steps per axis of each term-pair core

    def __init__(self, cal: Calibration, fis, model, seed: int, size: int | None = None):
        self.model = model
        self.grid_steps = size or self.size
        self.skeleton = dataclasses.replace(fis, rules=())
        self.flow_var, self.speed_var = fis.inputs[:2]
        self.expected_rules = cal.rule_names()
        # Shares over the term-pair core samples the generator resolves.
        shares = Shares()
        pairs = 0
        for _, flow_mf in cal.flow_terms:
            flows = grid(*_half_cut(flow_mf), self.grid_steps)
            flow_degrees = [cal.flow_degrees(f) for f in flows]
            for _, speed_mf in cal.speed_terms:
                pairs += 1
                speeds = grid(*_half_cut(speed_mf), self.grid_steps)
                speed_degrees = [cal.speed_degrees(s) for s in speeds]
                for flow, flow_deg in zip(flows, flow_degrees):
                    for speed, speed_deg in zip(speeds, speed_degrees):
                        shares.add(cal.label(flow, speed), *cal.raw_from_degrees(flow_deg, speed_deg))
        self.items = pairs * self.grid_steps * self.grid_steps
        self.shares = shares.as_dict()

    def job(self):
        rules = rulegen.generate_rules(self.model, self.flow_var, self.speed_var, grid=self.grid_steps)
        complete = dataclasses.replace(self.skeleton, rules=rules)
        reparsed = dsl.parse_fis(dsl.serialize(complete))
        return rules, complete, reparsed

    def check(self, output) -> list[str]:
        rules, complete, reparsed = output
        problems = []
        names = (self.flow_var.name, self.speed_var.name)
        got = [
            (r.antecedent[0][1], r.antecedent[1][1], r.consequent)
            if len(r.antecedent) == 2 and (r.antecedent[0][0], r.antecedent[1][0]) == names
            else None
            for r in rules
        ]
        if got != self.expected_rules:
            differ = sum(a != b for a, b in zip(got, self.expected_rules))
            problems.append(
                f"generate_rules: {len(got)} rules, {differ} differ in place from the "
                f"{len(self.expected_rules)} shipped rules"
            )
        if reparsed != complete:
            problems.append("parse_fis(serialize(fis)) differs from fis")
        return problems


def _half_cut(mf: tuple[float, float, float, float]) -> tuple[float, float]:
    a, b, c, d = mf
    return ((a + b) / 2.0, (c + d) / 2.0)


WORKLOADS = {w.name: w for w in (CsvEval, Surface, Genrules)}
