"""The benchmark's own reading of the shipped calibration.

Everything here is independent of the fuzzylos package: a minimal parser for
the `.fis` and `.los` texts, the half-open rectangle lookup, and a
brute-force Sugeno evaluator.  The checkers compare the package's outputs
with these, so a change to the package cannot change the reference.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

DATA_DIR = Path("src") / "fuzzylos" / "data"
FIS_FILE = DATA_DIR / "legerova.fis"
LOS_FILE = DATA_DIR / "legerova.los"

# Tolerance between the brute-force raw output and the engine's (C4).
RAW_TOLERANCE = 1e-12

_NUMBER = r"[-+]?\d+(?:\.\d+)?"
_VARIABLE = re.compile(
    rf"variable\s+(input|output)\s+(\w+)(?:\s+\[[^\]]*\])?\s+domain\s+({_NUMBER})\s+({_NUMBER})"
)
_MF = re.compile(rf"mf\s+(\w+)\s+trap\s+({_NUMBER})\s+({_NUMBER})\s+({_NUMBER})\s+({_NUMBER})")
_RULE = re.compile(rf"rule\s+IF\s+(\w+)\s+IS\s+(\w+)\s+AND\s+(\w+)\s+IS\s+(\w+)\s+THEN\s+\w+\s*=\s*({_NUMBER})")
_SET_AND = re.compile(r"set\s+and_operator\s+(min|product)")
_REGION = re.compile(
    rf"region\s+(\d)\s+flow\s+({_NUMBER})\s+({_NUMBER})\s+speed\s+({_NUMBER})\s+({_NUMBER})"
)


def trapezoid(a: float, b: float, c: float, d: float, x: float) -> float:
    if x < a or x > d:
        return 0.0
    if b <= x <= c:
        return 1.0
    if x < b:
        return (x - a) / (b - a)
    return (d - x) / (d - c)


@dataclass(frozen=True)
class Calibration:
    """Two-input system plus region model, as read from the shipped files."""

    flow_domain: tuple[float, float]
    speed_domain: tuple[float, float]
    flow_terms: tuple[tuple[str, tuple[float, float, float, float]], ...]
    speed_terms: tuple[tuple[str, tuple[float, float, float, float]], ...]
    # (flow term index, speed term index, consequent), in file order
    rules: tuple[tuple[int, int, float], ...]
    and_operator: str
    # (level, flow_lo, flow_hi, speed_lo, speed_hi), in file order
    regions: tuple[tuple[int, float, float, float, float], ...]

    @property
    def envelope(self) -> tuple[float, float, float, float]:
        return (
            min(r[1] for r in self.regions),
            max(r[2] for r in self.regions),
            min(r[3] for r in self.regions),
            max(r[4] for r in self.regions),
        )

    def rule_names(self) -> list[tuple[str, str, float]]:
        return [
            (self.flow_terms[f][0], self.speed_terms[s][0], c) for f, s, c in self.rules
        ]

    def label(self, flow: float, speed: float) -> int | None:
        """Level of the rectangle holding the point: half open, except that
        edges on the envelope maximum are closed."""
        _, env_flow_hi, _, env_speed_hi = self.envelope
        for level, flo, fhi, slo, shi in self.regions:
            if (flo <= flow < fhi or flow == fhi == env_flow_hi) and (
                slo <= speed < shi or speed == shi == env_speed_hi
            ):
                return level
        return None

    def flow_degrees(self, x: float) -> tuple[float, ...]:
        return tuple(trapezoid(*mf, x) for _, mf in self.flow_terms)

    def speed_degrees(self, x: float) -> tuple[float, ...]:
        return tuple(trapezoid(*mf, x) for _, mf in self.speed_terms)

    def raw_from_degrees(
        self, flow_deg: tuple[float, ...], speed_deg: tuple[float, ...]
    ) -> tuple[float, int]:
        """Brute-force Sugeno output: every rule, plain sums.  (raw, fired)."""
        numerator = 0.0
        denominator = 0.0
        fired = 0
        product = self.and_operator == "product"
        for f, s, consequent in self.rules:
            a, b = flow_deg[f], speed_deg[s]
            w = a * b if product else (a if a < b else b)
            if w > 0.0:
                fired += 1
                numerator += w * consequent
                denominator += w
        if fired == 0:
            return 0.0, 0
        return numerator / denominator, fired

    def raw(self, flow: float, speed: float) -> tuple[float, int]:
        return self.raw_from_degrees(self.flow_degrees(flow), self.speed_degrees(speed))


def classify_raw(raw: float, fired: int, epsilon: float) -> tuple[int | None, bool]:
    """(level, boundary) for a raw output: round half up, clamp to 1..6,
    boundary when farther than epsilon from the nearest integer."""
    if fired == 0:
        return None, False
    level = min(max(math.floor(raw + 0.5), 1), 6)
    nearest = min(raw - math.floor(raw), math.ceil(raw) - raw)
    return level, nearest > epsilon


def parse_calibration(fis_text: str, los_text: str) -> Calibration:
    domains: dict[str, tuple[float, float]] = {}
    terms: dict[str, list[tuple[str, tuple[float, float, float, float]]]] = {}
    inputs: list[str] = []
    rules_by_name: list[tuple[str, str, str, str, float]] = []
    and_operator = "min"
    current = None
    for raw_line in fis_text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if m := _VARIABLE.fullmatch(line):
            kind, name, lo, hi = m.groups()
            current = name
            if kind == "input":
                inputs.append(name)
                domains[name] = (float(lo), float(hi))
                terms[name] = []
        elif m := _MF.fullmatch(line):
            terms[current].append((m.group(1), tuple(float(v) for v in m.groups()[1:])))
        elif m := _RULE.fullmatch(line):
            v1, t1, v2, t2, c = m.groups()
            rules_by_name.append((v1, t1, v2, t2, float(c)))
        elif m := _SET_AND.fullmatch(line):
            and_operator = m.group(1)
        else:
            raise ValueError(f"unexpected .fis line {raw_line!r}")
    if len(inputs) != 2:
        raise ValueError(f"expected two inputs, got {inputs}")
    flow_name, speed_name = inputs
    flow_index = {name: i for i, (name, _) in enumerate(terms[flow_name])}
    speed_index = {name: i for i, (name, _) in enumerate(terms[speed_name])}
    rules = []
    for v1, t1, v2, t2, c in rules_by_name:
        if (v1, v2) != (flow_name, speed_name):
            raise ValueError(f"rule clauses out of order: {v1}, {v2}")
        rules.append((flow_index[t1], speed_index[t2], c))

    regions = []
    for raw_line in los_text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line or line.startswith("lanes"):
            continue
        m = _REGION.fullmatch(line)
        if m is None:
            raise ValueError(f"unexpected .los line {raw_line!r}")
        regions.append((int(m.group(1)),) + tuple(float(v) for v in m.groups()[1:]))

    return Calibration(
        flow_domain=domains[flow_name],
        speed_domain=domains[speed_name],
        flow_terms=tuple(terms[flow_name]),
        speed_terms=tuple(terms[speed_name]),
        rules=tuple(rules),
        and_operator=and_operator,
        regions=tuple(regions),
    )


def load_calibration(root: Path) -> Calibration:
    return parse_calibration(
        (root / FIS_FILE).read_text(encoding="utf-8"),
        (root / LOS_FILE).read_text(encoding="utf-8"),
    )
