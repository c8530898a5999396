"""Shared test machinery: random system generation, at the float edges too,
an independent brute-force Sugeno evaluator used as the oracle for the
engine, a sample-by-sample rule generator used as the oracle for
``generate_rules``, the reference wording of ``ingest``'s quantity errors,
the bounds of a variable's cells, points in every cell, the end degrees
each cell must hold, and seeded one-token mutants of a ``.fis`` or ``.los``
text."""

from __future__ import annotations

import math
import random
import re
import sys
from collections import Counter

from fuzzylos import (
    FuzzyVariable,
    LosRegionModel,
    Rule,
    RuleConflictError,
    SugenoFis,
    TrapezoidMF,
    oracle_label,
)
from fuzzylos.engine import grid_value
from fuzzylos.rulegen import half_cut


def _trapezoid(a, b, c, d, x):
    if x < a or x > d:
        return 0.0
    if b <= x <= c:
        return 1.0
    if x < b:
        return (x - a) / (b - a)
    return (d - x) / (d - c)


def rule_strength(fis: SugenoFis, rule: Rule, values: dict[str, float]) -> float:
    """Naive firing strength of one rule: every clause's degree recomputed
    from its trapezoid, conjoined left to right, no early exit."""
    mfs = {var.name: dict(var.terms) for var in fis.inputs}
    strength = 1.0
    for var_name, term_name in rule.antecedent:
        mf = mfs[var_name][term_name]
        degree = _trapezoid(mf.a, mf.b, mf.c, mf.d, values[var_name])
        if fis.and_operator == "product":
            strength *= degree
        else:
            strength = degree if degree < strength else strength
    return strength


def brute_force_raw(fis: SugenoFis, values: dict[str, float]) -> tuple[float, int]:
    """Naive re-implementation of Sugeno inference: recompute every degree,
    plain left-to-right sums, no shortcuts.  Returns (raw, fired count).
    The average is clamped into the range of the fired consequents, where
    the true average lies: at subnormal weights the rounded products can
    take the quotient outside it."""
    numerator = 0.0
    denominator = 0.0
    fired = []
    for rule in fis.rules:
        strength = rule_strength(fis, rule, values)
        if strength > 0.0:
            fired.append(rule.consequent)
            numerator += strength * rule.consequent
            denominator += strength
    if not fired:
        return 0.0, 0
    return min(max(numerator / denominator, min(fired)), max(fired)), len(fired)


def random_trapezoid(rng: random.Random, lo: float, hi: float) -> TrapezoidMF:
    points = sorted(round(rng.uniform(lo, hi), 3) for _ in range(4))
    return TrapezoidMF(*points)


def random_variable(rng: random.Random, name: str) -> FuzzyVariable:
    lo = round(rng.uniform(-50.0, 50.0), 3)
    hi = round(lo + rng.uniform(10.0, 5000.0), 3)
    unit = rng.choice(["", "km/h", "veh/h", "units_per_h"])
    terms = tuple(
        (f"T{i}", random_trapezoid(rng, lo, hi)) for i in range(rng.randint(1, 5))
    )
    return FuzzyVariable(name=name, unit=unit, domain=(lo, hi), terms=terms)


def random_fis(rng: random.Random, max_inputs: int = 3, min_inputs: int = 1) -> SugenoFis:
    inputs = tuple(
        random_variable(rng, f"Var{i}") for i in range(rng.randint(min_inputs, max_inputs))
    )
    out_lo = round(rng.uniform(-10.0, 0.0), 3)
    out_hi = round(out_lo + rng.uniform(1.0, 20.0), 3)

    antecedents = set()
    rules = []
    for _ in range(rng.randint(1, 12)):
        chosen = rng.sample(range(len(inputs)), rng.randint(1, len(inputs)))
        clause = tuple(
            (inputs[i].name, rng.choice(inputs[i].term_names())) for i in sorted(chosen)
        )
        if frozenset(clause) in antecedents:
            continue
        antecedents.add(frozenset(clause))
        rules.append(
            Rule(antecedent=clause, consequent=round(rng.uniform(out_lo, out_hi), 3))
        )
    return SugenoFis(
        inputs=inputs,
        output_name="Out",
        output_domain=(out_lo, out_hi),
        rules=tuple(rules),
        and_operator=rng.choice(["min", "product"]),
    )


# Input domains from the subnormal range up to the float maximum; each width
# hi - lo is finite, as FuzzyVariable requires.
EXTREME_DOMAINS = (
    (-5e-324, 5e-324), (0.0, 1e-310), (-1e-300, 1e-300), (0.0, 1.0), (-1.0, 1e300),
    (-1e300, 1e300), (-sys.float_info.max / 2, sys.float_info.max / 2),
    (0.0, sys.float_info.max), (-sys.float_info.max, -1e300),
)
# 0.0 and -0.0, the smallest subnormal, small integers and fractions: a
# subnormal weight times an integer is exact, times a fraction it rounds.
EXTREME_CONSEQUENTS = (0.0, -0.0, 5e-324, 1.0, 2.0, 3.0, 6.0, -4.0, 2.5, -1.5, 0.1)


def extreme_palette(lo: float, hi: float) -> list[float]:
    """Breakpoints for the domain [lo, hi]: 0 and +-5e-324, 1e-310 and
    1e-300 where they lie in it, its quarter points, and the floats 1 ulp to
    either side of each, kept inside the domain."""
    points = {lo + (hi - lo) / 4 * k for k in range(5)} | {hi}
    points |= {p for p in (0.0, 5e-324, -5e-324, 1e-310, 1e-300) if lo <= p <= hi}
    near = {q for p in points for q in (math.nextafter(p, lo), p, math.nextafter(p, hi))}
    return sorted(p for p in near if lo <= p <= hi)


def extreme_variable(rng: random.Random, name: str) -> FuzzyVariable:
    """A variable on one of ``EXTREME_DOMAINS`` whose 1 to 4 terms take their
    breakpoints from its ``extreme_palette``, drawn with repeats, so that
    breakpoints coincide; some terms have a vertical shoulder, some a support
    ending on a domain end, and some start where the previous term ends.
    Each zero breakpoint takes its sign on its own draw, so one variable can
    hold both 0.0 and -0.0."""
    lo, hi = rng.choice(EXTREME_DOMAINS)
    palette = extreme_palette(lo, hi)
    mfs: list[TrapezoidMF] = []
    for _ in range(rng.randint(1, 4)):
        start = mfs[-1].d if mfs and rng.random() < 0.3 else rng.choice(palette)
        a, b, c, d = sorted([start, *(rng.choice([p for p in palette if p >= start])
                                      for _ in range(3))])
        if rng.random() < 0.2:
            a = lo
        if rng.random() < 0.2:
            d = hi
        if rng.random() < 0.25:
            b = a
        if rng.random() < 0.25:
            c = d
        mfs.append(TrapezoidMF(*(rng.choice((0.0, -0.0)) if p == 0 else p for p in (a, b, c, d))))
    terms = tuple((f"T{j}", mf) for j, mf in enumerate(mfs))
    return FuzzyVariable(name=name, unit="", domain=(lo, hi), terms=terms)


def extreme_fis(rng: random.Random, and_operator: str) -> SugenoFis:
    """A two-input system at the float edges under ``and_operator``: each
    input from ``extreme_variable``, 1 to 8 rules on any subset of the
    inputs, the empty one included, with consequents from
    ``EXTREME_CONSEQUENTS``."""
    inputs = (extreme_variable(rng, "X"), extreme_variable(rng, "Y"))
    rules = {}
    for _ in range(rng.randint(1, 8)):
        antecedent = tuple(
            (var.name, rng.choice(var.term_names())) for var in inputs if rng.random() < 0.7
        )
        consequent = rng.choice(EXTREME_CONSEQUENTS)
        rules.setdefault(frozenset(antecedent), Rule(antecedent, consequent))
    return SugenoFis(
        inputs=inputs,
        output_name="Out",
        output_domain=(-6.0, 6.0),
        rules=tuple(rules.values()),
        and_operator=and_operator,
    )


def cell_bounds(var: FuzzyVariable, cell: int) -> tuple[float, float]:
    """The least and greatest float of ``cell``, read from ``var._cells``:
    its start, and the float before the next cell's start, or the domain's
    upper end for the last cell."""
    starts = var._cells[0]
    if cell + 1 < len(starts):
        return starts[cell], math.nextafter(starts[cell + 1], var.domain[0])
    return starts[cell], var.domain[1]


def cell_points(var: FuzzyVariable) -> list[float]:
    """The least and greatest float of each cell of ``var`` and its
    midpoint: a point in each of its cells, several in each wide one."""
    points = set()
    for cell in range(len(var._cells[1])):
        least, greatest = cell_bounds(var, cell)
        points |= {least, greatest, least + (greatest - least) / 2}
    return sorted(points)


def end_degrees(var: FuzzyVariable, cell: int) -> tuple[list[float], list[float]]:
    """Each term's lesser and greater degree, by ``_fill``, at the least and
    greatest float of ``cell``: the floors and peaks ``var._cells`` must hold
    for the cell.  Degrees are monotone across a cell, so these bound each
    term throughout it."""
    ends = [var._fill(cell, x) for x in cell_bounds(var, cell)]
    return list(map(min, *ends)), list(map(max, *ends))


def random_point(rng: random.Random, fis: SugenoFis) -> dict[str, float]:
    return {var.name: rng.uniform(*var.domain) for var in fis.inputs}


def sampled_rules(
    model: LosRegionModel,
    flow_var: FuzzyVariable,
    speed_var: FuzzyVariable,
    grid: int,
    agreement: float,
) -> tuple[Rule, ...]:
    """Rule generation by definition: ask the region oracle for the level of
    every sample of each term pair's core grid, one sample at a time."""

    def samples(mf: TrapezoidMF) -> list[float]:
        lo, hi = half_cut(mf)
        if lo == hi:
            return [lo]
        return [grid_value(lo, hi, grid, i) for i in range(grid)]

    (flo, fhi), (slo, shi) = model.flow_domain, model.speed_domain
    rules = []
    for flow_term, flow_mf in flow_var.terms:
        for speed_term, speed_mf in speed_var.terms:
            counts: Counter[int] = Counter()
            for flow in samples(flow_mf):
                for speed in samples(speed_mf):
                    if not (flo <= flow <= fhi and slo <= speed <= shi):
                        continue
                    level = oracle_label(model, flow, speed)
                    if level is not None:
                        counts[level] += 1
            if not counts:
                continue
            level, majority = counts.most_common(1)[0]
            if majority < agreement * sum(counts.values()):
                raise RuleConflictError(flow_term, speed_term, counts, agreement)
            rules.append(
                Rule(
                    antecedent=((flow_var.name, flow_term), (speed_var.name, speed_term)),
                    consequent=float(level),
                )
            )
    return tuple(rules)


def quantity_refusal(column: str, text: str) -> str | None:
    """Why ``ingest`` refuses a speed or flow field, after its ``line N: ``
    prefix, or None if it accepts the field: exactly when ``float`` reads
    the stripped text as a number that is neither NaN, nor infinite, nor
    below zero."""
    stripped = text.strip()
    try:
        value = float(stripped)
    except ValueError:
        return f"{column} {stripped!r} is not a number"
    if math.isnan(value) or math.isinf(value):
        return f"{column} must be finite, got {stripped!r}"
    if value < 0.0:
        return f"{column} must be non-negative, got {stripped!r}"
    return None


# What a mutant puts in place of a token, or next to one, besides the file's
# own tokens: numbers the grammar refuses or reads apart, lone punctuation, a
# comment, an overflowing number and Arabic-Indic digits.  ASCII and
# U+0660-U+0669 only, so that repr is the same on every Python.
SUBSTITUTES = [
    "1e4", "+5", "1_000", "-", "[", "]", "=", "\u0661\u0660", "\u0663", "1.5", "-0",
    "inf", "9" * 400, "#", "0.", ".5", "1.2.3", "x", "_", "a/b", "3", "7", "0",
]
# the readers' tokens, as the grammar in dsl's docstring defines them
TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_/]*|-?[0-9]+(?:\.[0-9]+)?|\S")


def token_mutants(text: str, rng: random.Random, count: int):
    """``count`` copies of ``text``, each with one token outside the
    comments dropped, duplicated, preceded by another or replaced."""
    lines = text.splitlines()
    spots = [
        (i, m.start(), m.end())
        for i, line in enumerate(lines)
        for m in TOKEN.finditer(line.split("#", 1)[0])
    ]
    words = SUBSTITUTES + sorted({lines[i][start:end] for i, start, end in spots})
    for _ in range(count):
        i, start, end = rng.choice(spots)
        token, other = lines[i][start:end], rng.choice(words)
        new = ["", f"{token} {token}", f"{other} {token}", other][rng.randrange(4)]
        mutant = lines[:i] + [lines[i][:start] + new + lines[i][end:]] + lines[i + 1:]
        yield "\n".join(mutant) + "\n"
