"""Shared test machinery: random system generation, an independent
brute-force Sugeno evaluator used as the oracle for the engine, and a
sample-by-sample rule generator used as the oracle for ``generate_rules``."""

from __future__ import annotations

import random
from collections import Counter

from fuzzylos import (
    FuzzyVariable,
    LosRegionModel,
    Rule,
    RuleConflictError,
    SugenoFis,
    TrapezoidMF,
    half_cut,
    oracle_label,
)
from fuzzylos.engine import grid_value


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
    plain left-to-right sums, no shortcuts.  Returns (raw, fired count)."""
    numerator = 0.0
    denominator = 0.0
    fired = 0
    for rule in fis.rules:
        strength = rule_strength(fis, rule, values)
        if strength > 0.0:
            fired += 1
            numerator += strength * rule.consequent
            denominator += strength
    if denominator == 0.0:
        return 0.0, 0
    return numerator / denominator, fired


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

    rules = []
    for flow_term, flow_mf in flow_var.terms:
        for speed_term, speed_mf in speed_var.terms:
            counts: Counter[int] = Counter()
            for flow in samples(flow_mf):
                for speed in samples(speed_mf):
                    if not model.contains(flow, speed):
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
