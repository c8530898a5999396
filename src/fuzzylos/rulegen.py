"""Construct a rule base for a two-input LoS system from a region model.

For every (flow term, speed term) pair the generator takes an even grid of
samples over the pair's half-cut core, the sub-rectangle where both
membership degrees are at least 0.5, and counts the samples each region
rectangle labels: a product of per-axis counts, since rectangles are
disjoint products of half-open intervals.  Pairs with no labeled sample
produce no rule and stay anomaly zones; pairs whose labeled samples agree on
one level (up to the agreement threshold) produce a rule with that level as
the constant consequent; anything worse is a hard conflict, the sign of
membership functions that do not fit the regions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import partial

from .engine import FuzzyVariable, Rule, TrapezoidMF, grid_value
from .regions import LosRegionModel


class RuleConflictError(ValueError):
    """A term pair's labeled samples split below the agreement threshold."""

    def __init__(self, flow_term: str, speed_term: str, counts: dict[int, int], agreement: float):
        self.flow_term = flow_term
        self.speed_term = speed_term
        self.counts = dict(counts)
        split = ", ".join(f"LoS {level}: {n}" for level, n in sorted(counts.items()))
        super().__init__(
            f"term pair ({flow_term}, {speed_term}) splits across levels ({split}) "
            f"below the agreement threshold {agreement}"
        )


def half_cut(mf: TrapezoidMF) -> tuple[float, float]:
    """The closed interval where the membership degree is >= 0.5."""
    return ((mf.a + mf.b) / 2.0, (mf.c + mf.d) / 2.0)


def _axis_counts(
    mf: TrapezoidMF, intervals: list[tuple[float, float]], envelope_hi: float, grid: int
) -> list[int]:
    """Per [lo, hi) interval, how many of the term's ``grid`` core samples it
    holds, found by binary search; an interval ending on the envelope
    maximum is closed, as in ``oracle_label``.  A point core is a one-sample
    grid, whose only sample ``grid_value`` returns as the point itself."""
    core_lo, core_hi = half_cut(mf)
    steps = 1 if core_lo == core_hi else grid
    samples = range(steps)
    key = partial(grid_value, core_lo, core_hi, steps)
    return [
        (bisect_right if hi == envelope_hi else bisect_left)(samples, hi, key=key)
        - bisect_left(samples, lo, key=key)
        for lo, hi in intervals
    ]


def generate_rules(
    model: LosRegionModel,
    flow_var: FuzzyVariable,
    speed_var: FuzzyVariable,
    grid: int = 25,
    agreement: float = 0.85,
) -> tuple[Rule, ...]:
    """Derive one rule per coherent (flow term, speed term) pair.

    ``grid`` is the number of sample points per axis across each pair's core;
    the core endpoints are always sampled, and a point core is one sample.
    The level counts equal asking the region oracle at every sample, but
    take O(terms * rectangles * log grid) time.  ``agreement`` must lie in
    (0.5, 1]: the majority level must account for at least that fraction of
    the labeled samples, otherwise RuleConflictError names the pair.

    The rule order is flow terms outer, speed terms inner, both in
    declaration order.
    """
    if not 0.5 < agreement <= 1.0:
        raise ValueError(f"agreement must lie in (0.5, 1], got {agreement}")
    if grid < 2:
        raise ValueError(f"grid resolution must be at least 2, got {grid}")

    levels = [level for level, _ in model.regions]
    flow_intervals = [(rect.flow_lo, rect.flow_hi) for _, rect in model.regions]
    speed_intervals = [(rect.speed_lo, rect.speed_hi) for _, rect in model.regions]
    speed_counts = [
        _axis_counts(mf, speed_intervals, model.speed_domain[1], grid)
        for _, mf in speed_var.terms
    ]
    rules: list[Rule] = []
    for flow_term, flow_mf in flow_var.terms:
        flow_counts = _axis_counts(flow_mf, flow_intervals, model.flow_domain[1], grid)
        for (speed_term, _), speed_count in zip(speed_var.terms, speed_counts):
            counts: Counter[int] = Counter()
            for level, n_flow, n_speed in zip(levels, flow_counts, speed_count):
                if n_flow and n_speed:
                    counts[level] += n_flow * n_speed
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
