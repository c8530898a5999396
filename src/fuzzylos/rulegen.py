"""Construct a rule base for a two-input LoS system from a region model.

For every (flow term, speed term) pair the generator takes an even grid of
samples over the pair's half-cut core, the sub-rectangle where both
membership degrees are at least 0.5, and counts the samples each of the
model's boxes holds: a product of per-axis counts, since the boxes are
disjoint products of half-open intervals.  A per-axis count is the
difference of two sample indices, each estimated from the grid formula and
kept if the samples beside it bracket the edge, else found by binary
search: O(1) sample evaluations per edge in the common case, O(log grid) at
worst, and no list of samples.  Pairs with no labeled sample produce no rule
and stay anomaly zones; pairs whose labeled samples agree on one level (up
to the agreement threshold) produce a rule with that level as the constant
consequent; anything worse is a hard conflict, the sign of membership
functions that do not fit the regions.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from math import ceil, inf

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


def _midpoint(p: float, q: float) -> float:
    """``(p + q) / 2``, or ``p / 2 + q / 2`` where the sum overflows."""
    mid = (p + q) / 2.0
    return mid if -inf < mid < inf else p / 2.0 + q / 2.0


def half_cut(mf: TrapezoidMF) -> tuple[float, float]:
    """The closed interval where the membership degree is >= 0.5."""
    return _midpoint(mf.a, mf.b), _midpoint(mf.c, mf.d)


def _axis_counts(mf: TrapezoidMF, intervals: list[tuple[float, float]], grid: int) -> list[int]:
    """Per [lo, hi) interval, how many of the term's ``grid`` core samples it
    holds: the difference of its edges' ``bisect_left`` indices among the
    samples.  A point core is a one-sample grid, whose only sample
    ``grid_value`` returns as the point itself.

    Each index is first estimated from the grid formula and kept if the
    samples on either side bracket the edge, which on a rising grid defines
    ``bisect_left``'s answer; otherwise it is searched for.  So an edge costs
    two sample evaluations in the common case and O(log grid) at worst."""
    core_lo, core_hi = half_cut(mf)
    steps = 1 if core_lo == core_hi else grid
    samples = range(steps)
    key = partial(grid_value, core_lo, core_hi, steps)
    # Each rounding step of the formula is monotone in the index, so the
    # samples rise unless the last but one rounds past the last.  The
    # estimate reads steps - 1 as a float, exact up to 2**53; a finer grid
    # is searched for.
    rising = 1 < steps <= 2**53 and key(steps - 2) <= core_hi
    scale = (steps - 1) / (core_hi - core_lo) if rising else 0.0

    def index(x: float) -> int:
        if rising:
            t = (x - core_lo) * scale
            k = ceil(t) if 0.0 < t < steps else (steps if t >= steps else 0)
            if (k == 0 or key(k - 1) < x) and (k == steps or key(k) >= x):
                return k
        return bisect_left(samples, x, key=key)

    return [index(hi) - index(lo) for lo, hi in intervals]


def generate_rules(
    model: LosRegionModel,
    flow_var: FuzzyVariable,
    speed_var: FuzzyVariable,
    grid: int = 25,
    agreement: float = 0.85,
) -> tuple[Rule, ...]:
    """Derive one rule per coherent (flow term, speed term) pair.

    ``grid``, an int of at least 2 (ValueError otherwise), is the number of
    sample points per axis across each pair's core; the core endpoints are
    always sampled, and a point core is one sample.  The level counts equal
    asking the region oracle at every sample, but take O(terms * rectangles)
    sample evaluations in the common case and O(terms * rectangles * log
    grid) at worst, in memory that does not grow with ``grid``.
    ``agreement`` must lie in (0.5, 1]: the majority level must account for
    at least that fraction of the labeled samples, otherwise
    RuleConflictError names the pair.

    The rule order is flow terms outer, speed terms inner, both in
    declaration order.
    """
    if not 0.5 < agreement <= 1.0:
        raise ValueError(f"agreement must lie in (0.5, 1], got {agreement}")
    if type(grid) is not int or grid < 2:
        raise ValueError(f"grid resolution must be at least 2, got {grid!r}")

    levels = [box[0] for box in model._boxes]
    flow_intervals = [box[1:3] for box in model._boxes]
    speed_intervals = [box[3:] for box in model._boxes]
    speed_counts = [_axis_counts(mf, speed_intervals, grid) for _, mf in speed_var.terms]
    rules: list[Rule] = []
    for flow_term, flow_mf in flow_var.terms:
        flow_counts = _axis_counts(flow_mf, flow_intervals, grid)
        for (speed_term, _), speed_count in zip(speed_var.terms, speed_counts):
            counts: dict[int, int] = {}
            for level, n_flow, n_speed in zip(levels, flow_counts, speed_count):
                if n_flow and n_speed:
                    counts[level] = counts.get(level, 0) + n_flow * n_speed
            if not counts:
                continue
            level = max(counts, key=counts.__getitem__)
            if counts[level] < agreement * sum(counts.values()):
                raise RuleConflictError(flow_term, speed_term, counts, agreement)
            rules.append(
                Rule(
                    antecedent=((flow_var.name, flow_term), (speed_var.name, speed_term)),
                    consequent=float(level),
                )
            )
    return tuple(rules)
