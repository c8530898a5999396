import math
import time

import pytest

import fuzzylos as fz
from fuzzylos import (
    FuzzyVariable,
    LosRegionModel,
    Rect,
    RuleConflictError,
    TrapezoidMF,
    generate_rules,
)
from fuzzylos.engine import grid_value
from fuzzylos.rulegen import _axis_counts, half_cut


def test_half_cut():
    assert half_cut(TrapezoidMF(0, 10, 20, 30)) == (5.0, 25.0)
    assert half_cut(TrapezoidMF(0, 0, 8, 16)) == (0.0, 12.0)
    # a + b overflows to inf here, so each end is halved before adding
    assert half_cut(TrapezoidMF(1.5e308, 1.5e308, 1.6e308, 1.6e308)) == (1.5e308, 1.6e308)
    assert half_cut(TrapezoidMF(-1.6e308, -1.6e308, -1.5e308, -1.5e308)) == (-1.6e308, -1.5e308)


def test_a_core_near_the_float_maximum_is_not_lost_to_overflow():
    # the one rectangle holds the term's whole core, so the pair gets a rule
    huge = TrapezoidMF(1.5e308, 1.5e308, 1.6e308, 1.6e308)
    flow_var = FuzzyVariable("F", "", (0.0, 1.7e308), (("huge", huge),))
    speed_var = FuzzyVariable("S", "", (0.0, 10.0), (("all", TrapezoidMF(0, 0, 10, 10)),))
    model = LosRegionModel(regions=((1, Rect(0.0, 1.7e308, 0.0, 10.0)),))
    assert generate_rules(model, flow_var, speed_var) == (
        fz.Rule((("F", "huge"), ("S", "all")), 1.0),
    )


def test_a_core_whose_grid_formula_overflows_is_counted():
    # (hi - lo) * index overflows at the third and fourth of the five samples,
    # which must still land in the second interval, not at inf
    whole = TrapezoidMF(0, 0, 1e308, 1e308)
    intervals = [(0.0, 5e307), (5e307, math.nextafter(1e308, math.inf))]
    assert _axis_counts(whole, intervals, 5) == [2, 3]
    flow_var = FuzzyVariable("F", "", (0.0, 1e308), (("whole", whole),))
    speed_var = FuzzyVariable("S", "", (0.0, 10.0), (("all", TrapezoidMF(0, 0, 10, 10)),))
    model = LosRegionModel(
        regions=((1, Rect(0.0, 5e307, 0.0, 10.0)), (2, Rect(5e307, 1e308, 0.0, 10.0)))
    )
    assert generate_rules(model, flow_var, speed_var, grid=5, agreement=0.55) == (
        fz.Rule((("F", "whole"), ("S", "all")), 2.0),
    )


def test_expected_pairs_stay_empty(default_model, default_fis):
    flow_var, speed_var = default_fis.inputs
    rules = generate_rules(default_model, flow_var, speed_var)
    pairs = {(f, s) for ((_, f), (_, s)) in [r.antecedent for r in rules]}
    all_pairs = {
        (f, s) for f in flow_var.term_names() for s in speed_var.term_names()
    }
    assert all_pairs - pairs == {
        ("High", "Very_Low"),
        ("Very_High", "Very_High"),
        ("Extremely_High", "Very_High"),
    }


def test_pair_outside_all_rectangles_emits_no_rule():
    model = LosRegionModel(regions=((1, Rect(0, 10, 0, 10)),))
    flow_var = FuzzyVariable(
        "F", "", (0.0, 100.0),
        (("near", TrapezoidMF(0, 0, 8, 12)), ("far", TrapezoidMF(50, 60, 90, 100))),
    )
    speed_var = FuzzyVariable("S", "", (0.0, 10.0), (("any", TrapezoidMF(0, 0, 10, 10)),))
    rules = generate_rules(model, flow_var, speed_var)
    assert [r.antecedent[0][1] for r in rules] == ["near"]


def test_even_split_with_full_agreement_is_a_conflict():
    # two half-rectangles split one term pair's core exactly 50/50
    model = LosRegionModel(
        regions=((1, Rect(0, 10, 0, 5)), (2, Rect(0, 10, 5, 10))),
    )
    flow_var = FuzzyVariable("F", "", (0.0, 10.0), (("all", TrapezoidMF(0, 0, 10, 10)),))
    speed_var = FuzzyVariable("S", "", (0.0, 10.0), (("all", TrapezoidMF(0, 0, 10, 10)),))
    with pytest.raises(RuleConflictError) as info:
        generate_rules(model, flow_var, speed_var, grid=10, agreement=1.0)
    assert info.value.flow_term == "all"
    assert info.value.speed_term == "all"
    assert "(all, all)" in str(info.value)


def test_majority_wins_at_moderate_agreement():
    # a 9:2 speed-row split (grid 11) passes at 0.75 with the dominant level,
    # whichever level the first box in order carries
    majority, minority = (1, Rect(0, 10, 0, 9)), (2, Rect(0, 10, 9, 10))
    flow_var = FuzzyVariable("F", "", (0.0, 10.0), (("all", TrapezoidMF(0, 0, 10, 10)),))
    speed_var = FuzzyVariable("S", "", (0.0, 10.0), (("all", TrapezoidMF(0, 0, 10, 10)),))
    for boxes in ((majority, minority), (minority, majority)):
        model = LosRegionModel(regions=boxes)
        rules = generate_rules(model, flow_var, speed_var, grid=11, agreement=0.75)
        assert rules == (fz.Rule((("F", "all"), ("S", "all")), 1.0),)
        with pytest.raises(RuleConflictError) as info:
            generate_rules(model, flow_var, speed_var, grid=11, agreement=0.95)
        # a plain dict in box order, while the message lists levels in order
        assert type(info.value.counts) is dict
        assert list(info.value.counts) == [level for level, _ in boxes]
        assert info.value.counts == {1: 99, 2: 22}
        assert "(LoS 1: 99, LoS 2: 22)" in str(info.value)


def test_parameter_validation(default_model, default_fis):
    flow_var, speed_var = default_fis.inputs
    with pytest.raises(ValueError):
        generate_rules(default_model, flow_var, speed_var, agreement=0.5)
    with pytest.raises(ValueError):
        generate_rules(default_model, flow_var, speed_var, agreement=1.2)
    with pytest.raises(ValueError):
        generate_rules(default_model, flow_var, speed_var, grid=1)
    with pytest.raises(ValueError, match="at least 2"):
        generate_rules(default_model, flow_var, speed_var, grid=3.0)


def test_a_core_narrower_than_its_grid_is_counted_without_a_sample_list():
    # the core is one float wide, less than the ulp of its upper end, so the
    # 10**8 samples repeat its two ends and every edge index is searched for
    lo, hi = 2.0**53 - 1, 2.0**53
    start = time.perf_counter()
    counts = _axis_counts(TrapezoidMF(lo, lo, hi, hi), [(0.0, hi), (hi, 2.0**54)], 10**8)
    assert time.perf_counter() - start < 0.5
    # sample i is lo + i / (10**8 - 1), which rounds to lo below i = 5e7 and to hi from there
    assert counts == [50_000_000, 50_000_000]


def test_an_edge_where_the_grid_falls_is_searched_for():
    # at this grid the last sample but one rounds past the last, the core's
    # upper end; an edge between the two is bracketed both before the last
    # but one and at the end of the grid, and the binary search finds the end
    lo, hi, grid = -7.666244601364867, -1.9220641312190268, 9007199254642480
    edge = -1.9220641312190265
    assert hi < edge <= grid_value(lo, hi, grid, grid - 2)
    assert _axis_counts(TrapezoidMF(lo, lo, hi, hi), [(-math.inf, edge)], grid) == [grid]
