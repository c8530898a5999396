import collections
import dataclasses
import itertools
import math
import random
import sys
import threading

import pytest

from fuzzylos import (
    FisConfigError,
    FuzzyVariable,
    InferenceResult,
    Measurement,
    OutOfDomainError,
    Rule,
    SugenoFis,
    TrapezoidMF,
    classify,
    default_fis_text,
    evaluate,
    export_surface,
    infer,
    parse_fis,
)
from fuzzylos.engine import grid_value
from helpers import (
    brute_force_raw, end_degrees, extreme_fis, random_fis, random_point, rule_strength,
)


def two_input_fis(and_operator="min", rules=None):
    flow = FuzzyVariable(
        "Flow", "veh/h", (0.0, 100.0),
        (("lo", TrapezoidMF(0, 0, 30, 50)), ("hi", TrapezoidMF(40, 60, 100, 100))),
    )
    speed = FuzzyVariable(
        "Speed", "km/h", (0.0, 10.0),
        (("lo", TrapezoidMF(0, 0, 3, 5)), ("hi", TrapezoidMF(4, 6, 10, 10))),
    )
    if rules is None:
        rules = (
            Rule((("Flow", "lo"), ("Speed", "hi")), 1.0),
            Rule((("Flow", "hi"), ("Speed", "lo")), 5.0),
        )
    return SugenoFis(
        inputs=(flow, speed),
        output_name="Out",
        output_domain=(0.0, 6.0),
        rules=rules,
        and_operator=and_operator,
    )


def raw_beside_a_full_rule(fis, rule, values):
    """``raw`` of ``rule``, its consequent set to 1, beside a companion rule of
    consequent 0 that fires at strength 1: for ``rule``'s firing strength w
    that is exactly w / (w + 1.0), as fsum of [w, 1.0] is the correctly
    rounded w + 1.0.  The companion is ``Rule((), 0.0)``, or, for a rule
    without clauses, a one-clause rule whose term is 1 at ``values``."""
    if rule.antecedent:
        companion = Rule((), 0.0)
    else:
        var = fis.inputs[0]
        term = next(name for name, mf in var.terms if mf.degree(values[var.name]) == 1.0)
        companion = Rule(((var.name, term),), 0.0)
    rules = (dataclasses.replace(rule, consequent=1.0), companion)
    return infer(dataclasses.replace(fis, rules=rules), values).raw


def test_firing_strength_min_and_annihilator():
    fis = two_input_fis()
    rule = fis.rules[0]
    # degrees: Flow lo at 40 -> 0.5, Speed hi at 6 -> 1.0
    assert raw_beside_a_full_rule(fis, rule, {"Flow": 40.0, "Speed": 6.0}) == 0.5 / 1.5
    # Flow lo at 50 -> 0.0 annihilates
    assert raw_beside_a_full_rule(fis, rule, {"Flow": 50.0, "Speed": 8.0}) == 0.0


def test_firing_strength_product():
    fis = two_input_fis(and_operator="product")
    rule = fis.rules[0]
    # degrees 0.5 and 0.8: Speed hi at 5.6 -> 0.8
    raw = raw_beside_a_full_rule(fis, rule, {"Flow": 40.0, "Speed": 5.6})
    assert raw == pytest.approx(0.4 / 1.4, abs=1e-12)


def test_firing_strength_empty_antecedent_is_one():
    fis = two_input_fis()
    assert raw_beside_a_full_rule(fis, Rule((), 2.0), {"Flow": 0.0, "Speed": 0.0}) == 0.5


def test_infer_single_rule_is_exact():
    # one rule firing at w=0.7 with consequent 3 must give exactly 3.0
    fis = two_input_fis(rules=(Rule((("Flow", "lo"),), 3.0),))
    result = infer(fis, {"Flow": 36.0, "Speed": 0.0})  # degree (50-36)/20 = 0.7
    assert result.raw == 3.0
    assert result.fired_rule_count == 1


def test_infer_equal_weight_midpoint():
    rules = (
        Rule((("Flow", "lo"),), 2.0),
        Rule((("Flow", "hi"),), 3.0),
    )
    fis = two_input_fis(rules=rules)
    # at Flow 45 both degrees are 0.25
    result = infer(fis, {"Flow": 45.0, "Speed": 0.0})
    assert result.raw == 2.5
    assert result.fired_rule_count == 2


def test_infer_uncovered_input_is_zero_with_no_fires(default_fis):
    result = infer(default_fis, {"TrafficFlow": 5500.0, "Speed": 75.0})
    assert result.raw == 0.0
    assert result.fired_rule_count == 0
    assert result.is_anomaly


def test_infer_plateau_unique_rule_hand_oracle(default_fis):
    # At (600, 38): flow 600 lies on the Very_Low plateau and outside every
    # other flow support (Low starts at 1400); speed 38 lies on the Middle
    # plateau [31, 45], outside Low (ends 34) and High (starts 41 -> degree
    # (38-41) < 0 none).  Hand-evaluating all 27 rules leaves exactly one
    # nonzero firing: (Very_Low, Middle) with consequent 1.
    fired = [
        (rule, rule_strength(default_fis, rule, {"TrafficFlow": 600.0, "Speed": 38.0}))
        for rule in default_fis.rules
    ]
    positive = [(rule, w) for rule, w in fired if w > 0]
    assert len(positive) == 1
    assert positive[0][0].consequent == 1.0
    assert positive[0][1] == 1.0
    assert infer(default_fis, {"TrafficFlow": 600.0, "Speed": 38.0}).raw == 1.0


def test_a_term_ending_on_a_cut_stays_active_in_the_next_cell():
    # A's support ends where B's begins, at 5; A's vertical right shoulder
    # gives it degree 1 there, and B's left shoulder does too.  The point lies
    # in the point cell of the cut 5, where both are positive.
    x = FuzzyVariable(
        "X", "", (0.0, 10.0),
        (("A", TrapezoidMF(0, 2, 5, 5)), ("B", TrapezoidMF(5, 5, 8, 10))),
    )
    fis = SugenoFis(
        inputs=(x,),
        output_name="Out",
        output_domain=(0.0, 6.0),
        rules=(Rule((("X", "A"),), 1.0), Rule((("X", "B"),), 3.0)),
    )
    result = infer(fis, {"X": 5.0})
    assert result.raw == 2.0
    assert result.fired_rule_count == 2


def test_a_ramp_that_underflows_inside_its_cell_does_not_fire():
    # 5e-324 lies in the open cell (0, 2), where the rule is a candidate, but its
    # degree (5e-324 - 0) / 2 rounds to 0.0: the kernel must skip the rule
    # rather than divide by a zero total strength.
    x = FuzzyVariable("X", "", (0.0, 4.0), (("A", TrapezoidMF(0, 2, 3, 4)),))
    fis = SugenoFis(
        inputs=(x,),
        output_name="Out",
        output_domain=(0.0, 6.0),
        rules=(Rule((("X", "A"),), 1.0),),
    )
    result = infer(fis, {"X": 5e-324})
    assert result.raw == 0.0
    assert result.fired_rule_count == 0


@pytest.mark.parametrize("and_operator", ["min", "product"])
def test_a_tuple_whose_ramp_underflows_at_its_floor_is_not_decided(and_operator):
    # The system of the test above.  At 5e-324, the float of the open cell
    # (0, 2) next to the ramp's zero end, the lone rule does not fire; at 1.0
    # it does, so the cell's output depends on the point.
    x = FuzzyVariable("X", "", (0.0, 4.0), (("A", TrapezoidMF(0, 2, 3, 4)),))
    fis = SugenoFis(
        inputs=(x,),
        output_name="Out",
        output_domain=(0.0, 6.0),
        rules=(Rule((("X", "A"),), 1.0),),
        and_operator=and_operator,
    )
    assert x._locate(5e-324) == x._locate(1.0) == 1
    assert fis._record((1,)) == (fis._compiled, None)
    assert infer(fis, {"X": 5e-324}) == InferenceResult(0.0, 0)
    assert infer(fis, {"X": 1.0}) == InferenceResult(1.0, 1)


@pytest.mark.parametrize("and_operator", ["min", "product"])
def test_a_term_whose_degree_underflows_throughout_its_cell_is_no_candidate(and_operator):
    # The open cell (0, 1e-323) holds one float, 5e-324, where A's ramp
    # (5e-324 - 0) / 10 rounds to 0.0 and B has not begun: no rule can fire
    # there, so none is a candidate, and the cell is decided as uncovered.
    x = FuzzyVariable(
        "X", "", (0.0, 10.0),
        (("A", TrapezoidMF(0, 10, 10, 10)), ("B", TrapezoidMF(1e-323, 1e-323, 10, 10))),
    )
    fis = SugenoFis(
        inputs=(x,),
        output_name="Out",
        output_domain=(0.0, 6.0),
        rules=(Rule((("X", "A"),), 2.0), Rule((("X", "B"),), 4.0)),
        and_operator=and_operator,
    )
    cells = (x._locate(5e-324),)
    assert cells == (1,)
    assert len(fis._record(cells)[0]) == infer(fis, {"X": 5e-324}).fired_rule_count == 0
    assert fis._record(cells) == ((), (0.0, 0))


def test_a_product_that_underflows_at_the_floors_is_not_decided():
    # Each ramp rises from 0.0 over 1e-100, so next to 0.0 each degree is
    # 5e-324 / 1e-100, about 4.9e-224: the minimum of two fires, their
    # product underflows to 0.0.
    def axis(name):
        return FuzzyVariable(name, "", (0.0, 1.0), (("A", TrapezoidMF(0.0, 1e-100, 0.5, 1.0)),))

    for and_operator, decided in (("min", (1.0, 1)), ("product", None)):
        fis = SugenoFis(
            inputs=(axis("X"), axis("Y")),
            output_name="Out",
            output_domain=(0.0, 6.0),
            rules=(Rule((("X", "A"), ("Y", "A")), 1.0),),
            and_operator=and_operator,
        )
        assert fis._record((1, 1))[1] == decided
        smallest = infer(fis, {"X": 5e-324, "Y": 5e-324})
        assert smallest == (InferenceResult(1.0, 1) if decided else InferenceResult(0.0, 0))
        assert infer(fis, {"X": 1e-101, "Y": 1e-101}) == InferenceResult(1.0, 1)


def test_a_rule_whose_peaks_multiply_to_zero_is_no_candidate_under_product():
    # The cut at 1e-200 bounds the open cell (0, 1e-200), where A's degree
    # peaks just under 1e-200 on each input: the minimum fires, but the
    # product of two such degrees underflows to 0.0 at every point of the
    # cells, so under product the rule cannot fire there.
    def axis(name):
        return FuzzyVariable(name, "", (0.0, 1.0), (
            ("A", TrapezoidMF(0.0, 1.0, 1.0, 1.0)), ("B", TrapezoidMF(1e-200, 1e-200, 1.0, 1.0)),
        ))

    point = {"X": math.nextafter(1e-200, 0.0), "Y": math.nextafter(1e-200, 0.0)}
    for and_operator, fired in (("min", 1), ("product", 0)):
        fis = SugenoFis(
            inputs=(axis("X"), axis("Y")),
            output_name="Out",
            output_domain=(0.0, 6.0),
            rules=(Rule((("X", "A"), ("Y", "A")), 1.0),),
            and_operator=and_operator,
        )
        assert len(fis._record((1, 1))[0]) == infer(fis, point).fired_rule_count == fired
    assert fis._record((1, 1)) == ((), (0.0, 0))


def test_subnormal_weights_average_to_a_consequent_both_rules_share():
    # Each rule fires with weight 5e-324, and 5e-324 * 2.5 rounds to 1e-323,
    # so the quotient of the sums is 2.0; the clamp into the fired
    # consequents' range returns their true average, 2.5.
    def axis(name):
        return FuzzyVariable(name, "", (0.0, 1.0), (("A", TrapezoidMF(0.0, 1.0, 1.0, 1.0)),))

    point = {"X": 5e-324, "Y": 5e-324}
    for and_operator in ("min", "product"):
        fis = SugenoFis(
            inputs=(axis("X"), axis("Y")),
            output_name="Out",
            output_domain=(0.0, 6.0),
            rules=(Rule((("X", "A"),), 2.5), Rule((("Y", "A"),), 2.5)),
            and_operator=and_operator,
        )
        assert [rule_strength(fis, rule, point) for rule in fis.rules] == [5e-324, 5e-324]
        assert infer(fis, point) == InferenceResult(2.5, 2)
        assert brute_force_raw(fis, point) == (2.5, 2)


def cell_points(var, rng):
    """Points of each cell of ``var``, in cell order, worked out from the cuts
    alone: a cut, then the floats next to it and to the next cut, and two
    uniform draws, between the two.  Cut k is cell 2k and the floats after
    it cell 2k + 1 only where no two cuts are adjacent floats, as in every
    ``random_fis`` draw, the only systems this reference runs on."""
    cut = cuts(var)
    points = []
    for left, right in zip(cut, cut[1:]):
        inside = [math.nextafter(left, right), math.nextafter(right, left)]
        inside += [rng.uniform(left, right) for _ in range(2)]
        points += [[left], [x for x in inside if left < x < right]]
    return points + [[cut[-1]]]


def test_every_decided_record_is_the_kernel_at_every_point_of_its_cells():
    rng = random.Random(57)
    kinds = collections.Counter()
    for _ in range(8):
        fis = random_fis(rng, min_inputs=2, max_inputs=2)
        # few distinct consequents, signed zeros among them, so that many
        # tuples share one consequent and some hold both zeros
        rules = tuple(
            dataclasses.replace(rule, consequent=rng.choice([0.0, -0.0, 1.0, 2.5, rule.consequent]))
            for rule in fis.rules
        )
        for and_operator in ("min", "product"):
            fis = dataclasses.replace(
                fis, rules=rules, output_domain=(-10.0, 20.0), and_operator=and_operator
            )
            axes = [cell_points(var, rng) for var in fis.inputs]
            for cells in itertools.product(*(range(len(axis)) for axis in axes)):
                candidates, decided = fis._record(cells)
                points = list(itertools.product(*(axis[c] for axis, c in zip(axes, cells))))
                if decided is None or not points:
                    kinds["undecided"] += 1
                    continue
                kinds["mixed" if len({repr(c) for _, c in candidates}) > 1 else "single"] += 1
                for point in rng.sample(points, min(4, len(points))):
                    assert tuple(map(FuzzyVariable._locate, fis.inputs, point)) == cells
                    degrees = [var._fill(c, x) for var, c, x in zip(fis.inputs, cells, point)]
                    assert repr(fis._fire(candidates, degrees)) == repr(decided)
                    values = {var.name: x for var, x in zip(fis.inputs, point)}
                    assert repr(infer(fis, values)) == repr(InferenceResult(*decided))
    # every kind of tuple occurs: constants-only tuples with several consequents too
    assert min(kinds.values()) > 20, kinds


def test_infer_out_of_domain_rejected():
    fis = two_input_fis()
    with pytest.raises(OutOfDomainError):
        infer(fis, {"Flow": 101.0, "Speed": 5.0})
    with pytest.raises(OutOfDomainError):
        infer(fis, {"Flow": -0.5, "Speed": 5.0})
    with pytest.raises(OutOfDomainError):
        infer(fis, {"Flow": 50.0})
    with pytest.raises(OutOfDomainError):
        infer(fis, {"Flow": float("nan"), "Speed": 5.0})
    # inputs are checked in declaration order: a missing Flow outranks a bad Speed
    with pytest.raises(OutOfDomainError, match="no value supplied for variable 'Flow'"):
        infer(fis, {"Speed": 500.0})


def test_infer_empty_rule_base_rejected():
    fis = two_input_fis(rules=())
    with pytest.raises(FisConfigError, match="empty rule base"):
        infer(fis, {"Flow": 10.0, "Speed": 5.0})
    # the domain is checked first
    with pytest.raises(OutOfDomainError):
        infer(fis, {"Flow": 101.0, "Speed": 5.0})


def test_fis_validation_reports_every_problem_at_its_location():
    fis = two_input_fis()
    with pytest.raises(FisConfigError) as info:
        SugenoFis(
            inputs=fis.inputs + (fis.inputs[0],),
            output_name="Speed",
            output_domain=(0.0, 6.0),
            rules=(
                Rule((("Flow", "lo"), ("Flow", "hi"), ("Ghost", "lo"), ("Speed", "warp")), 7.0),
                Rule((("Flow", "lo"),), 1.0),
                Rule((("Flow", "lo"),), 2.0),
            ),
        )
    assert [location for location, _ in info.value.problems] == [
        ("inputs", 2), ("output_name",), ("rules", 0, 1), ("rules", 0, 2), ("rules", 0, 3),
        ("rules", 0), ("rules", 2),
    ]
    assert info.value.problems[-1][1] == "rule repeats the antecedent of rule 2"
    assert str(info.value) == "; ".join(message for _, message in info.value.problems)
    with pytest.raises(FisConfigError) as info:
        dataclasses.replace(fis, and_operator="max")
    assert info.value.problems == ((("and_operator",), "unknown AND operator 'max'"),)


def test_an_empty_output_domain_hides_consequent_problems():
    fis = two_input_fis()
    with pytest.raises(FisConfigError) as info:
        SugenoFis(fis.inputs, "Out", (6.0, 0.0), fis.rules)
    assert [location for location, _ in info.value.problems] == [("output_domain",)]


def test_variable_validation_reports_every_problem_at_its_location():
    mf = TrapezoidMF(0, 1, 2, 3)
    with pytest.raises(FisConfigError) as info:
        FuzzyVariable("v", "", (0.0, 2.5), (("a", mf), ("b", TrapezoidMF(0, 0, 1, 1)), ("a", mf)))
    assert [location for location, _ in info.value.problems] == [
        ("terms", 0), ("terms", 2), ("terms", 2),
    ]
    with pytest.raises(FisConfigError) as info:
        FuzzyVariable("v", "", (5.0, 5.0), (("a", mf),))
    assert [location for location, _ in info.value.problems] == [("domain",)]


@pytest.mark.parametrize(
    "bounds", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (math.inf, -math.inf)]
)
def test_domains_must_be_finite(bounds):
    # finiteness is checked before emptiness, so (inf, -inf) is not "empty"
    with pytest.raises(FisConfigError) as info:
        FuzzyVariable("v", "", bounds, ())
    assert info.value.problems == (
        (("domain",), f"variable 'v': domain [{bounds[0]}, {bounds[1]}] must be finite"),
    )
    fis = two_input_fis()
    with pytest.raises(FisConfigError) as info:
        SugenoFis(fis.inputs, "Out", bounds, ())
    assert info.value.problems == (
        (("output_domain",), f"output domain [{bounds[0]}, {bounds[1]}] must be finite"),
    )


def big_fis(output_domain, consequents):
    """two_input_fis's inputs with one rule per consequent, each firing at
    strength 1 at Flow 20, Speed 1 (the last one's antecedent is empty)."""
    fis = two_input_fis()
    antecedents = [(("Flow", "lo"), ("Speed", "lo")), (("Flow", "lo"),), (("Speed", "lo"),), ()]
    rules = tuple(map(Rule, antecedents, consequents))
    return SugenoFis(fis.inputs, "Out", output_domain, rules)


OVERFLOW = "consequent magnitudes up to this rule sum past the float range"


@pytest.mark.parametrize("consequents", [
    (1.7e308, 1.7e308),
    (-1.7e308, 1.7e308, 1.7e308),  # reported once, at the first rule past
    # each float addition to sys.float_info.max rounds back to it, yet fsum,
    # which the kernel uses, of the three overflows
    (sys.float_info.max, 5e291, 5e291),
])
def test_consequents_whose_magnitudes_sum_past_the_float_range_are_refused(consequents):
    span = sys.float_info.max
    with pytest.raises(FisConfigError) as info:
        big_fis((-span, span), consequents)
    assert info.value.problems == ((("rules", 1), OVERFLOW),)
    # where every rule fires at one sign, the kernel's fsum is this one
    with pytest.raises(OverflowError, match="intermediate overflow"):
        math.fsum(map(abs, consequents))


def test_consequents_within_the_float_range_infer():
    span = sys.float_info.max
    point = {"Flow": 20.0, "Speed": 1.0}
    assert infer(big_fis((0.0, span), (span,)), point) == InferenceResult(span, 1)
    # the fraction adds less than the distance from the largest float to inf
    assert infer(big_fis((0.0, span), (span, 0.5)), point) == InferenceResult(span / 2, 2)
    raw = infer(big_fis((-span, span), (span / 2, span / 4, -span / 4)), point).raw
    assert raw == span / 6
    # a consequent outside the output domain is reported as such, not counted
    with pytest.raises(FisConfigError) as info:
        big_fis((0.0, 1e308), (1.7e308, 1e308, 5e307))
    assert [location for location, _ in info.value.problems] == [("rules", 0)]
    # and neither is one inside a domain that is not finite
    with pytest.raises(FisConfigError) as info:
        big_fis((0.0, math.inf), (math.inf, 1.7e308, 1.7e308))
    assert [location for location, _ in info.value.problems] == [("output_domain",)]


def test_a_domain_wider_than_the_float_range_is_refused():
    with pytest.raises(FisConfigError) as info:
        FuzzyVariable("v", "", (-1e308, 1e308), ())
    assert info.value.problems == (
        (("domain",), "variable 'v': domain [-1e+308, 1e+308] is wider than the float range"),
    )
    assert FuzzyVariable("v", "", (-8e307, 8e307), ()).domain == (-8e307, 8e307)


def test_grid_value_stays_finite_where_the_formula_overflows():
    grid = [grid_value(0.0, 1e308, 5, i) for i in range(5)]
    assert grid == [0.0, 2.5e307, 5e307, 7.5e307, 1e308]
    # away from the overflow, the formula's bits
    assert [grid_value(-1.0, 3.0, 7, i) for i in range(6)] == [-1.0 + 4.0 * i / 6 for i in range(6)]


def test_grid_value_rises_across_the_switch_from_the_formula():
    lo, hi, steps = -5e300, 5e300, 10**8
    switch = math.ceil(sys.float_info.max / (hi - lo))  # the first index whose product overflows
    assert (hi - lo) * (switch - 1) < math.inf == (hi - lo) * switch
    values = [grid_value(lo, hi, steps, i) for i in range(switch - 50, switch + 50)]
    assert all(math.isfinite(v) for v in values)
    assert values == sorted(values) and len(set(values)) == len(values)
    assert values[:50] == [lo + (hi - lo) * i / (steps - 1) for i in range(switch - 50, switch)]
    assert grid_value(lo, hi, steps, 0) == lo and grid_value(lo, hi, steps, steps - 1) == hi
    assert lo < grid_value(lo, hi, steps, steps - 2) < hi


def test_a_plain_config_error_is_one_problem_of_the_whole():
    error = FisConfigError("no good")
    assert error.problems == (((), "no good"),)
    assert str(error) == "no good"


def test_rule_order_never_changes_result():
    rng = random.Random(7)
    for _ in range(25):
        fis = random_fis(rng)
        shuffled = list(fis.rules)
        rng.shuffle(shuffled)
        permuted = SugenoFis(
            inputs=fis.inputs,
            output_name=fis.output_name,
            output_domain=fis.output_domain,
            rules=tuple(shuffled),
            and_operator=fis.and_operator,
        )
        for _ in range(20):
            point = random_point(rng, fis)
            a = infer(fis, point)
            b = infer(permuted, point)
            assert a.raw == b.raw
            assert a.fired_rule_count == b.fired_rule_count


def test_raw_stays_within_fired_consequent_range():
    rng = random.Random(11)
    for _ in range(40):
        fis = random_fis(rng)
        for _ in range(40):
            point = random_point(rng, fis)
            result = infer(fis, point)
            if result.fired_rule_count == 0:
                assert result.raw == 0.0
                continue
            consequents = [
                r.consequent for r in fis.rules
                if rule_strength(fis, r, point) > 0
            ]
            assert min(consequents) <= result.raw <= max(consequents)


@pytest.mark.parametrize("and_operator", ["min", "product"])
@pytest.mark.parametrize("consequents", [(0.0, -0.0), (-0.0, 0.0), (-0.0, 2.5, 0.0), (0.7,)])
def test_raw_is_the_clamped_weighted_average_bit_for_bit(and_operator, consequents):
    # rule k fires on term k of both inputs; neighbouring terms overlap, so
    # points fire one rule alone or two together
    terms = tuple(
        (f"T{k}", TrapezoidMF(3 * k, 3 * k + 1.5, 3 * k + 2, 3 * k + 3.7))
        for k in range(len(consequents))
    )
    fis = SugenoFis(
        inputs=(
            FuzzyVariable("X", "", (0.0, 10.0), terms),
            FuzzyVariable("Y", "", (0.0, 10.0), terms),
        ),
        output_name="Out",
        output_domain=(-1.0, 3.0),
        rules=tuple(
            Rule((("X", f"T{k}"), ("Y", f"T{k}")), c) for k, c in enumerate(consequents)
        ),
        and_operator=and_operator,
    )
    axis = [10.0 * i / 97 for i in range(98)]
    clamped = 0
    for x, y in itertools.product(axis, axis):
        point = {"X": x, "Y": y}
        fired = [(w, r.consequent) for r in fis.rules if (w := rule_strength(fis, r, point)) > 0.0]
        if not fired:
            continue
        cs = [c for _, c in fired]
        average = math.fsum(w * c for w, c in fired) / math.fsum(w for w, _ in fired)
        expected = min(max(average, min(cs)), max(cs))
        assert repr(infer(fis, point).raw) == repr(expected)
        clamped += repr(expected) != repr(average)
    if len(consequents) == 1:
        # the lone rule's average rounds off its consequent at some points,
        # and the clamp brings it back
        assert clamped > 0


def test_cell_degrees_equal_every_term_degree_on_random_systems():
    rng = random.Random(31)
    for _ in range(40):
        for var in random_fis(rng).inputs:
            lo, hi = var.domain
            points = [rng.uniform(lo, hi) for _ in range(20)]
            for cut in cuts(var):
                points += [cut, math.nextafter(cut, -math.inf), math.nextafter(cut, math.inf)]
            for x in filter(lambda x: lo <= x <= hi, points):
                expected = repr([mf.degree(x) for _, mf in var.terms])
                cell = var._locate(x)
                assert repr(var._fill(cell, x)) == expected
                # the cell's row is copied, never handed out
                var._fill(cell, x)[:] = [-1.0] * len(var.terms)
                assert repr(var._fill(cell, x)) == expected


def test_a_zero_degree_at_a_cut_reads_0_0_at_either_signed_zero():
    # -0.0 - 0.0 is -0.0, so TrapezoidMF.degree(-0.0) is -0.0 on a ramp
    # rising from 0.0; the cut's constants hold 0.0 for both zeros
    for lo in (-0.0, -1.0):
        var = FuzzyVariable("X", "", (lo, 1.0), (("A", TrapezoidMF(0.0, 0.5, 0.6, 1.0)),))
        degrees = [var._fill(var._locate(x), x) for x in (-0.0, 0.0)]
        assert repr(degrees[0]) == repr(degrees[1]) == "[0.0]"


def cuts(var):
    """The domain ends and every term's breakpoints a, b, c and d, sorted."""
    return sorted({*var.domain, *(p for _, mf in var.terms for p in (mf.a, mf.b, mf.c, mf.d))})


def memo_entry(fis, cells):
    """The candidates of a cell tuple's memo record, worked out from the
    rules, the term supports and the cuts at every breakpoint: the compiled
    rules, in rule order, whose every term is positive in its cell.  Cell 2k
    is cut k, where a term is positive if its degree there is; cell 2k + 1 is
    the open span between cuts k and k + 1, where a term is positive if its
    support [a, d] covers the span.  That layout is the engine's only where
    no two cuts are adjacent floats, as in every ``random_fis`` draw, the
    only systems this reference runs on."""
    names = [var.name for var in fis.inputs]
    cut = [cuts(var) for var in fis.inputs]
    entry = []
    for rule in fis.rules:
        clauses = []
        for var_name, term_name in rule.antecedent:
            i = names.index(var_name)
            var = fis.inputs[i]
            k, is_span = divmod(cells[i], 2)
            j = var.term_names().index(term_name)
            mf = var.terms[j][1]
            if is_span:
                left, right = cut[i][k : k + 2]
                positive = mf.a <= left and right <= mf.d
            else:
                positive = mf.degree(cut[i][k]) > 0.0
            if not positive:
                break
            clauses.append((i, j))
        else:
            entry.append((tuple(clauses), rule.consequent))
    return tuple(entry)


def every_cell_tuple(fis):
    return itertools.product(*(range(len(var._cells[1])) for var in fis.inputs))


def test_candidates_are_the_memo_entry_on_every_cell_tuple_of_random_systems():
    rng = random.Random(67)
    for _ in range(100):
        fis = random_fis(rng, max_inputs=2)
        for cells in every_cell_tuple(fis):
            assert fis._record(cells)[0] == memo_entry(fis, cells)


def test_every_cell_holds_a_float_and_no_degree_bound_is_negative_zero(default_fis):
    # Every cut, the floats beside it and every span's midpoint, worked out
    # from the breakpoints, not from the cell table, reach every cell: a cell
    # none of them reaches would hold no float.
    rng = random.Random(35)
    systems = [default_fis, *(random_fis(rng) for _ in range(100))]
    systems += [extreme_fis(random.Random(seed), "min") for seed in range(300)]
    for var in (var for fis in systems for var in fis.inputs):
        lo, hi = var.domain
        cut = cuts(var)
        points = {*cut, *(math.nextafter(c, end) for c in cut for end in (lo, hi))}
        points.update(left + (right - left) / 2 for left, right in zip(cut, cut[1:]))
        assert {var._locate(x) for x in points} == set(range(len(var._cells[1])))
        for floors, _, peaks in var._cells[1]:
            assert all(math.copysign(1.0, degree) == 1.0 for degree in floors + peaks)


def test_each_cell_holds_the_least_and_greatest_degree_at_its_ends(default_fis):
    # the floors and peaks _record reads are _fill's range at the cell's
    # least and greatest float, bit for bit
    rng = random.Random(61)
    systems = [default_fis, *(random_fis(rng) for _ in range(100))]
    for var in (var for fis in systems for var in fis.inputs):
        for cell, (floors, _, peaks) in enumerate(var._cells[1]):
            assert repr((floors, peaks)) == repr(end_degrees(var, cell))


def test_a_cold_build_of_every_record_fills_no_degree(monkeypatch):
    fis = parse_fis(default_fis_text())
    fills = []
    fill = FuzzyVariable._fill

    def counting_fill(self, cell, x):
        fills.append(cell)
        return fill(self, cell, x)

    monkeypatch.setattr(FuzzyVariable, "_fill", counting_fill)
    for cells in every_cell_tuple(fis):
        fis._record(cells)
    assert len(fis._records) == 1209
    assert fills == []


def test_concurrent_inference_is_consistent(default_fis):
    points = [
        {"TrafficFlow": 6000.0 * i / 40.0, "Speed": 80.0 * j / 40.0}
        for i in range(41)
        for j in range(41)
    ]
    baseline = [infer(default_fis, p) for p in points]
    # a system no thread has inferred with yet, so the threads race to
    # build its lazy cell tables and fill its candidate memo
    fresh = parse_fis(default_fis_text())
    failures = []

    def worker():
        for p, expected in zip(points, baseline):
            if infer(fresh, p) != expected:
                failures.append(p)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    # every record the threads published is a finished tuple, not a
    # sequence another thread was still filling, and equal, bit for bit, to
    # the record one thread builds on a fresh system
    single = parse_fis(default_fis_text())
    assert fresh._records
    for cells, record in fresh._records.items():
        candidates, decided = record
        assert type(record) is type(candidates) is tuple
        assert decided is None or type(decided) is tuple
        assert candidates == memo_entry(fresh, cells)
        assert repr(record) == repr(single._record(cells))


def test_candidates_are_exactly_the_fired_rules_on_the_shipped_system():
    fis = parse_fis(default_fis_text())
    # every cut and every midpoint between two neighbouring cuts, per input:
    # one point in each of its point and open cells
    axes = [
        [*cut, *((left + right) / 2 for left, right in zip(cut, cut[1:]))]
        for cut in map(cuts, fis.inputs)
    ]
    for point in itertools.product(*axes):
        result = infer(fis, {var.name: x for var, x in zip(fis.inputs, point)})
        cells = tuple(var._locate(x) for var, x in zip(fis.inputs, point))
        assert len(fis._records[cells][0]) == result.fired_rule_count
    # 39 flow cells by 31 speed cells, each visited once
    assert len(fis._records) == math.prod(len(var._cells[1]) for var in fis.inputs) == 1209


def test_a_surface_fills_at_most_one_memo_entry_per_cell_tuple():
    fis = parse_fis(default_fis_text())
    export_surface(fis, 200, 200)
    assert 0 < len(fis._records) <= math.prod(len(var._cells[1]) for var in fis.inputs)


def grid_runs(var, steps):
    """Per cell that ``var``'s grid of ``steps`` values hits, in grid order,
    its runs: stretches of consecutive values with equal degrees."""
    values = (grid_value(*var.domain, steps, i) for i in range(steps))
    keys = [(cell := var._locate(x), var._fill(cell, x)) for x in values]
    return collections.Counter(cell for (cell, _), _ in itertools.groupby(keys))


def test_every_caller_fires_through_the_one_kernel(monkeypatch, default_model):
    # a fresh system, so that the memo holds only the records built here
    fis = parse_fis(default_fis_text())
    calls = []
    fire = SugenoFis._fire

    def counting_fire(self, candidates, degrees):
        calls.append(candidates)
        return fire(self, candidates, degrees)

    monkeypatch.setattr(SugenoFis, "_fire", counting_fire)
    # three points in decided cell tuples and, last, one in a tuple whose
    # two candidates have different consequents
    points = [(700.0, 65.0), (2000.0, 60.0), (1000.0, 35.0), (3000.0, 35.0)]

    def count(run):
        calls.clear()
        run()
        return len(calls)

    def cells(flow, speed):
        return tuple(var._locate(x) for var, x in zip(fis.inputs, (flow, speed)))

    # building a record runs the kernel once per rule, to pick the
    # candidates, and once more, to decide the tuple
    per_record = len(fis.rules) + 1
    assert count(lambda: [fis._record(cells(*point)) for point in points]) == 4 * per_record
    assert [fis._records[cells(*point)][1] is None for point in points] == [False] * 3 + [True]
    # then only the undecided point is fuzzified and fired, by every caller
    assert count(lambda: [
        infer(fis, {"TrafficFlow": flow, "Speed": speed}) for flow, speed in points
    ]) == 1
    assert count(lambda: [classify(fis, flow, speed) for flow, speed in points]) == 1
    # the last two points are outside the system's and the model's domain
    data = [
        Measurement("t", speed, flow)
        for flow, speed in points + [(7000.0, 50.0), (700.0, -1.0)]
    ]
    assert count(lambda: evaluate(fis, default_model, data)) == 1
    # A grid this coarse repeats no (cell, degrees): the first export builds
    # the records it lacks and fires the 6 undecided cells of the 35, the
    # second fires those 6 alone.
    built = len(fis._records)
    assert count(lambda: export_surface(fis, 7, 5)) == (len(fis._records) - built) * per_record + 6
    assert count(lambda: export_surface(fis, 7, 5)) == 6

    # A dense grid fires at most once per pair of runs: consecutive grid
    # values whose cell and degrees are equal share one kernel call.
    flow_runs, speed_runs = (sum(grid_runs(var, 100).values()) for var in fis.inputs)
    assert (flow_runs, speed_runs) == (46, 61)
    export_surface(fis, 100, 100)
    assert count(lambda: export_surface(fis, 100, 100)) == 1146 < flow_runs * speed_runs


def test_a_surface_reads_each_cell_pairs_record_once_per_flow_cell(monkeypatch):
    # Once the memo is warm, a dense export reads one record per pair of
    # flow cell and speed cell, not one per speed run (1,342 here).
    fis = parse_fis(default_fis_text())
    export_surface(fis, 100, 100)
    reads = []
    record = SugenoFis._record

    def counting_record(self, cells):
        reads.append(cells)
        return record(self, cells)

    monkeypatch.setattr(SugenoFis, "_record", counting_record)
    export_surface(fis, 100, 100)
    flow_cells, speed_cells = (
        len({var._locate(grid_value(*var.domain, 100, i)) for i in range(100)})
        for var in fis.inputs
    )
    assert (flow_cells, speed_cells) == (22, 17)
    assert len(reads) == len(set(reads)) == flow_cells * speed_cells == 374


@pytest.mark.parametrize("operator", ["min", "product"])
def test_a_surface_reads_each_cell_pair_once_and_fires_once_per_undecided_pair_of_runs(
    monkeypatch, operator
):
    # Beyond the shipped system: with a warm memo, an export reads one record
    # per pair of flow cell and speed cell it hits, and fires the kernel once
    # per pair of runs, stretches of equal cell and degrees, in an undecided
    # pair of cells.
    rng = random.Random(36)
    systems = [
        dataclasses.replace(random_fis(rng, max_inputs=2, min_inputs=2), and_operator=operator)
        for _ in range(20)
    ]
    systems += [extreme_fis(random.Random(seed), operator) for seed in range(20)]
    reads, fired, total = [], [], 0
    record, fire = SugenoFis._record, SugenoFis._fire

    def counting_record(self, cells):
        reads.append(cells)
        return record(self, cells)

    def counting_fire(self, candidates, degrees):
        fired.append(candidates)
        return fire(self, candidates, degrees)

    for fis in systems:
        for flow_steps, speed_steps in ((13, 11), (60, 60)):
            export_surface(fis, flow_steps, speed_steps)
            flow_runs = grid_runs(fis.inputs[0], flow_steps)
            speed_runs = grid_runs(fis.inputs[1], speed_steps)
            undecided = [
                flow_runs[flow_cell] * speed_runs[speed_cell]
                for flow_cell in flow_runs
                for speed_cell in speed_runs
                if fis._records[flow_cell, speed_cell][1] is None
            ]
            reads.clear()
            fired.clear()
            with monkeypatch.context() as patch:
                patch.setattr(SugenoFis, "_record", counting_record)
                patch.setattr(SugenoFis, "_fire", counting_fire)
                export_surface(fis, flow_steps, speed_steps)
            assert len(reads) == len(set(reads)) == len(flow_runs) * len(speed_runs)
            assert len(fired) == sum(undecided)
            total += len(fired)
    assert total > 0
