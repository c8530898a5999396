import dataclasses
import random
import threading

import pytest

from fuzzylos import (
    FisConfigError,
    FuzzyVariable,
    OutOfDomainError,
    Rule,
    SugenoFis,
    TrapezoidMF,
    infer,
)
from helpers import brute_force_raw, random_fis, random_point, rule_strength


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


def strength_of(fis, rule, values):
    """The firing strength of ``rule`` alone: with one rule fired, the total."""
    return infer(dataclasses.replace(fis, rules=(rule,)), values).total_strength


def test_firing_strength_min_and_annihilator():
    fis = two_input_fis()
    rule = fis.rules[0]
    # degrees: Flow lo at 40 -> 0.5, Speed hi at 6 -> 1.0
    assert strength_of(fis, rule, {"Flow": 40.0, "Speed": 6.0}) == 0.5
    # Flow lo at 50 -> 0.0 annihilates
    assert strength_of(fis, rule, {"Flow": 50.0, "Speed": 8.0}) == 0.0


def test_firing_strength_product():
    fis = two_input_fis(and_operator="product")
    rule = fis.rules[0]
    # degrees 0.5 and 0.8: Speed hi at 5.6 -> 0.8
    w = strength_of(fis, rule, {"Flow": 40.0, "Speed": 5.6})
    assert w == pytest.approx(0.4, abs=1e-12)


def test_firing_strength_empty_antecedent_is_one():
    fis = two_input_fis()
    assert strength_of(fis, Rule((), 2.0), {"Flow": 0.0, "Speed": 0.0}) == 1.0


def test_infer_single_rule_is_exact():
    # one rule firing at w=0.7 with consequent 3 must give exactly 3.0
    fis = two_input_fis(rules=(Rule((("Flow", "lo"),), 3.0),))
    result = infer(fis, {"Flow": 36.0, "Speed": 0.0})  # degree (50-36)/20 = 0.7
    assert result.raw == 3.0
    assert result.fired_rule_count == 1
    assert result.total_strength == pytest.approx(0.7)


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
    assert result.total_strength == 0.0
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


def test_infer_empty_rule_base_rejected():
    fis = two_input_fis(rules=())
    with pytest.raises(FisConfigError, match="empty rule base"):
        infer(fis, {"Flow": 10.0, "Speed": 5.0})
    # the domain is checked first
    with pytest.raises(OutOfDomainError):
        infer(fis, {"Flow": 101.0, "Speed": 5.0})


def test_fis_validation_rejects_bad_rules():
    with pytest.raises(FisConfigError):
        two_input_fis(rules=(Rule((("Flow", "lo"), ("Flow", "hi")), 1.0),))
    with pytest.raises(FisConfigError):
        two_input_fis(rules=(Rule((("Flow", "lo"),), 7.0),))  # outside [0, 6]
    with pytest.raises(FisConfigError):
        two_input_fis(rules=(
            Rule((("Flow", "lo"),), 1.0),
            Rule((("Flow", "lo"),), 2.0),  # duplicate antecedent
        ))
    with pytest.raises(FisConfigError):
        two_input_fis(rules=(Rule((("Ghost", "lo"),), 1.0),))


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


def test_matches_brute_force_on_random_systems():
    rng = random.Random(23)
    for _ in range(30):
        fis = random_fis(rng)
        for _ in range(60):
            point = random_point(rng, fis)
            expected, fired = brute_force_raw(fis, point)
            result = infer(fis, point)
            assert result.fired_rule_count == fired
            assert result.raw == pytest.approx(expected, abs=1e-12)


def test_concurrent_inference_is_consistent(default_fis):
    points = [
        {"TrafficFlow": 6000.0 * i / 40.0, "Speed": 80.0 * j / 40.0}
        for i in range(41)
        for j in range(41)
    ]
    baseline = [infer(default_fis, p).raw for p in points]
    failures = []

    def worker():
        for p, expected in zip(points, baseline):
            if infer(default_fis, p).raw != expected:
                failures.append(p)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
