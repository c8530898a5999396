import pytest

import fuzzylos as fz
from fuzzylos import (
    LOS_DESCRIPTIONS,
    LosRegionModel,
    OutOfDomainError,
    Rect,
    RegionError,
    classify,
    oracle_label,
    parse_regions,
)


def test_level_descriptions_fixed():
    assert LOS_DESCRIPTIONS[1] == "The traffic flow is free."
    assert LOS_DESCRIPTIONS[2] == "Traffic flow is almost continuous."
    assert LOS_DESCRIPTIONS[3] == "The traffic situation is stable."
    assert LOS_DESCRIPTIONS[4] == "The traffic situation is still stable."
    assert LOS_DESCRIPTIONS[5] == "The lane capacity is full."
    assert LOS_DESCRIPTIONS[6] == "The section is congested."


def test_parse_region_file(default_model):
    assert default_model.lanes == 3
    assert len(default_model.regions) == 6
    assert default_model.flow_domain == (0.0, 6000.0)
    assert default_model.speed_domain == (0.0, 80.0)


def test_region_file_errors():
    with pytest.raises(RegionError):
        parse_regions("region 7 flow 0 1 speed 0 1")
    with pytest.raises(RegionError):
        parse_regions("region 1 flow 1 0 speed 0 1")
    with pytest.raises(RegionError):
        parse_regions("lanes -2")
    with pytest.raises(RegionError):
        parse_regions("blargh 1 2 3")
    with pytest.raises(RegionError):
        parse_regions("")  # no rectangles
    with pytest.raises(RegionError):
        parse_regions(
            "region 1 flow 0 10 speed 0 10\nregion 2 flow 5 15 speed 5 15\n"
        )  # overlap


@pytest.mark.parametrize("text, message", [
    ("# lanes\nregion 1 flow 0 10 speed 0 10\nlanes 0\n",
     "line 3: lane count must be positive, got 0"),
    ("region 1 flow 0 10 speed 0 10\n\nregion 7 flow 10 20 speed 0 10\n",
     "line 3: level of service must be 1..6, got 7"),
    ("region 1 flow 0 10 speed 0 10\nregion 3 flow 20 30 speed 0 10\n"
     "region 2 flow 5 15 speed 5 15\n",
     "line 3: rectangles for LoS 1 and LoS 2 overlap"),
    ("lanes 2\nregion 1 flow 0 x speed 0 10\n",
     "line 2, column 17: expected a flow bound, got 'x'"),
    ("lanes 2\nregion 1 flow 20 10 speed 0 10\n",
     "line 2: degenerate rectangle flow [20.0, 10.0] speed [0.0, 10.0]"),
    # str.isdigit accepts Arabic-Indic digits; the grammar takes ASCII only
    ("lanes \u0661\u0660\nregion 1 flow 0 10 speed 0 10\n",
     "line 1, column 7: expected the lane count, got '\u0661'"),
    ("region \u0663 flow 0 10 speed 0 10\n",
     "line 1, column 8: expected the level, got '\u0663'"),
], ids=["lanes", "level", "overlap", "number", "degenerate", "lanes-digits", "level-digits"])
def test_region_model_errors_name_their_line(text, message):
    with pytest.raises(RegionError) as raised:
        parse_regions(text)
    assert str(raised.value) == message


def test_region_model_errors_locate_their_argument():
    ok = (1, Rect(0, 10, 0, 10))
    cases = [
        (dict(regions=(ok,), lanes=0), ("lanes",), "lane count must be positive, got 0"),
        (dict(regions=(ok,), lanes=2.5), ("lanes",), "lane count must be positive, got 2.5"),
        (dict(regions=(ok,), lanes=True), ("lanes",), "lane count must be positive, got True"),
        (dict(regions=(ok,), lanes="3"), ("lanes",), "lane count must be positive, got '3'"),
        (dict(regions=(ok, (7, Rect(10, 20, 0, 10)))), ("regions", 1),
         "level of service must be 1..6, got 7"),
        (dict(regions=(ok, (1.0, Rect(10, 20, 0, 10)))), ("regions", 1),
         "level of service must be 1..6, got 1.0"),
        (dict(regions=((True, Rect(0, 6000, 0, 80)),)), ("regions", 0),
         "level of service must be 1..6, got True"),
        (dict(regions=(ok, (3, Rect(20, 30, 0, 10)), (2, Rect(5, 15, 5, 15)))),
         ("regions", 2), "rectangles for LoS 1 and LoS 2 overlap"),
    ]
    for kwargs, location, message in cases:
        with pytest.raises(RegionError) as raised:
            LosRegionModel(**kwargs)
        assert (raised.value.location, str(raised.value)) == (location, message)


@pytest.mark.parametrize("text, message", [
    ("region 1 flow 0 10 speed 0 10\nlane 3\n",
     "line 2, column 1: expected 'lanes' or 'region', got 'lane'"),
    ("lanes\n", "line 1, column 6: expected the lane count, got end of line"),
    ("region 1.5 flow 0 10 speed 0 10\n", "line 1, column 8: expected the level, got '1.5'"),
    ("region 1 flow 0 1e4 speed 0 10\n", "line 1, column 18: expected 'speed', got 'e4'"),
    ("region 1 flow 0 1_000 speed 0 10\n", "line 1, column 18: expected 'speed', got '_000'"),
    ("region 1 flow +5 10 speed 0 10\n", "line 1, column 15: expected a flow bound, got '+'"),
    ("region 1 flow 0 inf speed 0 10\n",
     "line 1, column 17: expected a flow bound, got 'inf'"),
    ("region 1 flow 0 10 speed 0 10 x\n", "line 1, column 31: unexpected trailing 'x'"),
    ("lanes 3\nlanes 4\nregion 1 flow 0 10 speed 0 10\n",
     "line 2, column 1: duplicate lanes statement"),
], ids=["unknown", "no-lane-count", "level", "exponent", "underscore", "plus", "inf", "trailing",
        "duplicate-lanes"])
def test_region_file_syntax_errors_name_line_and_column(text, message):
    with pytest.raises(RegionError) as raised:
        parse_regions(text)
    assert str(raised.value) == message


NON_FINITE = {
    "region 2 flow 10 inf speed 0 10": "line 2, column 18: expected a flow bound, got 'inf'",
    "region 2 flow -inf -5 speed 0 10": "line 2, column 15: expected a flow bound, got '-'",
}


@pytest.mark.parametrize("region", NON_FINITE)
def test_region_file_rejects_non_finite_bounds(region):
    text = "region 1 flow 0 10 speed 0 10\n" + region + "\n"
    with pytest.raises(RegionError) as raised:
        parse_regions(text)
    assert str(raised.value) == NON_FINITE[region]


@pytest.mark.parametrize("bounds", [
    (0.0, float("inf"), 0.0, 80.0),
    (float("-inf"), 10.0, 0.0, 80.0),
    (0.0, 10.0, float("-inf"), 80.0),
    (0.0, 10.0, 0.0, float("inf")),
])
def test_rect_rejects_non_finite_bounds(bounds):
    with pytest.raises(RegionError, match="finite"):
        Rect(*bounds)


def test_oracle_containment(default_model):
    assert oracle_label(default_model, 700.0, 65.0) == 1
    assert oracle_label(default_model, 2000.0, 60.0) == 2
    assert oracle_label(default_model, 3500.0, 50.0) == 3
    assert oracle_label(default_model, 4500.0, 40.0) == 4
    assert oracle_label(default_model, 5500.0, 30.0) == 5
    assert oracle_label(default_model, 1000.0, 10.0) == 6
    # gap between the congested band and the free-flow rectangles
    assert oracle_label(default_model, 1000.0, 35.0) is None
    assert oracle_label(default_model, 5500.0, 70.0) is None


def test_oracle_rejects_out_of_domain(default_model):
    with pytest.raises(OutOfDomainError):
        oracle_label(default_model, 6500.0, 40.0)
    with pytest.raises(OutOfDomainError):
        oracle_label(default_model, 1000.0, -1.0)


def test_shared_edges_resolve_to_low_edge_owner(default_model):
    # The four internal flow edges shared by vertically overlapping spans.
    # Each edge point belongs to the rectangle whose closed low edge it is;
    # derived by enumerating the default rectangles' edges: 1500 is Low(2)'s
    # low edge, 3000 is Middle(3)'s, 4200 is Still-stable(4)'s, 5000 is
    # Full-capacity(5)'s.
    assert oracle_label(default_model, 1500.0, 55.0) == 2
    assert oracle_label(default_model, 1499.999, 55.0) == 1
    assert oracle_label(default_model, 3000.0, 50.0) == 3
    assert oracle_label(default_model, 4200.0, 40.0) == 4
    assert oracle_label(default_model, 5000.0, 30.0) == 5
    # Speed edges shared with the congested band's top are gaps above it.
    assert oracle_label(default_model, 1000.0, 25.0) is None
    assert oracle_label(default_model, 1000.0, 24.999) == 6


def test_envelope_maxima_stay_labeled(default_model):
    assert oracle_label(default_model, 6000.0, 30.0) == 5
    assert oracle_label(default_model, 1000.0, 80.0) == 1
    assert oracle_label(default_model, 2000.0, 80.0) == 2
    assert oracle_label(default_model, 0.0, 0.0) == 6


def test_oracle_determinism_exhaustive_scan(default_model):
    # every in-domain grid point maps to at most one rectangle
    for i in range(121):
        flow = 6000.0 * i / 120.0
        for j in range(81):
            speed = 80.0 * j / 80.0
            owners = []
            env_f = default_model.flow_domain[1]
            env_s = default_model.speed_domain[1]
            for level, rect in default_model.regions:
                f_ok = rect.flow_lo <= flow < rect.flow_hi or flow == rect.flow_hi == env_f
                s_ok = rect.speed_lo <= speed < rect.speed_hi or speed == rect.speed_hi == env_s
                if f_ok and s_ok:
                    owners.append(level)
            assert len(owners) <= 1
            expected = owners[0] if owners else None
            assert oracle_label(default_model, flow, speed) == expected


def test_rect_validation():
    with pytest.raises(RegionError):
        Rect(10, 10, 0, 1)
    with pytest.raises(RegionError):
        LosRegionModel(regions=((1, Rect(0, 1, 0, 1)),), lanes=0)
    with pytest.raises(RegionError):
        LosRegionModel(regions=())


def test_classify_rounding_and_boundary(default_fis):
    exact = classify(default_fis, 600.0, 38.0)
    assert (exact.raw, exact.level, exact.boundary) == (1.0, 1, False)
    assert not exact.is_anomaly
    assert exact.label() == "1"

    anomaly = classify(default_fis, 5500.0, 75.0)
    assert anomaly.is_anomaly
    assert anomaly.level is None
    assert anomaly.raw == 0.0
    assert anomaly.boundary is False
    assert anomaly.label() == "ANOMALY"


def test_classify_half_up_rounding():
    # symmetric two-rule system engineered to give raw exactly 2.5
    flow = fz.FuzzyVariable(
        "F", "", (0.0, 10.0),
        (("a", fz.TrapezoidMF(0, 0, 4, 6)), ("b", fz.TrapezoidMF(4, 6, 10, 10))),
    )
    speed = fz.FuzzyVariable("S", "", (0.0, 1.0), (("any", fz.TrapezoidMF(0, 0, 1, 1)),))
    fis = fz.SugenoFis(
        inputs=(flow, speed),
        output_name="O",
        output_domain=(0.0, 6.0),
        rules=(
            fz.Rule((("F", "a"), ("S", "any")), 2.0),
            fz.Rule((("F", "b"), ("S", "any")), 3.0),
        ),
    )
    c = classify(fis, 5.0, 0.5)
    assert c.raw == 2.5
    assert c.level == 3  # round half up
    assert c.boundary is True

    low = classify(fis, 4.0, 0.5)  # only the first rule fires
    assert (low.raw, low.level, low.boundary) == (2.0, 2, False)


def test_classify_epsilon_validation(default_fis):
    with pytest.raises(ValueError):
        classify(default_fis, 600.0, 38.0, epsilon=0.5)
    with pytest.raises(ValueError):
        classify(default_fis, 600.0, 38.0, epsilon=-0.01)
    near = classify(default_fis, 600.0, 38.0, epsilon=0.0)
    assert near.boundary is False


def test_classify_requires_two_inputs():
    var = fz.FuzzyVariable("A", "", (0.0, 1.0), (("t", fz.TrapezoidMF(0, 0, 1, 1)),))
    fis = fz.SugenoFis(
        inputs=(var,),
        output_name="O",
        output_domain=(0.0, 6.0),
        rules=(fz.Rule((("A", "t"),), 1.0),),
    )
    # a misconfigured system is not a per-point data error
    with pytest.raises(fz.FisConfigError, match="two-input system") as raised:
        classify(fis, 0.5, 0.5)
    assert not isinstance(raised.value, OutOfDomainError)


def test_classify_rule_free_system_raises_before_domain_check(default_fis):
    fis = fz.SugenoFis(default_fis.inputs, default_fis.output_name, default_fis.output_domain, ())
    with pytest.raises(fz.FisConfigError, match="empty rule base"):
        classify(fis, 600.0, 38.0)
    with pytest.raises(fz.FisConfigError, match="empty rule base"):
        classify(fis, 600.0, 1000.0)  # speed outside the domain


def test_grid_consistency_against_oracle(default_fis, default_model):
    # over a dense grid, firmly classified points (labeled, non-boundary,
    # non-anomalous) must agree with the oracle on at least 99% of cells
    agree = disagree = 0
    for i in range(121):
        flow = 6000.0 * i / 120.0
        for j in range(81):
            speed = 80.0 * j / 80.0
            truth = oracle_label(default_model, flow, speed)
            if truth is None:
                continue
            c = classify(default_fis, flow, speed)
            if c.is_anomaly or c.boundary:
                continue
            if c.level == truth:
                agree += 1
            else:
                disagree += 1
    assert agree + disagree > 0
    assert agree / (agree + disagree) >= 0.99


def test_raw_output_non_increasing_in_speed(default_fis):
    # plausibility: faster traffic never means a worse service level; the
    # sweep skips anomaly zones, which carry no level at all
    flow_var = default_fis.inputs[0]
    for _, mf in flow_var.terms:
        flow = (mf.b + mf.c) / 2.0
        previous = None
        for j in range(801):
            speed = 80.0 * j / 800.0
            c = classify(default_fis, flow, speed)
            if c.is_anomaly:
                continue
            if previous is not None:
                assert c.raw <= previous + 1e-12, (flow, speed)
            previous = c.raw


def test_classify_clamps_to_level_range():
    var_a = fz.FuzzyVariable("A", "", (0.0, 1.0), (("t", fz.TrapezoidMF(0, 0, 1, 1)),))
    var_b = fz.FuzzyVariable("B", "", (0.0, 1.0), (("t", fz.TrapezoidMF(0, 0, 1, 1)),))
    fis = fz.SugenoFis(
        inputs=(var_a, var_b),
        output_name="O",
        output_domain=(0.0, 6.0),
        rules=(fz.Rule((("A", "t"),), 0.2),),
    )
    c = classify(fis, 0.5, 0.5)
    assert c.raw == 0.2
    assert c.level == 1  # round-half-up would give 0; clamped into 1..6
    assert not c.is_anomaly
