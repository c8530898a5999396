import random

import pytest

from fuzzylos import FisConfigError, FuzzyVariable, TrapezoidMF


@pytest.mark.parametrize(
    "x,expected",
    [(25.0, 1.0), (15.0, 0.5), (5.0, 0.0), (35.0, 0.5), (10.0, 0.0), (40.0, 0.0),
     (20.0, 1.0), (30.0, 1.0), (45.0, 0.0)],
)
def test_trapezoid_values(x, expected):
    mf = TrapezoidMF(10, 20, 30, 40)
    assert mf.degree(x) == expected


def test_left_shoulder_evaluates_to_one_at_edge():
    mf = TrapezoidMF(0, 0, 8, 16)
    assert mf.degree(0.0) == 1.0
    assert mf.degree(8.0) == 1.0
    assert mf.degree(12.0) == 0.5
    assert mf.degree(16.0) == 0.0
    assert mf.covers(0.0) and not mf.covers(16.0)
    assert mf.support == (0.0, 16.0)


def test_right_shoulder_evaluates_to_one_at_edge():
    mf = TrapezoidMF(5400, 5700, 6000, 6000)
    assert mf.degree(6000.0) == 1.0
    assert mf.degree(5400.0) == 0.0


def test_triangle_and_spike():
    tri = TrapezoidMF(0, 5, 5, 10)
    assert tri.degree(5.0) == 1.0
    assert tri.degree(2.5) == 0.5
    spike = TrapezoidMF(3, 3, 3, 3)
    assert spike.degree(3.0) == 1.0
    assert spike.degree(3.0001) == 0.0


def test_breakpoint_order_enforced():
    with pytest.raises(FisConfigError):
        TrapezoidMF(10, 5, 30, 40)
    with pytest.raises(FisConfigError):
        TrapezoidMF(10, 20, 15, 40)
    with pytest.raises(FisConfigError):
        TrapezoidMF(10, 20, 30, 25)


def test_degrees_bounded_and_continuous():
    rng = random.Random(1)
    for _ in range(200):
        points = sorted(rng.uniform(-100, 100) for _ in range(4))
        a, b, c, d = points
        mf = TrapezoidMF(a, b, c, d)
        for _ in range(50):
            x = rng.uniform(-150, 150)
            assert 0.0 <= mf.degree(x) <= 1.0
        # Lipschitz bound within a single linear piece
        for lo, hi in ((a, b), (b, c), (c, d)):
            if hi <= lo:
                continue
            x1, x2 = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
            bound = abs(x2 - x1) / (hi - lo)
            assert abs(mf.degree(x2) - mf.degree(x1)) <= bound + 1e-12


def test_variable_rejects_bad_terms():
    mf = TrapezoidMF(0, 1, 2, 3)
    with pytest.raises(FisConfigError):
        FuzzyVariable("v", "", (0.0, 10.0), (("a", mf), ("a", mf)))
    with pytest.raises(FisConfigError):
        FuzzyVariable("v", "", (5.0, 5.0), (("a", mf),))
    with pytest.raises(FisConfigError):
        FuzzyVariable("v", "", (0.0, 2.5), (("a", mf),))  # support exceeds domain


def test_variable_fuzzify_and_lookup():
    var = FuzzyVariable(
        "Speed",
        "km/h",
        (0.0, 80.0),
        (("slow", TrapezoidMF(0, 0, 20, 40)), ("fast", TrapezoidMF(30, 50, 80, 80))),
    )
    degrees = var.fuzzify(35.0)
    assert degrees == {"slow": 0.25, "fast": 0.25}
    assert dict(var.terms)["slow"].plateau == (0.0, 20.0)
    assert var.contains(80.0) and not var.contains(80.1)
