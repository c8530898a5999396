import math
import random

import pytest

from fuzzylos import FisConfigError, FuzzyVariable, OutOfDomainError, TrapezoidMF


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
    assert mf.degree(0.0) > 0 and not mf.degree(16.0) > 0
    assert (mf.a, mf.d) == (0.0, 16.0)


def test_right_shoulder_evaluates_to_one_at_edge():
    mf = TrapezoidMF(5400, 5700, 6000, 6000)
    assert mf.degree(6000.0) == 1.0
    assert mf.degree(5400.0) == 0.0


@pytest.mark.parametrize(
    "mf",
    [TrapezoidMF(0, 5, 5, 10), TrapezoidMF(0, 1, 2, 3), TrapezoidMF(0, 0, 1, 2),
     TrapezoidMF(0, 1, 2, 2)],
    ids=["triangle", "trapezoid", "left shoulder", "right shoulder"],
)
def test_degree_of_nan_is_zero(mf):
    # NaN lies in no support; a right shoulder's ramp would divide by c - d == 0
    assert mf.degree(math.nan) == 0.0


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


@pytest.mark.parametrize(
    "points",
    [(-math.inf, 0, 1, 2), (0, 0, 1, math.inf), (0, math.nan, 1, 2), (math.inf,) * 4],
)
def test_breakpoints_must_be_finite(points):
    # an infinite breakpoint makes degree() NaN on its ramp, which the min
    # operator skips (full strength) and the product operator propagates
    with pytest.raises(FisConfigError, match="breakpoints must be finite"):
        TrapezoidMF(*points)


def test_a_support_wider_than_the_float_range_is_refused():
    # d - a overflows to inf, which made degree(0.0) 0.0 and degree(1.6e308) NaN
    with pytest.raises(FisConfigError, match="beyond the float range"):
        TrapezoidMF(-1.7e308, 1.7e308, 1.7e308, 1.7e308)
    wide = TrapezoidMF(-8e307, 8e307, 8e307, 8e307)
    assert wide.degree(0.0) == 0.5


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


def test_variable_fuzzify_and_lookup():
    var = FuzzyVariable(
        "Speed",
        "km/h",
        (0.0, 80.0),
        (("slow", TrapezoidMF(0, 0, 20, 40)), ("fast", TrapezoidMF(30, 50, 80, 80))),
    )
    assert var._fill(var._locate(35.0), 35.0) == [0.25, 0.25]
    slow = dict(var.terms)["slow"]
    assert (slow.b, slow.c) == (0.0, 20.0)
    assert var._fill(var._locate(80.0), 80.0) == [0.0, 1.0]
    with pytest.raises(OutOfDomainError, match=r"Speed = 80.1 outside domain \[0.0, 80.0\]"):
        var._locate(80.1)
