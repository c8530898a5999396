"""Property tests of the compiled inference kernel, over random systems.

Systems come from ``helpers.random_fis`` seeded by hypothesis, and each one
is run under both AND operators.  ``infer`` must agree with the independent
brute-force evaluator, and every cell of a random two-input surface, which
reaches the kernel without going through ``infer``, must be bit-identical to
pointwise inference.
"""

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzylos as fz
from helpers import brute_force_raw, random_fis

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
operators = st.sampled_from(["min", "product"])


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def system(seed: int, operator: str, **sizes) -> fz.SugenoFis:
    fis = random_fis(random.Random(seed), **sizes)
    return dataclasses.replace(fis, and_operator=operator)


def coordinate(var: fz.FuzzyVariable):
    """A value in the variable's domain: anywhere, or on a breakpoint, where
    plateaus, ramps and shoulders meet."""
    lo, hi = var.domain
    breakpoints = sorted({p for _, mf in var.terms for p in (mf.a, mf.b, mf.c, mf.d)})
    return st.one_of(
        st.floats(min_value=lo, max_value=hi, allow_nan=False),
        st.sampled_from(breakpoints + [lo, hi]),
    )


def last_grid_value(var: fz.FuzzyVariable, steps: int) -> float:
    lo, hi = var.domain
    return lo + (hi - lo) * (steps - 1) / (steps - 1)


@PROPERTY_SETTINGS
@given(seed=seeds, operator=operators, data=st.data())
def test_infer_matches_brute_force(seed, operator, data):
    fis = system(seed, operator)
    point = {var.name: data.draw(coordinate(var), label=var.name) for var in fis.inputs}
    result = fz.infer(fis, point)
    expected, fired = brute_force_raw(fis, point)
    assert result.fired_rule_count == fired
    assert abs(result.raw - expected) <= 1e-12


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    operator=operators,
    flow_steps=st.integers(min_value=2, max_value=9),
    speed_steps=st.integers(min_value=2, max_value=9),
)
def test_surface_cells_are_bit_identical_to_infer(seed, operator, flow_steps, speed_steps):
    fis = system(seed, operator, min_inputs=2, max_inputs=2)
    flow_name, speed_name = (var.name for var in fis.inputs)
    try:
        cells = list(fz.surface_grid(fis, flow_steps, speed_steps))
    except fz.OutOfDomainError:
        # The grid's far corner rounded past a domain maximum; pointwise
        # inference must refuse that cell too.
        far_corner = {
            flow_name: last_grid_value(fis.inputs[0], flow_steps),
            speed_name: last_grid_value(fis.inputs[1], speed_steps),
        }
        with pytest.raises(fz.OutOfDomainError):
            fz.infer(fis, far_corner)
        return
    assert len(cells) == flow_steps * speed_steps
    for flow, speed, result in cells:
        expected = fz.infer(fis, {flow_name: flow, speed_name: speed})
        assert result == expected
        assert bits(result.raw) == bits(expected.raw)

