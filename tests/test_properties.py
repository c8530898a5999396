"""Property tests over random systems and region models.

Systems come from ``helpers.random_fis`` seeded by hypothesis, from
``coinciding_systems``, whose breakpoints coincide, and from
``extreme_systems``, whose breakpoints lie at the float edges, from 5e-324
to the float maximum; each one is run under both AND operators.  ``infer``
must agree with the independent brute-force evaluator, on and 1 ulp around
every breakpoint too, a point's candidate rules must be exactly the rules it
fires, or, at the float edges, where a ramp can underflow inside its cell,
exactly the rules that fire somewhere in its cells, and each cell must hold
each term's least and greatest degree at its least and greatest float.
``export_surface`` and ``classify`` reach the kernel without going through
``infer``: every cell of a random two-input surface, at the float edges too,
and ``classify`` at that cell, must be bit-identical to pointwise inference,
and ``classify`` must round, clamp and flag boundaries and anomalies by its
rule;
``export_surface`` must write exactly those cells, line by line, text for
text.  One ``classifier``, which keeps what it answered for each decided cell
tuple, must answer a walk over each cell's least and greatest float and
midpoint, and the walk back, as a fresh ``classify`` answers each point, at
the float edges too.  ``grid_value`` must run from ``lo`` to ``hi`` through
finite values that never fall, over extreme domains and spans inside them.
``ingest`` must read back exactly what ``csv.writer`` wrote, and what
``label_csv`` wrote from it, and accept a speed or flow field exactly when
``float`` reads its stripped text as a finite number not below zero.
``label_csv`` must write back every field's text, padding included, with
its level, quoting a record whole when it holds ``"\\r"`` and otherwise
exactly the fields that hold ``,``, ``"`` or ``"\\n"``.
``oracle_label`` must follow the containment rule on, and 1 ulp to either
side of, every rectangle edge and envelope corner of a random region model.
``generate_synthetic`` must keep every point in the model's envelope and in
some rectangle widened by 20 along one axis, with at most its 2% share of
points outside every rectangle, or name the cause when every rectangle's area
underflows to 0.
``generate_rules``, which counts core samples per axis, must give the rules
or the conflict that asking the region oracle at every sample gives, and
each edge index it finds from the grid formula must be the one a binary
search over the samples finds, on cores far from zero whose samples repeat,
at grids up to 60 and at 10**8.
``build_fis`` must turn any parseable ``.fis`` text into a system or into
positioned errors, and nothing else, and ``serialize`` must write a term
name exactly when the reader reads it back as that name.
"""

import bisect
import csv
import dataclasses
import functools
import io
import itertools
import math
import random
import string
import struct
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fuzzylos as fz
from fuzzylos.engine import grid_value
from fuzzylos.regions import classifier
from fuzzylos.rulegen import _axis_counts, half_cut
from helpers import (
    EXTREME_DOMAINS, brute_force_raw, cell_bounds, cell_points, end_degrees, extreme_fis,
    extreme_palette, quantity_refusal, random_fis, rule_strength, sampled_rules,
)

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
operators = st.sampled_from(["min", "product"])


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def system(seed: int, operator: str, **sizes) -> fz.SugenoFis:
    fis = random_fis(random.Random(seed), **sizes)
    return dataclasses.replace(fis, and_operator=operator)


def coordinate(var: fz.FuzzyVariable):
    """A value in the variable's domain: anywhere, on a breakpoint or a
    domain end, where plateaus, ramps, shoulders and cells meet, or 1 ulp to
    either side of one."""
    lo, hi = var.domain
    ends = {lo, hi, *(p for _, mf in var.terms for p in (mf.a, mf.b, mf.c, mf.d))}
    near = {q for p in ends for q in (math.nextafter(p, lo), p, math.nextafter(p, hi))}
    return st.one_of(
        st.floats(min_value=lo, max_value=hi, allow_nan=False),
        st.sampled_from(sorted(near)),
    )


def check_against_brute_force(fis: fz.SugenoFis, data) -> None:
    point = {var.name: data.draw(coordinate(var), label=var.name) for var in fis.inputs}
    result = fz.infer(fis, point)
    expected, fired = brute_force_raw(fis, point)
    assert result.fired_rule_count == fired
    assert abs(result.raw - expected) <= 1e-12


@PROPERTY_SETTINGS
@given(seed=seeds, operator=operators, data=st.data())
def test_infer_matches_brute_force(seed, operator, data):
    check_against_brute_force(system(seed, operator), data)


def lattice(start: float = 0.0):
    return st.integers(min_value=int(start), max_value=6).map(float)


@st.composite
def coinciding_systems(draw):
    """Systems of 1 to 3 inputs on the domain [0, 6] whose breakpoints lie
    on the integers, so they coincide: a == b, c == d, supports ending on
    the domain ends, and (chained) one term's a on the previous term's d.
    Rules may omit any input, all of them included."""
    inputs = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        mfs = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            if mfs and draw(st.booleans()):
                start = mfs[-1].d
                rest = draw(st.lists(lattice(start), min_size=3, max_size=3))
                mfs.append(fz.TrapezoidMF(start, *sorted(rest)))
            else:
                points = draw(st.lists(lattice(), min_size=4, max_size=4))
                mfs.append(fz.TrapezoidMF(*sorted(points)))
        terms = tuple((f"T{j}", mf) for j, mf in enumerate(mfs))
        inputs.append(fz.FuzzyVariable(f"V{i}", "", (0.0, 6.0), terms))
    rules = {}
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        antecedent = tuple(
            (var.name, draw(st.sampled_from(var.term_names())))
            for var in inputs
            if draw(st.booleans())
        )
        consequent = float(draw(st.integers(min_value=1, max_value=6)))
        rules.setdefault(frozenset(antecedent), fz.Rule(antecedent, consequent))
    return fz.SugenoFis(
        inputs=tuple(inputs),
        output_name="Out",
        output_domain=(0.0, 6.0),
        rules=tuple(rules.values()),
        and_operator=draw(operators),
    )


@PROPERTY_SETTINGS
@given(fis=coinciding_systems(), data=st.data())
def test_infer_matches_brute_force_where_breakpoints_coincide(fis, data):
    check_against_brute_force(fis, data)


@PROPERTY_SETTINGS
@given(fis=coinciding_systems(), data=st.data())
def test_a_points_candidates_are_exactly_its_fired_rules(fis, data):
    # quarter steps put a point on every cut and inside every open cell, and
    # the ulp steps beside them keep 2**-53 or more from every integer: no
    # degree or product underflows to 0.0, as it would at 5e-324
    quarters = [k / 4 for k in range(25)]
    near = [math.nextafter(p, 0.0) for p in range(1, 7)]
    near += [math.nextafter(p, 6.0) for p in range(1, 6)]
    point = [data.draw(st.sampled_from(quarters + near), label=var.name) for var in fis.inputs]
    result = fz.infer(fis, {var.name: x for var, x in zip(fis.inputs, point)})
    cells = tuple(var._locate(x) for var, x in zip(fis.inputs, point))
    assert len(fis._records[cells][0]) == result.fired_rule_count


@PROPERTY_SETTINGS
@given(fis=coinciding_systems())
def test_each_cell_holds_its_end_degrees_where_breakpoints_coincide(fis):
    for var in fis.inputs:
        for cell, (floors, _, peaks) in enumerate(var._cells[1]):
            assert repr((floors, peaks)) == repr(end_degrees(var, cell))


extreme_systems = st.builds(lambda seed, operator: extreme_fis(random.Random(seed), operator),
                            seeds, operators)


@PROPERTY_SETTINGS
@given(fis=extreme_systems, data=st.data())
def test_infer_matches_brute_force_on_extreme_systems(fis, data):
    check_against_brute_force(fis, data)


@PROPERTY_SETTINGS
@given(fis=extreme_systems, data=st.data())
def test_candidates_are_exactly_the_rules_that_fire_in_their_cells_on_extreme_systems(fis, data):
    # A rule reads one term per input and each degree is monotone across a
    # cell, so a rule fires somewhere in a cell tuple exactly when it fires
    # where each of its terms is greatest: at its cell's least or greatest
    # float.
    cells, ends = [], []
    for var in fis.inputs:
        cell = var._locate(data.draw(st.sampled_from(cell_points(var)), label=var.name))
        cells.append(cell)
        ends.append(set(cell_bounds(var, cell)))
    fired = set()
    for point in itertools.product(*ends):
        values = {var.name: x for var, x in zip(fis.inputs, point)}
        firing = {k for k, rule in enumerate(fis.rules) if rule_strength(fis, rule, values) > 0.0}
        assert fz.infer(fis, values).fired_rule_count == len(firing)
        fired |= firing
    assert fis._record(tuple(cells))[0] == tuple(fis._compiled[k] for k in sorted(fired))


def grid_cells(fis, flow_steps, speed_steps):
    """The surface's grid coordinates, flow-major, as ``export_surface`` walks them."""
    flow_domain, speed_domain = (var.domain for var in fis.inputs)
    return [
        (grid_value(*flow_domain, flow_steps, i), grid_value(*speed_domain, speed_steps, j))
        for i in range(flow_steps)
        for j in range(speed_steps)
    ]


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    operator=operators,
    flow_steps=st.integers(min_value=2, max_value=9),
    speed_steps=st.integers(min_value=2, max_value=9),
)
def test_surface_cells_are_bit_identical_to_infer(seed, operator, flow_steps, speed_steps):
    # consequents span [-10, 20], so the clamp into 1..6 is exercised
    check_surface_against_infer(system(seed, operator, min_inputs=2, max_inputs=2),
                                flow_steps, speed_steps)


@PROPERTY_SETTINGS
@given(fis=extreme_systems)
def test_surface_cells_are_bit_identical_to_infer_on_extreme_systems(fis):
    check_surface_against_infer(fis, 13, 11)


def check_surface_against_infer(fis, flow_steps, speed_steps):
    """Every cell of ``export_surface``, and ``classify`` at it, is pointwise
    inference bit for bit, and ``classify`` rounds, clamps and flags by its rule."""
    flow_name, speed_name = (var.name for var in fis.inputs)
    rows = [
        tuple(float(text) for text in line.split(","))
        for line in fz.export_surface(fis, flow_steps, speed_steps).splitlines()[1:]
    ]
    cells = grid_cells(fis, flow_steps, speed_steps)
    assert len(rows) == len(cells) == flow_steps * speed_steps
    for (flow_out, speed_out, raw), (flow, speed) in zip(rows, cells):
        assert (bits(flow_out), bits(speed_out)) == (bits(flow), bits(speed))
        expected = fz.infer(fis, {flow_name: flow, speed_name: speed})
        assert bits(raw) == bits(expected.raw)
        rated = fz.classify(fis, flow, speed)
        assert bits(rated.raw) == bits(expected.raw)
        assert (rated.level is None) == (expected.fired_rule_count == 0)
        if rated.level is not None:
            assert rated.level == min(max(math.floor(expected.raw + 0.5), 1), 6)
            assert rated.boundary == (abs(expected.raw - round(expected.raw)) > 0.05)


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    operator=operators,
    flow_steps=st.integers(min_value=2, max_value=9),
    speed_steps=st.integers(min_value=2, max_value=9),
)
def test_export_surface_writes_the_grid_cell_by_cell(seed, operator, flow_steps, speed_steps):
    # Unequal step counts, so a row that borrows the other axis' texts shows.
    assume(flow_steps != speed_steps)
    fis = system(seed, operator, min_inputs=2, max_inputs=2)
    flow_name, speed_name = (var.name for var in fis.inputs)
    expected = "".join(
        f"{flow!r},{speed!r},{fz.infer(fis, {flow_name: flow, speed_name: speed}).raw!r}\n"
        for flow, speed in grid_cells(fis, flow_steps, speed_steps)
    )
    # repr round-trips, so equal text is equal bits, a -0.0 included
    assert fz.export_surface(fis, flow_steps, speed_steps) == (
        "flow_vph,speed_kmh,raw_los\n" + expected
    )


epsilons = st.sampled_from([0.0, 0.05, 0.25, 0.49999999999999994])


@PROPERTY_SETTINGS
@given(seed=seeds, operator=operators, epsilon=epsilons, data=st.data())
def test_one_classifier_answers_each_point_as_a_fresh_classify(seed, operator, epsilon, data):
    check_classifier_walk(system(seed, operator, min_inputs=2, max_inputs=2), epsilon, data)


@PROPERTY_SETTINGS
@given(fis=extreme_systems, epsilon=epsilons, data=st.data())
def test_one_classifier_answers_each_point_as_a_fresh_classify_on_extreme_systems(
    fis, epsilon, data
):
    check_classifier_walk(fis, epsilon, data)


def check_classifier_walk(fis, epsilon, data):
    """One ``classifier`` answers a walk over points of every cell, and the
    walk back, as a fresh ``classify`` answers each point; the walk's
    repeats reach the classifier's memo of decided cell tuples."""
    axes = [st.sampled_from(cell_points(var)) for var in fis.inputs]
    walk = data.draw(st.lists(st.tuples(*axes), min_size=1, max_size=60), label="walk")
    rate = classifier(fis, epsilon)
    for flow, speed in walk + walk[::-1]:
        raw, level, boundary = rate(flow, speed)
        expected = fz.classify(fis, flow, speed, epsilon)
        assert (repr(raw), level, boundary) == (repr(expected.raw), expected.level,
                                                expected.boundary)


# Each extreme domain, and each span inside one between two breakpoints of
# its palette, down to two adjacent floats.
extreme_domains = sorted({
    pair
    for domain in EXTREME_DOMAINS
    for pair in itertools.combinations(extreme_palette(*domain), 2)
})


@PROPERTY_SETTINGS
@given(domain=st.sampled_from(extreme_domains), steps=st.sampled_from([2, 11, 13, 100, 1001]))
def test_grid_value_runs_from_lo_to_hi_without_falling_on_extreme_domains(domain, steps):
    lo, hi = domain
    values = [grid_value(lo, hi, steps, i) for i in range(steps)]
    assert values[0] == lo and values[-1] == hi
    assert all(map(math.isfinite, values))
    assert values == sorted(values)


# Small integers make core samples land exactly on rectangle edges and on
# the envelope maximum; arbitrary floats cover everything in between.
integers = st.sampled_from([float(k) for k in range(13)])
positions = st.one_of(integers, integers, st.floats(min_value=0.0, max_value=12.0))


@st.composite
def region_models(draw):
    """Random cells of a random axis partition, each with a random level."""
    flow_cuts = sorted(draw(st.sets(positions, min_size=2, max_size=5)))
    speed_cuts = sorted(draw(st.sets(positions, min_size=2, max_size=5)))
    cells = [(i, j) for i in range(len(flow_cuts) - 1) for j in range(len(speed_cuts) - 1)]
    levels = draw(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
            min_size=len(cells),
            max_size=len(cells),
        ).filter(any)
    )
    return fz.LosRegionModel(
        regions=tuple(
            (level, fz.Rect(flow_cuts[i], flow_cuts[i + 1], speed_cuts[j], speed_cuts[j + 1]))
            for (i, j), level in zip(cells, levels)
            if level is not None
        )
    )


def one_ulp_around(values) -> list[float]:
    """Each value and the floats next to it on either side."""
    return sorted({
        q for p in values for q in (math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf))
    })


@PROPERTY_SETTINGS
@given(model=region_models())
def test_oracle_label_on_and_one_ulp_around_every_edge(model):
    (flow_lo, flow_hi), (speed_lo, speed_hi) = model.flow_domain, model.speed_domain
    # the envelope's ends are rectangle edges, so its corners are among the points
    flows = one_ulp_around(p for _, r in model.regions for p in (r.flow_lo, r.flow_hi))
    speeds = one_ulp_around(p for _, r in model.regions for p in (r.speed_lo, r.speed_hi))
    for flow in flows:
        for speed in speeds:
            if not (flow_lo <= flow <= flow_hi and speed_lo <= speed <= speed_hi):
                with pytest.raises(fz.OutOfDomainError):
                    fz.oracle_label(model, flow, speed)
                continue
            # half open, but a high edge on the envelope maximum is closed
            owners = [
                level
                for level, r in model.regions
                if (r.flow_lo <= flow < r.flow_hi or flow == r.flow_hi == flow_hi)
                and (r.speed_lo <= speed < r.speed_hi or speed == r.speed_hi == speed_hi)
            ]
            assert len(owners) <= 1
            assert fz.oracle_label(model, flow, speed) == (owners[0] if owners else None)


def in_rect(m: fz.Measurement, r: fz.Rect, flow_margin=0.0, speed_margin=0.0) -> bool:
    """Whether the point lies in the closed rectangle widened by the margins."""
    return (
        r.flow_lo - flow_margin <= m.flow <= r.flow_hi + flow_margin
        and r.speed_lo - speed_margin <= m.speed <= r.speed_hi + speed_margin
    )


@PROPERTY_SETTINGS
@given(model=region_models(), n=st.integers(min_value=1, max_value=400), seed=seeds)
def test_generate_synthetic_pushes_few_points_a_little_and_stays_in_the_envelope(model, n, seed):
    (flow_lo, flow_hi), (speed_lo, speed_hi) = model.flow_domain, model.speed_domain
    rects = [r for _, r in model.regions]
    if not any((r.flow_hi - r.flow_lo) * (r.speed_hi - r.speed_lo) for r in rects):
        # every area underflows to 0, so there is no weight to draw a rectangle by
        message = r"^no area to draw points by: rectangle areas sum to 0\.0$"
        with pytest.raises(ValueError, match=message):
            fz.generate_synthetic(model, n, seed)
        return
    data = fz.generate_synthetic(model, n, seed)
    assert len(data) == n
    outside = 0
    for m in data:
        assert flow_lo <= m.flow <= flow_hi and speed_lo <= m.speed <= speed_hi
        # drawn in a closed rectangle, or pushed at most 20 across one of its edges
        assert any(in_rect(m, r, 20.0) or in_rect(m, r, speed_margin=20.0) for r in rects)
        outside += not any(in_rect(m, r) for r in rects)
    assert outside <= round(0.02 * n)


def trapezoids(breakpoints: int):
    """Trapezoids over distinct sorted positions: four breakpoints, or two
    as the core of a trapezoid with vertical sides."""
    return st.lists(positions, min_size=breakpoints, max_size=breakpoints, unique=True).map(
        lambda p: fz.TrapezoidMF(*sorted(p * (4 // breakpoints)))
    )


terms = st.one_of(trapezoids(4), trapezoids(2), positions.map(lambda x: fz.TrapezoidMF(x, x, x, x)))


def variables(name: str):
    return st.lists(terms, min_size=1, max_size=4).map(
        lambda mfs: fz.FuzzyVariable(
            name, "", (0.0, 12.0), tuple((f"T{i}", mf) for i, mf in enumerate(mfs))
        )
    )


@PROPERTY_SETTINGS
@given(
    model=region_models(),
    flow_var=variables("Flow"),
    speed_var=variables("Speed"),
    grid=st.integers(min_value=2, max_value=40),
    agreement=st.floats(min_value=0.5, max_value=1.0, exclude_min=True),
)
def test_generate_rules_matches_per_sample_oracle(model, flow_var, speed_var, grid, agreement):
    try:
        expected = sampled_rules(model, flow_var, speed_var, grid, agreement)
    except fz.RuleConflictError as conflict:
        with pytest.raises(fz.RuleConflictError) as info:
            fz.generate_rules(model, flow_var, speed_var, grid, agreement)
        got = info.value
        assert (got.flow_term, got.speed_term, got.counts) == (
            conflict.flow_term, conflict.speed_term, conflict.counts,
        )
        return
    assert fz.generate_rules(model, flow_var, speed_var, grid, agreement) == expected


@PROPERTY_SETTINGS
@given(
    offset=st.sampled_from([0.0, -3.5, 1e6, -1e12, 1e15, 2.0**53 - 1, -1e16, 1e16]),
    width=st.floats(min_value=0.0, max_value=300.0),
    grid=st.one_of(st.integers(min_value=2, max_value=60), st.just(10**8)),
    picks=st.lists(st.integers(min_value=0, max_value=10**8 - 1), min_size=1, max_size=6),
)
def test_axis_counts_equal_the_keyed_bisect(offset, width, grid, picks):
    # far from zero the samples repeat, so an index estimated from the grid
    # formula is often not the first sample at or above the edge
    mf = fz.TrapezoidMF(offset, offset, offset + width, offset + width)
    core_lo, core_hi = half_cut(mf)
    steps = 1 if core_lo == core_hi else grid
    key = functools.partial(grid_value, core_lo, core_hi, steps)
    edges = [core_lo - width, core_hi + width, -math.inf, math.inf]
    for pick in picks:
        sample = key(pick % steps)
        edges += [sample, math.nextafter(sample, -math.inf), math.nextafter(sample, math.inf)]
    expected = [bisect.bisect_left(range(steps), x, key=key) for x in edges]
    assert _axis_counts(mf, [(-math.inf, x) for x in edges], grid) == expected


timestamps = st.text(
    st.one_of(st.sampled_from(',"\n\r'), st.characters(exclude_categories=("Cs",)))
).filter(lambda text: text == text.strip())
quantities = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
# Labels every finite non-negative (flow, speed), but flow < 3000 at speed >= 50 with "-".
ANY_QUANTITY_MODEL = fz.LosRegionModel(
    regions=(
        (1, fz.Rect(0.0, 3000.0, 0.0, 50.0)),
        (2, fz.Rect(3000.0, sys.float_info.max, 0.0, sys.float_info.max)),
    )
)


@PROPERTY_SETTINGS
@given(
    labeled=st.booleans(),
    rows=st.lists(
        st.tuples(timestamps, quantities, quantities, st.one_of(st.none(), st.integers(1, 6)))
    ),
)
def test_ingest_reads_back_what_csv_writer_wrote(labeled, rows):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(fz.pipeline.LABELED_CSV_HEADER if labeled else fz.pipeline.CSV_HEADER)
    expected = []
    for timestamp, speed, flow, los in rows:
        los = los if labeled else None
        fields = [timestamp, repr(speed), repr(flow)]
        if labeled:
            fields.append("-" if los is None else str(los))
        writer.writerow(fields)
        expected.append(fz.Measurement(timestamp, speed, flow, los))
    assert fz.ingest(out.getvalue()) == (expected, [])
    if not labeled:
        relabeled = [
            m._replace(los=fz.oracle_label(ANY_QUANTITY_MODEL, m.flow, m.speed))
            for m in expected
        ]
        assert fz.ingest(fz.label_csv(ANY_QUANTITY_MODEL, out.getvalue())) == (relabeled, [])


SPACES = [chr(code) for code in range(0x110000) if chr(code).isspace()]
paddings = st.text(st.sampled_from(SPACES), max_size=2)
numerals = st.one_of(
    st.sampled_from(
        ["0", "-0", "+0", "7", "62.5", "-5", "1_000", ".5", "5.", "1e3", "1E-2", "-1e-400",
         "1e400", "-1e400", "nan", "-NaN", "inf", "+Infinity", "-inf", "\u0664\u0662", "",
         "1__0", "_1", "1_", "0x1", "fast", "1,5", "--1", "infinit", "e3", "1e"]
    ),
    st.floats().map(repr),
    st.builds(
        "".join,
        st.tuples(
            st.sampled_from(["", "+", "-", "+-"]),
            st.sampled_from(["0", "12.5", "1_0", "1__0", "nan", "inf", ""]),
            st.sampled_from(["", "", "e3", "E-2", "e+400", "e-400", "e", "_0"]),
        ),
    ),
)
quantity_texts = st.builds("".join, st.tuples(paddings, numerals, paddings))


@PROPERTY_SETTINGS
@given(speed=quantity_texts, flow=quantity_texts)
@example(speed="fast", flow="1200")
@example(speed="nan", flow="100")
@example(speed="inf", flow="100")
@example(speed="50", flow="1e400")
@example(speed="-5", flow="800")
def test_ingest_accepts_a_quantity_exactly_when_float_reads_it_finite_and_not_negative(
    speed, flow
):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(fz.pipeline.CSV_HEADER)
    writer.writerow(["t", speed, flow])
    rows, errors = fz.ingest(out.getvalue())
    refusal = quantity_refusal("speed_kmh", speed) or quantity_refusal("flow_vph", flow)
    if refusal is None:
        assert errors == []
        expected = (float(speed.strip()), float(flow.strip()))
        assert [bits(x) for x in rows[0][1:3]] == [bits(x) for x in expected]
    else:
        assert (rows, errors) == ([], [f"line 2: {refusal}"])


padded_timestamps = st.builds(
    "".join,
    st.tuples(
        paddings,
        st.text(
            st.one_of(
                st.sampled_from(',"\n\r'),
                # no NUL: Python 3.10's csv refuses it
                st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
            )
        ),
        paddings,
    ),
)
accepted_quantity_texts = st.builds("".join, st.tuples(paddings, quantities.map(repr), paddings))


@PROPERTY_SETTINGS
@given(
    records=st.lists(st.tuples(padded_timestamps, accepted_quantity_texts, accepted_quantity_texts))
)
def test_label_csv_keeps_every_field_text_and_quotes_only_by_its_rule(records):
    labeled_records = [list(fz.pipeline.LABELED_CSV_HEADER)]
    for timestamp, speed, flow in records:
        level = fz.oracle_label(ANY_QUANTITY_MODEL, float(flow.strip()), float(speed.strip()))
        labeled_records.append([timestamp, speed, flow, "-" if level is None else str(level)])
    # a record holding "\r" is quoted whole, else exactly the fields holding , " or "\n"
    expected = ""
    for fields in labeled_records:
        whole = any("\r" in field for field in fields)
        expected += ",".join(
            '"' + field.replace('"', '""') + '"'
            if whole or any(c in field for c in ',"\n')
            else field
            for field in fields
        ) + "\n"
    # the same fields written as CRLF CSV, quoted where needed, and as LF CSV, quoted all
    for writer_options in ({}, {"lineterminator": "\n", "quoting": csv.QUOTE_ALL}):
        text = io.StringIO()
        csv.writer(text, **writer_options).writerows([fz.pipeline.CSV_HEADER, *records])
        out = fz.label_csv(ANY_QUANTITY_MODEL, text.getvalue())
        assert list(csv.reader(io.StringIO(out, newline=""))) == labeled_records
        assert out == expected


FIS_FAULTS = ("counts", "names", "input", "output", "terms", "breakpoints", "rules", "consequents")
fis_numbers = st.sampled_from(["0", "1", "2", "5", "10"])


@st.composite
def fis_texts(draw):
    """Parseable ``.fis`` texts over small name pools.  A drawn set of fault
    kinds decides which choices may go wrong: 0 or 2 outputs or no input,
    clashing variable or term names, empty and reversed domains, unordered
    breakpoints, supports outside the domain [0, 10], unknown names or a
    repeated variable in a rule, and consequents outside the output range."""
    faults = draw(st.sets(st.sampled_from(FIS_FAULTS), max_size=2))

    def pick(fault, valid, *invalid):
        return draw(st.sampled_from((valid,) + invalid)) if fault in faults else valid

    def declare(kind, name, term_count):
        name = pick("names", name, "A", "B", "O")
        lines = [f"variable {kind} {name} domain {pick(kind, '0 10', '5 1', '5 5')}"]
        for term in "tuv"[:term_count]:
            points = sorted(draw(st.lists(fis_numbers, min_size=4, max_size=4)), key=float)
            points = pick(
                "breakpoints", points, points[::-1], ["-1"] + points[1:], points[:3] + ["11"]
            )
            lines.append(f"  mf {pick('terms', term, 't')} trap {' '.join(points)}")
        return lines

    outputs = pick("counts", 1, 0, 2)
    inputs = pick("counts", 2, 1, 0 if outputs else 1)
    term_counts = {name: draw(st.integers(1, 3)) for name in "AB"[:inputs]}
    declarations = [declare("input", name, count) for name, count in term_counts.items()]
    declarations += [declare("output", "O", pick("terms", 0, 1)) for _ in range(outputs)]
    lines = [line for decl in draw(st.permutations(declarations)) for line in decl]
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if term_counts else 0):
        names = draw(
            st.lists(st.sampled_from(sorted(term_counts)), min_size=1, max_size=2, unique=True)
        )
        clauses = []
        for name in names:
            term = draw(st.sampled_from("tuv"[: term_counts[name]]))
            clauses.append(f"{pick('rules', name, 'C', names[0])} IS {pick('rules', term, 'z')}")
        consequent = pick("consequents", draw(fis_numbers), "-1", "11")
        output = pick("rules", "O", "A")
        lines.append(f"rule IF {' AND '.join(clauses)} THEN {output} = {consequent}")
    return "\n".join(lines) + "\n"


@PROPERTY_SETTINGS
@given(text=fis_texts())
def test_build_fis_returns_a_system_or_positioned_errors(text):
    lines = text.splitlines()
    doc = fz.parse(text)
    # also the rule-free skeleton of the document, which genrules builds
    for document in (doc, dataclasses.replace(doc, rules=[])):
        try:
            fz.build_fis(document)
        except fz.FisValidationError as exc:
            assert exc.errors
            for error in exc.errors:
                line = lines[error.line - 1]
                assert error.line == 1 or line.split()[0] in {"variable", "mf", "rule"}
                assert 1 <= error.column <= len(line)


def reads_back_as_one_term_name(name: str) -> bool:
    try:
        doc = fz.parse(f"variable input X domain 0 1\n  mf {name} trap 0 0 1 1\n")
    except fz.ParseError:
        return False
    return doc.variables[0].mfs[0].term == name


@PROPERTY_SETTINGS
@given(name=st.text(alphabet=string.ascii_letters + string.digits + "_/-. [#é", max_size=8))
def test_serialize_writes_a_term_name_exactly_when_the_reader_reads_it_back(name):
    variable = fz.FuzzyVariable("X", "", (0.0, 1.0), ((name, fz.TrapezoidMF(0.0, 0.0, 1.0, 1.0)),))
    fis = fz.SugenoFis(
        inputs=(variable,), output_name="O", output_domain=(0.0, 1.0),
        rules=(fz.Rule((("X", name),), 1.0),),
    )
    try:
        text = fz.serialize(fis)
    except ValueError as exc:
        assert str(exc) == f"cannot serialize term {name!r}: not a .fis identifier"
        assert not reads_back_as_one_term_name(name)
    else:
        assert reads_back_as_one_term_name(name)
        assert fz.parse_fis(text) == fis
