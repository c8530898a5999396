import csv
import dataclasses
import io
import random
import sys
from datetime import datetime
from fractions import Fraction

import pytest

import fuzzylos as fz
from fuzzylos import (
    FisConfigError,
    FuzzyVariable,
    IngestError,
    LosRegionModel,
    Measurement,
    Rect,
    Rule,
    SugenoFis,
    TrapezoidMF,
    evaluate,
    export_surface,
    generate_synthetic,
    infer,
    ingest,
    label_csv,
    oracle_label,
)
from fuzzylos.engine import grid_value
from helpers import random_fis

HEADER = "timestamp,speed_kmh,flow_vph\n"
OVERLONG = "x" * (csv.field_size_limit() + 1)  # a field the csv module refuses


class TestIngest:
    def test_valid_row(self):
        rows, errors = ingest(HEADER + "2023-01-05T08:00:00,62.0,1200\n")
        assert errors == []
        assert rows == [Measurement("2023-01-05T08:00:00", 62.0, 1200.0)]

    def test_empty_file_after_header(self):
        rows, errors = ingest(HEADER)
        assert rows == [] and errors == []

    def test_missing_header_raises(self):
        with pytest.raises(IngestError):
            ingest("a,b,c\n1,2,3\n")
        with pytest.raises(IngestError):
            ingest("")
        with pytest.raises(IngestError, match=r"^line 1: unparseable CSV \("):
            ingest(OVERLONG + "\n")

    def test_an_unparseable_record_is_a_row_error(self):
        rows, errors = ingest(HEADER + OVERLONG + ",1,2\nt1,62.0,1200\n")
        assert rows == [Measurement("t1", 62.0, 1200.0)]
        assert len(errors) == 1 and errors[0].startswith("line 2: unparseable CSV (")

    def test_wrong_field_count_rejected(self):
        rows, errors = ingest(HEADER + "t0,62.0\n")
        assert rows == [] and len(errors) == 1

    def test_quoted_newline_stays_inside_its_row(self):
        text = HEADER + '"a\nb",10,20\nt1,-5,800\n'
        rows, errors = ingest(text)
        assert rows == [Measurement("a\nb", 10.0, 20.0)]
        assert errors == ["line 4: speed_kmh must be non-negative, got '-5'"]

    def test_line_numbers_count_a_header_spanning_two_lines(self):
        text = '"timestamp\n",speed_kmh,flow_vph\nt0,-5,800\n'
        assert ingest(text) == ([], ["line 3: speed_kmh must be non-negative, got '-5'"])

    def test_labeled_column(self):
        text = "timestamp,speed_kmh,flow_vph,los\nt0,62.0,1200,1\nt1,30,5500,-\n"
        rows, errors = ingest(text)
        assert errors == []
        assert rows[0].los == 1
        assert rows[1].los is None

    def test_labeled_column_validation(self):
        text = "timestamp,speed_kmh,flow_vph,los\nt0,62.0,1200,9\n"
        rows, errors = ingest(text)
        assert rows == [] and "los" in errors[0]

    def test_accepted_plus_errors_covers_all_rows(self):
        rng = random.Random(5)
        body = []
        expected = 0
        for _ in range(60):
            expected += 1
            if rng.random() < 0.3:
                body.append("t,oops,{}".format(rng.randint(0, 100)))
            else:
                body.append(f"t,{rng.uniform(0, 80):.2f},{rng.uniform(0, 6000):.1f}")
        rows, errors = ingest(HEADER + "\n".join(body) + "\n")
        assert len(rows) + len(errors) == expected

    def test_fuzz_totality(self):
        rng = random.Random(17)
        for _ in range(200):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            try:
                ingest(HEADER + blob.decode("latin-1"))
            except IngestError:
                pass

    def test_quantities_may_carry_any_whitespace(self, default_model):
        # float() itself refuses U+001C..U+001F, which str.strip() removes
        spaces = [chr(code) for code in range(0x110000) if chr(code).isspace()]
        assert {"\x1c", "\x1d", "\x1e", "\x1f", "\r", "\n", "\u3000"} <= set(spaces)
        for c in spaces:
            speed, flow = f"{c}62.5{c}", f"{c}1200{c}"
            text = HEADER + f'"t","{speed}","{flow}"\n'
            assert ingest(text) == ([Measurement("t", 62.5, 1200.0)], []), repr(c)
            labeled = list(csv.reader(io.StringIO(label_csv(default_model, text), newline="")))
            assert labeled[1:] == [["t", speed, flow, "1"]], repr(c)


class TestSyntheticData:
    def test_count_and_containment(self, default_model):
        data = generate_synthetic(default_model, 3825, seed=1)
        assert len(data) == 3825
        margin = 20.0
        (flo, fhi), (slo, shi) = default_model.flow_domain, default_model.speed_domain
        for m in data:
            assert flo <= m.flow <= fhi and slo <= m.speed <= shi
            near = any(
                rect.flow_lo - margin <= m.flow <= rect.flow_hi + margin
                and rect.speed_lo - margin <= m.speed <= rect.speed_hi + margin
                for _, rect in default_model.regions
            )
            assert near

    def test_determinism(self, default_model):
        a = generate_synthetic(default_model, 500, seed=42)
        b = generate_synthetic(default_model, 500, seed=42)
        assert a == b
        c = generate_synthetic(default_model, 500, seed=43)
        assert a != c

    def test_single_point_lands_in_a_rectangle(self, default_model):
        (m,) = generate_synthetic(default_model, 1, seed=3)
        assert oracle_label(default_model, m.flow, m.speed) is not None

    def test_timestamps_at_quarter_hour_cadence(self, default_model):
        data = generate_synthetic(default_model, 4, seed=1)
        stamps = [datetime.fromisoformat(m.timestamp) for m in data]
        deltas = {(b - a).total_seconds() for a, b in zip(stamps, stamps[1:])}
        assert deltas == {900.0}

    def test_area_proportional_sampling(self, default_model):
        # 2% of the points are pushed across an internal edge, into a
        # neighbour or a gap (None); the bound below absorbs them
        data = generate_synthetic(default_model, 4000, seed=9)
        counts = {level: 0 for level in (None, *range(1, 7))}
        for m in data:
            level = oracle_label(default_model, m.flow, m.speed)
            counts[level] += 1
        areas = {
            level: (r.flow_hi - r.flow_lo) * (r.speed_hi - r.speed_lo)
            for level, r in default_model.regions
        }
        total_area = sum(areas.values())
        for level in range(1, 7):
            share = counts[level] / 4000
            expected = areas[level] / total_area
            assert abs(share - expected) < 0.03

    def test_a_single_rectangle_has_no_edge_to_cross(self):
        model = LosRegionModel(((2, Rect(0, 100, 0, 10)),))
        data = generate_synthetic(model, 200, seed=1)
        assert len(data) == 200
        assert {oracle_label(model, m.flow, m.speed) for m in data} == {2}

    def test_positive_count_required(self, default_model):
        with pytest.raises(ValueError):
            generate_synthetic(default_model, 0, seed=1)
        for n in (2.5, "3", True):
            with pytest.raises(ValueError) as raised:
                generate_synthetic(default_model, n, seed=1)
            assert str(raised.value) == f"need a positive sample count, got {n!r}"

    def test_areas_that_sum_to_zero_name_the_cause(self):
        model = LosRegionModel(((1, Rect(0.0, 1e-200, 0.0, 1e-200)),))  # the area underflows
        with pytest.raises(ValueError) as raised:
            generate_synthetic(model, 3, seed=1)
        assert str(raised.value) == "no area to draw points by: rectangle areas sum to 0.0"

    def test_areas_that_overflow_name_the_cause(self):
        model = LosRegionModel(
            regions=(
                (1, Rect(0.0, 3000.0, 0.0, 50.0)),
                (2, Rect(3000.0, sys.float_info.max, 0.0, sys.float_info.max)),  # area inf
            )
        )
        with pytest.raises(ValueError) as raised:
            generate_synthetic(model, 3, seed=1)
        assert str(raised.value) == "no area to draw points by: rectangle areas sum to inf"


def miscalibrated_fis():
    """Covers only the first rectangle of the toy model below."""
    flow = FuzzyVariable("F", "", (0.0, 100.0), (("lo", TrapezoidMF(0, 0, 40, 50)),))
    speed = FuzzyVariable("S", "", (0.0, 10.0), (("any", TrapezoidMF(0, 0, 10, 10)),))
    return SugenoFis(
        inputs=(flow, speed),
        output_name="O",
        output_domain=(0.0, 6.0),
        rules=(Rule((("F", "lo"), ("S", "any")), 1.0),),
    )


def toy_model():
    return LosRegionModel(
        regions=((1, Rect(0, 50, 0, 10)), (3, Rect(50, 100, 0, 10))),
    )


class TestEvaluate:
    def test_perfect_agreement(self, default_fis, default_model):
        data = [
            Measurement("t", 65.0, 700.0),
            Measurement("t", 60.0, 2000.0),
            Measurement("t", 50.0, 3500.0),
            Measurement("t", 40.0, 4500.0),
            Measurement("t", 30.0, 5500.0),
            Measurement("t", 10.0, 1000.0),
        ] * 10
        report = evaluate(default_fis, default_model, data)
        assert report.total == 60
        assert report.mismatches == 0
        assert report.accuracy == 1.0
        assert sum(report.confusion[i][j] for i in range(6) for j in range(6) if i != j) == 0
        assert [report.confusion[i][i] for i in range(6)] == [10] * 6

    def test_anomalous_point_with_oracle_label_is_flagged(self):
        # a point in the second rectangle: oracle labels it 3, but the
        # miscalibrated system has no rule support there at all
        report = evaluate(miscalibrated_fis(), toy_model(), [Measurement("t", 5.0, 80.0)])
        assert report.anomalies == 1
        assert report.total == 0
        assert report.mismatches == 0

    def test_label_column_overrides_oracle(self, default_fis, default_model):
        # oracle says LoS 1 at (700, 65); the expert label 2 wins
        data = [Measurement("t", 65.0, 700.0, los=2)]
        report = evaluate(default_fis, default_model, data)
        assert report.mismatches == 1
        assert report.confusion[1][0] == 1

    def test_unlabeled_points_excluded(self, default_fis, default_model):
        data = [Measurement("t", 35.0, 1000.0)]  # in the labeling gap
        report = evaluate(default_fis, default_model, data)
        assert report.unlabeled == 1
        assert report.total == 0

    def test_per_point_domain_errors_reported(self, default_fis, default_model):
        data = [Measurement("t", 65.0, 700.0), Measurement("t", 200.0, 700.0)]
        report = evaluate(default_fis, default_model, data)
        assert report.total == 1
        assert len(report.errors) == 1
        assert "point 1" in report.errors[0]
        assert report.points == 2

    def test_label_outside_1_to_6_is_a_per_point_error(self, default_fis, default_model):
        data = [
            Measurement("a", 62.0, 700.0, los=0),
            Measurement("b", 62.0, 700.0, los=7),
            Measurement("c", 62.0, 700.0),
            Measurement("d", 62.0, 700.0, los=2.0),
            Measurement("e", 62.0, 700.0, los="2"),
            Measurement("f", 62.0, 700.0, los=True),
        ]
        report = evaluate(default_fis, default_model, data)
        assert report.errors == [
            "point 0 (a): los must be 1..6, got 0",
            "point 1 (b): los must be 1..6, got 7",
            "point 3 (d): los must be 1..6, got 2.0",
            "point 4 (e): los must be 1..6, got '2'",
            "point 5 (f): los must be 1..6, got True",
        ]
        confusion = [[0] * 6 for _ in range(6)]
        confusion[0][0] = 1  # the unlabelled point: oracle LoS 1, predicted 1
        assert report.confusion == confusion
        assert report.points == 6

    def test_rule_free_system_raises_before_the_first_point(self, default_fis, default_model):
        # at a speed in the domain, and at one out of it, where no point
        # reaches the kernel
        fis = dataclasses.replace(default_fis, rules=())
        for speed in (65.0, 200.0):
            with pytest.raises(FisConfigError, match="empty rule base"):
                evaluate(fis, default_model, [Measurement("t", speed, 700.0)])

    def test_empty_iterator_rejected(self, default_fis, default_model):
        for data in ([], iter([])):
            with pytest.raises(ValueError, match="no data to evaluate"):
                evaluate(default_fis, default_model, data)

    def test_generator_scores_like_the_list(self, default_fis, default_model):
        data = generate_synthetic(default_model, 1500, 5)
        streamed = evaluate(default_fis, default_model, (m for m in data))
        assert streamed.to_dict() == evaluate(default_fis, default_model, data).to_dict()

    def test_report_arithmetic_exact(self, default_fis, default_model):
        data = generate_synthetic(default_model, 1500, seed=5)
        report = evaluate(default_fis, default_model, data)
        assert report.points == 1500
        assert (
            report.points
            == report.total + report.unlabeled + report.anomalies + len(report.errors)
        )
        # exact rational identity on the integer fields, checked before any
        # string formatting can blur it
        exact = Fraction(report.total - report.mismatches, report.total)
        assert abs(Fraction(report.accuracy) - exact) < Fraction(1, 10**12)
        assert report.accuracy == (report.total - report.mismatches) / report.total
        assert sum(sum(row) for row in report.confusion) == report.total
        diagonal = sum(report.confusion[i][i] for i in range(6))
        assert diagonal == report.total - report.mismatches

    def test_headline_arithmetic(self):
        # 28 misses out of 3825 evaluated points is 99.27% accuracy
        report = fz.EvaluationReport()
        report.confusion[0][:2] = [3797, 28]
        assert (report.points, report.total, report.mismatches) == (3825, 3825, 28)
        assert f"{report.accuracy:.2%}" == "99.27%"
        assert fz.EvaluationReport().accuracy == 0.0

    def test_render_and_dict(self, default_fis, default_model):
        data = [Measurement("t", 65.0, 700.0), Measurement("u", 65.0, 7000.0)]
        report = evaluate(default_fis, default_model, data)
        text = report.render()
        assert "accuracy" in text and "confusion" in text
        assert text.splitlines()[-1] == f"error: {report.errors[0]}"
        payload = report.to_dict()
        assert payload["total"] == 1
        assert payload["confusion"][0][0] == 1

    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.49])
    def test_counts_agree_with_per_point_classify(self, default_fis, default_model, epsilon):
        rng = random.Random(23)
        data = generate_synthetic(default_model, 2000, seed=23)
        # the uncovered zones, where no rule fires: the oracle leaves them
        # unlabeled, so half the points there carry an expert label
        for _ in range(50):
            data.append(Measurement("hi", rng.uniform(65, 80), rng.uniform(5250, 6000)))
            data.append(Measurement("lo", rng.uniform(0, 5), rng.uniform(4500, 4750), los=6))
        # and points off the domain
        data += [Measurement("out", 90.0, 700.0), Measurement("out", 40.0, 6500.0),
                 Measurement("out", -1.0, 700.0)]
        expected = fz.EvaluationReport()
        for index, m in enumerate(data):
            try:
                truth = m.los or oracle_label(default_model, m.flow, m.speed)
                c = fz.classify(default_fis, m.flow, m.speed, epsilon)
            except fz.OutOfDomainError as exc:
                expected.errors.append(f"point {index} ({m.timestamp}): {exc}")
                continue
            expected.boundary_cases += c.boundary
            if truth is None:
                expected.unlabeled += 1
            elif c.is_anomaly:
                expected.anomalies += 1
            else:
                expected.confusion[truth - 1][c.level - 1] += 1
        assert min(expected.unlabeled, expected.anomalies, len(expected.errors)) > 0
        assert expected.boundary_cases > 0
        report = evaluate(default_fis, default_model, data, epsilon)
        assert report.to_dict() == expected.to_dict()


class TestSurface:
    def test_two_by_two_grid_covers_corners(self, default_fis):
        text = export_surface(default_fis, 2, 2)
        lines = text.strip().splitlines()
        assert lines[0] == "flow_vph,speed_kmh,raw_los"
        coords = [tuple(map(float, line.split(",")))[:2] for line in lines[1:]]
        assert coords == [(0.0, 0.0), (0.0, 80.0), (6000.0, 0.0), (6000.0, 80.0)]

    def test_values_in_range(self, default_fis):
        lines = export_surface(default_fis, 25, 25).splitlines()
        assert len(lines) == 1 + 25 * 25
        for line in lines[1:]:
            raw = float(line.split(",")[2])
            assert raw == 0.0 or 1.0 <= raw <= 6.0

    def test_plateau_cell_exact(self, default_fis):
        text = export_surface(default_fis, 51, 41)
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        # (600, 38) sits on the grid: flow step 120, speed step 2
        match = [r for r in rows if float(r[0]) == 600.0 and float(r[1]) == 38.0]
        assert match and float(match[0][2]) == 1.0

    @pytest.mark.parametrize("operator", ["min", "product"])
    def test_dense_grids_equal_infer_bitwise(self, default_fis, operator):
        # Dense grids hold long runs of equal (cell, degrees), which share one
        # kernel call; every cell must still be pointwise inference.  Whole
        # lines: the coordinate texts too, and a -0.0 never passes for 0.0.
        systems = [(default_fis, 150, 150)] + [
            (random_fis(random.Random(seed), max_inputs=2, min_inputs=2), flow_steps, speed_steps)
            for seed, flow_steps, speed_steps in [(9, 60, 120), (18, 120, 60), (12, 90, 97)]
        ] + [(default_fis, 21, 21)]
        surfaces = []
        for fis, flow_steps, speed_steps in systems:
            fis = dataclasses.replace(fis, and_operator=operator)
            (flow_name, flow_domain), (speed_name, speed_domain) = (
                (var.name, var.domain) for var in fis.inputs
            )
            expected = ["flow_vph,speed_kmh,raw_los"]
            for i in range(flow_steps):
                flow = grid_value(*flow_domain, flow_steps, i)
                for j in range(speed_steps):
                    speed = grid_value(*speed_domain, speed_steps, j)
                    raw = infer(fis, {flow_name: flow, speed_name: speed}).raw
                    expected.append(f"{flow!r},{speed!r},{raw!r}")
            lines = export_surface(fis, flow_steps, speed_steps).splitlines()
            assert lines == expected
            surfaces.append(lines)
        # Consecutive flows in one ramp cell have different degrees, and their
        # rows must not merge: their raw values differ somewhere.
        flow_var = default_fis.inputs[0]
        flows = [grid_value(*flow_var.domain, 150, i) for i in range(150)]
        cell, next_cell = map(flow_var._locate, flows[40:42])
        assert cell == next_cell
        assert flow_var._fill(cell, flows[40]) != flow_var._fill(cell, flows[41])
        cells = surfaces[0][1:]
        row, next_row = ([line.rsplit(",", 1)[1] for line in cells[150 * i:150 * (i + 1)]]
                         for i in (40, 41))
        assert row != next_row

    @pytest.mark.parametrize("operator", ["min", "product"])
    def test_flows_sharing_a_cell_share_its_decided_text_only(self, default_fis, operator):
        # Step 100 puts 2800..3200 in the ramp cell (2700, 3240), where Low
        # meets Middle, and 100..1100 on Very_Low's plateau (0, 1200).  A
        # decided pair's text is built once per flow cell; an undecided
        # pair's raw still differs from flow to flow.
        fis = dataclasses.replace(default_fis, and_operator=operator)
        flow_var, speed_var = fis.inputs
        flows = [grid_value(*flow_var.domain, 61, i) for i in range(61)]
        speeds = [grid_value(*speed_var.domain, 41, j) for j in range(41)]
        ramp = [flow for flow in flows if 2700.0 < flow < 3240.0]
        plateau = [flow for flow in flows if 0.0 < flow < 1200.0]
        assert len(ramp) == 5 and len(plateau) == 11
        for run in (ramp, plateau):
            assert len({flow_var._locate(flow) for flow in run}) == 1
        decided = {fis._record((flow_var._locate(ramp[0]), speed_var._locate(speed)))[1]
                   is not None for speed in speeds}
        assert decided == {False, True}
        assert len({infer(fis, {"TrafficFlow": flow, "Speed": 40.0}).raw for flow in ramp}) == 5
        expected = ["flow_vph,speed_kmh,raw_los"] + [
            f"{flow!r},{speed!r},{infer(fis, {'TrafficFlow': flow, 'Speed': speed}).raw!r}"
            for flow in flows
            for speed in speeds
        ]
        assert export_surface(fis, 61, 41).splitlines() == expected

    def test_a_domain_whose_grid_formula_overflows_exports(self):
        # (hi - lo) * index overflows at the third and fourth flows, which must
        # still be finite grid values inside the domain
        low, high = TrapezoidMF(0, 0, 2e307, 6e307), TrapezoidMF(4e307, 8e307, 1e308, 1e308)
        flow = FuzzyVariable("Flow", "", (0.0, 1e308), (("lo", low), ("hi", high)))
        speed = FuzzyVariable("Speed", "", (0.0, 10.0), (("all", TrapezoidMF(0, 0, 10, 10)),))
        fis = SugenoFis(
            inputs=(flow, speed),
            output_name="Out",
            output_domain=(0.0, 6.0),
            rules=(Rule((("Flow", "lo"),), 1.0), Rule((("Flow", "hi"), ("Speed", "all")), 5.0)),
        )
        lines = export_surface(fis, 5, 3).splitlines()
        flows = [float(line.split(",")[0]) for line in lines[1::3]]
        assert flows == [0.0, 2.5e307, 5e307, 7.5e307, 1e308]
        for line in lines[1:]:
            x, y, _ = map(float, line.split(","))
            assert line == f"{x!r},{y!r},{infer(fis, {'Flow': x, 'Speed': y}).raw!r}"

    def test_step_validation(self, default_fis):
        flow_var, speed_var = default_fis.inputs
        lanes = dataclasses.replace(speed_var, name="Lanes")
        three_inputs = dataclasses.replace(default_fis, inputs=(flow_var, speed_var, lanes))
        rule_free = dataclasses.replace(default_fis, rules=())
        for fis, flow_steps, speed_steps, error, message in [
            (default_fis, 1, 10, ValueError, "at least 2 steps"),
            (default_fis, 3.0, 3, ValueError, "at least 2 steps"),
            (default_fis, 3, 2.5, ValueError, "at least 2 steps"),
            (three_inputs, 5, 5, FisConfigError, "two-input system"),
            (rule_free, 5, 5, FisConfigError, "empty rule base"),
        ]:
            with pytest.raises(error, match=message):
                export_surface(fis, flow_steps, speed_steps)


class TestLabelCsv:
    def test_labels_appended(self, default_model):
        text = HEADER + "t0,62.0,1200\nt1,38.0,600\n"
        out = label_csv(default_model, text)
        lines = out.strip().splitlines()
        assert lines[0] == "timestamp,speed_kmh,flow_vph,los"
        assert lines[1] == "t0,62.0,1200,1"
        assert lines[2] == "t1,38.0,600,-"

    def test_roundtrips_into_evaluate(self, default_fis, default_model):
        text = HEADER + "t0,62.0,1200\nt1,38.0,600\n"
        rows, errors = ingest(label_csv(default_model, text))
        assert errors == []
        report = evaluate(default_fis, None, rows)
        assert report.total == 1  # the '-' row has no label and no oracle

    def test_invalid_rows_reject_everything(self, default_model):
        with pytest.raises(ValueError):
            label_csv(default_model, HEADER + "t0,62.0,1200\nt1,oops,600\n")

    def test_bad_number_is_an_ingest_error(self, default_model):
        with pytest.raises(IngestError, match="line 3: speed_kmh 'oops' is not a number"):
            label_csv(default_model, HEADER + "t0,62.0,1200\nt1,oops,600\n")

    def test_an_unparseable_record_is_an_ingest_error_at_its_line(self, default_model):
        with pytest.raises(IngestError, match=r"^line 2: unparseable CSV \("):
            label_csv(default_model, HEADER + OVERLONG + ",1,2\nt1,62.0,1200\n")

    def test_row_outside_the_envelope_is_an_ingest_error_at_its_line(self, default_model):
        text = HEADER + "t1,62.0,1200\n\n\"t\n2\",62.0,7000\nt3,62.0,1200\n"
        with pytest.raises(IngestError, match=r"^line 4: point \(flow=7000\.0, speed=62\.0\)"):
            label_csv(default_model, text)

    def test_crlf_input_labels_to_the_text_of_its_lf_twin(self, default_model):
        lf = HEADER + "t0,62.0,1200\nt1,38.0,600\nt2,50.0,3500\n"
        expected = (
            "timestamp,speed_kmh,flow_vph,los\n"
            "t0,62.0,1200,1\n"
            "t1,38.0,600,-\n"
            "t2,50.0,3500,3\n"
        )
        assert label_csv(default_model, lf) == expected
        assert label_csv(default_model, lf.replace("\n", "\r\n")) == expected

    def test_only_a_row_holding_a_carriage_return_is_quoted_whole(self, default_model):
        lf = HEADER + 't0,62.0,1200\n"t\r1",38.0,600\nt2,50.0,3500\n'
        expected = (
            "timestamp,speed_kmh,flow_vph,los\n"
            "t0,62.0,1200,1\n"
            '"t\r1","38.0","600","-"\n'
            "t2,50.0,3500,3\n"
        )
        assert label_csv(default_model, lf) == expected
        assert label_csv(default_model, lf.replace("\n", "\r\n")) == expected

    @pytest.mark.parametrize("terminator", ["\n", "\r\n"])
    def test_a_timestamp_with_a_comma_is_quoted(self, default_model, terminator):
        text = terminator.join(["timestamp,speed_kmh,flow_vph", '"t,0",62.0,1200', ""])
        assert label_csv(default_model, text) == (
            "timestamp,speed_kmh,flow_vph,los\n" '"t,0",62.0,1200,1\n'
        )

    @pytest.mark.parametrize("terminator", ["\n", "\r\n"])
    def test_a_timestamp_with_quotes_is_quoted_with_its_quotes_doubled(
        self, default_model, terminator
    ):
        text = terminator.join(["timestamp,speed_kmh,flow_vph", '"say ""hi""",62.0,1200', ""])
        assert label_csv(default_model, text) == (
            "timestamp,speed_kmh,flow_vph,los\n" '"say ""hi""",62.0,1200,1\n'
        )

    @pytest.mark.parametrize("terminator", ["\n", "\r\n"])
    def test_a_timestamp_with_a_line_feed_is_quoted(self, default_model, terminator):
        text = terminator.join(["timestamp,speed_kmh,flow_vph", '"t\n0",62.0,1200', ""])
        assert label_csv(default_model, text) == (
            "timestamp,speed_kmh,flow_vph,los\n" '"t\n0",62.0,1200,1\n'
        )
