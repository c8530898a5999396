import dataclasses
import random
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
    surface_grid,
)

HEADER = "timestamp,speed_kmh,flow_vph\n"


class TestIngest:
    def test_valid_row(self):
        rows, errors = ingest(HEADER + "2023-01-05T08:00:00,62.0,1200\n")
        assert errors == []
        assert rows == [Measurement("2023-01-05T08:00:00", 62.0, 1200.0)]

    def test_negative_speed_rejected_with_line_number(self):
        rows, errors = ingest(HEADER + "t0,62.0,1200\nt1,-5,800\n")
        assert len(rows) == 1
        assert len(errors) == 1
        assert "line 3" in errors[0]
        assert "speed" in errors[0]

    def test_empty_file_after_header(self):
        rows, errors = ingest(HEADER)
        assert rows == [] and errors == []

    def test_missing_header_raises(self):
        with pytest.raises(IngestError):
            ingest("a,b,c\n1,2,3\n")
        with pytest.raises(IngestError):
            ingest("")

    def test_non_numeric_and_non_finite_rejected(self):
        text = HEADER + "t0,fast,1200\nt1,nan,100\nt2,inf,100\nt3,50,1e400\n"
        rows, errors = ingest(text)
        assert rows == []
        assert len(errors) == 4

    def test_wrong_field_count_rejected(self):
        rows, errors = ingest(HEADER + "t0,62.0\n")
        assert rows == [] and len(errors) == 1

    def test_quoted_newline_stays_inside_its_row(self):
        text = HEADER + '"a\nb",10,20\nt1,-5,800\n'
        rows, errors = ingest(text)
        assert rows == [Measurement("a\nb", 10.0, 20.0)]
        assert errors == ["line 4: speed_kmh must be non-negative, got '-5'"]

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


class TestSyntheticData:
    def test_count_and_containment(self, default_model):
        data = generate_synthetic(default_model, 3825, seed=1)
        assert len(data) == 3825
        margin = 20.0
        for m in data:
            assert default_model.contains(m.flow, m.speed)
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

    def test_positive_count_required(self, default_model):
        with pytest.raises(ValueError):
            generate_synthetic(default_model, 0, seed=1)


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
        ]
        report = evaluate(default_fis, default_model, data)
        assert report.errors == [
            "point 0 (a): los must be 1..6, got 0",
            "point 1 (b): los must be 1..6, got 7",
        ]
        confusion = [[0] * 6 for _ in range(6)]
        confusion[0][0] = 1  # the unlabelled point: oracle LoS 1, predicted 1
        assert report.confusion == confusion
        assert report.points == 3

    def test_rule_free_system_raises(self, default_fis, default_model):
        fis = dataclasses.replace(default_fis, rules=())
        data = [Measurement("t", 65.0, 700.0)]
        with pytest.raises(FisConfigError, match="empty rule base"):
            evaluate(fis, default_model, data)

    def test_rule_free_system_raises_before_the_first_point(self, default_fis, default_model):
        # the only point is out of domain, so no point reaches the kernel
        fis = dataclasses.replace(default_fis, rules=())
        data = [Measurement("t", 200.0, 700.0)]
        with pytest.raises(FisConfigError, match="empty rule base"):
            evaluate(fis, default_model, data)

    def test_empty_data_rejected(self, default_fis, default_model):
        with pytest.raises(ValueError):
            evaluate(default_fis, default_model, [])

    def test_empty_iterator_rejected(self, default_fis, default_model):
        with pytest.raises(ValueError, match="no data to evaluate"):
            evaluate(default_fis, default_model, iter([]))

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

    def test_render_and_dict(self, default_fis, default_model):
        report = evaluate(default_fis, default_model, [Measurement("t", 65.0, 700.0)])
        text = report.render()
        assert "accuracy" in text and "confusion" in text
        payload = report.to_dict()
        assert payload["total"] == 1
        assert payload["confusion"][0][0] == 1


class TestSurface:
    def test_two_by_two_grid_covers_corners(self, default_fis):
        text = export_surface(default_fis, 2, 2)
        lines = text.strip().splitlines()
        assert lines[0] == "flow_vph,speed_kmh,raw_los"
        coords = [tuple(map(float, line.split(",")))[:2] for line in lines[1:]]
        assert coords == [(0.0, 0.0), (0.0, 80.0), (6000.0, 0.0), (6000.0, 80.0)]

    def test_values_in_range(self, default_fis):
        for _, _, result in surface_grid(default_fis, 25, 25):
            assert result.raw == 0.0 or 1.0 <= result.raw <= 6.0

    def test_plateau_cell_exact(self, default_fis):
        text = export_surface(default_fis, 51, 41)
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        # (600, 38) sits on the grid: flow step 120, speed step 2
        match = [r for r in rows if float(r[0]) == 600.0 and float(r[1]) == 38.0]
        assert match and float(match[0][2]) == 1.0

    def test_cells_equal_infer_bitwise(self, default_fis):
        text = export_surface(default_fis, 21, 21)
        for line in text.strip().splitlines()[1:]:
            flow_text, speed_text, raw_text = line.split(",")
            result = infer(
                default_fis,
                {"TrafficFlow": float(flow_text), "Speed": float(speed_text)},
            )
            assert float(raw_text) == result.raw

    def test_step_validation(self, default_fis):
        with pytest.raises(ValueError):
            export_surface(default_fis, 1, 10)


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

    def test_row_outside_the_envelope_is_an_ingest_error_at_its_line(self, default_model):
        text = HEADER + "t1,62.0,1200\n\n\"t\n2\",62.0,7000\nt3,62.0,1200\n"
        with pytest.raises(IngestError, match=r"^line 4: point \(flow=7000\.0, speed=62\.0\)"):
            label_csv(default_model, text)
