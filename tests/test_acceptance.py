"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the PASS
lines as they happen).
"""

import collections
import dataclasses
import itertools
import random
import struct
import time

import pytest

import fuzzylos as fz
from fuzzylos import TrapezoidMF
from fuzzylos.cli import main
from helpers import brute_force_raw, random_fis, token_mutants


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def support_overlaps(mf: TrapezoidMF, lo: float, hi: float) -> bool:
    """Does {x : degree(x) > 0} intersect the closed interval [lo, hi]?"""
    left, right = max(mf.a, lo), min(mf.d, hi)
    if left > right:
        return False
    if left < right:
        return True
    return mf.degree(left) > 0.0


def in_joint_support(fis, rule, flow: float, speed: float) -> bool:
    mfs = {
        (var.name, term): mf for var in fis.inputs for term, mf in var.terms
    }
    for var_name, term_name in rule.antecedent:
        mf = mfs[(var_name, term_name)]
        value = flow if var_name == fis.inputs[0].name else speed
        if not (mf.a < value < mf.d or (mf.a == mf.b == value) or (mf.c == mf.d == value)):
            return False
    return True


def test_c1_accuracy_reproduction(default_fis, default_model):
    started = time.perf_counter()
    data = fz.generate_synthetic(default_model, 3825, seed=1)
    report = fz.evaluate(default_fis, default_model, data)
    elapsed = time.perf_counter() - started

    assert len(data) == 3825
    assert report.mismatches >= 10, report.mismatches
    assert 0.99 <= report.accuracy < 1.0, report.accuracy
    assert elapsed < 1.0, elapsed
    print(
        f"ACCEPTANCE 1 accuracy-reproduction: PASS "
        f"(accuracy={report.accuracy:.4f}, mismatches={report.mismatches}, {elapsed:.2f}s)"
    )


def test_c2_rule_count_calibration(default_fis, default_model):
    flow_var, speed_var = default_fis.inputs
    started = time.perf_counter()
    first = fz.generate_rules(default_model, flow_var, speed_var)
    elapsed = time.perf_counter() - started
    second = fz.generate_rules(default_model, flow_var, speed_var)

    assert len(first) == 27, len(first)
    assert first == second  # deterministic
    assert first == default_fis.rules  # and exactly what ships
    assert elapsed < 1.0, elapsed
    print(f"ACCEPTANCE 2 rule-count-calibration: PASS (27 rules, {elapsed:.2f}s)")


def test_c3_output_range_property(default_fis):
    rng = random.Random(318)
    flow_var, speed_var = default_fis.inputs
    for _ in range(10_000):
        point = {
            flow_var.name: rng.uniform(*flow_var.domain),
            speed_var.name: rng.uniform(*speed_var.domain),
        }
        result = fz.infer(default_fis, point)
        if result.fired_rule_count == 0:
            assert result.raw == 0.0
        else:
            assert 1.0 <= result.raw <= 6.0
            assert result.raw != 0.0
    print("ACCEPTANCE 3 output-range-property: PASS (10000 random inputs)")


@pytest.mark.parametrize("operator", ["min", "product"])
def test_c4_engine_oracle_equivalence(default_fis, operator):
    fis = dataclasses.replace(default_fis, and_operator=operator)
    flow_var, speed_var = fis.inputs
    flo, fhi = flow_var.domain
    slo, shi = speed_var.domain
    worst = 0.0
    for i in range(101):
        flow = flo + (fhi - flo) * i / 100
        for j in range(101):
            speed = slo + (shi - slo) * j / 100
            point = {flow_var.name: flow, speed_var.name: speed}
            expected, fired = brute_force_raw(fis, point)
            result = fz.infer(fis, point)
            assert result.fired_rule_count == fired
            worst = max(worst, abs(result.raw - expected))
            assert abs(result.raw - expected) <= 1e-12
    print(
        f"ACCEPTANCE 4 engine-oracle-equivalence: PASS "
        f"({operator}, 101x101 grid, worst |diff|={worst:.2e})"
    )


def test_c5_plateau_exactness(default_fis):
    mfs = {
        (var.name, term): mf for var in default_fis.inputs for term, mf in var.terms
    }
    flow_name = default_fis.inputs[0].name
    speed_name = default_fis.inputs[1].name
    checked = 0
    for rule in default_fis.rules:
        clause = dict(rule.antecedent)
        flow_mf = mfs[(flow_name, clause[flow_name])]
        speed_mf = mfs[(speed_name, clause[speed_name])]
        fb, fc = flow_mf.b, flow_mf.c
        sb, sc = speed_mf.b, speed_mf.c
        if fb > fc or sb > sc:
            continue
        overlapped = any(
            other is not rule
            and support_overlaps(mfs[(flow_name, dict(other.antecedent)[flow_name])], fb, fc)
            and support_overlaps(mfs[(speed_name, dict(other.antecedent)[speed_name])], sb, sc)
            for other in default_fis.rules
        )
        if overlapped:
            continue
        centroid = {flow_name: (fb + fc) / 2, speed_name: (sb + sc) / 2}
        result = fz.infer(default_fis, centroid)
        assert result.raw == rule.consequent, (rule, result)
        checked += 1
    assert checked >= 1  # the criterion must have teeth on the default config
    print(f"ACCEPTANCE 5 plateau-exactness: PASS ({checked} unoverlapped plateau cells exact)")


def test_c6_anomaly_detection(default_fis, default_model):
    flow_var, speed_var = default_fis.inputs
    flo, fhi = flow_var.domain
    slo, shi = speed_var.domain
    anomalies = 0
    for i in range(101):
        flow = flo + (fhi - flo) * i / 100
        for j in range(101):
            speed = slo + (shi - slo) * j / 100
            covered = any(
                in_joint_support(default_fis, rule, flow, speed)
                for rule in default_fis.rules
            )
            c = fz.classify(default_fis, flow, speed)
            assert c.is_anomaly == (not covered), (flow, speed)
            anomalies += c.is_anomaly

    data = fz.generate_synthetic(default_model, 3825, seed=1)
    for m in data:
        if fz.oracle_label(default_model, m.flow, m.speed) is not None:
            assert not fz.classify(default_fis, m.flow, m.speed).is_anomaly
    assert anomalies > 0  # the default config really has anomaly zones
    print(
        f"ACCEPTANCE 6 anomaly-detection: PASS "
        f"({anomalies} anomalous grid cells, all outside rule support; no labeled point anomalous)"
    )


def test_c7_dsl_roundtrip_and_fuzz():
    rng = random.Random(7007)
    done = 0
    while done < 100:
        fis = random_fis(rng)
        if not fis.rules:
            continue
        assert fz.parse_fis(fz.serialize(fis)) == fis
        done += 1

    # random bytes stop at the parser; one-token mutants of the shipped file
    # also reach build_fis
    blobs = (
        bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300))).decode("latin-1")
        for _ in range(1000)
    )
    mutants = token_mutants(fz.default_fis_text(), random.Random(7007), 1000)
    outcomes = collections.Counter()
    for text in itertools.chain(blobs, mutants):
        try:
            fz.build_fis(fz.parse(text))
        except fz.ParseError as exc:
            assert exc.line >= 1 and exc.column >= 1
            outcomes["parse"] += 1
        except fz.FisValidationError as exc:
            assert exc.errors
            assert all(e.line >= 1 and e.column >= 1 for e in exc.errors)
            outcomes["validation"] += 1
        else:
            outcomes["accepted"] += 1
    assert outcomes["validation"] > 0, outcomes
    print(
        f"ACCEPTANCE 7 dsl-roundtrip-and-fuzz: PASS (100 round-trips; 1000 fuzz inputs and 1000 "
        f"mutants of the shipped file: {outcomes['parse']} parse errors, "
        f"{outcomes['validation']} validation errors, {outcomes['accepted']} accepted)"
    )


@pytest.mark.parametrize("operator", ["min", "product"])
def test_c8_surface_fidelity(default_fis, capsys, tmp_path, operator):
    fis = dataclasses.replace(default_fis, and_operator=operator)
    out_path = tmp_path / "surface.csv"
    assert main(["surface", "--steps", "50", "--and-op", operator, "--out", str(out_path)]) == 0
    capsys.readouterr()
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2501
    flow_name = fis.inputs[0].name
    speed_name = fis.inputs[1].name
    for line in lines[1:]:
        flow_text, speed_text, raw_text = line.split(",")
        result = fz.infer(fis, {flow_name: float(flow_text), speed_name: float(speed_text)})
        assert bits(float(raw_text)) == bits(result.raw), line
    print(f"ACCEPTANCE 8 surface-fidelity: PASS ({operator}, 2500 cells bit-identical to infer)")
