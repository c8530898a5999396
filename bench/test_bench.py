"""Tests of the benchmark itself: deterministic inputs, checkers that catch a
broken system, every metric reported with its unit, and a traced run that
survives a wrapped name going away.  Workload sizes are shrunk so the whole
file runs in a few seconds."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from fuzzylos import default_fis, default_regions, dsl, pipeline  # noqa: E402
from reference import load_calibration  # noqa: E402

SMALL = {"csv-eval": 400, "surface": 30, "genrules": 16}


@pytest.fixture(scope="module")
def cal():
    return load_calibration(ROOT)


def make(name, cal, fis=None, seed=1):
    return workloads.WORKLOADS[name](cal, fis or default_fis(), default_regions(), seed, SMALL[name])


def with_rules(fis, rules):
    return dataclasses.replace(fis, rules=tuple(rules))


def changed_consequent(fis):
    rules = list(fis.rules)
    rules[0] = dataclasses.replace(rules[0], consequent=rules[0].consequent - 1)
    return with_rules(fis, rules)


def dropped_rule(fis):
    return with_rules(fis, fis.rules[:2] + fis.rules[3:])


def test_generator_is_deterministic_per_seed(cal):
    first, kinds = workloads.generate_measurements(cal, 500, seed=7)
    again, kinds_again = workloads.generate_measurements(cal, 500, seed=7)
    other, _ = workloads.generate_measurements(cal, 500, seed=8)
    assert first == again and kinds == kinds_again
    assert first != other
    assert make("csv-eval", cal, seed=7).text == make("csv-eval", cal, seed=7).text


def test_generator_mixes_glitches_and_edge_pushes(cal):
    w = workloads.CsvEval(cal, default_fis(), default_regions(), seed=3)
    shares = w.shares
    assert 0.07 < shares["glitch_share"] < 0.13
    assert 0.015 < shares["edge_share"] < 0.045
    assert 0.02 < shares["unlabeled_share"] < 0.1
    assert 0 < shares["anomaly_share"] < 0.01
    assert max(int(k) for k in shares["fired_rules_histogram"]) <= 6


@pytest.mark.parametrize("name", ["csv-eval", "surface", "genrules"])
def test_seed_system_passes_its_checks(cal, name):
    w = make(name, cal)
    assert w.check(w.job()) == []


@pytest.mark.parametrize("mutate", [changed_consequent, dropped_rule])
@pytest.mark.parametrize("name", ["csv-eval", "surface"])
def test_checker_catches_a_broken_system(cal, name, mutate):
    w = make(name, cal, fis=mutate(default_fis()))
    jobs = run.run_jobs(w, 0, Counter())
    assert jobs.failed == len(jobs.times) == 1


@pytest.mark.parametrize("mutate", [changed_consequent, dropped_rule])
def test_genrules_checker_catches_wrong_rules(cal, mutate):
    w = make("genrules", cal)
    _, complete, _ = w.job()
    broken = mutate(complete)
    assert w.check((broken.rules, broken, dsl.parse_fis(dsl.serialize(broken))))


def test_genrules_checker_catches_a_broken_round_trip(cal):
    w = make("genrules", cal)
    rules, complete, reparsed = w.job()
    assert w.check((rules, complete, changed_consequent(reparsed)))


def test_surface_checker_catches_a_cell_not_bit_identical_to_infer(cal):
    w = make("surface", cal)
    text = w.job()
    lines = text.splitlines()
    index = w.sampled[0]
    flow, speed, raw = lines[1 + index].split(",")
    lines[1 + index] = f"{flow},{speed},{float(raw) + 1e-14!r}"
    assert w.check("\n".join(lines) + "\n")


def run_main(monkeypatch, tmp_path, capsys, name, trace):
    monkeypatch.setattr(workloads.WORKLOADS[name], "size", SMALL[name])
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0.01", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", ["csv-eval", "surface", "genrules"])
def test_every_metric_is_reported_with_its_unit(monkeypatch, tmp_path, capsys, name):
    for trace, table in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        result = run_main(monkeypatch, tmp_path, capsys, name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert list(result["metrics"]) == [row[0] for row in table]
        for metric, unit, *_ in table:
            entry = result["metrics"][metric]
            assert entry["unit"] == unit
            assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    assert (tmp_path / f"spans-{name}-seed2.csv.gz").is_file()


def test_traced_run_survives_a_missing_wrapped_name(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (
        ("fuzzylos.pipeline", "no_longer_here", "pipeline.no_longer_here", "call"),
    ))
    result = run_main(monkeypatch, tmp_path, capsys, "surface", 1)
    assert result["correct"]
    assert result["metrics"]["rulegen.oracle_calls"]["value"] == 0
    record = json.loads((tmp_path / "surface-seed2-trace1.json").read_text())
    assert "fuzzylos.pipeline.no_longer_here" in record["unwrapped"]


def test_wrappers_are_removed_after_the_traced_block():
    original = pipeline.evaluate
    with tracing.Tracer().installed():
        assert pipeline.evaluate is not original
    assert pipeline.evaluate is original


def test_yardstick_work_is_unchanged():
    # Every rescaled time is in units of this work; changing it changes the
    # benchmark.
    assert yardstick.work() == (30099.999999999945, 21496)
    assert yardstick.NOMINAL_S == 0.02


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == [row[:3] for row in metrics.PER_LAYER]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "csv-eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
