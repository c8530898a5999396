"""Run one fuzzylos benchmark workload and print its metrics.

    python3 bench/run.py --workload csv-eval --seed 1 --seconds 30 --trace 0

Workloads: csv-eval, surface, genrules (see workloads.py).  The run is a
closed loop in this single-threaded process: one caller, each job starting
after the previous one returned and was checked.  Set-up is timed in fresh
interpreters started one at a time.  Every job time is rescaled by the
yardstick timed right before and after it, and every set-up time by the
yardstick timed right after it in the same interpreter (yardstick.py); this
takes out the shared host's changing speed.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, from a traced half of the run
compared against an untraced half.  Earlier stdout lines describe the run
(metadata, input shares); the full record and the spans are written under
.bench_out/ in the repository root.  Exits 2 if the fuzzylos sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import yardstick
from metrics import END_TO_END, PER_LAYER
from reference import FIS_FILE, LOS_FILE, load_calibration
from tracing import SpanStats, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 20  # fresh interpreters timed per run


@dataclass
class Jobs:
    """Per-job times of one stretch of a run, and its failed jobs."""

    times: list[float] = field(default_factory=list)  # rescaled by the yardstick
    wall: list[float] = field(default_factory=list)
    yardstick: list[float] = field(default_factory=list)  # mean of before and after
    failed: int = 0


def run_jobs(workload, seconds: float, problems: Counter, between=lambda: None) -> Jobs:
    """Run, time and check jobs until `seconds` have passed (at least one),
    calling `between` after each.

    A job fails when it raises or its output disagrees with the reference;
    what went wrong is added to `problems`.
    """
    jobs = Jobs()
    deadline = perf_counter() + seconds
    while True:
        before = yardstick.measure()
        start = perf_counter()
        try:
            output = workload.job()
        except Exception as exc:  # a failed operation, counted and reported
            found = [f"{type(exc).__name__}: {exc}"]
        else:
            found = None
        wall = perf_counter() - start
        ruler = (before + yardstick.measure()) / 2
        jobs.times.append(wall * yardstick.NOMINAL_S / ruler)
        jobs.wall.append(wall)
        jobs.yardstick.append(ruler)
        if found is None:
            try:
                found = workload.check(output)
            except Exception as exc:  # output of an unexpected shape
                found = [f"check raised {type(exc).__name__}: {exc}"]
            output = None
        if found:
            jobs.failed += 1
            problems.update(found)
        between()
        if perf_counter() >= deadline:
            return jobs


class SetupProbe:
    """Set-up timings from fresh interpreters, started one at a time between
    jobs and spread evenly over the run, so that they cover the whole run
    rather than one moment of it."""

    def __init__(self, samples: int, seconds: float) -> None:
        self.samples = samples
        self.interval = seconds / samples
        self.timings: list[dict] = []
        self.sample()  # warm-up: fills the bytecode cache
        self.timings.clear()
        self.due = perf_counter()

    def sample(self) -> None:
        done = subprocess.run(
            [sys.executable, "-I", str(BENCH_DIR / "setup_probe.py"), str(ROOT)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        timing = json.loads(done.stdout)
        ruler = timing.pop("yardstick_s")
        scale = yardstick.NOMINAL_S / ruler
        self.timings.append({
            **{name: value * scale for name, value in timing.items()},
            "wall_setup_s": timing["setup_s"],
            "yardstick_s": ruler,
        })

    def between_jobs(self) -> None:
        if len(self.timings) < self.samples and perf_counter() >= self.due:
            self.sample()
            self.due += self.interval

    def finish(self) -> list[dict]:
        while len(self.timings) < self.samples:
            self.sample()
        return self.timings


def metadata() -> dict:
    sha = "unknown"  # a checkout without git history
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except OSError:
            done = None
        if done is not None and done.returncode == 0:
            sha = done.stdout.strip()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_lines": src_lines,
    }


def per(value: float, count: float) -> float:
    return value / count if count else 0.0


def layer_metrics(stats, tracer, workload, traced: Jobs, untraced: Jobs, setup) -> dict:
    jobs = len(traced.times)
    items = workload.items
    infer_calls = stats.calls("engine.infer")
    fired = stats.outcome_total("engine.infer")
    scanned = tracer.counts.get("engine.firing_strength", 0)
    oracle_calls = stats.calls("regions.oracle_label")
    generate_calls = stats.calls("rulegen.generate_rules")
    rulegen_oracle_calls = stats.child_calls("rulegen.generate_rules", "regions.oracle_label")
    label_rows = stats.calls("pipeline.label_csv") * items
    ingest_rows = stats.calls("pipeline.ingest") * items
    evaluate_rows = stats.calls("pipeline.evaluate") * items
    cells = stats.calls("pipeline.export_surface") * items
    us = 1e6
    values = {name: median(run[name] for run in setup) for name in
              ("cli.import_s", "dsl.parse_s", "dsl.build_fis_s", "regions.parse_regions_s")}
    values.update({
        "dsl.serialize_s": per(stats.total("dsl.serialize"), stats.calls("dsl.serialize")),
        "dsl.reparse_s": per(stats.total("dsl.parse_fis"), stats.calls("dsl.parse_fis")),
        "engine.infer_us.p50": stats.percentile("engine.infer", 50) * us,
        "engine.infer_us.p99": stats.percentile("engine.infer", 99) * us,
        "engine.infer_calls": per(infer_calls, jobs),
        "engine.fired_per_call": per(fired, infer_calls),
        # Rules scanned are the firing_strength calls; an engine that no
        # longer calls it reports 0 here rather than a guess.
        "engine.fire_ratio": per(fired, scanned),
        "engine.anomaly_share": workload.shares["anomaly_share"],
        "regions.boundary_share": workload.shares["boundary_share"],
        "regions.unlabeled_share": workload.shares["unlabeled_share"],
        "regions.oracle_us.p50": stats.percentile("regions.oracle_label", 50) * us,
        "regions.oracle_us.p99": stats.percentile("regions.oracle_label", 99) * us,
        "regions.oracle_calls": per(oracle_calls, jobs),
        "regions.classify_self_us": per(
            stats.self_total("regions.classify", "engine.infer"), stats.calls("regions.classify")
        ) * us,
        "rulegen.generate_rules_s": per(stats.total("rulegen.generate_rules"), generate_calls),
        "rulegen.oracle_calls": per(rulegen_oracle_calls, jobs),
        "rulegen.oracle_s": per(
            stats.child_total("rulegen.generate_rules", "regions.oracle_label"), generate_calls
        ),
        "rulegen.self_s": per(
            stats.self_total("rulegen.generate_rules", "regions.oracle_label"), generate_calls
        ),
        "rulegen.labeled_ratio": per(
            stats.child_outcomes("rulegen.generate_rules", "regions.oracle_label"), rulegen_oracle_calls
        ),
        "pipeline.ingest_us_per_row": per(stats.total("pipeline.ingest"), ingest_rows) * us,
        "pipeline.label_csv_self_us_per_row": per(
            stats.self_total("pipeline.label_csv", "regions.oracle_label"), label_rows
        ) * us,
        "pipeline.evaluate_self_us_per_row": per(
            stats.self_total("pipeline.evaluate", "regions.classify", "regions.oracle_label"), evaluate_rows
        ) * us,
        "pipeline.surface_grid_us_per_cell": per(stats.total("pipeline.surface_grid"), cells) * us,
        "pipeline.export_format_us_per_cell": per(
            stats.self_total("pipeline.export_surface", "pipeline.surface_grid"), cells
        ) * us,
        "trace.overhead": median(traced.times) / median(untraced.times),
    })
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "fuzzylos" / "__init__.py").is_file():
        print(f"error: no fuzzylos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from fuzzylos import dsl, regions

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    setup_probe = SetupProbe(SETUP_SAMPLES, args.seconds)
    fis = dsl.parse_fis((ROOT / FIS_FILE).read_text(encoding="utf-8"))
    model = regions.parse_regions((ROOT / LOS_FILE).read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](load_calibration(ROOT), fis, model, args.seed)
    problems: Counter[str] = Counter()
    # One warm-up job fills caches and finishes lazy set-up; it is checked
    # but not timed.
    failed = run_jobs(workload, 0, problems).failed
    attempted = 1

    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_jobs(workload, untraced_seconds, problems, setup_probe.between_jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted += len(untraced.times)
    failed += untraced.failed
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = run_jobs(workload, args.seconds / 2, problems, setup_probe.between_jobs)
        attempted += len(traced.times)
        failed += traced.failed
    setup = setup_probe.finish()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": metadata(),
        "inputs": {"items_per_job": workload.items, **workload.shares},
        "setup": setup,
        "yardstick_nominal_s": yardstick.NOMINAL_S,
        "untraced_jobs": vars(untraced),
    }
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        record.update(traced_jobs=vars(traced), spans=len(tracer), spans_file=spans_path.name,
                      unwrapped=tracer.skipped, counts=tracer.counts)
        values = layer_metrics(SpanStats(tracer), tracer, workload, traced, untraced, setup)
        table = PER_LAYER
    else:
        values = {
            "setup_s": median(run["setup_s"] for run in setup),
            "peak_rss_mb": peak_rss_mb,
            "job_s": median(untraced.times),
        }
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in table}
    record.update(problems=dict(problems), metrics=metrics)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    for problem, count in problems.most_common(10):
        print(f"failed {count}x: {problem}", file=sys.stderr)
    print("# meta " + json.dumps(record["meta"]))
    print("# inputs " + json.dumps(record["inputs"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
