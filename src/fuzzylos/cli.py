"""Command-line front end: label, infer, evaluate, surface, genrules.

Each subcommand wraps one pipeline stage so the whole flow (gather,
categorize, model, evaluate) stays scriptable.  Exit codes are stable: 0 for
success, 1 for unexpected internal errors, 2 for user, configuration or data
errors.  Results go to stdout or ``--out``; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import default_fis, default_fis_text, default_regions
from .dsl import _read_text, build_fis, load_fis, parse, serialize
from .engine import SugenoFis
from .pipeline import evaluate, export_surface, generate_synthetic, ingest, label_csv
from .regions import LosRegionModel, classify, load_regions, los_inputs
from .rulegen import generate_rules

# Every fuzzylos error subclasses ValueError.
USER_ERRORS = (ValueError, OSError)


def _load_fis_arg(args: argparse.Namespace) -> SugenoFis:
    fis = load_fis(args.fis) if args.fis else default_fis()
    if args.and_op:
        fis = dataclasses.replace(fis, and_operator=args.and_op)
    return fis


def _load_regions_arg(args: argparse.Namespace) -> LosRegionModel:
    return load_regions(args.regions) if args.regions else default_regions()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_label(args: argparse.Namespace) -> int:
    model = _load_regions_arg(args)
    labeled = label_csv(model, _read_text(args.input))
    _emit(labeled, args.out)
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    fis = _load_fis_arg(args)
    c = classify(fis, args.flow, args.speed, args.epsilon)
    flags = f"boundary={str(c.boundary).lower()} anomaly={str(c.is_anomaly).lower()}"
    print(f"raw={c.raw:.3f} level={c.label()} {flags}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if bool(args.input) == (args.synthetic is not None):
        raise ValueError("give either an input CSV or --synthetic N")
    fis = _load_fis_arg(args)
    model = _load_regions_arg(args)
    if args.input:
        data, row_errors = ingest(_read_text(args.input))
        for message in row_errors:
            print(f"skipped: {message}", file=sys.stderr)
    else:
        data = generate_synthetic(model, args.synthetic, args.seed)
    report = evaluate(fis, model, data, args.epsilon)
    _emit(report.render(), args.out)
    if args.out:
        _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out + ".json")
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    fis = _load_fis_arg(args)
    _emit(export_surface(fis, args.steps, args.steps), args.out)
    return 0


def _cmd_genrules(args: argparse.Namespace) -> int:
    model = _load_regions_arg(args)
    text = _read_text(args.fis) if args.fis else default_fis_text()
    # the template's own rules are replaced, so they are never validated
    fis = build_fis(dataclasses.replace(parse(text), rules=[]))
    flow_var, speed_var = los_inputs(fis)
    rules = generate_rules(model, flow_var, speed_var, grid=args.grid, agreement=args.agreement)
    complete = dataclasses.replace(fis, rules=rules)
    _emit(serialize(complete), args.out)
    print(f"generated {len(rules)} rules", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzylos",
        description="Fuzzy level-of-service toolkit for (traffic flow, speed) data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fis(p, and_op=True):
        p.add_argument("--fis", help="inference system file (.fis); default: built-in calibration")
        if and_op:
            p.add_argument("--and-op", dest="and_op", choices=("min", "product"),
                           help="override the AND operator")

    def add_regions(p):
        p.add_argument("--regions", help="region model file (.los); default: built-in calibration")

    def add_epsilon(p):
        p.add_argument("--epsilon", type=float, default=0.05,
                       help="boundary tolerance around integer outputs (default 0.05)")

    def add_out(p):
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("label", help="append oracle LoS labels to a measurement CSV")
    p.add_argument("input", help="measurement CSV (timestamp,speed_kmh,flow_vph)")
    add_regions(p)
    add_out(p)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("infer", help="classify one (flow, speed) pair")
    p.add_argument("flow", type=float, help="traffic flow in veh/h")
    p.add_argument("speed", type=float, help="speed in km/h")
    add_fis(p)
    add_epsilon(p)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("evaluate", help="score the system against ground truth")
    p.add_argument("input", nargs="?", help="measurement CSV, optionally with a los column")
    p.add_argument("--synthetic", type=int, metavar="N",
                   help="evaluate on N synthetic points instead of a CSV")
    p.add_argument("--seed", type=int, default=1, help="synthetic generator seed (default 1)")
    add_fis(p)
    add_regions(p)
    add_epsilon(p)
    add_out(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("surface", help="export the raw inference surface as CSV")
    p.add_argument("--steps", type=int, default=50, help="grid steps per axis (default 50)")
    add_fis(p)
    add_out(p)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("genrules", help="derive the rule base from a region model")
    add_fis(p, and_op=False)
    add_regions(p)
    p.add_argument("--grid", type=int, default=25,
                   help="samples per axis over each term-pair core (default 25)")
    p.add_argument("--agreement", type=float, default=0.85,
                   help="required majority fraction per term pair (default 0.85)")
    add_out(p)
    p.set_defaults(func=_cmd_genrules)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
