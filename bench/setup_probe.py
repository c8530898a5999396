"""Time one cold set-up of fuzzylos, the cost every CLI call pays first.

Run in a fresh interpreter:

    python3 -I bench/setup_probe.py <repository root>

It times from just before `import fuzzylos.cli` until the shipped
legerova.fis is a SugenoFis and legerova.los a LosRegionModel, and prints
one JSON object with the total and each stage, and the mean time of two
yardstick runs made right after (yardstick.py).  The yardstick runs in this
process because the scheduler may put it on another core than its parent,
and the cores of a shared host do not slow down together.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    sys.path.insert(0, str(Path(sys.argv[1]) / "src"))
    start = perf_counter()
    import fuzzylos.cli  # noqa: F401  (the import is what is timed)

    imported = perf_counter()
    from fuzzylos import default_fis_text, default_regions_text, dsl, engine, regions

    fis_text, los_text = default_fis_text(), default_regions_text()
    read = perf_counter()
    doc = dsl.parse(fis_text)
    parsed = perf_counter()
    fis = dsl.build_fis(doc)
    built = perf_counter()
    model = regions.parse_regions(los_text)
    done = perf_counter()
    if not isinstance(fis, engine.SugenoFis) or not isinstance(model, regions.LosRegionModel):
        print("set-up did not produce a SugenoFis and a LosRegionModel", file=sys.stderr)
        return 1
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import yardstick

    ruler = (yardstick.measure() + yardstick.measure()) / 2
    print(json.dumps({
        "yardstick_s": ruler,
        "setup_s": done - start,
        "cli.import_s": imported - start,
        "dsl.parse_s": parsed - read,
        "dsl.build_fis_s": built - parsed,
        "regions.parse_regions_s": done - built,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
