"""Committed output fingerprints: sha256 digests of whole outputs.

The other tests compare outputs with an independent evaluator within 1e-12,
or one code path with another of the same package.  These pin the bits
themselves: the shipped system's surface at several grids under both AND
operators, the surfaces of seeded random two-input systems, the C1
evaluation report, the synthetic measurements behind it, a labelled CSV, the
rows and errors ``ingest`` reads from a messy CSV, the serialized generated
rule base, and what the ``.fis`` and ``.los`` readers say about seeded
one-token mutants of the shipped files.
A change that moves a digest on purpose updates it here and says which
outputs changed and why.
"""

import csv
import dataclasses
import hashlib
import json
import random
import re

import pytest

import fuzzylos as fz
from fuzzylos.engine import grid_value
from helpers import random_fis

GRIDS = ((2, 2), (7, 5), (100, 100), (401, 263))

SHIPPED_SURFACES = {
    "min": {
        (2, 2): "db34174300b3d4c8bd92e8c51f14e7a713f4fae70b56e5723da5d8f423cdff9d",
        (7, 5): "6c676511a48d829f89c5342a98626565643b13dcbb7c0b183584978be09d1fa1",
        (100, 100): "31977e195fa6a22851829823f6801a95c94fcb55c00d4d0adb34a5e15dc33519",
        (401, 263): "1be1ab2e20f000176dc4a4dd5f9105b617d4ba620f72b2144e890a1264eb706e",
    },
    "product": {
        (2, 2): "db34174300b3d4c8bd92e8c51f14e7a713f4fae70b56e5723da5d8f423cdff9d",
        (7, 5): "f262272d8870bf8ff1aca8550f58df3f9af4fd56ed1713c5b057b08fd5b18643",
        (100, 100): "6905c18cec44ab01c2451b8a9941d31f4ca287c4302b2480daadf6dade05409f",
        (401, 263): "a4455186aa4554e6d3874c8642245cc8be3bb16281e9b4997ee147f65483f88b",
    },
}

RANDOM_SYSTEMS = 100  # two-input systems drawn from random.Random(RANDOM_SEED)
RANDOM_SEED = 2024
RANDOM_SURFACES = {
    "min": "a6172dac099ab147a05ae479b647e896714bde50214feb77e86fc7222d4e103a",
    "product": "d2e4ea5b200989166811c79a03c6fe579e9b4759736864445e9d1356d59d2abe",
}

C1_REPORT = "986f302f10456ef2a37c2644dccc2216bb8c1da8453fa86d83da1886c7ea92c2"
# repr of generate_synthetic(default_model, n, seed), keyed by (n, seed): the
# C1 draw, whose report holds no timestamp, and a draw whose 2% share (3.5)
# rounds up where int would truncate
SYNTHETIC = {
    (3825, 1): "f0b745e639dc3f95328db67a8709495caad39b22659f5fa063d7b596303d664f",
    (175, 2): "2def313cd4361117c20f0990c1f3703d85adb0a5e9b038b4d90b04116520159a",
}
LABELED_CSV = "4a20138f32b1c96a62e27b2962cf0a7ef38fbf8a33adaeb363e5eaadf6a158e6"
GENERATED_RULES = "8119949d7410cb0ca4d44bb8297edbf7cd91f1cc17be457881b2fce79b2013d3"
INGEST = {
    "unlabelled": "dfe366b905682cf3901c0396fcd71d197cf9052359c1241c91fec06f9f5f9ca7",
    "labelled": "b8069a28a675a7052dd022e60bd75f705851a50f7f6eb56563bbaf1dff7eb36c",
}

# Every kind of row ingest accepts or rejects.  No NUL bytes: Python 3.10's
# csv refuses them and 3.11 onwards reads them.
PAD = "\x1c\x1d\x1e\x1f\u3000"
MESSY_ROWS = [
    "t0,62.5,1200",
    "t1,fast,1200",
    "t2,62,",
    "t3,nan,1200",
    "t4,62,NaN",
    "t5,1e400,1200",
    "t6,62,-inf",
    "t7,-5,1200",
    "t8,62,-0.5",
    "t9,-0,1_000",
    "t10,+7.5e1,1E3",
    "t11,1__0,100",
    f"{PAD}t12{PAD},{PAD}40{PAD},{PAD}900{PAD}",
    "t13,\u300040,\u2028900\x85",
    "t14,62",
    "t15,62,1200,1,2",
    "",
    "   ",
    "\t",
    '"t\n16",30,5000',
    '"t17\r\n",30.25,"5\n000"',
    "t18," + "9" * (csv.field_size_limit() + 1) + ",1",
    '"t19, quoted",0,0',
    "t20,62.5,1200",
]
LOS_TEXTS = ["3", " 3 ", "-", "", "0", "7", "3.0"]

READER_MUTANTS = 1500  # per shipped file, drawn from random.Random(READER_SEED)
READER_SEED = 23
READER_ERRORS = {
    "fis": "a2ff36aa25d782a79ec36c8c73320d64b19687e891496eed1e2c8c85d50b3a19",
    "los": "43bc06d8a21ab2c8a0a07e025d5b96812ac95b2de470748409198c077e53e2dc",
}
# What a mutant puts in place of a token, or next to one, besides the file's
# own tokens: numbers the grammar refuses or reads apart, lone punctuation, a
# comment, an overflowing number and Arabic-Indic digits.  ASCII and
# U+0660-U+0669 only, so that repr is the same on every Python.
SUBSTITUTES = [
    "1e4", "+5", "1_000", "-", "[", "]", "=", "\u0661\u0660", "\u0663", "1.5", "-0",
    "inf", "9" * 400, "#", "0.", ".5", "1.2.3", "x", "_", "a/b", "3", "7", "0",
]
# the readers' tokens, as the grammar in dsl's docstring defines them
TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_/]*|-?[0-9]+(?:\.[0-9]+)?|\S")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("operator", ["min", "product"])
def test_shipped_surfaces(default_fis, operator):
    fis = dataclasses.replace(default_fis, and_operator=operator)
    digests = {steps: digest(fz.export_surface(fis, *steps)) for steps in GRIDS}
    assert digests == SHIPPED_SURFACES[operator]


@pytest.mark.parametrize("operator", ["min", "product"])
def test_random_surfaces(operator):
    rng = random.Random(RANDOM_SEED)
    text = "".join(
        fz.export_surface(
            dataclasses.replace(random_fis(rng, min_inputs=2, max_inputs=2), and_operator=operator),
            23,
            31,
        )
        for _ in range(RANDOM_SYSTEMS)
    )
    assert digest(text) == RANDOM_SURFACES[operator]


def test_c1_report(default_fis, default_model):
    data = fz.generate_synthetic(default_model, 3825, seed=1)
    report = fz.evaluate(default_fis, default_model, data)
    assert digest(json.dumps(report.to_dict(), sort_keys=True)) == C1_REPORT


@pytest.mark.parametrize("n, seed", sorted(SYNTHETIC))
def test_synthetic(default_model, n, seed):
    assert digest(repr(fz.generate_synthetic(default_model, n, seed))) == SYNTHETIC[n, seed]


def test_labeled_csv(default_model):
    # a grid over the model's envelope, both ends included, with a quoted
    # timestamp holding a comma and one holding a carriage return
    (flo, fhi), (slo, shi) = default_model.flow_domain, default_model.speed_domain
    rows = [
        f"t{i}-{j},{grid_value(slo, shi, 17, j)!r},{grid_value(flo, fhi, 23, i)!r}"
        for i in range(23)
        for j in range(17)
    ]
    rows += ['"a,b",50,1200', '"c\rd",12.5,4000']
    text = "timestamp,speed_kmh,flow_vph\n" + "\n".join(rows) + "\n"
    assert digest(fz.label_csv(default_model, text)) == LABELED_CSV


def ingest_text(labelled: bool) -> str:
    if not labelled:
        return "timestamp,speed_kmh,flow_vph\r\n" + "\r\n".join(MESSY_ROWS) + "\r\n"
    rows = [
        f"{row},{LOS_TEXTS[i % len(LOS_TEXTS)]}" if row.strip() else row
        for i, row in enumerate(MESSY_ROWS)
    ]
    rows += [f"l{i},62.5,1200,{los}" for i, los in enumerate(LOS_TEXTS)]
    return "timestamp,speed_kmh,flow_vph,los\r\n" + "\r\n".join(rows) + "\r\n"


@pytest.mark.parametrize("variant", ["unlabelled", "labelled"])
def test_ingest(variant):
    rows, errors = fz.ingest(ingest_text(variant == "labelled"))
    text = "".join(repr((m.timestamp, m.speed, m.flow, m.los)) + "\n" for m in rows)
    assert digest(text + repr(errors)) == INGEST[variant]


def test_generated_rules(default_fis, default_model):
    flow_var, speed_var = default_fis.inputs
    rules = fz.generate_rules(default_model, flow_var, speed_var)
    text = fz.serialize(dataclasses.replace(default_fis, rules=rules))
    assert digest(text) == GENERATED_RULES


def token_mutants(text: str, rng: random.Random, count: int):
    """``count`` copies of ``text``, each with one token outside the
    comments dropped, duplicated, preceded by another or replaced."""
    lines = text.splitlines()
    spots = [
        (i, m.start(), m.end())
        for i, line in enumerate(lines)
        for m in TOKEN.finditer(line.split("#", 1)[0])
    ]
    words = SUBSTITUTES + sorted({lines[i][start:end] for i, start, end in spots})
    for _ in range(count):
        i, start, end = rng.choice(spots)
        token, other = lines[i][start:end], rng.choice(words)
        new = ["", f"{token} {token}", f"{other} {token}", other][rng.randrange(4)]
        mutant = lines[:i] + [lines[i][:start] + new + lines[i][end:]] + lines[i + 1:]
        yield "\n".join(mutant) + "\n"


@pytest.mark.parametrize("kind", ["fis", "los"])
def test_reader_errors(kind):
    text, read = {
        "fis": (fz.default_fis_text(), lambda source: fz.build_fis(fz.parse(source))),
        "los": (fz.default_regions_text(), fz.parse_regions),
    }[kind]
    outcomes = []
    for mutant in token_mutants(text, random.Random(READER_SEED), READER_MUTANTS):
        try:
            read(mutant)
        except ValueError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
        else:
            outcomes.append("ok")
    assert digest("\n".join(outcomes)) == READER_ERRORS[kind]
