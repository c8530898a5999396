import dataclasses
import random
import re

import pytest

import fuzzylos as fz
from fuzzylos import FisValidationError, ParseError, build_fis, parse, parse_fis, serialize
from helpers import random_fis

VALID_DOC = """\
# minimal two-input model
set and_operator min

variable input TrafficFlow [veh/h] domain 0 6000
  mf Very_Low trap 0 0 1200 1600
  mf High trap 4100 4300 4800 5100

variable input Speed [km/h] domain 0 80
  mf High trap 41 47 59 65

variable output LoS domain 0 6

rule IF TrafficFlow IS Very_Low AND Speed IS High THEN LoS = 1
"""


def test_parse_builds_the_example_rule():
    fis = parse_fis(VALID_DOC)
    assert fis.rules == (
        fz.Rule((("TrafficFlow", "Very_Low"), ("Speed", "High")), 1.0),
    )
    assert fis.and_operator == "min"
    assert fis.inputs[0].name == "TrafficFlow"
    assert fis.inputs[0].unit == "veh/h"
    assert fis.output_name == "LoS"
    assert fis.output_domain == (0.0, 6.0)


def test_empty_source_is_an_error():
    with pytest.raises(ParseError) as info:
        parse("")
    assert info.value.line == 1
    with pytest.raises(ParseError):
        parse("# only a comment\n\n")


def test_unresolved_term_names_position():
    source = VALID_DOC + "rule IF Speed IS Warp THEN LoS = 2\n"
    doc = parse(source)
    with pytest.raises(FisValidationError) as info:
        build_fis(doc)
    (error,) = info.value.errors
    assert "Warp" in error.message
    assert error.line == len(source.splitlines())
    assert error.column == 9  # the clause's variable token


def test_syntax_error_carries_line_and_column():
    with pytest.raises(ParseError) as info:
        parse("variable input X domain 0\n")
    assert info.value.line == 1
    assert info.value.column > 1

    with pytest.raises(ParseError) as info:
        parse("variable input X domain 0 10\nmf t trap 1 2 3 oops\n")
    assert info.value.line == 2

    with pytest.raises(ParseError) as info:
        parse("bogus line here\n")
    assert (info.value.line, info.value.column) == (1, 1)

    with pytest.raises(ParseError) as info:
        parse("variable input X domain 0 ١٠\n")  # non-ASCII digits
    assert (info.value.line, info.value.column) == (1, 27)


@pytest.mark.parametrize("source, message", [
    ("variable input X domain 0 10\n  foo bar\n",
     "line 2, column 3: expected 'variable', 'mf', 'rule' or 'set', got 'foo'"),
    ("  mf a trap 0 1 2 3\n", "line 1, column 3: mf declaration before any variable"),
    ("set and_operator min\n  set and_operator product\n",
     "line 2, column 3: duplicate and_operator directive"),
    ("variable input X domain 0 10\n  rule\n", "line 2, column 7: expected 'IF', got end of line"),
    ("variable input X [a b domain 0 1\n", "line 1, column 21: expected ']', got 'b'"),
    ("variable input 5 domain 0 1\n", "line 1, column 16: expected a variable name, got '5'"),
    ("variable input X domain 0 " + "9" * 400 + "\n",
     "line 1, column 27: number " + "9" * 24 + "... is too large"),
], ids=["unknown", "mf-first", "duplicate-set", "bare-rule", "unclosed-unit", "numeric-name",
        "huge-number"])
def test_statement_head_errors(source, message):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert str(info.value) == message


def test_validation_collects_all_errors():
    source = """\
variable input A domain 0 10
  mf t trap 0 1 2 3
variable input A domain 0 10
variable output O domain 0 5
rule IF A IS t THEN O = 9
rule IF A IS nope THEN O = 1
"""
    with pytest.raises(FisValidationError) as info:
        build_fis(parse(source))
    messages = "\n".join(e.message for e in info.value.errors)
    assert "duplicate variable" in messages
    assert "outside output domain" in messages
    assert "nope" in messages


def test_duplicate_antecedents_rejected():
    source = VALID_DOC + "rule IF TrafficFlow IS Very_Low AND Speed IS High THEN LoS = 2\n"
    with pytest.raises(FisValidationError) as info:
        build_fis(parse(source))
    assert "repeats the antecedent" in str(info.value)


def test_missing_or_extra_outputs_rejected():
    no_output = "variable input A domain 0 1\n  mf t trap 0 0 1 1\n"
    with pytest.raises(FisValidationError):
        build_fis(parse(no_output))
    two_outputs = no_output + "variable output O domain 0 1\nvariable output P domain 0 1\n"
    with pytest.raises(FisValidationError):
        build_fis(parse(two_outputs))
    output_with_mf = "variable output O domain 0 1\n  mf t trap 0 0 1 1\n"
    with pytest.raises(FisValidationError):
        build_fis(parse(output_with_mf))


def test_crlf_and_comments_accepted():
    fis = parse_fis(VALID_DOC.replace("\n", "\r\n"))
    assert len(fis.rules) == 1


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_files_load_whatever_their_line_ends(tmp_path, default_fis, default_model, newline):
    # files are read with their newlines kept; lines split as with LF
    paths = {}
    for kind, text in (("fis", fz.default_fis_text()), ("los", fz.default_regions_text())):
        paths[kind] = tmp_path / f"shipped.{kind}"
        paths[kind].write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert fz.load_fis(paths["fis"]) == default_fis
    assert fz.load_regions(paths["los"]) == default_model
    paths["los"].write_bytes(f"lanes 3{newline}{newline}lanes x{newline}".encode("utf-8"))
    with pytest.raises(fz.RegionError, match="^line 3, column 7: expected the lane count, got 'x'$"):
        fz.load_regions(paths["los"])


def test_three_input_documents_parse():
    source = """\
variable input A domain 0 1
  mf t trap 0 0 1 1
variable input B domain 0 1
  mf t trap 0 0 1 1
variable input C domain 0 1
  mf t trap 0 0 1 1
variable output O domain 0 1
rule IF A IS t AND B IS t AND C IS t THEN O = 1
"""
    fis = parse_fis(source)
    assert len(fis.inputs) == 3
    assert fz.infer(fis, {"A": 0.5, "B": 0.5, "C": 0.5}).raw == 1.0


def test_integral_numbers_print_canonically(default_fis):
    text = serialize(default_fis)
    assert "THEN LoS = 1\n" in text
    assert "= 1.0" not in text
    assert "domain 0 6000" in text


def test_fractional_numbers_roundtrip_exactly():
    source = """\
variable input A domain 0 1
  mf t trap 0 0.1 0.30000000000000004 1
variable output O domain 0 1
rule IF A IS t THEN O = 0.125
"""
    fis = parse_fis(source)
    again = parse_fis(serialize(fis))
    assert again == fis
    assert dict(again.inputs[0].terms)["t"].c == 0.30000000000000004


def test_default_config_roundtrips(default_fis):
    assert parse_fis(serialize(default_fis)) == default_fis


def test_rule_order_preserved_verbatim(default_fis):
    text = serialize(default_fis)
    reparsed = parse_fis(text)
    assert reparsed.rules == default_fis.rules
    assert serialize(reparsed) == text


@pytest.mark.parametrize("field, name", [
    ("input", "Traffic Flow"),
    ("unit", "veh per h"),
    ("term", "Very-Low"),
    ("output", "LoS\n"),
], ids=["input", "unit", "term", "output"])
def test_serialize_refuses_names_the_grammar_cannot_read(default_fis, field, name):
    flow, speed = default_fis.inputs
    renamed_term = ((name, speed.terms[0][1]),) + speed.terms[1:]
    changes = {
        "input": dict(inputs=(dataclasses.replace(flow, name=name), speed)),
        "unit": dict(inputs=(dataclasses.replace(flow, unit=name), speed)),
        "term": dict(inputs=(flow, dataclasses.replace(speed, terms=renamed_term))),
        "output": dict(output_name=name),
    }[field]
    fis = dataclasses.replace(default_fis, rules=(), **changes)
    with pytest.raises(ValueError, match=re.escape(f"cannot serialize {field} {name!r}:")):
        serialize(fis)


def test_serialize_refuses_a_rule_without_clauses(default_fis):
    fis = dataclasses.replace(default_fis, rules=default_fis.rules + (fz.Rule((), 3.0),))
    with pytest.raises(ValueError, match=f"rule {len(fis.rules)}: it has no clause"):
        serialize(fis)


def test_random_roundtrips():
    rng = random.Random(2024)
    for _ in range(60):
        fis = random_fis(rng)
        if not fis.rules:
            continue
        assert parse_fis(serialize(fis)) == fis


def test_fuzz_never_crashes():
    rng = random.Random(99)
    for _ in range(400):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
        try:
            build_fis(parse(blob.decode("latin-1")))
        except ParseError as exc:
            assert exc.line >= 1 and exc.column >= 1
        except FisValidationError as exc:
            assert exc.errors


def validation_errors(source):
    with pytest.raises(FisValidationError) as info:
        build_fis(parse(source))
    return info.value.errors


def test_each_bad_trapezoid_is_reported_on_its_own_line():
    source = """\
variable input A domain 0 10
  mf a trap 0 1 2 3
  mf b trap 1 2 3 4
  mf c trap 5 4 3 2
  mf d trap 9 8 7 6
variable output O domain 0 5
rule IF A IS a THEN O = 1
"""
    errors = validation_errors(source)
    assert [(e.line, e.column) for e in errors] == [(4, 6), (5, 6)]
    assert all("breakpoints" in e.message for e in errors)


@pytest.mark.parametrize("first", ["mf a trap 0 1 2 3", "mf a trap 3 2 1 0"])
def test_support_outside_the_domain_is_reported_on_its_mf(first):
    source = f"""\
variable input A domain 0 10
  {first}
  mf b trap 8 9 10 11
variable output O domain 0 5
"""
    errors = validation_errors(source)
    support = [e for e in errors if "exceeds domain" in e.message]
    assert [(e.line, e.column) for e in support] == [(3, 6)]
    assert "'b'" in support[0].message


@pytest.mark.parametrize("rules", ["", "rule IF A IS a THEN O = 1\nrule IF A IS b THEN O = 5\n"])
def test_empty_output_domain_is_reported_at_the_output(rules):
    source = """\
variable input A domain 0 10
  mf a trap 0 1 2 3
  mf b trap 1 2 3 4
variable output O domain 5 1
""" + rules
    (error,) = validation_errors(source)
    assert "output domain" in error.message and "is empty" in error.message
    assert (error.line, error.column) == (4, 17)


def test_an_invalid_variable_adds_no_unknown_variable_errors():
    source = """\
variable input A domain 10 0
  mf a trap 0 1 2 3
variable input B domain 0 10
  mf b trap 3 2 1 0
variable output O domain 0 5
rule IF A IS a AND B IS b THEN O = 1
rule IF A IS nope THEN O = 9
"""
    errors = validation_errors(source)
    assert [(e.line, e.column) for e in errors] == [(1, 16), (4, 6)]
    assert not any("unknown input variable" in e.message for e in errors)
