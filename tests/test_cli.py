import json
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzylos as fz
from fuzzylos.cli import main

HEADER = "timestamp,speed_kmh,flow_vph\n"

ONE_INPUT_FIS = """\
variable input TrafficFlow [veh/h] domain 0 6000
  mf Low trap 0 0 1200 1600
variable output LoS domain 0 6
rule IF TrafficFlow IS Low THEN LoS = 1
"""

THREE_INPUT_FIS = """\
variable input TrafficFlow [veh/h] domain 0 6000
  mf Low trap 0 0 1200 1600
variable input Speed [km/h] domain 0 80
  mf High trap 41 47 59 65
variable input Lanes domain 1 4
  mf Few trap 1 1 2 3
variable output LoS domain 0 6
rule IF TrafficFlow IS Low AND Speed IS High AND Lanes IS Few THEN LoS = 1
"""

RULE_FREE_FIS = """\
variable input TrafficFlow [veh/h] domain 0 6000
  mf Low trap 0 0 1200 1600
variable input Speed [km/h] domain 0 80
  mf High trap 41 47 59 65
variable output LoS domain 0 6
"""

NARROW_DOMAIN_FIS = """\
variable input A domain -0.1 0.2
  mf All trap -0.1 -0.1 0.2 0.2
variable input B domain 0 1
  mf All trap 0 0 1 1
variable output Out domain 0 6
rule IF A IS All AND B IS All THEN Out = 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfer:
    def test_plateau_unique_point(self, capsys):
        code, out, _ = run(capsys, "infer", "600", "38")
        assert code == 0
        assert out == "raw=1.000 level=1 boundary=false anomaly=false\n"

    def test_uncovered_point_is_anomaly(self, capsys):
        code, out, _ = run(capsys, "infer", "5500", "75")
        assert code == 0
        assert out.startswith("raw=0.000 level=ANOMALY")
        assert "anomaly=true" in out

    def test_out_of_domain_is_exit_2(self, capsys):
        code, _, err = run(capsys, "infer", "600", "90")
        assert code == 2
        assert "outside domain" in err

    def test_boundary_point_flagged(self, capsys):
        code, out, _ = run(capsys, "infer", "2990", "55")
        assert code == 0
        assert "boundary=true" in out

    def test_and_op_override(self, capsys):
        code, out, _ = run(capsys, "infer", "1500", "55", "--and-op", "product")
        assert code == 0
        code_min, out_min, _ = run(capsys, "infer", "1500", "55", "--and-op", "min")
        assert code_min == 0
        assert out  # both operators produce a reading at the crossover
        assert out_min

    def test_custom_fis_file(self, capsys, tmp_path):
        path = tmp_path / "model.fis"
        path.write_text(fz.serialize(fz.default_fis()), encoding="utf-8")
        code, out, _ = run(capsys, "infer", "600", "38", "--fis", str(path))
        assert code == 0 and "level=1" in out

    def test_broken_fis_file_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.fis"
        path.write_text("variable input oops\n", encoding="utf-8")
        code, _, err = run(capsys, "infer", "600", "38", "--fis", str(path))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_is_exit_2(self, capsys):
        code, _, err = run(capsys, "infer", "600", "38", "--fis", "/nonexistent.fis")
        assert code == 2 and "error" in err


class TestLabel:
    def test_rows_labeled(self, capsys, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(HEADER + "t0,62.0,1200\nt1,38.0,600\n", encoding="utf-8")
        out_path = tmp_path / "labeled.csv"
        code, _, _ = run(capsys, "label", str(csv_path), "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[1].endswith(",1")
        assert lines[2].endswith(",-")

    def test_crlf_file_keeps_a_quoted_carriage_return(self, capsys, tmp_path):
        csv_path = tmp_path / "crlf.csv"
        csv_path.write_bytes(
            b'timestamp,speed_kmh,flow_vph\r\n"t\r0",65,700\r\nt1,60,2000\r\nt2,50,3500\r\n'
        )
        out_path = tmp_path / "labeled.csv"
        code, _, _ = run(capsys, "label", str(csv_path), "--out", str(out_path))
        assert code == 0
        assert b'"t\r0"' in out_path.read_bytes()
        code, out, _ = run(capsys, "evaluate", str(out_path))
        assert code == 0
        assert "points:         3" in out

    def test_malformed_csv_leaves_no_partial_output(self, capsys, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(HEADER + "t0,62.0,1200\nt1,-5,600\n", encoding="utf-8")
        out_path = tmp_path / "labeled.csv"
        code, _, err = run(capsys, "label", str(csv_path), "--out", str(out_path))
        assert code == 2
        assert "line 3" in err
        assert not out_path.exists()

    def test_row_outside_the_envelope_names_its_line(self, capsys, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(HEADER + "t1,62.0,1200\nt2,62.0,7000\n", encoding="utf-8")
        out_path = tmp_path / "labeled.csv"
        code, _, err = run(capsys, "label", str(csv_path), "--out", str(out_path))
        assert code == 2
        assert "line 3: point (flow=7000.0, speed=62.0) outside model domain" in err
        assert not out_path.exists()


class TestEvaluate:
    def test_synthetic_run_meets_accuracy_band(self, capsys, tmp_path):
        out_path = tmp_path / "report.txt"
        code, _, _ = run(
            capsys, "evaluate", "--synthetic", "3825", "--seed", "1",
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.txt.json").read_text(encoding="utf-8"))
        assert payload["accuracy"] >= 0.99
        assert payload["mismatches"] >= 10
        assert "accuracy" in out_path.read_text(encoding="utf-8")

    def test_labeled_csv_overrides_oracle(self, capsys, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(
            "timestamp,speed_kmh,flow_vph,los\nt0,65.0,700,2\nt1,65.0,700,1\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "evaluate", str(csv_path))
        assert code == 0
        assert "mismatches:     1" in out

    def test_bad_rows_are_skipped_on_stderr(self, capsys, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(HEADER + "t0,65.0,700\nt1,oops,700\n", encoding="utf-8")
        code, out, err = run(capsys, "evaluate", str(csv_path))
        assert code == 0
        assert err == "skipped: line 3: speed_kmh 'oops' is not a number\n"
        assert "evaluated:      1" in out

    def test_empty_dataset_is_exit_2(self, capsys, tmp_path):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text(HEADER, encoding="utf-8")
        code, _, err = run(capsys, "evaluate", str(csv_path))
        assert code == 2
        assert "no data" in err

    def test_requires_some_input(self, capsys):
        code, out, err = run(capsys, "evaluate")
        assert (code, out, err) == (2, "", "error: give either an input CSV or --synthetic N\n")

    def test_refuses_both_inputs(self, capsys):
        # the CSV is never opened, so its absence is not what is reported
        code, out, err = run(capsys, "evaluate", "missing.csv", "--synthetic", "5")
        assert (code, out, err) == (2, "", "error: give either an input CSV or --synthetic N\n")

    def test_bad_epsilon_is_exit_2(self, capsys):
        code, out, err = run(capsys, "evaluate", "--synthetic", "50", "--epsilon", "0.7")
        assert code == 2
        assert "epsilon" in err
        assert out == ""

    def test_one_input_system_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "one.fis"
        path.write_text(ONE_INPUT_FIS, encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--synthetic", "50", "--fis", str(path))
        assert code == 2
        assert "two-input" in err
        assert out == ""

    def test_rule_free_system_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "skeleton.fis"
        path.write_text(RULE_FREE_FIS, encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--synthetic", "5", "--fis", str(path))
        assert code == 2
        assert "empty rule base" in err
        assert out == ""

    def test_accuracy_is_data_not_failure(self, capsys, tmp_path):
        # grossly wrong labels still exit 0
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(
            "timestamp,speed_kmh,flow_vph,los\nt0,65.0,700,6\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "evaluate", str(csv_path))
        assert code == 0
        assert "accuracy:       0.0000%" in out


class TestSurface:
    def test_fifty_steps_gives_2500_rows(self, capsys, tmp_path):
        out_path = tmp_path / "surface.csv"
        code, _, _ = run(capsys, "surface", "--steps", "50", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2501
        assert lines[0] == "flow_vph,speed_kmh,raw_los"

    def test_single_step_is_usage_error(self, capsys):
        code, _, err = run(capsys, "surface", "--steps", "1")
        assert code == 2
        assert "steps" in err

    def test_last_row_is_the_domain_maximum(self, capsys, tmp_path):
        # -0.1 + (0.2 - -0.1) * 4 / 4 rounds to 0.20000000000000004
        path = tmp_path / "narrow.fis"
        path.write_text(NARROW_DOMAIN_FIS, encoding="utf-8")
        code, out, err = run(capsys, "surface", "--steps", "5", "--fis", str(path))
        assert code == 0, err
        flow, speed, _ = out.splitlines()[-1].split(",")
        assert (flow, speed) == ("0.2", "1.0")

    @pytest.mark.parametrize("text", [ONE_INPUT_FIS, THREE_INPUT_FIS], ids=["one", "three"])
    def test_non_two_input_system_is_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "model.fis"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "surface", "--steps", "5", "--fis", str(path))
        assert code == 2
        assert "two-input system" in err
        assert out == ""


    def test_rule_free_system_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "skeleton.fis"
        path.write_text(RULE_FREE_FIS, encoding="utf-8")
        code, out, err = run(capsys, "surface", "--steps", "3", "--fis", str(path))
        assert code == 2
        assert "empty rule base" in err
        assert out == ""


class TestGenrules:
    def test_default_emits_27_rules(self, capsys):
        code, out, err = run(capsys, "genrules")
        assert code == 0
        rule_lines = [l for l in out.splitlines() if l.startswith("rule ")]
        assert len(rule_lines) == 27
        assert "generated 27 rules" in err

    def test_output_reparses_and_matches_default(self, capsys, tmp_path):
        out_path = tmp_path / "full.fis"
        code, _, _ = run(capsys, "genrules", "--out", str(out_path))
        assert code == 0
        fis = fz.parse_fis(out_path.read_text(encoding="utf-8"))
        assert fis == fz.default_fis()

    def test_full_agreement_conflict_names_pair(self, capsys):
        code, _, err = run(capsys, "genrules", "--agreement", "1.0")
        assert code == 2
        assert "(Middle, Middle)" in err or "(Middle," in err

    def test_huge_grid_gives_the_shipped_rules(self, capsys):
        code, out, _ = run(capsys, "genrules", "--grid", "100000000")
        assert code == 0
        assert fz.parse_fis(out).rules == fz.default_fis().rules

    def test_works_from_ruleless_fis(self, capsys, tmp_path):
        base = fz.default_fis()
        import dataclasses

        skeleton = dataclasses.replace(base, rules=())
        path = tmp_path / "base.fis"
        path.write_text(fz.serialize(skeleton), encoding="utf-8")
        code, out, _ = run(capsys, "genrules", "--fis", str(path))
        assert code == 0
        assert len([l for l in out.splitlines() if l.startswith("rule ")]) == 27

    def test_template_rules_are_replaced_unvalidated(self, capsys, tmp_path):
        path = tmp_path / "template.fis"
        template = fz.default_fis_text() + "rule IF Speed IS Warp THEN LoS = 2\n"
        path.write_text(template, encoding="utf-8")
        code, out, _ = run(capsys, "genrules", "--fis", str(path))
        assert code == 0
        assert len([l for l in out.splitlines() if l.startswith("rule ")]) == 27

    def test_one_input_system_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "one.fis"
        path.write_text(ONE_INPUT_FIS, encoding="utf-8")
        code, out, err = run(capsys, "genrules", "--fis", str(path))
        assert code == 2
        assert "two-input system" in err
        assert out == ""


def test_every_exported_error_is_a_user_error():
    # the CLI maps ValueError to exit 2, which covers every fuzzylos error
    errors = [
        obj for obj in (getattr(fz, name) for name in fz.__all__)
        if isinstance(obj, type) and issubclass(obj, BaseException)
    ]
    assert len(errors) >= 7
    for error in errors:
        assert issubclass(error, ValueError), error


@pytest.mark.parametrize("command", [
    ("label", "{csv}"),
    ("evaluate", "{csv}"),
    ("infer", "600", "38", "--fis", "{fis}"),
    ("label", "{csv}", "--regions", "{los}"),
])
def test_a_leading_byte_order_mark_is_ignored(capsys, tmp_path, command):
    # Excel's "CSV UTF-8" starts a file with U+FEFF
    texts = {
        "csv": HEADER + "t0,62.0,1200\nt1,38.0,600\n",
        "fis": fz.default_fis_text(),
        "los": fz.default_regions_text(),
    }
    outputs = []
    for mark in ("", "\ufeff"):
        paths = {}
        for kind, text in texts.items():
            paths[kind] = tmp_path / f"{len(mark)}.{kind}"
            paths[kind].write_text(mark + text, encoding="utf-8")
        code, out, err = run(capsys, *(arg.format(**paths) for arg in command))
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_a_clean_import_reads_the_shipped_files_from_the_package_directory():
    # python -S runs no site .pth file, which could import these first
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fuzzylos.cli, fuzzylos; "
        "fuzzylos.default_fis(); fuzzylos.default_regions(); "
        "print(sorted({'importlib.resources', 'pathlib'} & set(sys.modules)))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_idempotent_invocations(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "surface", "--steps", "10", "--out", str(a))
    run(capsys, "surface", "--steps", "10", "--out", str(b))
    assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
