import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricperiod
from toricperiod.cli import main
from toricperiod.family import f0_table, vector_to_json
from toricperiod.scalars import QNumeric


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_identities_pass(capsys):
    code, out, _ = run_cli(capsys, "identities")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS ") for line in lines)
    assert "l(sph) = 1 - q^(-1)·X1·X2^(-1)" in out
    assert "l(f0) = 1 - q^(-1/2)·X1" in out


def test_identities_display_y(capsys):
    code, out, _ = run_cli(capsys, "identities", "--display", "Y")
    assert code == 0
    assert "l(f0) = 1 - Y1" in out


def test_identities_sabotage_fails(capsys):
    code, out, _ = run_cli(capsys, "identities", "--sabotage")
    assert code == 1
    assert "FAIL spherical-period" in out
    assert out.count("FAIL") == 1


def test_identities_out_file(tmp_path, capsys):
    target = tmp_path / "identities.txt"
    code, out, _ = run_cli(capsys, "identities", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().count("PASS") == 7


@pytest.mark.parametrize("p,level,trials,seed", [(3, 1, 4, 9), (5, 3, 1, 0)])
def test_theorem_trials(capsys, p, level, trials, seed):
    code, out, _ = run_cli(
        capsys, "theorem", "--p", str(p), "--level", str(level),
        "--trials", str(trials), "--seed", str(seed),
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == trials + 2 + 1
    for i, row in enumerate(rows[:trials]):
        assert row["trial"] == i
        assert (row["p"], row["level"]) == (p, level)
        assert row["seed"] == seed + i
        assert row["pass"] and row["member"] and row["rational"]
        assert row["certificate"]["verified"] is True
    checks = rows[trials:trials + 2]
    assert {c["check"] for c in checks} == {
        "generator-1-attained",
        "generator-2-attained",
    }
    assert all(c["pass"] for c in checks)
    assert rows[-1]["summary"] == {"trials": trials, "failures": 0}


def _strip_timing(text):
    rows = []
    for line in text.strip().splitlines():
        row = json.loads(line)
        row.pop("elapsed_ms", None)
        rows.append(json.dumps(row, sort_keys=True))
    return rows


def test_theorem_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for target in (a, b):
        code = main(
            [
                "theorem",
                "--p", "2",
                "--level", "2",
                "--trials", "3",
                "--seed", "1",
                "--out", str(target),
            ]
        )
        assert code == 0
    assert _strip_timing(a.read_text()) == _strip_timing(b.read_text())


def test_theorem_usage_errors():
    for argv in (
        ["theorem", "--p", "3", "--level", "1", "--trials", "0"],
        ["theorem", "--p", "4", "--level", "1", "--trials", "1"],
        ["theorem", "--p", "3", "--level", "9", "--trials", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_period_report(tmp_path, capsys):
    doc = vector_to_json(f0_table(QNumeric(3), 3, 1))
    src = tmp_path / "vec.json"
    src.write_text(json.dumps(doc))
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "period", "--input", str(src), "--out", str(out_file))
    assert code == 0
    assert out == ""
    report = json.loads(out_file.read_text())
    assert report["member"] is True
    assert report["rational"] is True
    assert report["lA_display_X"] == "1 - q^(-1/2)·X1"
    assert report["certificate"]["verified"] is True


def test_period_symbolic_marker(tmp_path, capsys):
    src = tmp_path / "sph.json"
    src.write_text(json.dumps({"symbolic": "sph"}))
    code, out, _ = run_cli(capsys, "period", "--input", str(src))
    assert code == 0
    report = json.loads(out)
    assert report["member"] is True
    assert report["lA_display_X"] == "1 - q^(-1)·X1·X2^(-1)"


def test_period_bad_documents(tmp_path, capsys):
    code, _, err = run_cli(capsys, "period", "--input", str(tmp_path / "nope.json"))
    assert code == 2 and "cannot read" in err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run_cli(capsys, "period", "--input", str(garbled))
    assert code == 2 and "not valid JSON" in err

    doc = vector_to_json(f0_table(QNumeric(3), 3, 1))
    doc["values"] = doc["values"][:-1]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "period", "--input", str(partial))
    assert code == 2 and "missing" in err


def test_ideal_checks(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--check", "equality")
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True
    assert len(blob["certificates"]) == 4

    code, out, _ = run_cli(capsys, "ideal", "--check", "principal", "--q", "5")
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True and blob["q"] == 5

    code, out, _ = run_cli(capsys, "ideal", "--check", "proper", "--q", "symbolic")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_ideal_bad_q():
    for bad in ("1", "zero", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["ideal", "--check", "proper", "--q", bad])
        assert exc.value.code == 2


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point():
    # The child imports the same package as this process, wherever pytest
    # found it (an install, PYTHONPATH, or the ini file's pythonpath).
    src = str(Path(toricperiod.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "toricperiod.cli", "ideal", "--check", "proper"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
