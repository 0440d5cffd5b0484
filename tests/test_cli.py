import json
import os
import resource
import subprocess
import sys
import time
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


@pytest.mark.parametrize("p,level,trials,seed", [(3, 1, 4, 9), (5, 3, 1, 0), (7, 3, 1, 0)])
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


def _write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _set_first_poly(terms):
    return lambda doc: doc["values"][0].update(poly=terms)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_set_first_poly([{"c": 1, "e": [0, 0]}]), id="numeric-coefficient"),
        pytest.param(_set_first_poly([{"c": "1", "e": [1.5, 0]}]), id="float-exponent"),
        pytest.param(_set_first_poly([{"c": "1", "e": [True, 0]}]), id="bool-exponent"),
        pytest.param(lambda doc: doc.update(level=True), id="bool-level"),
    ],
)
def test_period_malformed_terms(tmp_path, capsys, edit):
    doc = vector_to_json(f0_table(QNumeric(3), 3, 1))
    edit(doc)
    code, out, err = run_cli(capsys, "period", "--input", _write_doc(tmp_path, doc))
    assert code == 2 and out == "" and err.startswith("error: ")


def _p2_table(first_poly):
    rows = [
        {"class": "[0:1]", "poly": first_poly},
        {"class": "[1:1]", "poly": [{"c": "1", "e": [0, 0]}]},
        {"class": "[1:0]", "poly": [{"c": "1", "e": [0, 0]}]},
    ]
    return {"prime": 2, "level": 1, "values": rows}


# json.dumps refuses an int past the 4300-digit conversion limit, so this
# document is written as text.
_LONG_EXPONENT = json.dumps(_p2_table([{"c": "1", "e": [0, 0]}])).replace(
    '"e": [0, 0]', '"e": [' + "1" * 5000 + ", 0]", 1
)


@pytest.mark.parametrize(
    "doc,fragment",
    [
        pytest.param({"prime": 2305843009213693951, "level": 1, "values": []}, "missing",
                     id="huge-prime"),
        pytest.param({"prime": 2, "level": 40, "values": []}, "missing", id="deep-level"),
        pytest.param(_p2_table([{"c": "1e100000000", "e": [0, 0]}]), "malformed rational",
                     id="huge-exponent-literal"),
        pytest.param(_LONG_EXPONENT, "not valid JSON", id="overlong-integer"),
    ],
)
def test_period_oversized_documents_fail_fast(tmp_path, doc, fragment):
    # Run in a child with a timeout and a memory cap, so a regression that
    # enumerates the classes or expands a literal fails the test instead of
    # exhausting memory.
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    src = str(Path(toricperiod.__file__).resolve().parent.parent)
    cap = 1 << 30
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "toricperiod.cli", "period", "--input", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert time.monotonic() - started < 1.0
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert fragment in proc.stderr


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
