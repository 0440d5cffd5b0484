import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from groebner_oracle import oracle_membership
from hypothesis import given, settings
from hypothesis import strategies as st

import toricperiod
from toricperiod import cli, family, groebner, period
from toricperiod.cli import main
from toricperiod.family import f0_table, random_table, vector_to_json
from toricperiod.groebner import Certificate, MembershipSolver
from toricperiod.laurent import LaurentPoly, ZPoly, one
from toricperiod.period import PeriodReport
from toricperiod.scalars import QNumeric, QSymbolic, RationalFunction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The whole symbolic output is pinned, so a change to how q-scalars are
# normalized or printed shows up here and not only in benchmark digests.
_IDENTITY_TAIL = """\
PASS spherical-series-cleared: (1 - Y1 Z)(1 - Y2 Z)·sum h_k Z^k = 1
PASS presentation-equality: both generator pairs span the same ideal, four certificates verified
PASS ideal-proper: 1 does not lie in the image ideal
PASS ideal-not-principal: the image ideal admits no single generator
"""


def test_identities_pass(capsys):
    code, out, _ = run_cli(capsys, "identities")
    assert code == 0
    assert out == """\
PASS spherical-period: l(sph) = 1 - q^(-1)·X1·X2^(-1)
PASS iwahori-period: l(f0) = 1 - q^(-1/2)·X1
PASS iwahori-zeta-cleared: (1 - Y1 Z)(1 - Y2 Z)·I(f0, Z) = (1) + (-q^(-1/2)·X1)·Z^1
""" + _IDENTITY_TAIL


def test_identities_display_y(capsys):
    code, out, _ = run_cli(capsys, "identities", "--display", "Y")
    assert code == 0
    assert out == """\
PASS spherical-period: l(sph) = 1 - q^(-1)·Y1·Y2^(-1)
PASS iwahori-period: l(f0) = 1 - Y1
PASS iwahori-zeta-cleared: (1 - Y1 Z)(1 - Y2 Z)·I(f0, Z) = (1) + (-Y1)·Z^1
""" + _IDENTITY_TAIL


def test_identities_sabotage_fails(capsys):
    code, out, _ = run_cli(capsys, "identities", "--sabotage")
    assert code == 1
    assert "FAIL spherical-period" in out
    assert out.count("FAIL") == 1


def test_identities_check_periods_against_window(monkeypatch, capsys):
    # the marker periods are closed forms, so each is also held against its
    # cleared zeta window; a window that disagrees fails both checks
    monkeypatch.setattr(
        cli, "cleared_window", lambda vec, field=None: ZPoly(field, 0, 0, {0: one(field)})
    )
    code, out, _ = run_cli(capsys, "identities")
    assert code == 1
    assert "FAIL spherical-period" in out and "FAIL iwahori-period" in out
    assert out.count("cleared window gives 1") == 2


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


# sha256 of the theorem rows over the whole grid, p in {2, 3, 5, 7} x level
# in {1, 2, 3} with --trials 5 --seed 4, each row with elapsed_ms dropped and
# dumped with sorted keys.  Recorded before LaurentPoly gained its trusted
# constructor, so it pins random_table's draw order and every certificate
# across commits; test_theorem_deterministic compares two runs of one commit.
_THEOREM_GRID_SHA256 = "4b0a54a4f90c6105f00e66a66b67e2ff3725f43e768270b6230a133c1df30330"


def test_theorem_grid_is_pinned(tmp_path):
    digest = hashlib.sha256()
    for p in (2, 3, 5, 7):
        for level in (1, 2, 3):
            target = tmp_path / f"theorem-{p}-{level}.jsonl"
            argv = ["theorem", "--p", str(p), "--level", str(level),
                    "--trials", "5", "--seed", "4", "--out", str(target)]
            assert main(argv) == 0
            for row in _strip_timing(target.read_text()):
                digest.update(row.encode() + b"\n")
    assert digest.hexdigest() == _THEOREM_GRID_SHA256


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


_fractions = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6))
_q_scalars = st.one_of(
    _fractions.map(QSymbolic().from_fraction),
    st.builds(lambda c, m: QSymbolic().q_power(m) * c, _fractions, st.integers(-30, 30)),
    # non-monomials, with a denominator: str gives the "(...)/(...)" form
    st.builds(
        RationalFunction,
        st.lists(_fractions, min_size=1, max_size=3),
        st.lists(_fractions, min_size=1, max_size=3).filter(lambda d: d[0] != 0),
    ),
)
_exponents = st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000))


@st.composite
def _reports(draw):
    field = draw(st.sampled_from([QNumeric(7), QSymbolic()]))
    scalars = _q_scalars if field.is_symbolic else _fractions

    def poly():
        return LaurentPoly(field, draw(st.dictionaries(_exponents, scalars, max_size=5)))

    cert = Certificate(poly(), poly()) if draw(st.booleans()) else None
    return PeriodReport(la=poly(), member=draw(st.booleans()), certificate=cert)


@settings(max_examples=150, deadline=None)
@given(_reports())
def test_period_report_json_matches_indented_dumps(report):
    assert cli.period_report_json(report) == json.dumps(report.to_json(), indent=2)


def test_period_report_json_fixed_cases():
    # an empty period with no certificate, and the non-ASCII display escaped
    empty = PeriodReport(la=LaurentPoly(QNumeric(3)), member=False, certificate=None)
    assert cli.period_report_json(empty) == json.dumps(empty.to_json(), indent=2)
    assert '"lA": []' in cli.period_report_json(empty)
    assert '"certificate": null' in cli.period_report_json(empty)
    report = cli.verify_image(random_table(5, 2, seed=3))
    text = cli.period_report_json(report)
    assert text == json.dumps(report.to_json(), indent=2)
    assert "\\u00b7" in text and "·" in report.la.to_x_display()


def test_period_never_runs_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder entered")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({"a": [1]}, indent=2)
    for doc in (vector_to_json(random_table(3, 2, seed=8)), {"symbolic": "sph"}):
        src = tmp_path / "doc.json"
        src.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "period", "--input", str(src))
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["member"] is True and report["certificate"]["verified"] is True


def test_in_process_calls_share_no_parser_state(tmp_path, capsys):
    # main reuses one parser per process: a usage error and another
    # subcommand in between leave a repeated `period` byte-identical.
    doc = vector_to_json(f0_table(QNumeric(3), 3, 2))
    src = tmp_path / "vec.json"
    src.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["theorem", "--p", "4", "--level", "1", "--trials", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, first, _ = run_cli(capsys, "period", "--input", str(src))
    assert code == 0 and first
    code, out, _ = run_cli(capsys, "identities")
    assert code == 0 and out.startswith("PASS")
    code, again, _ = run_cli(capsys, "period", "--input", str(src))
    assert code == 0
    assert again == first
    assert cli.build_parser() is cli.build_parser()


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


@pytest.mark.parametrize("command", ["identities", "theorem", "period"])
def test_unwritable_out_is_a_usage_error(tmp_path, command):
    # An --out under a missing directory is the caller's mistake: exit 2 with
    # one error line, not a traceback and exit 1, which reads as falsified.
    doc = tmp_path / "sph.json"
    doc.write_text(json.dumps({"symbolic": "sph"}))
    argv = {
        "identities": ["identities"],
        "theorem": ["theorem", "--p", "2", "--level", "1", "--trials", "1"],
        "period": ["period", "--input", str(doc)],
    }[command]
    out = tmp_path / "missing" / "out.txt"
    src = str(Path(toricperiod.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "toricperiod.cli", *argv, "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def _write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _set_first_poly(terms):
    return lambda doc: doc["values"][0].update(poly=terms)


def _relabel(old, new):
    def edit(doc):
        for row in doc["values"]:
            if row["class"] == old:
                row["class"] = new

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_set_first_poly([{"c": 1, "e": [0, 0]}]), id="numeric-coefficient"),
        pytest.param(_set_first_poly([{"c": "1", "e": [1.5, 0]}]), id="float-exponent"),
        pytest.param(_set_first_poly([{"c": "1", "e": [True, 0]}]), id="bool-exponent"),
        pytest.param(lambda doc: doc.update(level=True), id="bool-level"),
        pytest.param(_relabel("[1:1]", "[+1:1]"), id="signed-class-label"),
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



def test_period_wide_exponents(tmp_path, capsys):
    # Values Y1^E, 1, Y2^E: the period has 8 terms, but its certificate has
    # 2E+1 terms in each cofactor, so the output grows as E^2 bits.  Pinned
    # as it stands; the point route must certify it as the oracle's tracked
    # normal form does.
    E = 200
    doc = _p2_table([{"c": "1", "e": [E, 0]}])
    doc["values"][2]["poly"] = [{"c": "1", "e": [0, E]}]
    src = _write_doc(tmp_path, doc)
    code, out, _ = run_cli(capsys, "period", "--input", src)
    assert code == 0
    report = json.loads(out)
    assert len(report["lA"]) == 8
    cert = report["certificate"]
    assert len(cert["u1"]) == len(cert["u2"]) == 2 * E + 1
    field = QNumeric(2)
    la = LaurentPoly.from_json_terms(field, report["lA"])
    tracked = oracle_membership(la, *period.image_ideal(field))
    assert Certificate(*tracked).to_json() == cert


def _wide_table(p, e1, e2, c="1"):
    """The level-1 table with c*Y1^e1 on [0:1], Y2^e2 on [1:0] and 1 elsewhere."""
    rows = [{"class": "[0:1]", "poly": [{"c": c, "e": [e1, 0]}]}]
    rows += [{"class": f"[{u}:1]", "poly": [{"c": "1", "e": [0, 0]}]} for u in range(1, p)]
    rows.append({"class": "[1:0]", "poly": [{"c": "1", "e": [0, e2]}]})
    return {"prime": p, "level": 1, "values": rows}


def test_period_at_the_span_bound(tmp_path, capsys):
    # At p = 7 the bound's coefficients come closest to Python's 4300-digit
    # int-to-str limit; the report must still be written and certified.
    E = family.MAX_SPAN_BITS // (7).bit_length()
    code, out, err = run_cli(capsys, "period", "--input", _write_doc(tmp_path, _wide_table(7, E, E)))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["member"] and report["certificate"]["verified"]


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
        pytest.param("[" * 200000 + "]" * 200000, "not valid JSON", id="deep-nesting"),
        pytest.param(_wide_table(2, 0, 10**9), "exponent span 1000000000 in Y2",
                     id="huge-exponent-span"),
        pytest.param(_wide_table(2, 4097, 4097), "exponent span 4097", id="span-past-bound-p2"),
        pytest.param(_wide_table(7, 2731, 2731), "exponent span 2731", id="span-past-bound-p7"),
        # inside the span bound, but 4290-digit coefficients times 2^40 in the
        # certificate pass the int-to-str limit: the writer's backstop
        pytest.param(_wide_table(2, 0, 40, c="9" * 4290), "cannot write the report",
                     id="unwritable-coefficients"),
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


def test_period_far_offset_exponents(tmp_path):
    # Exponent span 1 at offset 10^18: inside the span bound, so the document
    # is read and certified, and no step may take a power q^(10^18).  Run in
    # a child with a timeout and a memory cap, so a regression fails instead
    # of hanging.
    far = 10**18
    rows = [
        {"class": label, "poly": [{"c": "1", "e": [far, far + i % 2]}]}
        for i, label in enumerate(["[0:1]", "[1:1]", "[2:1]", "[1:0]"])
    ]
    path = _write_doc(tmp_path, {"prime": 3, "level": 1, "values": rows})
    src = str(Path(toricperiod.__file__).resolve().parent.parent)
    cap = 1 << 30
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "toricperiod.cli", "period", "--input", path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert time.monotonic() - started < 1.0
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["member"] and report["certificate"]["verified"]
    assert min(t["e"][0] for t in report["lA"]) == far


def test_ideal_checks(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--check", "equality")
    assert code == 0
    assert out == (
        '{"check": "equality", "q": "symbolic", "pass": true, "certificates": ['
        '{"u1": [{"c": "1", "e": [0, 0]}], "u2": [{"c": "q", "e": [0, 1]}], "verified": true}, '
        '{"u1": [], "u2": [{"c": "1", "e": [0, 0]}], "verified": true}, '
        '{"u1": [{"c": "1", "e": [0, 0]}], "u2": [{"c": "-q", "e": [0, 1]}], "verified": true}, '
        '{"u1": [], "u2": [{"c": "1", "e": [0, 0]}], "verified": true}]}\n'
    )

    code, out, _ = run_cli(capsys, "ideal", "--check", "principal", "--q", "symbolic")
    assert code == 0
    assert out == (
        '{"check": "principal", "q": "symbolic", "pass": true, '
        '"gcd": [{"c": "1", "e": [0, 0]}]}\n'
    )

    code, out, _ = run_cli(capsys, "ideal", "--check", "principal", "--q", "5")
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True and blob["q"] == 5

    code, out, _ = run_cli(capsys, "ideal", "--check", "proper", "--q", "symbolic")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_commands_share_the_image_solver(monkeypatch, capsys):
    # identities and every ideal check ask period._IMAGE_SOLVER, so one
    # process builds the symbolic point entry of each presentation once, and
    # a second pass prints the same bytes from the cached entries.
    solver = MembershipSolver()
    monkeypatch.setattr(period, "_IMAGE_SOLVER", solver)
    builds = []
    cramer_entry = groebner._cramer_entry

    def counted(g1, g2):
        builds.append((g1, g2))
        return cramer_entry(g1, g2)

    monkeypatch.setattr(groebner, "_cramer_entry", counted)
    commands = [["identities"]] + [
        ["ideal", "--check", check] for check in ("equality", "principal", "proper")
    ]
    passes = [[run_cli(capsys, *argv) for argv in commands] for _ in range(2)]
    assert all(code == 0 for code, _, _ in passes[0])
    assert passes[1] == passes[0]
    S = QSymbolic()
    assert len(builds) == 2
    assert set(solver._points) == {period.image_ideal(S), period.image_ideal_alt(S)}


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
