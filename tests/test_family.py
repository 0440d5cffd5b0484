import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import toricperiod
from toricperiod import family
from toricperiod.family import (
    PHI_W,
    SPH,
    ClassCoverageError,
    LinComb,
    ParseError,
    TableVector,
    Translate,
    big_cell_split,
    chi_delta_value,
    evaluate,
    f0_table,
    invariance_level,
    random_table,
    sph_table,
    tabulate,
    vector_from_json,
    vector_prime,
    vector_to_json,
)
from toricperiod.laurent import mono, one, qpow, y1, y2, zero
from toricperiod.localfield import (
    Mat2,
    P1Class,
    class_rep,
    diag,
    p1_enumerate,
    unipotent,
    weyl,
)
from toricperiod.scalars import FieldMismatch, QNumeric, QSymbolic

S = QSymbolic()


def rand_matrix(rng, p, depth=2):
    while True:
        entries = [
            Fraction(rng.randint(-20, 20), p ** rng.randint(0, depth)) for _ in range(4)
        ]
        m = Mat2(p, *entries)
        if m.det() != 0:
            return m


def rand_upper(rng, p):
    while True:
        t1 = Fraction(rng.randint(-12, 12), p ** rng.randint(0, 2))
        t2 = Fraction(rng.randint(-12, 12), p ** rng.randint(0, 2))
        if t1 and t2:
            x = Fraction(rng.randint(-12, 12), p ** rng.randint(0, 2))
            return Mat2(p, t1, x, 0, t2)


def test_chi_delta_value():
    assert chi_delta_value(S, 0, 0) == one(S)
    assert chi_delta_value(S, 1, 0) == y1(S)
    assert chi_delta_value(S, 0, 1) == qpow(S, 1) * y2(S)
    assert chi_delta_value(S, 2, -1) == qpow(S, -1) * y1(S, 2) * y2(S, -1)


def test_spherical_values():
    assert evaluate(SPH, Mat2.identity(3), S) == one(S)
    assert evaluate(SPH, diag(3, 3, 1), S) == y1(S)
    assert evaluate(SPH, diag(3, 1, 3), S) == qpow(S, 1) * y2(S)
    assert evaluate(SPH, weyl(3), S) == one(S)


def test_spherical_right_k_invariance():
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice([2, 3])
        g = rand_matrix(rng, p)
        k = rand_matrix(rng, p, 0)
        if not k.is_unit():
            continue
        assert evaluate(SPH, g * k, S) == evaluate(SPH, g, S)


def test_phi_w_values():
    assert evaluate(PHI_W, Mat2.identity(3), S).is_zero
    assert evaluate(PHI_W, weyl(3), S) == one(S)
    # the whole big-cell slice w n(u) with integral u keeps value 1
    for u in (0, 1, 2, 3, Fraction(6)):
        assert evaluate(PHI_W, weyl(3) * unipotent(3, u), S) == one(S)
    # lower-left must be a unit: the identity coset dies
    assert evaluate(PHI_W, unipotent(3, 1), S).is_zero
    assert evaluate(PHI_W, diag(3, 9, 3), S).is_zero
    assert evaluate(PHI_W, weyl(3) * unipotent(3, Fraction(1, 3)), S).is_zero


def test_cocycle_rule():
    rng = random.Random(11)
    vectors = [SPH, PHI_W, random_table(3, 2, seed=4)]
    fields = [S, S, QNumeric(3)]
    for f, field in zip(vectors, fields):
        for _ in range(60):
            b = rand_upper(rng, 3)
            g = rand_matrix(rng, 3)
            from toricperiod.localfield import valuation

            factor = chi_delta_value(field, valuation(b.a, 3), valuation(b.d, 3))
            assert evaluate(f, b * g, field) == factor * evaluate(f, g, field)


def test_table_right_invariance_at_level():
    rng = random.Random(13)
    p, n = 3, 2
    f = random_table(p, n, seed=8)
    F = QNumeric(p)
    mod = p**n
    for _ in range(60):
        g = rand_matrix(rng, p)
        kappa = Mat2(
            p,
            1 + mod * rng.randint(-2, 2),
            mod * rng.randint(-2, 2),
            mod * rng.randint(-2, 2),
            1 + mod * rng.randint(-2, 2),
        )
        if not kappa.is_unit():
            continue
        assert evaluate(f, g * kappa, F) == evaluate(f, g, F)


def test_tabulate_roundtrip():
    f = random_table(3, 2, seed=21)
    assert tabulate(f, 3, 2, QNumeric(3)) == f


def test_tables_match_markers():
    for p in (2, 3):
        F = QNumeric(p)
        assert tabulate(SPH, p, 1, F) == sph_table(F, p, 1)
        assert tabulate(PHI_W, p, 1, F) == f0_table(F, p, 1)
        assert tabulate(PHI_W, p, 2, F) == f0_table(F, p, 2)
        rng = random.Random(p)
        for _ in range(40):
            g = rand_matrix(rng, p)
            assert evaluate(f0_table(F, p, 2), g, F) == evaluate(PHI_W, g, F)
            assert evaluate(sph_table(F, p, 1), g, F) == evaluate(SPH, g, F)


def test_translate_and_lincomb():
    rng = random.Random(17)
    F = QNumeric(3)
    f = random_table(3, 1, seed=2)
    t = Translate(diag(3, 3, 1), f)
    g = rand_matrix(rng, 3)
    assert evaluate(t, g, F) == evaluate(f, g * diag(3, 3, 1), F)
    c1 = mono(F, Fraction(2), 1, 0)
    c2 = mono(F, Fraction(-1, 2), 0, -1)
    combo = LinComb([(c1, SPH), (c2, f)])
    assert (
        evaluate(combo, g, F)
        == c1 * evaluate(SPH, g, F) + c2 * evaluate(f, g, F)
    )


def test_invariance_level_accounting():
    assert invariance_level(SPH) == 1
    assert invariance_level(PHI_W) == 1
    assert invariance_level(random_table(3, 2, seed=1)) == 2
    assert invariance_level(Translate(diag(3, 9, 1), SPH)) == 5
    assert invariance_level(Translate(Mat2.identity(3), SPH)) == 1
    assert invariance_level(Translate(unipotent(3, Fraction(1, 3)), SPH)) == 3
    combo = LinComb([(one(QNumeric(3)), random_table(3, 2, seed=1))])
    assert invariance_level(combo) == 2
    assert invariance_level(LinComb([])) == 1


def test_translate_invariance_is_real():
    # the translated spherical vector really is invariant at the claimed level
    rng = random.Random(23)
    p = 3
    t = Translate(diag(p, p, 1), SPH)
    n = invariance_level(t)
    mod = p**n
    F = QNumeric(p)
    for _ in range(30):
        g = rand_matrix(rng, p)
        kappa = Mat2(
            p,
            1 + mod * rng.randint(-1, 1),
            mod * rng.randint(-1, 1),
            mod * rng.randint(-1, 1),
            1 + mod * rng.randint(-1, 1),
        )
        if not kappa.is_unit():
            continue
        assert evaluate(t, g * kappa, F) == evaluate(t, g, F)


def test_big_cell_split():
    F = QNumeric(3)
    a, f_w = big_cell_split(SPH, 3, S)
    assert a == one(S)
    assert evaluate(f_w, weyl(3), S) == zero(S)
    a, f_w = big_cell_split(PHI_W, 3, S)
    assert a.is_zero
    f = random_table(3, 2, seed=30)
    a, f_w = big_cell_split(f, 3, F)
    rng = random.Random(31)
    for _ in range(25):
        g = rand_matrix(rng, 3)
        assert evaluate(f_w, g, F) == evaluate(f, g, F) - a * evaluate(SPH, g, F)


def test_big_cell_split_guard(monkeypatch):
    # a remainder that fails to vanish at the identity raises, not asserts
    monkeypatch.setattr(family, "evaluate", lambda f, g, field: one(field))
    with pytest.raises(ArithmeticError):
        big_cell_split(SPH, 3, S)


def test_library_invariants_survive_optimization():
    # python -O strips assert statements, so no library invariant rests on one
    for path in Path(toricperiod.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def test_vector_prime():
    assert vector_prime(SPH) is None
    assert vector_prime(PHI_W) is None
    assert vector_prime(random_table(5, 1, seed=0)) == 5
    assert vector_prime(Translate(weyl(7), SPH)) == 7
    assert vector_prime(LinComb([(one(S), SPH)])) is None
    assert vector_prime(LinComb([(one(S), SPH), (one(S), random_table(2, 1, seed=0))])) == 2


def test_random_table_determinism():
    assert random_table(3, 2, seed=9) == random_table(3, 2, seed=9)
    assert random_table(3, 2, seed=9) != random_table(3, 2, seed=10)
    f = random_table(5, 1, seed=3)
    assert f.field == QNumeric(5)
    for v in f.values.values():
        assert len(v.terms) <= 3
        for (e1, e2), c in v.terms.items():
            assert -2 <= e1 <= 2 and -2 <= e2 <= 2


def test_table_validation():
    F = QNumeric(3)
    values = {cls: one(F) for cls in p1_enumerate(3, 1)}
    removed = next(iter(values))
    short = {c: v for c, v in values.items() if c != removed}
    with pytest.raises(ClassCoverageError):
        TableVector(3, 1, short)
    mixed = dict(values)
    mixed[removed] = one(S)
    with pytest.raises(FieldMismatch):
        TableVector(3, 1, mixed)


# -- serialization ---------------------------------------------------------------


def test_json_roundtrip_table():
    f = random_table(3, 2, seed=14)
    doc = vector_to_json(f)
    assert doc["prime"] == 3 and doc["level"] == 2
    assert len(doc["values"]) == 12
    parsed, field = vector_from_json(doc)
    assert parsed == f
    assert field == QNumeric(3)


def test_json_symbolic_markers():
    assert vector_to_json(SPH) == {"symbolic": "sph"}
    assert vector_to_json(PHI_W) == {"symbolic": "phi_w"}
    vec, field = vector_from_json({"symbolic": "sph"})
    assert vec is SPH and field == QSymbolic()
    vec, _ = vector_from_json({"symbolic": "phi_w"})
    assert vec is PHI_W


def test_json_class_labels():
    doc = vector_to_json(f0_table(QNumeric(3), 3, 1))
    labels = [row["class"] for row in doc["values"]]
    assert labels == ["[0:1]", "[1:1]", "[2:1]", "[1:0]"]
    polys = {row["class"]: row["poly"] for row in doc["values"]}
    assert polys["[0:1]"] == []
    assert polys["[1:1]"] == [{"c": "1", "e": [0, 0]}]


def test_json_parse_errors():
    good = vector_to_json(random_table(3, 1, seed=5))
    with pytest.raises(ParseError):
        vector_from_json([])
    with pytest.raises(ParseError):
        vector_from_json({"symbolic": "nope"})
    with pytest.raises(ParseError):
        vector_from_json({"prime": 4, "level": 1, "values": good["values"]})
    with pytest.raises(ParseError):
        vector_from_json({"prime": 3, "level": 0, "values": good["values"]})
    bad = {**good, "values": good["values"][:1] * len(good["values"])}
    with pytest.raises(ParseError):
        vector_from_json(bad)
    # labels are ASCII digits only: no sign, padding, separator or other numerals
    for label in ("[x:1]", "[+1:1]", "[ 2:1]", "[1_0:1]", "[\uff11:1]", "[-0:1]", "[1:0 ]"):
        mangled = {**good, "values": [{**good["values"][0], "class": label}] + good["values"][1:]}
        with pytest.raises(ParseError, match="bad class label"):
            vector_from_json(mangled)
    with pytest.raises(ClassCoverageError):
        vector_from_json({**good, "values": good["values"][:-1]})
    with pytest.raises(ParseError):
        vector_from_json({"prime": 3, "level": 1})


def _relabelled(doc, old, new):
    return {**doc, "values": [{**r, "class": new if r["class"] == old else r["class"]}
                              for r in doc["values"]]}


def test_json_noncanonical_labels_read_as_before():
    # Canonical labels are looked up in a per-(p, n) table; any other
    # spelling takes the regex route and names the same class.
    want = P1Class(3, 2, False, 1)
    for label in ("[1:1]", "[01:1]", "[0001:1]"):
        assert family._parse_class(label, 3, 2) == want
    assert family._parse_class("[1:03]", 3, 2) == P1Class(3, 2, True, 3)
    good = vector_to_json(random_table(3, 2, seed=4))
    for label in ("[01:1]", "[0001:1]"):
        vec, _ = vector_from_json(_relabelled(good, "[1:1]", label))
        assert vec == vector_from_json(good)[0]
    # one class spelled both ways is still a duplicate
    twice = {**good, "values": good["values"] + [{**good["values"][1], "class": "[01:1]"}]}
    with pytest.raises(ParseError, match=r"^duplicate class '\[01:1\]'$"):
        vector_from_json(twice)


def test_json_label_and_coverage_messages():
    good = vector_to_json(random_table(3, 1, seed=5))
    messages = {
        "[x:1]": "bad class label '[x:1]'",
        5: "bad class label 5",
        None: "bad class label None",
        ("[1:1]",): "bad class label ['[1:1]']",
        "[9:1]": "representative 9 out of range mod 3",
        "[1:2]": "[1 : v] requires v divisible by p",
        "[2:3]": "bad class label '[2:3]'",
        "[0:0]": "bad class label '[0:0]'",
        "[01:0]": "duplicate class '[1:0]'",
        "[1:01]": "duplicate class '[1:1]'",
        "[3:1]": "representative 3 out of range mod 3",
    }
    for label, message in messages.items():
        label = list(label) if isinstance(label, tuple) else label
        rows = [{**good["values"][0], "class": label}] + good["values"][1:]
        with pytest.raises(ParseError) as exc:
            vector_from_json({**good, "values": rows})
        assert str(exc.value) == message
    with pytest.raises(ClassCoverageError) as exc:
        vector_from_json({**good, "values": good["values"][:-1]})
    assert str(exc.value) == (
        "table for p=3, n=1: 3 rows leave classes missing "
        "(P1(Z/p^n) has p^n + p^(n-1) classes)"
    )
    F = QNumeric(3)
    values = {c: one(F) for c in p1_enumerate(3, 1)[1:] + p1_enumerate(3, 2)[:1]}
    with pytest.raises(ClassCoverageError) as exc:
        TableVector(3, 1, values)
    assert str(exc.value) == "table for p=3, n=1: missing ['[0:1]'], extra ['[0:1]']"


@pytest.mark.parametrize("p,n", [(2305843009213693951, 1), (2, 40)])
def test_oversized_tables_build_no_class_table(monkeypatch, p, n):
    def refuse(*args):
        raise AssertionError("class table built")

    monkeypatch.setattr(family, "p1_enumerate", refuse)
    before = family._class_labels.cache_info()
    with pytest.raises(ClassCoverageError, match="0 rows leave classes missing"):
        vector_from_json({"prime": p, "level": n, "values": []})
    assert family._class_labels.cache_info() == before


def test_class_tables_are_bounded():
    for cached in (family._class_labels, family._class_set):
        assert cached.cache_info().maxsize == family._CLASS_CACHE <= 16
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            vector_from_json(vector_to_json(f0_table(QNumeric(p), p, n)))
    for cached in (family._class_labels, family._class_set):
        assert cached.cache_info().currsize <= family._CLASS_CACHE
    labels = family._class_labels(3, 2)
    assert labels == {str(c): c for c in p1_enumerate(3, 2)}
    assert family._class_set(3, 2) == frozenset(p1_enumerate(3, 2))


def test_json_bad_poly_scalar():
    good = vector_to_json(random_table(3, 1, seed=5))
    rows = [dict(r) for r in good["values"]]
    rows[0] = {"class": rows[0]["class"], "poly": [{"c": "q", "e": [0, 0]}]}
    with pytest.raises(ParseError):
        vector_from_json({**good, "values": rows})


def test_translate_not_serializable():
    with pytest.raises(TypeError):
        vector_to_json(Translate(weyl(3), SPH))
