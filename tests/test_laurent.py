import ast
import operator
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricperiod import laurent
from toricperiod.laurent import (
    LaurentPoly,
    NotDivisible,
    TailViolation,
    ZPoly,
    mono,
    one,
    qpow,
    y1,
    y2,
    zero,
)
from toricperiod.scalars import (
    FieldMismatch,
    NotInvertible,
    NotRational,
    QNumeric,
    QSymbolic,
    RationalFunction,
)

S = QSymbolic()
N3 = QNumeric(3)


def cs_factor(field):
    # 1 - q^{-1} Y1 Y2^{-1}
    return one(field) - qpow(field, -1) * y1(field) * y2(field, -1)


def h_poly(field, k):
    """Complete homogeneous polynomial of degree k in Y1, Y2 (0 for k < 0)."""
    if k < 0:
        return zero(field)
    return LaurentPoly(field, {(i, k - i): field.one for i in range(k + 1)})


def rand_laurent(rng, field, nterms=4, span=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        e = (rng.randint(-span, span), rng.randint(-span, span))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms[e] = terms.get(e, 0) + c
    return LaurentPoly(field, {e: field.from_fraction(c) for e, c in terms.items()})


# -- ring structure ---------------------------------------------------------


def test_zero_coefficients_dropped():
    a = LaurentPoly(N3, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert list(a.terms) == [(0, 1)]
    assert (a - a).is_zero


@pytest.mark.parametrize("e", [(1.5, 0), ("2", "0"), (True, 0)])
def test_constructor_refuses_non_integer_exponents(e):
    # int() would store (1, 0), (2, 0) and (1, 0); a bool is not an int here.
    with pytest.raises(ValueError):
        LaurentPoly(N3, {e: 1})


def test_ring_axioms():
    rng = random.Random(101)
    for field in (S, N3):
        for _ in range(300):
            a, b, c = (rand_laurent(rng, field) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero(field) == a
            assert a * one(field) == a
            e1, e2 = rng.randint(-3, 3), rng.randint(-3, 3)
            assert a.shift(e1, e2) == a * mono(field, field.one, e1, e2)


def test_only_of_skips_the_checked_constructor():
    # laurent._of is the one place a LaurentPoly is built without coercion;
    # anything else in the package goes through LaurentPoly(field, terms).
    src = Path(laurent.__file__).resolve().parent
    unchecked = re.compile(r"object\.__new__\(\s*LaurentPoly\b|LaurentPoly\.__new__")
    tree = ast.parse((src / "laurent.py").read_text())
    of = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_of")
    inside, outside = 0, []
    for path in sorted(src.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if unchecked.search(line):
                if path.name == "laurent.py" and of.lineno <= lineno <= of.end_lineno:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{lineno}")
    assert inside == 1 and outside == []


@pytest.mark.parametrize("field", [N3, S], ids=["q3", "symbolic"])
def test_hash_is_taken_once_and_agrees_across_constructors(field, monkeypatch):
    q = field.q_power
    items = [((1, -2), q(-1)), ((0, 0), field.one), ((3, 1), -field.one - q(2))]
    checked = LaurentPoly(field, dict(items))
    unchecked = laurent._of(field, dict(reversed(items)))
    assert list(checked.terms) != list(unchecked.terms)
    built = []

    def counting(iterable):
        built.append(1)
        return frozenset(iterable)

    monkeypatch.setattr(laurent, "frozenset", counting, raising=False)
    assert checked == unchecked and hash(checked) == hash(unchecked)
    assert len(built) == 2
    assert hash(checked) == hash(unchecked) == hash((field, frozenset(items)))
    assert len(built) == 2


# -- the product against a schoolbook reference ---------------------------------


def _q_terms(field, c):
    """A scalar as plain data, {q-exponent: Fraction}: a Fraction c is {0: c}."""
    if not field.is_symbolic:
        return {0: c}
    assert c.den == (1,)
    return dict(c.num)


def schoolbook(field, a, b):
    """a * b as {(e1, e2): {q-exponent: Fraction}} with zeros dropped.

    Every term pair is multiplied out on plain dicts, so no code of laurent
    or of RationalFunction arithmetic takes part.
    """
    out = {}
    for (a1, a2), c in a.terms.items():
        for (b1, b2), d in b.terms.items():
            acc = out.setdefault((a1 + b1, a2 + b2), {})
            for i, x in _q_terms(field, c).items():
                for j, y in _q_terms(field, d).items():
                    acc[i + j] = acc.get(i + j, 0) + x * y
    out = {e: {k: v for k, v in acc.items() if v} for e, acc in out.items()}
    return {e: acc for e, acc in out.items() if acc}


def _reference_coefficient(rng, field):
    """+-1, +-q^m or a general scalar, in equal shares."""
    sign = Fraction(rng.choice((1, -1)))
    kind = rng.randrange(3)
    if kind == 0:
        return field.from_fraction(sign)
    if kind == 1:
        return field.from_fraction(sign) * field.q_power(rng.choice((-2, -1, 1, 2)))
    general = field.from_fraction(sign * Fraction(rng.randint(2, 9), rng.randint(1, 4)))
    return general + field.q_power(rng.randint(-2, 2)) if field.is_symbolic else general


def _reference_operand(rng, field, size, span):
    terms = {}
    for _ in range(size):
        e = (rng.randint(-span, span), rng.randint(-span, span))
        terms[e] = _reference_coefficient(rng, field)
    return LaurentPoly(field, terms)


def _telescoping(field, c, n):
    """(1 - c*Y1*Y2^-1, sum of c^k Y1^k Y2^-k for k < n): their product is
    1 - c^n Y1^n Y2^-n, every other key cancels."""
    terms, power = {}, field.one
    for k in range(n):
        terms[(k, -k)] = power
        power = power * c
    return one(field) - mono(field, c, 1, -1), LaurentPoly(field, terms)


def test_product_matches_schoolbook_reference():
    rng = random.Random(131)
    for field in (S, N3):
        pairs = []
        for _ in range(60):
            short = _reference_operand(rng, field, rng.randint(1, 3), 4)
            long = _reference_operand(rng, field, rng.randint(15, 40), 4)
            pairs.append((short, long))
        for c in (field.one, -field.one, field.q_power(-1), -field.q_power(1),
                  field.from_fraction(Fraction(-2, 3))):
            pairs.append(_telescoping(field, c, rng.randint(2, 12)))
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                product = x * y
                assert all(c != field.zero for c in product.terms.values())
                assert {e: _q_terms(field, c) for e, c in product.terms.items()} == schoolbook(
                    field, x, y
                )
        g, s = _telescoping(field, field.q_power(-1), 5)
        assert g * s == one(field) - mono(field, field.q_power(-5), 5, -5)


def test_field_mismatch_guard():
    with pytest.raises(FieldMismatch):
        one(S) + one(N3)
    with pytest.raises(FieldMismatch):
        y1(S) * y1(QNumeric(5))


def test_operands_over_another_field_are_field_mismatches():
    pairs = ((one(S) - y1(S), one(N3) - y1(N3)), (y1(N3), y1(QNumeric(5))))
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            for op in (operator.add, operator.sub, operator.mul, LaurentPoly.divide_exact):
                with pytest.raises(FieldMismatch):
                    op(x, y)


@pytest.mark.parametrize("field", [N3, S], ids=["q3", "symbolic"])
@pytest.mark.parametrize(
    "other", [3, Fraction(1, 2), RationalFunction((1, 1))], ids=["int", "fraction", "rational-function"]
)
def test_scalar_operands_are_type_errors(field, other):
    # A scalar multiplies through scale; +, -, * and divide_exact take a
    # LaurentPoly only, and refuse anything else as a plain TypeError.
    a = one(field) - y1(field)
    calls = [lambda op=op: op(a, other) for op in (operator.add, operator.sub, operator.mul)]
    calls += [lambda op=op: op(other, a) for op in (operator.add, operator.sub, operator.mul)]
    calls.append(lambda: a.divide_exact(other))
    for call in calls:
        with pytest.raises(TypeError) as err:
            call()
        assert not isinstance(err.value, FieldMismatch)


def test_equality_across_fields_is_false():
    for a, b in ((one(N3), one(QNumeric(5))), (one(N3), one(S)), (y1(S) - one(S), y1(N3) - one(N3))):
        for x, y in ((a, b), (b, a)):
            assert (x == y) is False and x != y
            assert x not in [y]
    assert (zero(N3) == 0) is False and zero(N3) != 0
    assert (one(S) == 1) is False and (one(N3) == Fraction(1)) is False


@pytest.mark.parametrize("field", [N3, S], ids=["q3", "symbolic"])
def test_bool_coefficients_are_refused(field):
    # int(True) would store 1 and int(False) drop the term; a bool is no scalar.
    for b in (True, False):
        with pytest.raises(FieldMismatch):
            LaurentPoly(field, {(0, 0): b})
        with pytest.raises(FieldMismatch):
            mono(field, b, 1, 0)
        with pytest.raises(FieldMismatch):
            y1(field).scale(b)


def test_one_constructor_vocabulary_and_one_operand_type():
    # Values are built by LaurentPoly(field, terms) and the module helpers
    # (zero, one, y1, y2, qpow, mono); scalars enter through scale only.
    for name in ("zero", "one", "monomial", "constant", "_coerce", "__radd__", "__rsub__", "__rmul__"):
        assert not hasattr(LaurentPoly, name), name
    with pytest.raises(TypeError):
        LaurentPoly(N3)
    root = Path(__file__).resolve().parents[1]
    classmethod_call = re.compile(r"LaurentPoly\s*\.\s*(?:zero|one|monomial|constant)\b")
    named = []
    for folder in ("src", "tests", "demos"):
        for path in sorted((root / folder).rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if classmethod_call.search(line):
                    named.append(f"{path.relative_to(root)}:{lineno}")
    assert named == []


def test_scale():
    f = one(N3) + y1(N3)
    assert f.scale(Fraction(1, 2)) + f.scale(Fraction(1, 2)) == f


@pytest.mark.parametrize("field", [N3, S], ids=["q3", "symbolic"])
def test_scale_by_zero_one_minus_one_and_general(field):
    f = mono(field, 3, 2, -1) - qpow(field, -1) * y1(field) + mono(field, Fraction(1, 2), 0, 4)
    assert f.scale(0).terms == {} and f.scale(field.zero) == zero(field)
    assert f.scale(1).terms == f.terms and f.scale(field.one).terms == f.terms
    assert f.scale(-1).terms == (-f).terms == {e: -c for e, c in f.terms.items()}
    c = field.q_power(-1) * Fraction(2, 5) + field.one
    assert f.scale(c).terms == {e: v * c for e, v in f.terms.items()}
    assert f.scale(c) == f * mono(field, c, 0, 0)


# -- exact division ------------------------------------------------------------


def test_divide_exact_roundtrip():
    rng = random.Random(7)
    for field in (S, N3):
        done = 0
        while done < 120:
            a = rand_laurent(rng, field)
            b = rand_laurent(rng, field)
            if b.is_zero:
                continue
            assert (a * b).divide_exact(b) == a
            done += 1


def test_divide_exact_failures():
    g1 = one(S) - y1(S)
    g2 = cs_factor(S)
    with pytest.raises(NotDivisible):
        g1.divide_exact(g2)
    with pytest.raises(NotDivisible):
        (one(N3) + y1(N3)).divide_exact(y1(N3) + y2(N3))
    with pytest.raises(NotInvertible):
        g1.divide_exact(zero(S))
    assert zero(S).divide_exact(g1).is_zero


@pytest.mark.parametrize("field", [N3, S], ids=["q3", "symbolic"])
def test_refuted_root_divisor_never_enters_the_sweep(field, monkeypatch):
    # Each divisor is a unit times Y_v - r*Y_w^d, and each dividend misses
    # its root, so the root test raises before any grevlex sweep.
    def sweep(e):
        raise AssertionError("division sweep entered")

    monkeypatch.setattr(laurent, "_grevlex2", sweep)
    h = y1(field, 5) * y2(field, -3) + mono(field, Fraction(2, 3), 0, 1)
    for g in (
        one(field) - y1(field),
        cs_factor(field),
        qpow(field, 2) * y2(field, 4) - mono(field, Fraction(-5), -1, 7),
    ):
        with pytest.raises(NotDivisible):
            h.divide_exact(g)
        with pytest.raises(NotDivisible):
            (h * g + one(field)).divide_exact(g)


def test_divide_by_unit_is_always_exact():
    rng = random.Random(13)
    for _ in range(50):
        a = rand_laurent(rng, N3)
        e1, e2 = rng.randint(-2, 2), rng.randint(-2, 2)
        u = mono(N3, Fraction(3, 2), e1, e2)
        assert a.divide_exact(u) == a * mono(N3, Fraction(2, 3), -e1, -e2)


def test_generator_difference_identity():
    # (1 - Y1) - (1 - q^{-1} Y1 Y2^{-1}) = q^{-1} Y1 Y2^{-1} (1 - q Y2)
    for field in (S, N3, QNumeric(5)):
        lhs = (one(field) - y1(field)) - cs_factor(field)
        rhs = qpow(field, -1) * y1(field) * y2(field, -1) * (one(field) - qpow(field, 1) * y2(field))
        assert lhs == rhs
        assert lhs.divide_exact(one(field) - qpow(field, 1) * y2(field)) == qpow(field, -1) * y1(field) * y2(field, -1)


def test_common_zero_of_generators():
    # Both presentations' generators vanish at (Y1, Y2) = (1, q^{-1}).
    for field in (S, QNumeric(3)):
        v1, v2 = field.one, field.q_power(-1)
        assert (one(field) - y1(field)).evaluate_at(v1, v2) == field.zero
        assert cs_factor(field).evaluate_at(v1, v2) == field.zero
        assert (one(field) - qpow(field, 1) * y2(field)).evaluate_at(v1, v2) == field.zero


_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
_nonzero_fractions = _fractions.filter(bool)
_rfs = st.builds(
    lambda num, den, m: RationalFunction(num, den) * RationalFunction.q_power(m),
    st.lists(_fractions, min_size=1, max_size=3).filter(any),
    st.lists(_fractions, min_size=1, max_size=2).filter(lambda d: d[0] != 0),
    st.integers(-3, 3),
)
_exponents = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def _point_and_poly(draw):
    field = draw(st.sampled_from([N3, S]))
    values = _nonzero_fractions if field is N3 else st.one_of(_nonzero_fractions, _rfs)
    scalars = _fractions if field is N3 else st.one_of(_fractions, _rfs)
    terms = draw(st.dictionaries(_exponents, scalars, max_size=6))
    return LaurentPoly(field, terms), draw(values), draw(values)


@settings(max_examples=80, deadline=None)
@given(_point_and_poly())
def test_evaluate_at_matches_naive_sum(case):
    f, v1, v2 = case
    naive = f.field.zero
    for (e1, e2), c in f.terms.items():
        naive = naive + c * v1**e1 * v2**e2
    assert f.evaluate_at(v1, v2) == naive


class _CountingFraction(Fraction):
    powers = 0

    def __pow__(self, e):
        _CountingFraction.powers += 1
        return Fraction(self) ** e


def test_evaluate_at_takes_each_power_once():
    # 12 terms over 4 distinct Y1 exponents and 3 distinct Y2 exponents.
    f = LaurentPoly(
        N3, {(a, b): Fraction(a + 7, b + 5) for a in (-2, 0, 1, 3) for b in (-1, 0, 2)}
    )
    _CountingFraction.powers = 0
    v1, v2 = _CountingFraction(2, 3), _CountingFraction(-5)
    got = f.evaluate_at(v1, v2)
    assert _CountingFraction.powers == 4 + 3
    assert got == sum(c * Fraction(2, 3) ** a * Fraction(-5) ** b for (a, b), c in f.terms.items())


# -- coefficient maps ------------------------------------------------------------


def test_embed_and_project():
    # rational coefficients move up into Q(q) and back down unchanged; a
    # coefficient that genuinely depends on q has no rational value
    f = cs_factor(N3)
    up = f.embed(S)
    assert up.field == S
    assert up.embed(N3) == f
    # over Q(q) the same generator has the coefficient q^{-1}, not 1/3
    assert up != cs_factor(S)
    with pytest.raises(NotRational):
        cs_factor(S).embed(N3)


# -- display ----------------------------------------------------------------------


def test_x_display_of_generators():
    assert (one(S) - y1(S)).to_x_display() == "1 - q^(-1/2)·X1"
    assert cs_factor(S).to_x_display() == "1 - q^(-1)·X1·X2^(-1)"
    assert (one(S) - qpow(S, 1) * y2(S)).to_x_display() == "1 - q^(1/2)·X2"


def test_display_misc():
    assert zero(S).to_x_display() == "0"
    assert one(N3).to_x_display() == "1"
    f = mono(N3, Fraction(-3, 2), 2, 0)
    assert f.to_y_display() == "-3/2·Y1^2"
    assert f.to_x_display() == "-3/2·q^(-1)·X1^2"
    g = one(S) + qpow(S, 2) * y1(S) * y2(S)
    assert g.to_x_display() == "1 + q·X1·X2"
    assert (one(S) + y1(S) + y1(S, 2)).to_y_display() == "1 + Y1 + Y1^2"


def test_display_q_powers():
    f = LaurentPoly(S, {
        (0, 0): S.q_power(3) * Fraction(-2, 5),
        (3, 0): S.q_power(-2),
        (-1, -2): S.q_power(1),
        (1, 1): S.q_power(1),
        (2, -1): RationalFunction((1, 1), (1, 0, 1)),
        (-2, -2): RationalFunction((0, Fraction(-1, 2))),
    })
    assert f.to_x_display() == (
        "-1/2·q^3·X1^(-2)·X2^(-2) + q^(5/2)·X1^(-1)·X2^(-2) - 2/5·q^3"
        " + ((1 + q)/(1 + q^2))·q^(-1/2)·X1^2·X2^(-1) + X1·X2 + q^(-7/2)·X1^3"
    )
    assert f.to_y_display() == (
        "-1/2·q·Y1^(-2)·Y2^(-2) + q·Y1^(-1)·Y2^(-2) - 2/5·q^3"
        " + ((1 + q)/(1 + q^2))·Y1^2·Y2^(-1) + q·Y1·Y2 + q^(-2)·Y1^3"
    )
    g = LaurentPoly(N3, {(-3, 0): -1, (0, 4): Fraction(7, 2), (1, 2): -10, (2, 0): 1})
    assert g.to_x_display() == (
        "-q^(3/2)·X1^(-3) + q^(-1)·X1^2 - 10·q^(-3/2)·X1·X2^2 + 7/2·q^(-2)·X2^4"
    )
    assert g.to_y_display() == "-Y1^(-3) + Y1^2 - 10·Y1·Y2^2 + 7/2·Y2^4"


def test_symbolic_non_monomial_coefficient_display():
    f = LaurentPoly(S, {(0, 0): S.one + S.q_power(1)})
    assert f.to_x_display() == "(1 + q)"


# -- serialization ------------------------------------------------------------------


def test_json_roundtrip_numeric():
    rng = random.Random(3)
    for _ in range(50):
        a = rand_laurent(rng, N3)
        items = a.to_json_terms()
        assert a == LaurentPoly.from_json_terms(N3, items)
    items = (one(N3) - qpow(N3, -1) * y1(N3)).to_json_terms()
    assert items == [{"c": "1", "e": [0, 0]}, {"c": "-1/3", "e": [1, 0]}]


def test_json_duplicate_monomials_accumulate():
    items = [{"c": "1/2", "e": [1, 0]}, {"c": "1/2", "e": [1, 0]}]
    assert LaurentPoly.from_json_terms(N3, items) == y1(N3)


@pytest.mark.parametrize("field", [N3, S], ids=["numeric", "symbolic"])
def test_json_terms_drop_zeros_and_sum_duplicates(field):
    items = [
        {"c": "0", "e": [5, 5]},
        {"c": "2/3", "e": [1, -1]},
        {"c": "-2/3", "e": [1, -1]},
        {"c": "1/2", "e": [0, 2]},
        {"c": "-7", "e": [-1, 0]},
        {"c": "3/2", "e": [0, 2]},
    ]
    got = LaurentPoly.from_json_terms(field, items)
    assert got.terms == {(0, 2): field.from_fraction(2), (-1, 0): field.from_fraction(-7)}
    kind = RationalFunction if field.is_symbolic else Fraction
    assert all(type(c) is kind for c in got.terms.values())
    checked = {}
    for item in items:
        key = tuple(item["e"])
        checked[key] = checked.get(key, 0) + Fraction(item["c"])
    assert got == LaurentPoly(field, checked)
    assert LaurentPoly.from_json_terms(field, items[:3]).is_zero


# -- zeta windows --------------------------------------------------------------------


def test_zpoly_window_validation():
    with pytest.raises(ValueError):
        ZPoly(S, 2, 1, {})
    with pytest.raises(ValueError):
        ZPoly(S, 0, 3, {5: one(S)})
    w = ZPoly(S, -2, 4, {0: one(S)})
    assert w.coefficient(3).is_zero
    with pytest.raises(ValueError):
        w.coefficient(5)


def test_clear_l_factor_on_shintani_series():
    # sum_k h_k Z^k is exactly 1/((1-Y1 Z)(1-Y2 Z)): clearing gives 1.
    for field in (S, N3):
        w = ZPoly.from_function(field, -2, 8, lambda k: h_poly(field, k))
        cleared = w.clear_l_factor(0)
        assert cleared == ZPoly(field, -2, 0, {0: one(field)})
        assert cleared.eval_z1() == one(field)


def test_clear_l_factor_geometric_y2():
    # sum_{k>=0} Y2^k Z^k clears to 1 - Y1 Z.
    w = ZPoly.from_function(S, -3, 5, lambda k: y2(S, k) if k >= 0 else zero(S))
    cleared = w.clear_l_factor(3)
    expected = ZPoly(S, -3, 3, {0: one(S), 1: -y1(S)})
    assert cleared == expected
    assert cleared.eval_z1() == one(S) - y1(S)


def test_clear_l_factor_tail_violation():
    w = ZPoly(S, 0, 8, {5: one(S)})
    with pytest.raises(TailViolation) as exc:
        w.clear_l_factor(1)
    assert 5 in exc.value.indices


def test_clear_l_factor_requires_guard_zone():
    w = ZPoly(S, 0, 4, {0: one(S)})
    with pytest.raises(ValueError):
        w.clear_l_factor(3)


def test_eval_z1_sums_all_coefficients():
    w = ZPoly(S, -1, 2, {-1: y1(S), 0: one(S), 2: y2(S)})
    assert w.eval_z1() == y1(S) + one(S) + y2(S)
