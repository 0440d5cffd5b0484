import random
from fractions import Fraction

import pytest

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
from toricperiod.scalars import FieldMismatch, NotInvertible, NotRational, QNumeric, QSymbolic

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
            assert a + 0 == a
            assert a * 1 == a


def test_field_mismatch_guard():
    with pytest.raises(FieldMismatch):
        one(S) + one(N3)
    with pytest.raises(FieldMismatch):
        y1(S) * y1(QNumeric(5))


def test_scale_and_pow():
    f = one(N3) + y1(N3)
    assert f.scale(Fraction(1, 2)) + f.scale(Fraction(1, 2)) == f
    assert f**3 == f * f * f
    assert (y1(N3) * y2(N3, -2)) ** -2 == y1(N3, -2) * y2(N3, 4)


def test_units():
    u = mono(S, Fraction(-2), 3, -1)
    assert u.is_unit()
    assert u * u.inverse() == 1
    assert not (one(S) + y1(S)).is_unit()
    with pytest.raises(NotInvertible):
        (one(S) + y1(S)).inverse()
    with pytest.raises(NotInvertible):
        zero(S).inverse()


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


def test_divide_by_unit_is_always_exact():
    rng = random.Random(13)
    for _ in range(50):
        a = rand_laurent(rng, N3)
        u = mono(N3, Fraction(3, 2), rng.randint(-2, 2), rng.randint(-2, 2))
        assert a.divide_exact(u) == a * u.inverse()


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
