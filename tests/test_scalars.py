import random
from fractions import Fraction

import pytest
from groebner_oracle import padd, psub
from hypothesis import given
from hypothesis import strategies as st

from toricperiod.scalars import (
    Cyclotomic,
    FieldMismatch,
    NotInvertible,
    NotRational,
    QNumeric,
    QSymbolic,
    RationalFunction,
    parse_rational,
    pdiv_exact,
    pdivmod,
    pgcd,
    pmul,
    pstrip,
)

RF = RationalFunction


def rand_poly(rng, max_deg=3):
    raw = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, max_deg + 1)))
    return pstrip(raw)


def rand_rf(rng):
    num = rand_poly(rng)
    den = ()
    while not any(c != 0 for c in den):
        den = rand_poly(rng, 2) + (Fraction(1),)
    return RF(num, den)


def rand_cyclo(rng, p, m):
    d = (p - 1) * p ** (m - 1)
    return Cyclotomic(p, m, tuple(Fraction(rng.randint(-3, 3)) for _ in range(d)))


# -- polynomial helpers -------------------------------------------------------


def test_pdivmod_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        a = rand_poly(rng, 5)
        b = ()
        while not b:
            b = rand_poly(rng, 3)
        q, r = pdivmod(a, b)
        assert pstrip_eq(padd(pmul(q, b), r), a)
        assert len(r) < len(b)


def pstrip_eq(a, b):
    return tuple(a) == tuple(b)


def test_pgcd_divides_both():
    rng = random.Random(5)
    for _ in range(100):
        g = rand_poly(rng, 2)
        a = pmul(g, rand_poly(rng, 2))
        b = pmul(g, rand_poly(rng, 2))
        d = pgcd(a, b)
        if a or b:
            assert not pdivmod(a, d)[1] if a else True
            assert not pdivmod(b, d)[1] if b else True


# -- rational functions -------------------------------------------------------


def test_rf_normalization_invariants():
    f = RF((2, 4), (0, 2))  # (2 + 4q) / 2q
    assert f.den[-1] == 1  # monic denominator
    g = RF((0, 1, 1), (0, 1))  # q(1+q)/q = 1 + q
    assert g == RF((1, 1))


def test_rf_zero_and_constants():
    assert not RF(())
    assert RF((0, 0)) == 0
    assert RF((5,)).as_fraction() == 5
    # a constant hashes as its Fraction, as == says it should
    assert hash(RF((5,))) == hash(5) == hash(Fraction(5))
    assert {Fraction(5): 1}.get(RF((5,))) == 1
    assert hash(RF(())) == hash(0)
    with pytest.raises(NotRational):
        RF((0, 1)).as_fraction()
    with pytest.raises(NotInvertible):
        RF((1,), ())


def test_rf_q_power():
    q = RF.q_power(1)
    assert q * q == RF.q_power(2)
    assert RF.q_power(-2) * RF.q_power(2) == 1
    assert RF.q_power(-1).evaluate(3) == Fraction(1, 3)


def test_rf_matches_fraction_evaluation():
    rng = random.Random(23)
    q0 = Fraction(7)
    for _ in range(300):
        a, b = rand_rf(rng), rand_rf(rng)
        try:
            av, bv = a.evaluate(q0), b.evaluate(q0)
        except NotInvertible:
            continue
        assert (a + b).evaluate(q0) == av + bv
        assert (a * b).evaluate(q0) == av * bv
        assert (a - b).evaluate(q0) == av - bv
        if bv != 0:
            assert (a / b).evaluate(q0) == av / bv


def test_rf_field_axioms():
    rng = random.Random(41)
    for _ in range(1000):
        a, b, c = rand_rf(rng), rand_rf(rng), rand_rf(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a and a * 1 == a
        if a:
            assert a * (1 / a) == 1


def test_rf_pow():
    f = RF((1, 1))  # 1 + q
    assert f**3 == f * f * f
    assert f**0 == 1
    assert f**-2 == 1 / (f * f)


def test_rf_is_q_monomial():
    assert RF.q_power(-3).is_q_monomial() == (1, -3)
    assert RF((0, 0, -2)).is_q_monomial() == (-2, 2)
    assert RF((1, 1)).is_q_monomial() is None
    assert RF(()).is_q_monomial() is None


small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
nonzero_fractions = small_fractions.filter(lambda c: c != 0)


def _dense_view(f):
    """(q^k num, q^k den) as coefficient tuples, for the least k >= 0 that
    clears the negative exponents of f.num: the reduced, monic-denominator
    form of f as a quotient of polynomials."""
    k = max(0, -min(f.num, default=0))
    num = [Fraction(0)] * (max(f.num, default=-1) + k + 1)
    for e, c in f.num.items():
        num[e + k] = c
    return tuple(num), (Fraction(0),) * k + f.den


def _euclid_form(num, den):
    """num/den reduced through pgcd with a monic denominator: the general route."""
    num, den = pstrip(num), pstrip(den)
    if not num:
        return (), (Fraction(1),)
    g = pgcd(num, den)
    num, den = pdiv_exact(num, g), pdiv_exact(den, g)
    lc = den[-1]
    return tuple(x / lc for x in num), tuple(x / lc for x in den)


def _assert_canonical(f):
    assert all(type(x) is Fraction and x != 0 for x in f.num.values())
    assert all(type(x) is Fraction for x in f.den)
    assert f.den[0] != 0 and f.den[-1] == 1


@given(
    low_zeros=st.integers(0, 4),
    coeffs=st.lists(small_fractions, max_size=5),
    k=st.integers(0, 5),
    c=nonzero_fractions,
)
def test_rf_monomial_denominator_matches_euclid(low_zeros, coeffs, k, c):
    # den = c * q^k is a scale and a shift of the numerator's exponents; it
    # must land on the same reduced, monic-denominator form that the gcd
    # route computes.
    num = (Fraction(0),) * low_zeros + tuple(coeffs)
    den = (Fraction(0),) * k + (c,)
    f = RF(num, den)
    assert _dense_view(f) == _euclid_form(num, den)
    assert f.den == (1,)
    _assert_canonical(f)


q_laurent = st.builds(
    lambda coeffs, k: RF(coeffs, (0,) * k + (1,)),
    st.lists(small_fractions, max_size=6),
    st.integers(0, 5),
)
# c * q^m built from its coefficient tuples, with c = 1 and c = -1 drawn often.
q_monomials = st.builds(
    lambda c, m: RF((0,) * m + (c,)) if m >= 0 else RF((c,), (0,) * -m + (1,)),
    st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]), nonzero_fractions),
    st.integers(-4, 4),
)


@given(a=q_laurent, b=st.one_of(q_laurent, q_monomials))
def test_rf_q_power_denominators_match_euclid(a, b):
    # Laurent operands (den == 1) merge, convolve or shift their term dicts,
    # and a product with c * q^m on either side is a shift (and a scale
    # unless c = 1); each result must be the form the cross-multiplied gcd
    # route computes.
    an, ad = _dense_view(a)
    bn, bd = _dense_view(b)
    cases = [
        (a + b, padd(pmul(an, bd), pmul(bn, ad)), pmul(ad, bd)),
        (a - b, psub(pmul(an, bd), pmul(bn, ad)), pmul(ad, bd)),
        (a * b, pmul(an, bn), pmul(ad, bd)),
        (b * a, pmul(bn, an), pmul(bd, ad)),
        (-a, tuple(-x for x in an), ad),
    ]
    assert all(got.den == (1,) for got, _, _ in cases)
    if b:
        cases.append((a / b, pmul(an, bd), pmul(ad, bn)))
    for got, num, den in cases:
        want = _euclid_form(num, den)
        assert _dense_view(got) == want
        assert hash(got) == hash(RF(*want))
        _assert_canonical(got)


general_rfs = st.builds(
    RF,
    st.lists(small_fractions, max_size=4),
    st.lists(small_fractions, min_size=1, max_size=4).filter(any),
)


@given(a=general_rfs, b=general_rfs)
def test_rf_general_denominators_match_euclid(a, b):
    # Any other denominator cross-multiplies into `_reduce` and its `pgcd`.
    an, ad = _dense_view(a)
    bn, bd = _dense_view(b)
    cases = [
        (a + b, padd(pmul(an, bd), pmul(bn, ad)), pmul(ad, bd)),
        (a * b, pmul(an, bn), pmul(ad, bd)),
    ]
    if b:
        cases.append((a / b, pmul(an, bd), pmul(ad, bn)))
    for got, num, den in cases:
        assert _dense_view(got) == _euclid_form(num, den)
        _assert_canonical(got)


def test_q_exponents_cost_nothing_to_store():
    # A power of q is an exponent, not a run of zero coefficients.
    x = RF.q_power(10**6) + RF.q_power(-10**6)
    assert len(x.num) == 2
    assert len((x * x).num) == 3  # q^(2N) + 2 + q^(-2N)
    assert len((x / RF.q_power(7)).num) == 2
    assert (x * x).num == {2 * 10**6: 1, 0: 2, -2 * 10**6: 1}


def test_rf_str():
    assert str(RF((1, -1))) == "1 - q"
    assert str(RF((0, 2))) == "2*q"
    assert str(RF((1,), (0, 1))) == "(1)/(q)"


# -- cyclotomics ---------------------------------------------------------------


def test_cyclotomic_root_relations():
    for p, m in [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]:
        order = p**m
        z = Cyclotomic.zeta_power(p, m, 1)
        acc = Cyclotomic.from_fraction(p, m, 1)
        for _ in range(order):
            acc = acc * z
        assert acc == 1  # zeta has exact order p^m
        # the defining relation: sum of the p-th roots built from zeta
        s = Cyclotomic.from_fraction(p, m, 0)
        for i in range(p):
            s = s + Cyclotomic.zeta_power(p, m, i * p ** (m - 1))
        assert s == 0


def test_cyclotomic_exponent_addition():
    rng = random.Random(3)
    for _ in range(200):
        p, m = rng.choice([(2, 2), (3, 2), (5, 1)])
        i, j = rng.randrange(p**m), rng.randrange(p**m)
        lhs = Cyclotomic.zeta_power(p, m, i) * Cyclotomic.zeta_power(p, m, j)
        assert lhs == Cyclotomic.zeta_power(p, m, i + j)


def test_cyclotomic_field_axioms():
    rng = random.Random(29)
    for _ in range(1000):
        p, m = rng.choice([(2, 3), (3, 2), (5, 1)])
        a, b, c = (rand_cyclo(rng, p, m) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_cyclotomic_rational_part():
    z = Cyclotomic.zeta_power(3, 1, 1)
    full = z + Cyclotomic.zeta_power(3, 1, 2)  # zeta + zeta^2 = -1
    assert full.rational_part() == -1
    with pytest.raises(NotRational):
        z.rational_part()
    assert Cyclotomic.from_fraction(5, 2, Fraction(7, 3)).rational_part() == Fraction(7, 3)


def test_cyclotomic_mismatch():
    with pytest.raises(FieldMismatch):
        Cyclotomic.zeta_power(3, 1, 1) + Cyclotomic.zeta_power(3, 2, 1)
    with pytest.raises(FieldMismatch):
        Cyclotomic.zeta_power(3, 1, 1) * Cyclotomic.zeta_power(5, 1, 1)


# -- descriptors ----------------------------------------------------------------


def test_descriptor_equality_and_coercion():
    assert QNumeric(3) == QNumeric(3)
    assert QNumeric(3) != QNumeric(5)
    assert QSymbolic() == QSymbolic()
    F = QNumeric(5)
    assert F.q_power(-1) == Fraction(1, 5)
    assert F.coerce(2) == Fraction(2)
    # a Fraction is passed through as is; an int becomes one
    x = Fraction(-22, 7)
    assert F.from_fraction(x) is x and F.coerce(x) is x
    for n in (0, 3):
        for got in (F.from_fraction(n), F.coerce(n)):
            assert type(got) is Fraction and got == n
    with pytest.raises(FieldMismatch):
        F.coerce(RationalFunction((1,)))
    S = QSymbolic()
    assert S.q_power(2) == RF((0, 0, 1))
    with pytest.raises(FieldMismatch):
        S.coerce(0.5)  # no floats, ever
    for descriptor in (F, S):
        for bad in (0.1, "1/3", True, False):
            with pytest.raises(FieldMismatch):
                descriptor.from_fraction(bad)
            with pytest.raises(FieldMismatch):
                descriptor.coerce(bad)


def test_descriptor_constants_are_shared_and_immutable():
    # zero and one are class-level constants: read without building a value,
    # the same object for every prime, and not settable on a descriptor.
    F3, F7, S = QNumeric(3), QNumeric(7), QSymbolic()
    assert F3.zero is F7.zero is QNumeric.zero and F3.one is F7.one is QNumeric.one
    assert type(F3.zero) is type(F3.one) is Fraction
    assert (F3.zero, F3.one) == (0, 1)
    assert S.zero is QSymbolic().zero and S.one is QSymbolic().one
    assert (S.zero, S.one) == (RF(()), RF((1,)))
    for field in (F3, S):
        for name in ("zero", "one", "q"):
            with pytest.raises(AttributeError):
                setattr(field, name, 2)
    assert (F3.zero, F3.one) == (0, 1) and F3.q == 3
    assert QNumeric(3) == F3 != F7 and hash(QNumeric(3)) == hash(F3)
    with pytest.raises(FieldMismatch):
        F3.coerce(S.one)


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == -7
    with pytest.raises(ValueError):
        parse_rational("3/0")
    with pytest.raises(ValueError):
        parse_rational("x")
    # only the integer forms 'a' and 'a/b': no decimals, exponents, digit
    # separators, signs on the denominator or padding
    for bad in ("1.5", "1e100000000", "1_0", "3/-2", "+3", " 3", "3/", "/2", "", "٣"):
        with pytest.raises(ValueError, match="malformed rational"):
            parse_rational(bad)


def test_parse_rational_matches_fraction():
    # The Fraction is built from the matched digits; it equals the one
    # Fraction(s) reads, and refusals keep their message.
    for text in ("0", "-0", "007/014", "-3/9", "4" * 4000, "-" + "7" * 4000 + "/21"):
        got = parse_rational(text)
        assert type(got) is Fraction
        assert got == Fraction(text)
    for bad in ("1/0", "1/-2", "+1", "1.5", "9" * 5000, "1/" + "3" * 5000):
        with pytest.raises(ValueError) as exc:
            parse_rational(bad)
        assert str(exc.value) == f"malformed rational {bad!r}"
