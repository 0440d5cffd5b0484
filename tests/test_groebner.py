import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricperiod.groebner import (
    Certificate,
    MembershipSolver,
    Poly3,
    TrackedPoly,
    _buchberger,
    _grevlex3,
    _tracked_nf,
    bivariate_gcd,
    laurent_membership,
)
from toricperiod.laurent import LaurentPoly, mono, one, qpow, y1, y2, zero
from toricperiod.scalars import QNumeric, QSymbolic, RationalFunction

S = QSymbolic()
N3 = QNumeric(3)


def gen_pair(field):
    """The two generators of the image ideal: 1 - Y1 and 1 - q^{-1} Y1 Y2^{-1}."""
    g1 = one(field) - y1(field)
    g2 = one(field) - qpow(field, -1) * y1(field) * y2(field, -1)
    return g1, g2


def rand_laurent(rng, field, nterms=3, span=2):
    out = zero(field)
    for _ in range(rng.randint(1, nterms)):
        c = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
        out = out + mono(field, c, rng.randint(-span, span), rng.randint(-span, span))
    return out


# -- monomial order ------------------------------------------------------------


def test_grevlex_order():
    # total degree first, then the reverse-lex tiebreak with Y1 > Y2 > u
    assert _grevlex3((0, 0, 2)) > _grevlex3((1, 0, 0))
    assert _grevlex3((1, 0, 0)) > _grevlex3((0, 1, 0))
    assert _grevlex3((0, 1, 0)) > _grevlex3((0, 0, 1))
    assert _grevlex3((1, 1, 0)) > _grevlex3((1, 0, 1))
    assert max([(2, 0, 0), (1, 1, 0), (0, 0, 2)], key=_grevlex3) == (2, 0, 0)


# -- Buchberger ---------------------------------------------------------------------


def test_reduced_basis_of_three_points():
    # <Y1^2 - Y2, Y1^3 - Y1> cuts out (0,0), (1,1), (-1,1); its reduced basis
    # is the classic triple below.
    gens = [
        Poly3(S, {(2, 0, 0): 1, (0, 1, 0): -1}),
        Poly3(S, {(3, 0, 0): 1, (1, 0, 0): -1}),
    ]
    basis = _buchberger(gens)
    polys = [t.poly for t in basis]
    assert polys == [
        Poly3(S, {(0, 2, 0): 1, (0, 1, 0): -1}),
        Poly3(S, {(1, 1, 0): 1, (1, 0, 0): -1}),
        Poly3(S, {(2, 0, 0): 1, (0, 1, 0): -1}),
    ]


def test_tracking_invariant_on_basis():
    rng = random.Random(7)
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1))
                terms[e] = Fraction(rng.choice([-2, -1, 1, 2]))
            terms[(0, 0, 0)] = terms.get((0, 0, 0), Fraction(0)) + rng.choice([0, 1])
            gens.append(Poly3(N3, terms))
        if all(g.is_zero for g in gens):
            continue
        for t in _buchberger(gens):
            acc = Poly3.zero(N3)
            for rep, g in zip(t.reps, gens):
                acc = acc + rep * g
            assert acc == t.poly


def test_normal_form_is_idempotent_and_tracked():
    g1, g2 = gen_pair(N3)
    solver = MembershipSolver()
    basis = solver._basis(g1, g2)
    rng = random.Random(19)
    from toricperiod.groebner import _rabinowitsch_gens

    gens = _rabinowitsch_gens(g1, g2)
    for _ in range(30):
        terms = {
            (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)): Fraction(
                rng.randint(-3, 3)
            )
            for _ in range(4)
        }
        h = Poly3(N3, terms)
        seed = TrackedPoly(h, tuple(Poly3.zero(N3) for _ in range(3)))
        out = _tracked_nf(seed, basis)
        # h = remainder - sum(reps[i] * gens[i])
        acc = out.poly
        for rep, g in zip(out.reps, gens):
            acc = acc - rep * g
        assert acc == h
        again = _tracked_nf(
            TrackedPoly(out.poly, tuple(Poly3.zero(N3) for _ in range(3))), basis
        )
        assert again.poly == out.poly


# -- membership ----------------------------------------------------------------------


@pytest.mark.parametrize("field", [S, N3])
def test_generators_have_unit_certificates(field):
    g1, g2 = gen_pair(field)
    solver = MembershipSolver()
    c1 = solver.membership(g1, g1, g2)
    assert (c1.u1, c1.u2) == (one(field), zero(field))
    c2 = solver.membership(g2, g1, g2)
    assert (c2.u1, c2.u2) == (zero(field), one(field))


def test_third_generator_membership():
    # 1 - q Y2 = q Y1^{-1} Y2 (g1 - g2): in the ideal, but not divisible by
    # either generator alone, so this exercises the basis route.
    for field in (S, QNumeric(5)):
        g1, g2 = gen_pair(field)
        h = one(field) - qpow(field, 1) * y2(field)
        t = qpow(field, 1) * y1(field, -1) * y2(field)
        assert t * g1 - t * g2 == h
        cert = laurent_membership(h, g1, g2)
        assert cert is not None and cert.verified
        assert cert.holds_for(h, g1, g2)
        assert not cert.u1.is_zero and not cert.u2.is_zero


def test_random_combinations_are_members():
    rng = random.Random(23)
    solver = MembershipSolver()
    for field in (S, N3):
        g1, g2 = gen_pair(field)
        for _ in range(25):
            a = rand_laurent(rng, field)
            b = rand_laurent(rng, field)
            h = a * g1 + b * g2
            cert = solver.membership(h, g1, g2)
            assert cert is not None
            assert cert.holds_for(h, g1, g2)


def test_nonvanishing_at_common_zero_refused():
    # Both generators vanish at (Y1, Y2) = (1, 1/q), so no member can have a
    # nonzero value there.
    rng = random.Random(29)
    solver = MembershipSolver()
    g1, g2 = gen_pair(N3)
    refused = 0
    for _ in range(25):
        h = rand_laurent(rng, N3) * g1 + rand_laurent(rng, N3) * g2 + one(N3)
        assert h.evaluate_at(Fraction(1), Fraction(1, 3)) == 1
        assert solver.membership(h, g1, g2) is None
        refused += 1
    assert refused == 25


def test_unit_not_member_and_proper():
    solver = MembershipSolver()
    for field in (S, N3):
        g1, g2 = gen_pair(field)
        assert solver.membership(one(field), g1, g2) is None
        assert solver.is_proper(g1, g2)
        assert not solver.is_proper(g1, one(field) - qpow(field, 1) * y1(field))


def test_zero_and_degenerate_inputs():
    solver = MembershipSolver()
    g1, g2 = gen_pair(N3)
    c = solver.membership(zero(N3), g1, g2)
    assert (c.u1, c.u2) == (zero(N3), zero(N3))
    assert solver.membership(g1, zero(N3), zero(N3)) is None
    c = solver.membership(g1 * y1(N3, -2), g1, zero(N3))
    assert c is not None and c.holds_for(g1 * y1(N3, -2), g1, zero(N3))


def test_basis_cache_reused():
    solver = MembershipSolver()
    g1, g2 = gen_pair(N3)
    h = one(N3) - qpow(N3, 1) * y2(N3)
    solver.membership(h, g1, g2)
    first = solver._bases[(g1, g2)]
    solver.membership(h * y1(N3, 2), g1, g2)
    assert solver._bases[(g1, g2)] is first
    assert len(solver._bases) == 1


def test_membership_is_deterministic():
    g1, g2 = gen_pair(S)
    h = one(S) - qpow(S, 1) * y2(S)
    a = MembershipSolver().membership(h, g1, g2)
    b = MembershipSolver().membership(h, g1, g2)
    assert (a.u1, a.u2) == (b.u1, b.u2)


# -- golden certificates -------------------------------------------------------------
#
# Two certificates pinned exactly.  The reduction order is part of a
# certificate, so a change to the leading-term choice, to the divisor order
# or to the normal form of scalars shows up here.


def qlaurent(low, *coeffs):
    """The Q(q) scalar sum(coeffs[i] * q^(low + i))."""
    num = tuple(Fraction(c) for c in coeffs)
    if low >= 0:
        return RationalFunction((0,) * low + num)
    return RationalFunction(num, (0,) * (-low) + (1,))


def golden_json(golden):
    return {
        "u1": [{"c": c, "e": list(e)} for c, e in golden["u1"]],
        "u2": [{"c": c, "e": list(e)} for c, e in golden["u2"]],
        "verified": True,
    }


GOLDEN_SYMBOLIC = {
    "u1": [
        ("(-1 - 3*q)/(q^3)", (-1, -1)),
        ("(1 + 3*q)/(q^4)", (0, -2)),
        ("(-1 - 3*q)/(q^2)", (-1, 0)),
        ("(1 + 3/2*q + 2*q^2)/(q^4)", (0, -1)),
        ("(-1 - 1/2*q + q^2)/(q^5)", (1, -2)),
        ("(-1 - 3*q)/(q)", (-1, 1)),
        ("(1 + 3/2*q + 2*q^2)/(q^3)", (0, 0)),
        ("(-1 - 1/2*q + q^2)/(q^4)", (1, -1)),
        ("(2 - q^2)/(q^2)", (2, -2)),
        ("(3/2 + 3*q)/(q)", (0, 1)),
        ("(-1 - 1/2*q + q^2)/(q^3)", (1, 0)),
        ("-1 + 2*q", (2, -1)),
        ("(1 - 2*q)/(q)", (3, -2)),
    ],
    "u2": [
        ("(1 + 3*q + 3*q^2 + q^4)/(q^3)", (-1, -1)),
        ("(1 + 3*q)/(q^2)", (-1, 0)),
        ("(-1 - 3/2*q - 2*q^2)/(q^4)", (0, -1)),
        ("(1 + 3*q)/(q)", (-1, 1)),
        ("(-1 - 3/2*q - 2*q^2)/(q^3)", (0, 0)),
        ("(1 + 1/2*q - q^2 + 2*q^3 - q^5)/(q^4)", (1, -1)),
        ("1 + 3*q", (-1, 2)),
        ("(-1 - 3/2*q - 2*q^2)/(q^2)", (0, 1)),
        ("(1 + 1/2*q - q^2)/(q^3)", (1, 0)),
        ("(-2 + q - q^2)/(q)", (2, -1)),
        ("-3/2 - 3*q", (0, 2)),
        ("(1 + 1/2*q - q^2)/(q^2)", (1, 1)),
        ("q - 2*q^2", (2, 0)),
        ("-1 + 2*q", (3, -1)),
    ],
}

GOLDEN_Q7 = {
    "u1": [
        ("-4/49", (-2, -2)),
        ("4/343", (-1, -3)),
        ("-4/7", (-2, -1)),
        ("30/343", (-1, -2)),
        ("-2/2401", (0, -3)),
        ("2/49", (-1, -1)),
        ("-2/343", (0, -2)),
        ("5/7", (1, -3)),
        ("2/7", (-1, 0)),
        ("-2/49", (0, -1)),
        ("152/36015", (1, -2)),
        ("-152/252105", (2, -3)),
        ("-2/7", (0, 0)),
        ("152/5145", (1, -1)),
        ("-15739/72030", (2, -2)),
        ("3/98", (3, -3)),
        ("152/735", (1, 0)),
        ("-152/5145", (2, -1)),
        ("3/14", (3, -2)),
        ("1/21", (1, 1)),
        ("-1/147", (2, 0)),
        ("-1/21", (2, 1)),
    ],
    "u2": [
        ("4/49", (-2, -2)),
        ("4/7", (-2, -1)),
        ("-30/343", (-1, -2)),
        ("4", (-2, 0)),
        ("-30/49", (-1, -1)),
        ("1717/343", (0, -2)),
        ("-2/7", (-1, 0)),
        ("2/49", (0, -1)),
        ("-180227/36015", (1, -2)),
        ("-2", (-1, 1)),
        ("2/7", (0, 0)),
        ("-152/5145", (1, -1)),
        ("15739/72030", (2, -2)),
        ("2", (0, 1)),
        ("-152/735", (1, 0)),
        ("15739/10290", (2, -1)),
        ("11/14", (3, -2)),
        ("-152/105", (1, 1)),
        ("152/735", (2, 0)),
        ("-3/2", (3, -1)),
        ("-1/3", (1, 2)),
        ("1/21", (2, 1)),
        ("1/3", (2, 2)),
    ],
}


def test_golden_symbolic_certificate():
    g1, g2 = gen_pair(S)
    u1 = (
        LaurentPoly.monomial(S, qlaurent(-1, 2, 0, -1), 1, -1)
        + LaurentPoly.monomial(S, qlaurent(0, 1, 3), -1, 2)
        + LaurentPoly.monomial(S, qlaurent(-2, -1, 0, 1), 0, 1)
    )
    u2 = (
        LaurentPoly.monomial(S, qlaurent(1, 1, -2), 2, 0)
        + LaurentPoly.monomial(S, qlaurent(-1, 3, 0, 1), -1, -1)
        + mono(S, Fraction(-1, 2), 0, 2)
    )
    h = u1 * g1 + u2 * g2
    cert = MembershipSolver().membership(h, g1, g2)
    assert cert.to_json() == golden_json(GOLDEN_SYMBOLIC)


def test_golden_numeric_certificate():
    n7 = QNumeric(7)
    g1, g2 = gen_pair(n7)
    u1 = (
        mono(n7, Fraction(3, 2), 2, -1)
        + mono(n7, -2, -1, 1)
        + mono(n7, 5, 0, -2)
        + mono(n7, Fraction(-1, 3), 1, 2)
    )
    u2 = mono(n7, 4, -2, 0) + mono(n7, Fraction(-7, 5), 1, 1) + mono(n7, 1, 3, -2)
    h = u1 * g1 + u2 * g2
    cert = MembershipSolver().membership(h, g1, g2)
    assert cert.to_json() == golden_json(GOLDEN_Q7)


# -- verdict against the point oracle -------------------------------------------------
#
# The image ideal is the maximal ideal of the point (Y1, Y2) = (1, 1/q), so
# h is a member exactly when h vanishes there.


@st.composite
def laurent_polys(draw, field, max_terms=3, span=2):
    out = zero(field)
    for _ in range(draw(st.integers(0, max_terms))):
        c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        if field.is_symbolic:
            c = field.from_fraction(c) * field.q_power(draw(st.integers(-2, 2)))
        else:
            c = field.from_fraction(c)
        e1 = draw(st.integers(-span, span))
        e2 = draw(st.integers(-span, span))
        out = out + LaurentPoly.monomial(field, c, e1, e2)
    return out


@st.composite
def perturbed_combinations(draw):
    field = draw(st.sampled_from([S, QNumeric(2), QNumeric(3), QNumeric(5), QNumeric(7)]))
    g1, g2 = gen_pair(field)
    u1 = draw(laurent_polys(field))
    u2 = draw(laurent_polys(field))
    c = Fraction(draw(st.sampled_from([0, 0, 1, -2])), draw(st.integers(1, 2)))
    return field, u1 * g1 + u2 * g2 + c


@settings(max_examples=40, deadline=None)
@given(perturbed_combinations())
def test_membership_verdict_matches_point_oracle(case):
    field, h = case
    g1, g2 = gen_pair(field)
    vanishes = h.evaluate_at(field.one, field.q_power(-1)) == field.zero
    cert = MembershipSolver().membership(h, g1, g2)
    assert (cert is not None) == vanishes
    if cert is not None:
        assert cert.holds_for(h, g1, g2)


# -- ideal comparison -------------------------------------------------------------------


def test_ideal_equal_alternate_presentation():
    for field in (S, N3):
        g1, g2 = gen_pair(field)
        h1 = one(field) - qpow(field, 1) * y2(field)
        certs = MembershipSolver().ideal_equal((g1, g2), (h1, g2))
        assert certs is not None and len(certs) == 4
        targets = [(g1, (h1, g2)), (g2, (h1, g2)), (h1, (g1, g2)), (g2, (g1, g2))]
        for cert, (h, pair) in zip(certs, targets):
            assert cert.holds_for(h, *pair)


def test_ideal_equal_detects_difference():
    g1, g2 = gen_pair(N3)
    bigger = (one(N3), g2)
    assert MembershipSolver().ideal_equal((g1, g2), bigger) is None


def test_certificate_json_shape():
    g1, g2 = gen_pair(S)
    cert = MembershipSolver().membership(g1, g1, g2)
    doc = cert.to_json()
    assert doc["verified"] is True
    assert doc["u1"] == [{"c": "1", "e": [0, 0]}]
    assert doc["u2"] == []
    rebuilt = Certificate(
        LaurentPoly.from_json_terms(S, doc["u1"]),
        LaurentPoly.from_json_terms(S, doc["u2"]),
    )
    assert rebuilt.holds_for(g1, g1, g2)


# -- gcd and principality ------------------------------------------------------------------


def test_bivariate_gcd_known_values():
    for field in (S, N3):
        g1, g2 = gen_pair(field)
        assert bivariate_gcd(g1, g2) == one(field)
        f = y1(field) * (one(field) - y1(field))
        g = (one(field) - y1(field)) * (one(field) + y2(field))
        d = bivariate_gcd(f, g)
        assert d == y1(field) - one(field)


def test_bivariate_gcd_divides_and_absorbs_common_factor():
    rng = random.Random(41)
    for _ in range(20):
        f = rand_laurent(rng, N3, nterms=2, span=1)
        g = rand_laurent(rng, N3, nterms=2, span=1)
        h = rand_laurent(rng, N3, nterms=2, span=1)
        if f.is_zero or g.is_zero or h.is_zero:
            continue
        d = bivariate_gcd(f * h, g * h)
        # divide_exact raises if the claimed divisibilities fail
        (f * h).divide_exact(d)
        (g * h).divide_exact(d)
        # the planted common factor divides the gcd, i.e. gcd(d, h) ~ h
        assert bivariate_gcd(d, h) == bivariate_gcd(h, h)


def test_gcd_zero_cases():
    assert bivariate_gcd(zero(S), zero(S)).is_zero
    f = mono(S, Fraction(-2), 1, -1) + mono(S, Fraction(2), 2, -1)
    d = bivariate_gcd(f, zero(S))
    assert d == y1(S) - one(S)


def test_is_principal_pair():
    solver = MembershipSolver()
    for field in (S, QNumeric(2), QNumeric(5)):
        g1, g2 = gen_pair(field)
        flag, d = solver.is_principal_pair(g1, g2)
        assert flag is False
        assert d == one(field)
    f = y1(N3) * (one(N3) - y1(N3))
    g = (one(N3) - y1(N3)) * (one(N3) + y2(N3))
    flag, d = solver.is_principal_pair(f, g)
    assert flag is True
    assert d == y1(N3) - one(N3)
