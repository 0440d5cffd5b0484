import ast
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from groebner_oracle import (
    POINT_LMS,
    _buchberger,
    _grevlex3,
    _leading,
    _rabinowitsch_gens,
    _substitute_u,
    _tracked_nf,
    bivariate_gcd,
    oracle_basis,
    oracle_divide,
    oracle_membership,
    oracle_point_entry,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from toricperiod import UnsupportedIdeal, groebner, laurent, scalars
from toricperiod.groebner import (
    Certificate,
    MembershipSolver,
    _cramer_entry,
    _point_quotients,
)
from toricperiod.laurent import LaurentPoly, NotDivisible, _of, mono, one, qpow, y1, y2, zero
from toricperiod.period import image_ideal, image_ideal_alt
from toricperiod.scalars import FieldMismatch, QNumeric, QSymbolic, RationalFunction

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


# -- Buchberger (the reference oracle) ------------------------------------------------


def combine3(field, pairs):
    """sum(f * g for f, g in pairs) over term dicts in k[Y1, Y2, u], zeros dropped."""
    out = {}
    for f, g in pairs:
        for (a1, b1, c1), x in f.items():
            for (a2, b2, c2), y in g.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                out[key] = out.get(key, field.zero) + x * y
    return {e: c for e, c in out.items() if c != field.zero}


def test_reduced_basis_of_three_points():
    # <Y1^2 - Y2, Y1^3 - Y1> cuts out (0,0), (1,1), (-1,1); its reduced basis
    # is the classic triple below.
    one = S.one
    gens = [
        {(2, 0, 0): one, (0, 1, 0): -one},
        {(3, 0, 0): one, (1, 0, 0): -one},
    ]
    basis = _buchberger(gens, one)
    polys = [poly for poly, _ in basis]
    assert polys == [
        {(0, 2, 0): one, (0, 1, 0): -one},
        {(1, 1, 0): one, (1, 0, 0): -one},
        {(2, 0, 0): one, (0, 1, 0): -one},
    ]


def test_tracking_invariant_on_basis():
    for field in (N3, S):
        rng = random.Random(7)
        for _ in range(25):
            gens = []
            for _ in range(rng.randint(2, 3)):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    e = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1))
                    terms[e] = field.from_fraction(Fraction(rng.choice([-2, -1, 1, 2])))
                bump = field.from_fraction(Fraction(rng.choice([0, 1])))
                terms[(0, 0, 0)] = terms.get((0, 0, 0), field.zero) + bump
                gens.append({e: c for e, c in terms.items() if c != field.zero})
            if not any(gens):
                continue
            for poly, reps in _buchberger(gens, field.one):
                assert combine3(field, zip(reps, gens)) == poly


def test_normal_form_is_idempotent_and_tracked():
    g1, g2 = gen_pair(N3)
    basis = oracle_basis(g1, g2)
    gens = _rabinowitsch_gens(g1, g2)
    rng = random.Random(19)
    for _ in range(30):
        terms = {
            (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)): N3.from_fraction(
                Fraction(rng.randint(-3, 3))
            )
            for _ in range(4)
        }
        h = {e: c for e, c in terms.items() if c != N3.zero}
        rem, reps = _tracked_nf(h, ({}, {}, {}), basis)
        # h = remainder - sum(reps[i] * gens[i])
        assert combine3(N3, [({(0, 0, 0): N3.one}, h), *zip(reps, gens)]) == rem
        again, _ = _tracked_nf(rem, ({}, {}, {}), basis)
        assert again == rem


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
        cert = MembershipSolver().membership(h, g1, g2)
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
        # (1 - Y1, 1 - q Y1) contains the unit 1 - q; its linear parts are
        # dependent, so the solver refuses the pair and the oracle answers.
        dependent = one(field) - qpow(field, 1) * y1(field)
        assert oracle_membership(one(field), g1, dependent) is not None
        with pytest.raises(UnsupportedIdeal):
            solver.is_proper(g1, dependent)


def test_zero_and_degenerate_inputs():
    solver = MembershipSolver()
    g1, g2 = gen_pair(N3)
    c = solver.membership(zero(N3), g1, g2)
    assert (c.u1, c.u2) == (zero(N3), zero(N3))
    assert solver.membership(g1, zero(N3), zero(N3)) is None
    c = solver.membership(g1 * y1(N3, -2), g1, zero(N3))
    assert c is not None and c.holds_for(g1 * y1(N3, -2), g1, zero(N3))


@pytest.mark.parametrize("field", [N3, S], ids=["q3", "symbolic"])
def test_substitute_u_shifts_negates_and_drops_cancelled_terms(field):
    # u*Y1*Y2 and 1 land on the same Laurent monomial; their sum cancels there.
    one_ = field.one
    rep = {(1, 1, 1): one_, (0, 0, 0): -one_, (2, 0, 1): 3 * one_, (0, 2, 0): one_}
    got = _substitute_u(field, rep, (-1, 2))
    assert got.terms == {(0, 1): -3 * one_, (-1, 4): -one_}
    assert got == -(LaurentPoly(field, {(1, -1): 3 * one_, (0, 2): one_}) * mono(field, 1, -1, 2))


def test_basis_cache_reused():
    solver = MembershipSolver()
    g1, g2 = gen_pair(N3)
    h = one(N3) - qpow(N3, 1) * y2(N3)
    solver.membership(h, g1, g2)
    first = solver._points[(g1, g2)]
    solver.membership(h * y1(N3, 2), g1, g2)
    assert solver._points[(g1, g2)] is first
    assert len(solver._points) == 1


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
        mono(S, qlaurent(-1, 2, 0, -1), 1, -1)
        + mono(S, qlaurent(0, 1, 3), -1, 2)
        + mono(S, qlaurent(-2, -1, 0, 1), 0, 1)
    )
    u2 = (
        mono(S, qlaurent(1, 1, -2), 2, 0)
        + mono(S, qlaurent(-1, 3, 0, 1), -1, -1)
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
        out = out + mono(field, c, e1, e2)
    return out


@st.composite
def perturbed_combinations(draw):
    field = draw(st.sampled_from([S, QNumeric(2), QNumeric(3), QNumeric(5), QNumeric(7)]))
    g1, g2 = gen_pair(field)
    u1 = draw(laurent_polys(field))
    u2 = draw(laurent_polys(field))
    c = Fraction(draw(st.sampled_from([0, 0, 1, -2])), draw(st.integers(1, 2)))
    return field, u1 * g1 + u2 * g2 + mono(field, c, 0, 0)


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


def test_wide_q_span_symbolic_member():
    # Cofactor scalars whose q-exponents span +-2000: a power of q is an
    # exponent of the scalar, so this is as small a problem as span 2.
    E = 2000
    q = S.q_power
    g1, g2 = gen_pair(S)
    u1 = (
        mono(S, q(E) + 3 * q(-E), 1, -1)
        + mono(S, q(E // 2) - q(-7), -1, 2)
        + mono(S, 2, 0, 1)
    )
    u2 = (
        mono(S, q(-E) - Fraction(1, 2) * q(E - 1), 2, 0)
        + mono(S, q(3 - E), -1, -1)
    )
    h = u1 * g1 + u2 * g2
    at_point = S.one, S.q_power(-1)
    assert h.evaluate_at(*at_point) == S.zero
    cert = MembershipSolver().membership(h, g1, g2)
    assert cert is not None and cert.holds_for(h, g1, g2)
    off = h + qpow(S, E)
    assert off.evaluate_at(*at_point) != S.zero
    assert MembershipSolver().membership(off, g1, g2) is None


# -- the point route ---------------------------------------------------------------------
#
# Both presentations of the image ideal have the reduced basis
# {u - q, Y2 - 1/q, Y1 - 1}.  The solver reads the point and the
# combinations S2, S1 off the generators by Cramer's rule; the oracle reads
# them off that basis and decides membership by its tracked normal form.

FIELDS = [QNumeric(2), QNumeric(3), QNumeric(5), QNumeric(7), S]


@st.composite
def point_queries(draw):
    field = draw(st.sampled_from(FIELDS))
    g1, g2 = draw(st.sampled_from([image_ideal, image_ideal_alt]))(field)
    u1 = draw(laurent_polys(field, max_terms=4, span=3))
    u2 = draw(laurent_polys(field, max_terms=4, span=3))
    off = draw(laurent_polys(field, max_terms=draw(st.sampled_from([0, 0, 1, 2]))))
    return field, g1, g2, u1 * g1 + u2 * g2 + off


def _check_point_quotients(field, g1, g2, h):
    """h_hat = Q2*(Y2 - beta) + Q1*(Y1 - gamma) + r with Q2 polynomial, Q1 in
    k[Y1] and r = h_hat(gamma, beta), at the point of (g1, g2)."""
    beta, gamma = _cramer_entry(g1, g2)[:2]
    assert (gamma, beta) == (field.one, field.q_power(-1))
    _, terms = h._poly_normalize()
    h_hat = LaurentPoly(field, terms)
    q2, q1, r = _point_quotients(terms, beta, gamma, field.one)
    assert all(a >= 0 and b >= 0 for a, b in q2) and all(e[1] == 0 for e in q1)
    assert r == h_hat.evaluate_at(gamma, beta)
    y2_beta = y2(field) - mono(field, beta, 0, 0)
    y1_gamma = y1(field) - mono(field, gamma, 0, 0)
    rest = _of(field, q2) * y2_beta + _of(field, q1) * y1_gamma
    assert rest + mono(field, r, 0, 0) == h_hat


@pytest.mark.parametrize("field", FIELDS, ids=["q2", "q3", "q5", "q7", "symbolic"])
def test_point_quotients_divide_at_the_point(field):
    rng = random.Random(29)
    for ideal in (image_ideal, image_ideal_alt):
        g1, g2 = ideal(field)
        for _ in range(10):
            u1, u2 = rand_laurent(rng, field, 4, 3), rand_laurent(rng, field, 4, 3)
            h = u1 * g1 + u2 * g2
            if not h.is_zero:
                _check_point_quotients(field, g1, g2, h)
            _check_point_quotients(field, g1, g2, h + mono(field, 1, 2, -1))


@pytest.mark.parametrize("field", FIELDS, ids=["q2", "q3", "q5", "q7", "symbolic"])
def test_cramer_entry_matches_the_buchberger_point_entry(field):
    # Both presentations have a point basis, and Cramer's rule on the
    # generators gives the point entry read off it, shifts included.
    for ideal in (image_ideal, image_ideal_alt):
        g1, g2 = ideal(field)
        basis = oracle_basis(g1, g2)
        assert [_leading(poly)[0] for poly, _ in basis] == POINT_LMS
        entry = _cramer_entry(g1, g2)
        beta, gamma, s2, s1, shifts = entry
        # The engine keeps S2 and S1 as scalars; the oracle reads them off
        # its basis reps as constant Laurent polynomials.
        s2, s1 = (tuple(mono(field, x, 0, 0) for x in s) for s in (s2, s1))
        assert (beta, gamma, s2, s1, shifts) == oracle_point_entry(g1, g2)
        assert [str(c) for c in entry[:2]] == [str(field.q_power(-1)), str(field.one)]


@settings(max_examples=80, deadline=None)
@given(point_queries())
def test_point_route_matches_tracked_normal_form(case):
    field, g1, g2, h = case
    if not h.is_zero:
        _check_point_quotients(field, g1, g2, h)
    point = MembershipSolver().membership(h, g1, g2)
    tracked = oracle_membership(h, g1, g2)
    assert (point is None) == (tracked is None)
    if point is not None:
        assert point.to_json() == Certificate(*tracked).to_json()


def _basis_only_member(field):
    """A member of the image ideal that neither generator divides, so only
    the basis route can answer."""
    h = (one(field) - qpow(field, 1) * y2(field)) * (y1(field) + y2(field, -1))
    return h + (one(field) - y1(field)) * (one(field) - qpow(field, 1) * y1(field))


# The tracked route's names, which live in the oracle and not in the engine.
_ORACLE_ONLY = (
    "_buchberger",
    "_spoly",
    "_tracked_nf",
    "_sub_multiple",
    "_substitute_u",
    "_rabinowitsch_gens",
    "_point_entry",
    "_POINT_LMS",
    "_grevlex3",
    "_divides",
    "_leading",
)


def test_point_route_runs_without_tracked_normal_form():
    assert not [name for name in _ORACLE_ONLY if hasattr(groebner, name)]
    solvers = {}
    for field in (N3, S):
        for ideal in (image_ideal, image_ideal_alt):
            solvers[field, ideal] = MembershipSolver()
    for (field, ideal), solver in solvers.items():
        g1, g2 = ideal(field)
        h = _basis_only_member(field)
        cert = solver.membership(h, g1, g2)
        assert cert is not None and cert.holds_for(h, g1, g2)
        assert not cert.u1.is_zero and not cert.u2.is_zero
        assert solver.membership(h + y1(field, -3), g1, g2) is None


def test_warm_point_route_does_no_tracked_reduction(monkeypatch):
    # Once a solver holds the pair's point entry, a query forms its
    # cofactors from the two Horner quotients and that entry: the entry is
    # not rebuilt, and the certificates are a fresh solver's.
    cases = []
    for field in (N3, S):
        for ideal in (image_ideal, image_ideal_alt):
            g1, g2 = ideal(field)
            h = _basis_only_member(field)
            warm = MembershipSolver()
            warm._point(g1, g2)
            fresh = MembershipSolver().membership(h, g1, g2)
            cases.append((warm, g1, g2, h, fresh))

    def refuse(*args):
        raise AssertionError("point entry rebuilt per query")

    monkeypatch.setattr(groebner, "_cramer_entry", refuse)
    for warm, g1, g2, h, fresh in cases:
        cert = warm.membership(h, g1, g2)
        assert cert.to_json() == fresh.to_json()
        assert not cert.u1.is_zero and not cert.u2.is_zero
        assert warm.membership(h + y1(h.field, -3), g1, g2) is None


@pytest.mark.parametrize("field", [N3, S], ids=["q3", "symbolic"])
def test_tampered_certificate_fails_the_check(field):
    # holds_for re-expands u1*g1 + u2*g2 in full: a +-1 or +-q^m coefficient
    # of either cofactor changed (sign flipped or doubled), or one term
    # added, must make it fail.
    g1, g2 = image_ideal(field)
    h = _basis_only_member(field)
    cert = MembershipSolver().membership(h, g1, g2)
    assert cert.holds_for(h, g1, g2)
    units = [field.one, -field.one]
    q_monomials = [c * field.q_power(m) for c in units for m in (-2, -1, 1, 2)]
    seen = {"unit": 0, "q-monomial": 0}
    for i, u in enumerate((cert.u1, cert.u2)):
        tampered = [u + mono(field, field.one, 9, 9)]
        for e, c in u.terms.items():
            kind = "unit" if c in units else "q-monomial" if c in q_monomials else None
            if kind is not None:
                seen[kind] += 1
                tampered += [LaurentPoly(field, {**u.terms, e: new}) for new in (-c, c + c)]
        for bad in tampered:
            cofs = [cert.u1, cert.u2]
            cofs[i] = bad
            assert not Certificate(*cofs).holds_for(h, g1, g2)
    assert seen["unit"] and seen["q-monomial"]


# -- the integer certificate check --------------------------------------------------------
#
# holds_for flattens every scalar to integer rows and sums them per
# exponent; the product-and-compare check it replaced stays here as the
# reference.


def reference_holds(cert, h, g1, g2):
    return cert.u1 * g1 + cert.u2 * g2 == h


# Q(q) scalars whose denominators are not powers of q, among q-Laurent ones.
_SYMBOLIC_BLOCKS = [
    RationalFunction((1,)),
    RationalFunction((0, 1)),
    RationalFunction((1,), (0, 1)),
    RationalFunction((1,), (1, 1)),
    RationalFunction((-2, 0, 1), (1, 0, 1)),
    RationalFunction((3, 0, 0, 1), (0, 1)),
    RationalFunction((1, -1), (1, -1, 1)),
]


@st.composite
def kernel_scalars(draw, field):
    c = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 12)))
    if not field.is_symbolic:
        return field.from_fraction(c) * field.q_power(draw(st.integers(-3, 3)))
    return field.from_fraction(c) * draw(st.sampled_from(_SYMBOLIC_BLOCKS))


@st.composite
def kernel_polys(draw, field, max_terms=4):
    # a small box, so that products meet on shared keys
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = (draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))
        terms[e] = draw(kernel_scalars(field))
    return LaurentPoly(field, terms)


def _smallest_step(field, c):
    """The least change of c's integer rows: 1/d on the numerator term n/d*q^j."""
    if not field.is_symbolic:
        return Fraction(1, c.denominator)
    j, x = min(c.num.items())
    return field.q_power(j) * Fraction(1, x.denominator)


@st.composite
def kernel_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    g1, g2, u1, u2 = (draw(kernel_polys(field)) for _ in range(4))
    h = u1 * g1 + u2 * g2
    how = draw(st.sampled_from(["exact", "h-step", "u-step", "stray"]))
    if how == "h-step" and h:
        e = draw(st.sampled_from(sorted(h.terms)))
        h = LaurentPoly(field, {**h.terms, e: h.terms[e] + _smallest_step(field, h.terms[e])})
    elif how == "u-step" and u1 and g1:
        e = draw(st.sampled_from(sorted(u1.terms)))
        u1 = LaurentPoly(field, {**u1.terms, e: u1.terms[e] + _smallest_step(field, u1.terms[e])})
    elif how == "stray":
        e = (draw(st.integers(-8, 8)), draw(st.integers(-8, 8)))
        h = h + mono(field, draw(kernel_scalars(field)), *e)
    else:
        how = "exact"
    return field, Certificate(u1, u2), h, g1, g2, how


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_integer_check_agrees_with_the_product(case):
    field, cert, h, g1, g2, how = case
    holds = cert.holds_for(h, g1, g2)
    assert holds == reference_holds(cert, h, g1, g2)
    assert holds == (how == "exact")


@pytest.mark.parametrize("field", FIELDS, ids=["q2", "q3", "q5", "q7", "symbolic"])
def test_integer_check_clears_non_power_denominators(field):
    # Scalars 1/(1 + q) (or 1/(1 + q) at q = p) in a generator and a
    # cofactor: the check clears them from every side, and a change of one
    # coefficient by its smallest step still shows.
    inv = field.one / (field.one + field.q_power(1))
    g1, g2 = image_ideal(field)
    g1 = g1 + mono(field, inv, 1, 2)
    # at Y1^(-1), inv*1 from u1 meets q*(-Y1) from u1 over different denominators
    u1 = mono(field, inv, -1, 0) + qpow(field, 1) * y1(field, -2) + y2(field, 3)
    u2 = mono(field, field.q_power(-2) - inv, 0, 1)
    h = u1 * g1 + u2 * g2
    cert = Certificate(u1, u2)
    assert cert.holds_for(h, g1, g2)
    e = (0, 1)
    c = h.terms[e]
    bumped = LaurentPoly(field, {**h.terms, e: c + _smallest_step(field, c)})
    assert not cert.holds_for(bumped, g1, g2)
    assert not reference_holds(cert, bumped, g1, g2)


@pytest.mark.parametrize("field", [N3, S], ids=["q3", "symbolic"])
def test_integer_check_forms_no_laurent_or_scalar_values(field, monkeypatch):
    # A q-Laurent certificate is re-expanded with no LaurentPoly sum or
    # product and no Fraction or RationalFunction built.
    g1, g2 = image_ideal(field)
    h = _basis_only_member(field)
    cert = MembershipSolver().membership(h, g1, g2)
    assert not cert.u1.is_zero and not cert.u2.is_zero
    bad = h + y1(field, 5)

    def refuse(*args, **kwargs):
        raise AssertionError("scalar or Laurent arithmetic in the check")

    with monkeypatch.context() as m:
        for name in ("__mul__", "__add__", "__sub__", "__neg__", "__eq__"):
            m.setattr(LaurentPoly, name, refuse)
        for name in ("__mul__", "__add__", "__init__"):
            m.setattr(RationalFunction, name, refuse)
        m.setattr(scalars, "_new", refuse)
        m.setattr(Fraction, "__new__", refuse)
        assert cert.holds_for(h, g1, g2)
        assert not cert.holds_for(bad, g1, g2)


def test_integer_check_refuses_mixed_fields():
    g1, g2 = image_ideal(N3)
    h = _basis_only_member(N3)
    cert = MembershipSolver().membership(h, g1, g2)
    other = QNumeric(5)
    with pytest.raises(FieldMismatch):
        cert.holds_for(h.embed(other), g1, g2)
    with pytest.raises(FieldMismatch):
        cert.holds_for(h, g1, g2.embed(other))
    with pytest.raises(FieldMismatch):
        cert.holds_for(h.embed(S), g1.embed(S), g2.embed(S))
    with pytest.raises(FieldMismatch):
        Certificate(cert.u1, cert.u2.embed(S)).holds_for(h, g1, g2)


@pytest.mark.parametrize("field", [N3, S], ids=["q3", "symbolic"])
def test_wrong_point_rep_raises_certificate_error(field, monkeypatch):
    # A point route with one wrong quotient term yields a certificate that
    # fails its re-expansion; membership raises instead of returning it.
    g1, g2 = image_ideal(field)
    point_quotients = groebner._point_quotients

    def wrong(terms, beta, gamma, one):
        q2, q1, r = point_quotients(terms, beta, gamma, one)
        e = min(q2)
        return {**q2, e: q2[e] + q2[e]}, q1, r

    monkeypatch.setattr(groebner, "_point_quotients", wrong)
    with pytest.raises(groebner.CertificateError):
        MembershipSolver().membership(_basis_only_member(field), g1, g2)


# -- pairs that are not the ideal of one torus point ----------------------------------
#
# Past lone division the solver decides only point pairs and raises
# UnsupportedIdeal on the rest; the oracle's answer stands beside each case.


def test_non_point_ideal_is_refused(monkeypatch):
    # The three-point ideal below is not the ideal of one point, so its
    # basis has no {u - a, Y2 - b, Y1 - c} shape, and the point route is
    # never entered.
    g1 = y1(S, 2) - y2(S)
    g2 = y1(S, 3) - y1(S)
    assert oracle_point_entry(g1, g2) is None
    solver = MembershipSolver()

    def refuse(*args):
        raise AssertionError("point route used")

    monkeypatch.setattr(groebner, "_point_quotients", refuse)
    h = y2(S) - one(S)
    cofs = oracle_membership(h, g1, g2)
    assert cofs is not None and Certificate(*cofs).holds_for(h, g1, g2)
    with pytest.raises(UnsupportedIdeal):
        solver.membership(h, g1, g2)
    assert oracle_membership(y2(S) - qpow(S, 1), g1, g2) is None
    with pytest.raises(UnsupportedIdeal):
        solver.membership(y2(S) - qpow(S, 1), g1, g2)
    assert not solver._points


@pytest.mark.parametrize("field", [N3, S], ids=["q3", "symbolic"])
@pytest.mark.parametrize(
    "pair",
    [
        # the point (0, 0) lies on both axes
        pytest.param(lambda F: (y1(F) - y2(F), y1(F) + y2(F)), id="axis"),
        # dependent linear parts; g1 - g2 = (q - 1) Y1 and q*g1 - g2 = q - 1
        pytest.param(lambda F: (one(F) - y1(F), one(F) - qpow(F, 1) * y1(F)), id="dependent"),
    ],
)
def test_unit_ideal_pairs_are_refused(field, pair):
    # Each pair contains a unit, so 1 is a member, which the point route
    # would deny; a query that no lone generator divides is refused.
    g1, g2 = pair(field)
    h = one(field)
    with pytest.raises(NotDivisible):
        h.divide_exact(g1)
    with pytest.raises(NotDivisible):
        h.divide_exact(g2)
    cofs = oracle_membership(h, g1, g2)
    assert cofs is not None and Certificate(*cofs).holds_for(h, g1, g2)
    with pytest.raises(UnsupportedIdeal):
        MembershipSolver().membership(h, g1, g2)
    # a lone multiple still gets its one-term certificate
    cert = MembershipSolver().membership(g1 * y2(field, 3), g1, g2)
    assert (cert.u1, cert.u2) == (y2(field, 3), zero(field))


@pytest.mark.parametrize("field", [N3, S], ids=["q3", "symbolic"])
def test_zero_generator_pair_is_decided_by_lone_division(field):
    # (g1, 0) is the principal ideal (g1): a non-multiple is no member, and
    # the pair needs no point entry.
    g1 = one(field) - y1(field)
    h = one(field) - qpow(field, 1) * y2(field)
    assert oracle_membership(h, g1, zero(field)) is None
    assert oracle_membership(h, zero(field), g1) is None
    solver = MembershipSolver()
    assert solver.membership(h, g1, zero(field)) is None
    assert solver.membership(h, zero(field), g1) is None
    assert not solver._points


def test_oracle_shares_no_code_with_the_solver():
    # The reference must not import the module it checks, nor divide by the
    # engine's exact division, which holds the root test.
    tree = ast.parse((Path(__file__).parent / "groebner_oracle.py").read_text())
    imported, divides = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif "divide_exact" in (getattr(node, "attr", None), getattr(node, "id", None)):
            divides.append(node.lineno)
    assert imported
    bad = [m for m in imported if m.split(".")[-1] == "groebner" or ".groebner." in m]
    assert not bad, bad
    assert not divides, divides


# -- the root test of exact division, for single-generator shortcuts --------------


def _binomials(field):
    """(name, g, root test applies) for generators of every shape."""
    q = field.q_power
    g1, g2 = image_ideal(field)
    return [
        ("g1", g1, True),
        ("g2", g2, True),
        ("1-qY2", one(field) - qpow(field, 1) * y2(field), True),
        ("Y1^-1 Y2^3 - 3q Y2^-2", LaurentPoly(field, {(-1, 3): 1, (0, -2): 3 * q(1)}), True),
        ("gap 2", one(field) - y1(field, 2), False),
        ("gap 2 both", y1(field, 2) - qpow(field, 1) * y2(field, 2), False),
        ("trinomial", one(field) - y1(field) - y2(field), False),
    ]


@st.composite
def root_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    name, g, applies = draw(st.sampled_from(_binomials(field)))
    unit = mono(
        field,
        field.from_fraction(Fraction(draw(st.sampled_from([1, -1, 2, -3])), draw(st.integers(1, 3)))),
        draw(st.integers(-3, 3)),
        draw(st.integers(-3, 3)),
    )
    h = draw(laurent_polys(field, max_terms=4, span=3)) * unit * g
    if draw(st.booleans()):
        h = h + draw(laurent_polys(field, max_terms=2, span=3))
    return h, unit * g, applies


@settings(max_examples=120, deadline=None)
@given(root_cases())
def test_root_test_agrees_with_exact_division(case):
    # divide_exact raises exactly when the oracle's plain sweep fails and
    # otherwise returns its quotient.  Its root test refutes g (a nonzero h
    # with no call to the sweep's sort key) exactly when a root-shaped g
    # does not divide h, and never refutes any other g.
    h, g, applies = case
    want = oracle_divide(h, g)
    with mock.patch.object(laurent, "_grevlex2", side_effect=laurent._grevlex2) as sweep:
        try:
            got = h.divide_exact(g)
        except NotDivisible:
            got = None
    assert got == want
    refuted = not h.is_zero and not sweep.called
    if applies:
        assert refuted == (want is None)
    else:
        assert not refuted


# Run in a child by the test below: for each query, whether exact division
# by g1 and by g2 raises NotDivisible, and whether the solver's certificate
# re-expands (null for none).
_FAR_OFFSET_QUERIES = """
import json, sys
from toricperiod.groebner import MembershipSolver
from toricperiod.laurent import NotDivisible, mono, y1, y2
from toricperiod.period import image_ideal
from toricperiod.scalars import QNumeric, QSymbolic

field = {"q3": QNumeric(3), "symbolic": QSymbolic()}[sys.argv[1]]
g1, g2 = image_ideal(field)
far = mono(field, 1, 10**18, 10**18)

def refutes(h, g):
    try:
        h.divide_exact(g)
    except NotDivisible:
        return True
    return False

lone = g2 * (y1(field) + mono(field, 2, 0, 0)) * far
point = (g1 * y2(field) + g2 * y1(field, 2)) * far
out = {}
for name, h in (("lone", lone), ("point", point), ("outside", lone + far)):
    cert = MembershipSolver().membership(h, g1, g2)
    holds = None if cert is None else cert.holds_for(h, g1, g2)
    out[name] = [refutes(h, g1), refutes(h, g2), holds]
print(json.dumps(out))
"""


@pytest.mark.parametrize("field", ["q3", "symbolic"])
def test_far_offset_queries_cost_no_huge_power(field):
    # g2's root is Y1 = q*Y2, and h sits at Y1^(10^18): the root test of
    # divide_exact must raise q only to exponents relative to h's minimum
    # in Y1, or a query far from the origin takes a power q^(10^18).  That
    # power cannot be interrupted, so the queries run in a child with a
    # timeout and a memory cap, and a regression fails instead of hanging.
    src = str(Path(groebner.__file__).resolve().parent.parent)
    cap = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-c", _FAR_OFFSET_QUERIES, field],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    got = json.loads(proc.stdout)
    for name in ("lone", "point"):
        refutes_g1, refutes_g2, holds = got[name]
        assert refutes_g1
        assert refutes_g2 == (name == "point")
        assert holds is True
    refutes_g1, refutes_g2, holds = got["outside"]
    assert refutes_g1 and refutes_g2
    assert holds is None


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


# Point-route certificates of one member per field, as (c, e1, e2) terms of
# u1 and u2.  The symbolic member is scaled by 1/(1 + q), so its scalars have
# a denominator that is not a power of q.
_PINNED_POINT_CERTS = {
    "q3": (
        [("-2/9", -1, -1), ("2/27", 0, -2), ("-2/3", -1, 0), ("1/3", 0, -1)]
        + [("-1/27", 1, -2), ("1/3", 0, 0), ("-1/9", 1, -1), ("1/3", 1, 0)],
        [("2/9", -1, -1), ("2/3", -1, 0), ("-1/3", 0, -1), ("2", -1, 1), ("-1", 0, 0)]
        + [("1/9", 1, -1), ("-1", 0, 1), ("1/3", 1, 0), ("1", 2, -1), ("-1", 1, 1)],
    ),
    "symbolic": (
        [("(-2)/(q^2 + q^3)", -1, -1), ("(2)/(q^3 + q^4)", 0, -2)]
        + [("(-2)/(q + q^2)", -1, 0), ("(3)/(q^2 + q^3)", 0, -1)]
        + [("(-1)/(q^3 + q^4)", 1, -2), ("(1)/(q + q^2)", 0, 0)]
        + [("(-1)/(q^2 + q^3)", 1, -1), ("(1)/(q + q^2)", 1, 0)],
        [("(2)/(q^2 + q^3)", -1, -1), ("(2)/(q + q^2)", -1, 0)]
        + [("(-3)/(q^2 + q^3)", 0, -1), ("(2)/(1 + q)", -1, 1)]
        + [("(-3)/(q + q^2)", 0, 0), ("(1)/(q^2 + q^3)", 1, -1)]
        + [("(-1)/(1 + q)", 0, 1), ("(1)/(q + q^2)", 1, 0)]
        + [("(1)/(1 + q)", 2, -1), ("(-1)/(1 + q)", 1, 1)],
    ),
}


@pytest.mark.parametrize("field", [N3, S], ids=["q3", "symbolic"])
def test_point_route_certificate_json_is_pinned(field):
    # Neither generator divides h, and both quotients Q2 and Q1 have terms,
    # so every scaling and the sum of the point-route cofactors show here.
    g1, g2 = image_ideal(field)
    scalar = RationalFunction((Fraction(1),), (Fraction(1), Fraction(1))) if field is S else 1
    h = g1 * y2(field) + g2 * y1(field, 2) * y2(field, -1) + g1 * g2 * mono(field, 2, -1, 1)
    h = h.scale(scalar)
    for g in (g1, g2):
        with pytest.raises(NotDivisible):
            h.divide_exact(g)
    beta, gamma = _cramer_entry(g1, g2)[:2]
    q2, q1, r = _point_quotients(h._poly_normalize()[1], beta, gamma, field.one)
    assert q2 and q1 and not r
    u1, u2 = _PINNED_POINT_CERTS["symbolic" if field is S else "q3"]
    assert MembershipSolver().membership(h, g1, g2).to_json() == {
        "u1": [{"c": c, "e": [e1, e2]} for c, e1, e2 in u1],
        "u2": [{"c": c, "e": [e1, e2]} for c, e1, e2 in u2],
        "verified": True,
    }


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


def test_principality_uses_no_gcd():
    # The pseudo-remainder gcd lives in the oracle, not in the engine.
    gcd_names = ("bivariate_gcd", "_rec_strip", "_rec_scale", "_rec_sub", "_rec_content",
                 "_rec_primitive", "_prem")
    assert not [name for name in gcd_names if hasattr(groebner, name)]
    tree = ast.parse(Path(groebner.__file__).read_text())
    from_scalars = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "scalars"
        for alias in node.names
    ]
    assert from_scalars == ["FieldMismatch"]


def _affine_pair(rng, field):
    """Two generators Y^s * (c + a*Y1 + b*Y2) with small, often zero, coefficients."""
    out = []
    for _ in range(2):
        c, a, b = (
            field.from_fraction(Fraction(rng.choice([-2, -1, 0, 0, 1, 2]), rng.choice([1, 3])))
            * field.q_power(rng.randint(-1, 1))
            for _ in range(3)
        )
        g = LaurentPoly(field, {(0, 0): c, (1, 0): a, (0, 1): b})
        out.append(g.shift(rng.randint(-2, 2), rng.randint(-2, 2)))
    return out


def _principal_cases(rng):
    """(g1, g2) pairs: pairs with a zero generator, products f*h, g*h over
    QNumeric(3) with a planted factor h of two or more terms, and
    affine-linear pairs over QNumeric(3) and QSymbolic."""
    for field in (N3, S):
        g = one(field) - qpow(field, 1) * y2(field, 2)
        yield zero(field), zero(field)
        yield g * y1(field, -1), zero(field)
        yield zero(field), g
    for _ in range(150):
        f, g = (rand_laurent(rng, N3, nterms=2, span=1) for _ in range(2))
        h = zero(N3)
        while len(h.terms) < 2:
            h = rand_laurent(rng, N3, nterms=3, span=1)
        yield f * h, g * h
    for field in (N3, S):
        for _ in range(150):
            yield _affine_pair(rng, field)


def test_principality_by_divisibility_matches_gcd_then_membership():
    # The reference answer is the oracle's gcd d followed by the oracle's
    # membership of d.  A pair the solver refuses must be one that gcd-then-
    # membership could not settle on the engine's routes either: no
    # generator divides d, and the pair is not two affine-linear generators
    # (up to a monomial) whose Buchberger basis is the ideal of one point.
    rng = random.Random(26)
    solver = MembershipSolver()
    seen = {True: 0, False: 0, None: 0}

    def divides(g, d):
        try:
            d.divide_exact(g)
        except NotDivisible:
            return False
        return True

    def affine(g):
        return g._poly_normalize()[1].keys() <= {(0, 0), (1, 0), (0, 1)}

    for g1, g2 in _principal_cases(rng):
        d = bivariate_gcd(g1, g2)
        try:
            got = solver.is_principal_pair(g1, g2)
        except UnsupportedIdeal:
            assert not d.is_zero
            assert not any(not g.is_zero and divides(g, d) for g in (g1, g2))
            assert not (affine(g1) and affine(g2) and oracle_point_entry(g1, g2) is not None)
            seen[None] += 1
            continue
        assert got == (oracle_membership(d, g1, g2) is not None, d)
        assert got[1].to_json_terms() == d.to_json_terms()
        seen[got[0]] += 1
    assert min(seen.values()) > 0, seen
