from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from character_oracle import psi_eval
from hypothesis import given, settings
from hypothesis import strategies as st

from toricperiod.family import (
    PHI_W,
    SPH,
    LinComb,
    TableVector,
    Translate,
    evaluate,
    f0_table,
    random_table,
    sph_table,
    tabulate,
)
from toricperiod import groebner, laurent, period, scalars, whittaker
from toricperiod.cli import main
from toricperiod.groebner import Certificate, MembershipSolver
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
from toricperiod.localfield import Mat2, P1Class, diag, unipotent
from toricperiod.period import (
    VerdictMismatch,
    cleared_window,
    image_ideal,
    image_ideal_alt,
    spherical_ratio,
    toric_period,
    verify_image,
    zeta_window,
)
from toricperiod.scalars import FieldMismatch, QNumeric, QSymbolic
from toricperiod.whittaker import (
    BigCellProfile,
    big_cell_profile,
    cs_factor_regularized,
    period_parts,
    whittaker_coefficient,
)

S = QSymbolic()


# -- the two closed-form periods ---------------------------------------------------


def test_iwahori_cleared_window_is_linear():
    expected = ZPoly(S, 0, 1, {0: one(S), 1: -y1(S)})
    assert cleared_window(PHI_W, S) == expected
    assert toric_period(PHI_W, S) == one(S) - y1(S)


def test_spherical_period_is_cs_factor():
    assert toric_period(SPH, S) == cs_factor_regularized(S)
    N = QNumeric(3)
    assert toric_period(SPH, N) == cs_factor_regularized(N)


def test_table_vectors_reproduce_marker_periods():
    for p in (2, 3):
        F = QNumeric(p)
        for n in (1, 2):
            assert toric_period(f0_table(F, p, n)) == one(F) - y1(F)
        assert cleared_window(f0_table(F, p, 1)) == ZPoly(
            F, 0, 1, {0: one(F), 1: -y1(F)}
        )
        assert toric_period(sph_table(F, p, 1)) == cs_factor_regularized(F)


def test_symbolic_markers_require_field():
    with pytest.raises(ValueError):
        toric_period(SPH)


def test_values_over_different_fields_compare_unequal():
    # == never raises across fields, so neither do the containers and frozen
    # dataclasses that hold Laurent values.
    N3, N5 = QNumeric(3), QNumeric(5)
    assert (image_ideal(N3)[0] == image_ideal(N5)[0]) is False
    assert image_ideal(N3)[0] not in [image_ideal(N5)[0], image_ideal(S)[0]]
    assert image_ideal(N3) != image_ideal(S)
    assert (sph_table(N3, 3, 1) == sph_table(S, 3, 1)) is False
    numeric, symbolic = verify_image(PHI_W, N3), verify_image(PHI_W, S)
    assert (numeric == symbolic) is False
    assert (numeric.certificate == symbolic.certificate) is False
    profiles = [BigCellProfile(None, 0, one(F), zero(F), {}) for F in (N3, S)]
    assert (profiles[0] == profiles[1]) is False


@pytest.mark.parametrize("field", [S, QNumeric(3)], ids=["QSymbolic", "QNumeric3"])
def test_marker_period_parts(field):
    # l(f) = f(1) g2 + g1 U(f): the spherical vector is (1, 0), the Iwahori one (0, 1)
    assert period_parts(SPH, field) == (one(field), zero(field))
    assert period_parts(PHI_W, field) == (zero(field), one(field))


def test_symbolic_marker_combination_has_a_period():
    # A combination of markers is tied to no prime: its profile is the
    # combination of the markers', so its period is c_sph * g2 + c_phi * g1.
    c_sph, c_phi = mono(S, Fraction(2, 3), 1, -1), -qpow(S, 2) * y2(S)
    combo = LinComb([(c_sph, SPH), (c_phi, PHI_W)])
    g1, g2 = image_ideal(S)
    assert toric_period(combo, S) == c_sph * g2 + c_phi * g1
    report = verify_image(combo, S)
    assert report.member and report.certificate.holds_for(report.la, g1, g2)
    assert toric_period(LinComb([(one(S), SPH), (one(S), PHI_W)]), S) == g1 + g2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_marker_combination_matches_its_table(p):
    F = QNumeric(p)
    # coefficients over QSymbolic are embedded, as evaluation embeds them
    combo = LinComb(
        [(mono(S, Fraction(2, 3), 1, -1), SPH), (-one(S), PHI_W), (mono(F, Fraction(5), 0, 2), SPH)]
    )
    table = tabulate(combo, p, 1, F)
    assert toric_period(combo, F) == toric_period(table)
    for k in range(-3, 5):
        assert whittaker_coefficient(combo, k, F) == whittaker_coefficient(table, k), k


def test_mixed_primes_raise_field_mismatch():
    F2, F3 = QNumeric(2), QNumeric(3)
    combo = LinComb([(one(F2), random_table(2, 1, seed=1)), (one(F3), random_table(3, 1, seed=2))])
    with pytest.raises(FieldMismatch):
        toric_period(combo)
    translate = Translate(unipotent(3, Fraction(1, 3)), random_table(2, 1, seed=1))
    with pytest.raises(FieldMismatch):
        toric_period(translate)


GRID = st.sampled_from([(p, n) for p in (2, 3, 5, 7) for n in (1, 2, 3)])

# Scalars whose denominators the integer pass must carry: small primes and
# their powers, a prime past every p, and a numerator and denominator wider
# than a machine word.
DENOMINATED = [
    Fraction(1, 2),
    Fraction(-7, 9),
    Fraction(5, 49),
    Fraction(1, 101),
    Fraction(10**30 + 1, 3**40),
    Fraction(3),
    Fraction(-1),
]


def _denominated_table(p, n, seed):
    """A random depth-n table whose values draw their coefficients from DENOMINATED."""
    rng = random_table(p, n, seed=seed)
    values = {}
    for i, (cls, value) in enumerate(sorted(rng.values.items(), key=lambda t: str(t[0]))):
        terms = {}
        for j, e in enumerate(sorted(value.terms)):
            terms[e] = DENOMINATED[(seed + 3 * i + j) % len(DENOMINATED)]
        values[cls] = LaurentPoly(QNumeric(p), terms)
    return TableVector(p, n, values)


def _vector(kind, p, n, seed):
    """One vector tied to p of each kind the integer pass reads."""
    F = QNumeric(p)
    if kind == "random":
        return random_table(p, n, seed=seed)
    if kind == "denominated":
        return _denominated_table(p, n, seed)
    if kind == "symbolic-stored":
        # values stored over QSymbolic reach QNumeric(p) through embed
        table = _denominated_table(p, n, seed)
        return TableVector(p, n, {c: v.embed(S) for c, v in table.values.items()})
    if kind == "translate":
        return Translate(unipotent(p, Fraction(1, p)), _denominated_table(p, 1, seed))
    return LinComb([
        (mono(F, Fraction(-7, 9), 1, -1), _denominated_table(p, n, seed)),
        (mono(F, Fraction(5, 49), 0, 2), sph_table(F, p, n)),
        (mono(F, Fraction(1, 101), 0, 0), random_table(p, n, seed=seed + 1)),
    ])


KINDS = ["random", "denominated", "symbolic-stored", "translate", "lincomb"]


def _reference_route(f):
    """(l(f), f(1), U(f), spherical ratio) from the cleared zeta window, with
    no use of the closed form: f(1) by evaluation at the identity, U(f) and
    the ratio by exact division of the window's value."""
    la = cleared_window(f).eval_z1()
    F = la.field
    g1, g2 = image_ideal(F)
    identity = evaluate(f, Mat2.identity(F.q), F)
    u = (la - identity * g2).divide_exact(g1)
    try:
        ratio = la.divide_exact(g2)
    except NotDivisible:
        ratio = None
    return la, identity, u, ratio


@settings(max_examples=40, deadline=None)
@given(GRID, st.integers(0, 10**6), st.sampled_from(KINDS))
def test_closed_form_period_matches_cleared_window(shape, seed, kind):
    # the reference route: 2n+7 window coefficients, cleared and summed at Z = 1
    p, n = shape
    f = _vector(kind, p, n, seed)
    la, identity, u, ratio = _reference_route(f)
    got = toric_period(f)
    assert got == la
    parts = period_parts(f)
    assert parts == (identity, u)
    assert spherical_ratio(f) == ratio
    for value in (got, *parts):
        _assert_canonical(value)


def test_pipeline_builds_no_window(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("zeta window built")

    monkeypatch.setattr(period, "whittaker_coefficient", refuse)
    monkeypatch.setattr(ZPoly, "clear_l_factor", refuse)
    F = QNumeric(3)
    vectors = [
        (random_table(3, 2, seed=35), None),
        (Translate(unipotent(2, Fraction(1, 2)), random_table(2, 1, seed=36)), None),
        (LinComb([
            (mono(F, Fraction(2), 1, -1), random_table(3, 1, seed=37)),
            (mono(F, Fraction(-1, 3), 0, 2), random_table(3, 2, seed=38)),
        ]), None),
        (SPH, S),
        (PHI_W, S),
    ]
    for f, field in vectors:
        assert verify_image(f, field=field).member
    assert main(["theorem", "--p", "2", "--level", "1", "--trials", "1"]) == 0
    assert "FAIL" not in capsys.readouterr().out


# -- normalization against the spherical line ---------------------------------------


def test_spherical_ratio():
    assert spherical_ratio(SPH, S) == one(S)
    assert spherical_ratio(PHI_W, S) is None
    F = QNumeric(2)
    assert spherical_ratio(sph_table(F, 2, 1)) == one(F)
    assert spherical_ratio(f0_table(F, 2, 1)) is None


def test_spherical_ratio_at_the_span_bound_is_decided_by_the_root(monkeypatch):
    # U(f) spans Y1^4096 to Y2^4096 here; g2 = 1 - q^{-1} Y1 Y2^{-1} is
    # refuted at its root Y1 = q*Y2 with no division sweep.
    F = QNumeric(2)
    table = TableVector(2, 1, {
        P1Class(2, 1, False, 0): y1(F, 4096),
        P1Class(2, 1, False, 1): one(F),
        P1Class(2, 1, True, 0): y2(F, 4096),
    })

    def sweep(e):
        raise AssertionError("division sweep entered")

    monkeypatch.setattr(laurent, "_grevlex2", sweep)
    assert spherical_ratio(table) is None


def _ratio_by_dividing_the_period(f, field=None):
    la = toric_period(f, field)
    try:
        return la.divide_exact(image_ideal(la.field)[1])
    except NotDivisible:
        return None


def test_spherical_ratio_matches_dividing_the_period():
    # spherical_ratio divides only U(f) by g2; dividing the whole period must
    # give the same quotient, and None in the same cases.
    vectors = [(SPH, S), (PHI_W, S), (SPH, QNumeric(3)), (PHI_W, QNumeric(2))]
    for p in (2, 3):
        F = QNumeric(p)
        for n in (1, 2):
            table = random_table(p, n, seed=10 * p + n)
            vectors += [
                (table, None),
                (LinComb([(mono(F, Fraction(-2), 1, -1), sph_table(F, p, n))]), None),
                (LinComb([(one(F), table), (mono(F, Fraction(1, 3), 0, 1), sph_table(F, p, n))]), None),
            ]
    quotients = 0
    for f, field in vectors:
        want = _ratio_by_dividing_the_period(f, field)
        assert spherical_ratio(f, field) == want
        quotients += want is not None
    assert 0 < quotients < len(vectors)


# -- ideal presentations -------------------------------------------------------------


def test_image_ideal_generators():
    g1, g2 = image_ideal(S)
    assert g1 == one(S) - y1(S)
    assert g2 == cs_factor_regularized(S)
    assert g2.to_x_display() == "1 - q^(-1)·X1·X2^(-1)"
    a1, a2 = image_ideal_alt(S)
    assert a1 == one(S) - qpow(S, 1) * y2(S)
    assert a2 == g2


def test_presentations_agree():
    solver = MembershipSolver()
    for field in (S, QNumeric(2), QNumeric(5)):
        certs = solver.ideal_equal(image_ideal(field), image_ideal_alt(field))
        assert certs is not None
        assert len(certs) == 4
        for cert in certs:
            assert cert.verified


def test_ideal_is_proper_and_not_principal():
    solver = MembershipSolver()
    for field in (S, QNumeric(2), QNumeric(3), QNumeric(5)):
        g1, g2 = image_ideal(field)
        assert solver.is_proper(g1, g2)
        principal, _ = solver.is_principal_pair(g1, g2)
        assert not principal


# -- certified membership reports ----------------------------------------------------


def test_verify_image_on_markers():
    report = verify_image(SPH, field=S)
    assert report.member and report.rational
    assert report.certificate.holds_for(report.la, *image_ideal(S))
    report = verify_image(PHI_W, field=S)
    assert report.member
    assert report.la == one(S) - y1(S)


@pytest.mark.parametrize("p,n,seed", [(2, 1, 11), (3, 1, 12), (3, 2, 13), (5, 1, 14)])
def test_verify_image_on_random_tables(p, n, seed):
    f = random_table(p, n, seed=seed)
    report = verify_image(f)
    assert report.rational
    assert report.member
    g1, g2 = image_ideal(QNumeric(p))
    assert report.certificate.holds_for(report.la, g1, g2)


def _assert_canonical(value):
    """The invariant laurent._of trusts: int exponent pairs, nonzero field
    scalars, and every Fraction stored in lowest terms."""
    field = value.field
    for (e1, e2), c in value.terms.items():
        assert type(e1) is int and type(e2) is int
        assert type(c) is type(field.one) and c != field.zero
        for x in c.num.values() if field.is_symbolic else (c,):
            assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


@pytest.mark.parametrize(
    "p,n",
    [(p, n) for p in (2, 3, 5, 7) for n in (1, 2, 3)] + [pytest.param(None, None, id="symbolic")],
)
def test_engine_values_are_canonical(monkeypatch, p, n):
    # The arithmetic wraps its results with laurent._of, which neither checks
    # nor coerces, so every value the engine returns is held to that
    # invariant here: random tables over the grid, with tables of wide
    # denominators, a table stored over QSymbolic (its values are embedded),
    # a translate and a combination, and the markers over QSymbolic.
    quotients = []
    divide_exact = LaurentPoly.divide_exact

    def recording(self, divisor):
        quotients.append(divide_exact(self, divisor))
        return quotients[-1]

    monkeypatch.setattr(LaurentPoly, "divide_exact", recording)
    if p is None:
        cases = [(SPH, S), (PHI_W, S), (f0_table(S, 3, 2), None)]
    else:
        cases = [(random_table(p, n, seed=seed), None) for seed in range(3)]
        cases += [(_vector(kind, p, n, 7), None) for kind in KINDS[1:]]
    for f, field in cases:
        identity, u = period_parts(f, field)
        report = verify_image(f, field)
        g1, _ = image_ideal(report.la.field)
        values = [identity, u, report.la, report.certificate.u1, report.certificate.u2]
        values.append((g1 * report.la).divide_exact(g1))
        ratio = spherical_ratio(f, field)
        if ratio is not None:
            values.append(ratio)
        values += [whittaker_coefficient(f, k, field) for k in (-1, 0, 2)]
        if field is None:
            profile = big_cell_profile(f)
            values += [profile.identity, profile.at_weyl, *profile.shells.values()]
        for value in values + quotients:
            _assert_canonical(value)
    assert quotients


def test_pipeline_forms_no_character_value(monkeypatch, capsys):
    # Every unit average is used in closed form, so no root of unity is ever
    # built on the way from a vector to its certified report.
    def refuse(*args, **kwargs):
        raise AssertionError("cyclotomic arithmetic in the pipeline")

    monkeypatch.setattr(scalars.Cyclotomic, "from_poly", refuse)
    with pytest.raises(AssertionError):
        psi_eval(Fraction(1, 3), 3, 1)
    F = QNumeric(3)
    vectors = [
        (random_table(3, 2, seed=31), None),
        (Translate(unipotent(2, Fraction(1, 2)), random_table(2, 1, seed=32)), None),
        (LinComb([
            (mono(F, Fraction(2), 1, -1), random_table(3, 1, seed=33)),
            (mono(F, Fraction(-1, 3), 0, 2), random_table(3, 2, seed=34)),
        ]), None),
        (SPH, S),
        (PHI_W, S),
    ]
    for f, field in vectors:
        report = verify_image(f, field=field)
        assert report.member and report.certificate is not None
    assert main(["identities"]) == 0
    assert main(["theorem", "--p", "2", "--level", "1", "--trials", "1"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_wrong_solver_verdict_is_caught(monkeypatch):
    # The period of SPH is a member; a solver that refuses it contradicts
    # evaluation at (1, 1/q).
    monkeypatch.setattr(period, "_IMAGE_SOLVER", SimpleNamespace(membership=lambda *args: None))
    with pytest.raises(VerdictMismatch):
        verify_image(SPH, field=S)



def test_point_remainder_does_not_feed_the_oracle(monkeypatch):
    # The oracle evaluates the period itself: a point route that wrongly
    # reports a nonzero remainder is caught, not echoed.
    f = random_table(3, 2, seed=13)
    assert verify_image(f).member
    evaluations = []
    vanishes = period._vanishes_at_image_point

    def counted(la):
        evaluations.append((la, vanishes(la)))
        return evaluations[-1][1]

    def wrong(terms, beta, gamma, one):
        return {}, {}, Fraction(1)

    monkeypatch.setattr(period, "_vanishes_at_image_point", counted)
    monkeypatch.setattr(groebner, "_point_quotients", wrong)
    with pytest.raises(VerdictMismatch):
        verify_image(f)
    assert evaluations == [(toric_period(f), True)]


ORACLE_FIELDS = [QNumeric(2), QNumeric(3), QNumeric(5), QNumeric(7), S]


@st.composite
def oracle_cofactors(draw, field):
    """A small Laurent polynomial whose coefficients carry denominators and,
    over QSymbolic, powers of q."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        c = Fraction(draw(st.integers(-50, 50)), draw(st.sampled_from([1, 2, 9, 49, 101, 3**40])))
        c = field.from_fraction(c) * field.q_power(draw(st.integers(-3, 3)))
        e = (draw(st.integers(-6, 6)), draw(st.integers(-6, 6)))
        terms[e] = terms[e] + c if e in terms else c
    return LaurentPoly(field, terms)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.data())
def test_point_oracle_matches_evaluation(field, data):
    # Members u1 g1 + u2 g2 vanish at (1, 1/q), a member plus one nonzero
    # monomial does not, and on any polynomial the oracle's integer sum
    # agrees with evaluate_at.
    g1, g2 = image_ideal(field)
    member = data.draw(oracle_cofactors(field)) * g1 + data.draw(oracle_cofactors(field)) * g2
    c = data.draw(st.sampled_from(DENOMINATED))
    outside = member + mono(field, field.from_fraction(c), data.draw(st.integers(-6, 6)),
                            data.draw(st.integers(-6, 6)))
    anything = data.draw(oracle_cofactors(field))
    for h, vanishes in ((member, True), (outside, False), (anything, None)):
        at_point = h.evaluate_at(field.one, field.q_power(-1)) == field.zero
        assert period._vanishes_at_image_point(h) == at_point
        assert vanishes in (None, at_point)


_FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


def test_period_does_no_fraction_arithmetic(monkeypatch):
    # The period of a vector tied to p is summed on integers over one common
    # denominator, and the point oracle is one integer sum: with Fraction's
    # arithmetic refused (building a Fraction stays allowed), both still run.
    # The translate is tabulated first, because tabulating evaluates group
    # elements, which is the family's arithmetic and not the period's.
    F = QNumeric(3)
    vectors = [random_table(3, 3, seed=seed) for seed in (1, 2)]
    vectors.append(tabulate(Translate(unipotent(3, Fraction(1, 3)), random_table(3, 1, seed=3)), 3, 3, F))
    want = [cleared_window(f).eval_z1() for f in vectors]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the period")

    for name in _FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2) + 1
    got = [toric_period(f) for f in vectors]
    vanishes = [period._vanishes_at_image_point(la) for la in got]
    monkeypatch.undo()
    assert got == want
    assert vanishes == [True] * len(vectors)
    assert not period._vanishes_at_image_point(want[0] + one(F))


def test_wrong_member_verdict_is_caught(monkeypatch):
    # A period that does not vanish at (1, 1/q) cannot carry a certificate.
    monkeypatch.setattr(period, "toric_period", lambda f, field=None: one(S))
    wrong = SimpleNamespace(membership=lambda *args: Certificate(zero(S), zero(S)))
    monkeypatch.setattr(period, "_IMAGE_SOLVER", wrong)
    with pytest.raises(VerdictMismatch):
        verify_image(SPH, field=S)


def test_image_basis_is_shared_per_field(monkeypatch):
    # verify_image asks the one module-level solver about image_ideal(field)
    # only, so it keeps one point entry per field and reuses it; the
    # certificates are those of a fresh solver.  The markers'
    # periods are g2 and g1 themselves, answered by lone division, so they
    # add no entry.
    shared = MembershipSolver()
    monkeypatch.setattr(period, "_IMAGE_SOLVER", shared)
    N3, N5 = QNumeric(3), QNumeric(5)
    ideals = {F: image_ideal(F) for F in (N3, N5, S)}
    before = {F: [dict(g.terms) for g in pair] for F, pair in ideals.items()}
    cases = [(random_table(3, 2, seed=seed), None) for seed in range(4)]
    cases += [(random_table(5, 2, seed=seed), None) for seed in range(4)]
    cases += [(SPH, S), (PHI_W, S)]
    first = {}
    for f, field in cases:
        report = verify_image(f, field)
        fresh = MembershipSolver().membership(report.la, *image_ideal(report.la.field))
        assert report.certificate.to_json() == fresh.to_json()
        first.update((k, v) for k, v in shared._points.items() if k not in first)
    assert set(shared._points) == {ideals[N3], ideals[N5]}
    for key, entry in shared._points.items():
        g1, g2 = image_ideal(key[0].field)
        assert key[0] is g1 and key[1] is g2
        assert entry is first[key]
    for F, pair in ideals.items():
        assert image_ideal(F) is pair
        assert [g.terms for g in pair] == before[F]


def test_report_json_shape():
    report = verify_image(f0_table(QNumeric(3), 3, 1))
    blob = report.to_json()
    assert set(blob) == {"lA", "lA_display_X", "member", "certificate", "rational"}
    assert blob["member"] is True
    assert blob["rational"] is True
    assert set(blob["certificate"]) == {"u1", "u2", "verified"}
    assert blob["certificate"]["verified"] is True
    assert blob["lA_display_X"] == "1 - q^(-1/2)·X1"


# -- invariance properties -----------------------------------------------------------


def test_period_invariant_under_central_units():
    p = 5
    f = random_table(p, 1, seed=21)
    base = toric_period(f)
    for u in (2, 3, Fraction(7, 4)):
        shifted = Translate(Mat2(p, u, 0, 0, u), f)
        assert toric_period(shifted) == base


def test_period_scales_under_central_uniformizer():
    # diag(p, p) acts through the unramified character: one factor q Y1 Y2
    p = 3
    F = QNumeric(p)
    f = f0_table(F, p, 1)
    shifted = Translate(diag(p, p, p), f)
    assert toric_period(shifted) == mono(F, F.q_power(1), 1, 1) * toric_period(f)


def test_period_linearity():
    p = 2
    F = QNumeric(p)
    f1 = random_table(p, 1, seed=31)
    f2 = random_table(p, 2, seed=32)
    c1 = mono(F, Fraction(3), 0, 1)
    c2 = mono(F, Fraction(-1, 4), 1, 0)
    combo = LinComb([(c1, f1), (c2, f2)])
    assert toric_period(combo) == c1 * toric_period(f1) + c2 * toric_period(f2)


@st.composite
def laurent_coefficients(draw, field):
    out = zero(field)
    for _ in range(draw(st.integers(0, 2))):
        c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        out = out + mono(field, c, draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
    return out


TABLE_SHAPES = st.sampled_from([(2, 1), (3, 1), (2, 2)])
SEEDS = st.integers(0, 10**6)


@settings(max_examples=40, deadline=None)
@given(TABLE_SHAPES, SEEDS, SEEDS, st.data())
def test_period_is_linear(shape, seed_f, seed_g, data):
    # l(a f + b g) = a l(f) + b l(g) for Laurent coefficients a, b
    p, n = shape
    F = QNumeric(p)
    f = random_table(p, n, seed=seed_f)
    g = random_table(p, n, seed=seed_g)
    a = data.draw(laurent_coefficients(F))
    b = data.draw(laurent_coefficients(F))
    combo = LinComb([(a, f), (b, g)])
    assert toric_period(combo) == a * toric_period(f) + b * toric_period(g)


@settings(max_examples=40, deadline=None)
@given(TABLE_SHAPES, SEEDS)
def test_period_central_character(shape, seed):
    # diag(p, p) acts through the unramified central character q Y1 Y2
    p, n = shape
    F = QNumeric(p)
    f = random_table(p, n, seed=seed)
    shifted = Translate(diag(p, p, p), f)
    assert toric_period(shifted) == mono(F, F.q_power(1), 1, 1) * toric_period(f)


# -- window bookkeeping --------------------------------------------------------------


def test_zeta_window_extent():
    w = zeta_window(PHI_W, S)
    assert (w.k_min, w.k_max) == (-3, 5)
    with pytest.raises(ValueError):
        w.coefficient(6)
    w2 = zeta_window(f0_table(QNumeric(3), 3, 2))
    assert (w2.k_min, w2.k_max) == (-4, 6)
    assert w2.coefficient(-4).is_zero
    assert w2.coefficient(2) == y2(QNumeric(3), 2)


def test_zeta_window_profiles_a_table_once(monkeypatch):
    # Every coefficient of the window reads the profile zeta_window passes.
    counts = {period: 0, whittaker: 0}
    for module in counts:

        def count(f, module=module, real=module.big_cell_profile):
            counts[module] += 1
            return real(f)

        monkeypatch.setattr(module, "big_cell_profile", count)
    zeta_window(random_table(3, 2, seed=5))
    assert counts == {period: 1, whittaker: 0}


def test_tail_violation_raises_after_one_window(monkeypatch):
    # The window's coefficients are exact, so a wider window would fail at
    # the same indices: a nonzero tail raises from the first window.
    F, n = QNumeric(3), 1
    calls = []
    real = period.whittaker_coefficient

    def top_nonzero(f, k, field=None, profile=None):
        calls.append(k)
        return one(F) if k == n + 4 else real(f, k, field, profile)

    monkeypatch.setattr(period, "whittaker_coefficient", top_nonzero)
    with pytest.raises(TailViolation):
        cleared_window(f0_table(F, 3, n))
    assert sorted(calls) == list(range(-(n + 2), n + 5))
