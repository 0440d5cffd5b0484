from fractions import Fraction

import pytest
from character_oracle import psi_eval

from toricperiod import family, whittaker
from toricperiod.family import (
    PHI_W,
    SPH,
    LinComb,
    Translate,
    big_cell_split,
    evaluate,
    f0_table,
    invariance_level,
    random_table,
    sph_table,
    vector_prime,
)
from toricperiod.laurent import ZPoly, mono, one, qpow, y1, y2, zero
from toricperiod.localfield import (
    Mat2,
    coset_reps,
    diag,
    unipotent,
    unit_reps,
    valuation,
    weyl,
)
from toricperiod.period import toric_period
from toricperiod.scalars import FieldMismatch, QNumeric, QSymbolic
from toricperiod.whittaker import (
    BigCellProfile,
    big_cell_profile,
    cs_factor_regularized,
    shintani_sph,
    sph_big_cell_value,
    whittaker_coefficient,
)

S = QSymbolic()


# -- closed forms -----------------------------------------------------------------


def test_shintani_values():
    assert shintani_sph(S, -2).is_zero
    assert shintani_sph(S, -1).is_zero
    assert shintani_sph(S, 0) == one(S)
    assert shintani_sph(S, 1) == y1(S) + y2(S)
    assert shintani_sph(S, 2) == y1(S, 2) + y1(S) * y2(S) + y2(S, 2)
    for k in range(1, 7):
        expected = (y1(S) + y2(S)) * shintani_sph(S, k - 1) - y1(S) * y2(
            S
        ) * shintani_sph(S, k - 2)
        assert shintani_sph(S, k) == expected


def test_shintani_window_clears_to_one():
    window = ZPoly.from_function(S, -2, 8, lambda k: shintani_sph(S, k))
    cleared = window.clear_l_factor(0)
    assert cleared == ZPoly(S, 0, 0, {0: one(S)})


def test_sph_big_cell_value_matches_evaluation():
    for p in (2, 3):
        for m in (1, 2, 3):
            g = weyl(p) * unipotent(p, Fraction(1, p**m))
            assert evaluate(SPH, g, S) == sph_big_cell_value(S, m)


def test_cs_factor():
    expected = one(S) - qpow(S, -1) * y1(S) * y2(S, -1)
    assert cs_factor_regularized(S) == expected
    N = QNumeric(3)
    assert cs_factor_regularized(N) == one(N) - qpow(N, -1) * y1(N) * y2(N, -1)
    assert cs_factor_regularized(S).to_x_display() == "1 - q^(-1)·X1·X2^(-1)"


# -- coefficients against honest enumeration -----------------------------------------


def brute_coefficient(f, p, k, values=None):
    """c_k of any vector f tied to p, by direct double enumeration.

    J_k(f) is summed over u-cosets of p^max(L, -k), on which both f(w n(u))
    and the character argument p^k u are resolved, and over units mod p.
    Truncating u at valuation -(k+1) is exact because the unit average
    kills every deeper shell; p^k u then has valuation at least -1, so the
    units mod p see every character value.  Nothing from the engine's split,
    closed forms or shell sums is used.  `values` memoizes f(w n(u)) by u
    across calls, which is what keeps the window of a depth-2 table at p=3
    (3^9 points for its top coefficient) quick.
    """
    F = QNumeric(p)
    if values is None:
        values = {}
    l_u = max(invariance_level(f), -k)
    units = unit_reps(p, 1)
    w = weyl(p)
    pk = Fraction(p) ** k
    total = zero(F)
    averages = {}
    for u in coset_reps(p, -(k + 1), l_u):
        if u not in values:
            values[u] = evaluate(f, w * unipotent(p, u), F)
        if values[u].is_zero:
            continue
        # psi is trivial on Z_p, so the unit sum depends on p^k u mod 1 only
        x = pk * u % 1
        if x not in averages:
            acc = psi_eval(Fraction(0), p, 1) * 0
            for a in units:
                acc = acc + psi_eval(-a * x, p, 1)
            averages[x] = acc.rational_part() / len(units)
        if averages[x]:
            total = total + values[u].scale(averages[x])
    total = total.scale(Fraction(1, p**l_u))
    return mono(F, Fraction(1), 0, k) * total


@pytest.mark.parametrize("p", [2, 3])
def test_spherical_coefficients_by_enumeration(p):
    F = QNumeric(p)
    cs = cs_factor_regularized(F)
    values = {}
    for k in range(-2, 4):
        assert brute_coefficient(SPH, p, k, values) == cs * shintani_sph(F, k)


ORACLE_VECTORS = [
    ("table", 2, 1),
    ("table", 2, 2),
    ("table", 3, 1),
    ("table", 3, 2),
    ("translate", 2, 1),
    ("lincomb", 2, 2),
]


@pytest.mark.parametrize("kind,p,n", ORACLE_VECTORS)
def test_coefficients_match_enumeration(kind, p, n):
    # every coefficient of the zeta window, including the zero-class term and
    # the certified zeros below -L, against the independent double sum
    f = random_table(p, n, seed=70 + 10 * p + n)
    if kind == "translate":
        f = Translate(unipotent(p, Fraction(1, p)), f)
    if kind == "lincomb":
        # mixed levels: the profile tabulates the combination first
        F = QNumeric(p)
        g = random_table(p, n - 1, seed=80 + 10 * p + n)
        f = LinComb([(mono(F, Fraction(2), 1, -1), f), (mono(F, Fraction(-1, 3), 0, 2), g)])
    L = invariance_level(f)
    values = {}
    brute = {}
    for k in range(-(L + 2), L + 5):
        brute[k] = brute_coefficient(f, p, k, values)
        assert whittaker_coefficient(f, k) == brute[k], k
    # the brute window, cleared and summed, is the closed-form period
    window = ZPoly(QNumeric(p), -(L + 2), L + 4, brute)
    assert window.clear_l_factor(L + 2).eval_z1() == toric_period(f)


# -- the big-cell profile against per-coset evaluation ---------------------------------


def coset_profile(f):
    """The big-cell profile of f by evaluating f_w(w n(u)) coset by coset.

    One general group evaluation (matrix product, Iwasawa decomposition,
    class lookup) for each of the p^{2L-1} representatives u of
    p^{-(L-1)} Z_p / p^L Z_p, summed by v(u); zero shells are left out.
    """
    p = vector_prime(f)
    field = QNumeric(p)
    identity, f_w = big_cell_split(f, p, field)
    L = invariance_level(f_w)
    w = weyl(p)
    at_weyl = zero(field)
    shells = {}
    for u in coset_reps(p, -(L - 1), L):
        value = evaluate(f_w, w * unipotent(p, u), field)
        if u == 0:
            at_weyl = value
        else:
            v = valuation(u, p)
            shells[v] = shells[v] + value if v in shells else value
    shells = {v: s for v, s in shells.items() if not s.is_zero}
    return BigCellProfile(p, L, identity, at_weyl, shells)


def _profile_vectors():
    out = [pytest.param(random_table(p, n, seed=90 + 10 * p + n), id=f"random-{p}-{n}")
           for p, n in [(2, 3), (3, 3), (5, 2), (7, 2)]]
    out.append(pytest.param(f0_table(QNumeric(3), 3, 2), id="f0-3-2"))
    out.append(pytest.param(sph_table(QNumeric(5), 5, 2), id="sph-5-2"))
    # rational values stored over another field are embedded on the way in
    out.append(pytest.param(f0_table(S, 2, 2), id="f0-symbolic-2-2"))
    translate = Translate(unipotent(2, Fraction(1, 2)), random_table(2, 1, seed=5))
    out.append(pytest.param(translate, id="translate-2-1"))
    # levels 1 and 2 at p=3: the profile tabulates the combination first
    F = QNumeric(3)
    combo = LinComb([
        (mono(F, Fraction(1, 2), -1, 1), random_table(3, 1, seed=6)),
        (mono(F, Fraction(-3), 2, 0), random_table(3, 2, seed=7)),
    ])
    out.append(pytest.param(combo, id="lincomb-3-1-2"))
    return out


@pytest.mark.parametrize("f", _profile_vectors())
def test_profile_matches_coset_evaluation(f):
    got = big_cell_profile(f)
    assert got == coset_profile(f)
    assert got.level == invariance_level(f)


def test_table_profile_forms_no_group_element(monkeypatch):
    f = random_table(3, 2, seed=8)
    expected = coset_profile(f)

    def refuse(*args, **kwargs):
        raise AssertionError("group element formed")

    monkeypatch.setattr(Mat2, "__init__", refuse)
    monkeypatch.setattr(family, "iwasawa_decompose", refuse)
    monkeypatch.setattr(family, "evaluate", refuse)
    monkeypatch.setattr(whittaker, "evaluate", refuse)
    assert big_cell_profile(f) == expected


# -- engine coefficients ---------------------------------------------------------------


@pytest.mark.parametrize("F", [S, QNumeric(3)], ids=["QSymbolic", "QNumeric3"])
def test_marker_closed_forms(F):
    assert whittaker_coefficient(SPH, 2, F) == cs_factor_regularized(F) * shintani_sph(F, 2)
    assert whittaker_coefficient(PHI_W, 3, F) == y2(F, 3)
    assert whittaker_coefficient(PHI_W, 0, F) == one(F)
    assert whittaker_coefficient(PHI_W, -1, F).is_zero
    with pytest.raises(ValueError):
        whittaker_coefficient(SPH, 0)


def test_iwahori_table_integrates_to_closed_form():
    for p in (2, 3):
        F = QNumeric(p)
        for n in (1, 2):
            f = f0_table(F, p, n)
            for k in range(-3, 4):
                assert whittaker_coefficient(f, k) == whittaker_coefficient(PHI_W, k, F)


def test_sph_table_rides_the_split():
    for p in (2, 5):
        F = QNumeric(p)
        f = sph_table(F, p, 1)
        for k in range(-2, 3):
            assert whittaker_coefficient(f, k) == whittaker_coefficient(SPH, k, F)


def test_translate_shifts_coefficients():
    # right translation by diag(p^j, 1) shifts the index: c_k -> c_{k+j}
    cases = [(3, 1, range(-2, 4)), (2, 2, range(-3, 3))]
    for p, j, ks in cases:
        F = QNumeric(p)
        cs = cs_factor_regularized(F)
        t = Translate(diag(p, Fraction(p) ** j, 1), SPH)
        for k in ks:
            assert whittaker_coefficient(t, k) == cs * shintani_sph(F, k + j)


def test_coefficient_linearity():
    p = 3
    F = QNumeric(p)
    f1 = random_table(p, 1, seed=51)
    f2 = random_table(p, 1, seed=52)
    c1 = mono(F, Fraction(2), 1, 0)
    c2 = mono(F, Fraction(-1, 2), 0, 1)
    combo = LinComb([(c1, f1), (c2, f2)])
    for k in range(-2, 3):
        expected = c1 * whittaker_coefficient(f1, k) + c2 * whittaker_coefficient(f2, k)
        assert whittaker_coefficient(combo, k) == expected


def test_low_tail_vanishes():
    # coefficients die below -(n+1): the unit average kills every shell the
    # invariance level leaves nonconstant
    for p, n in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        f = random_table(p, n, seed=60 + p + n)
        for k in range(-(n + 1), -(n + 4), -1):
            assert whittaker_coefficient(f, k).is_zero


def test_field_mismatch_guard():
    f = random_table(3, 1, seed=3)
    with pytest.raises(FieldMismatch):
        whittaker_coefficient(f, 0, QNumeric(5))
