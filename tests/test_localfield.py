import random
from fractions import Fraction

import pytest
from character_oracle import ConductorExceeded, psi_eval

from toricperiod.localfield import (
    INF,
    Mat2,
    P1Class,
    additive_haar_integral,
    class_rep,
    coset_reps,
    diag,
    iwasawa_decompose,
    p1_class_of,
    p1_enumerate,
    residue_mod,
    shell_character_integral,
    unipotent,
    unit_reps,
    valuation,
    weyl,
)
from toricperiod.scalars import Cyclotomic, QNumeric, QSymbolic


def rand_matrix(rng, p, depth=2):
    while True:
        entries = [
            Fraction(rng.randint(-40, 40), p ** rng.randint(0, depth)) for _ in range(4)
        ]
        m = Mat2(p, *entries)
        if m.det() != 0:
            return m


# -- valuation / residues -----------------------------------------------------


def test_valuation():
    assert valuation(12, 2) == 2
    assert valuation(Fraction(5, 27), 3) == -3
    assert valuation(Fraction(9, 5), 3) == 2
    assert valuation(7, 3) == 0
    assert valuation(0, 5) == INF
    # ints are read directly, negative ones too, and Fractions as they are
    assert valuation(-12, 2) == 2
    assert valuation(-7, 3) == 0
    assert valuation(-(3**50) * 7, 3) == 50
    assert valuation(2**4000, 2) == 4000
    assert valuation(Fraction(-5, 27), 3) == -3
    assert valuation(Fraction(-18, 7), 3) == 2
    assert valuation(Fraction(0), 5) == INF
    assert valuation(-0, 2) == INF
    for x in (12, -12, Fraction(5, 27)):
        assert type(valuation(x, 3)) is int


def test_residue_mod():
    assert residue_mod(17, 3, 2) == 8
    assert residue_mod(Fraction(1, 2), 3, 2) == 5  # inverse of 2 mod 9
    assert residue_mod(Fraction(-1, 4), 5, 2) == 6  # 4 * 6 = 24 = -1 mod 25
    with pytest.raises(ValueError):
        residue_mod(Fraction(1, 3), 3, 2)


# -- matrices --------------------------------------------------------------------


def test_mat2_ops():
    g = Mat2(3, 1, 2, 3, 4)
    h = Mat2(3, 0, 1, 1, 0)
    assert (g * h).entries() == (2, 1, 4, 3)
    assert g.det() == -2
    assert (g * g.inv()) == Mat2.identity(3)
    assert weyl(3) * weyl(3) == Mat2.identity(3)
    assert unipotent(3, 2) * unipotent(3, 5) == unipotent(3, 7)


def test_is_unit():
    assert weyl(5).is_unit()
    assert not diag(5, 5, 1).is_unit()
    assert not Mat2(5, 1, Fraction(1, 5), 0, 1).is_unit()
    assert Mat2(5, 2, 3, 5, 9).is_unit()


# -- Iwasawa decomposition ----------------------------------------------------------


def test_iwasawa_big_cell_identity():
    # [[0,1],[1,x]] = [[-x^{-1},1],[0,x]] * [[1,0],[x^{-1},1]] for v(x) < 0
    for p in (2, 3, 5):
        for m in (1, 2, 3):
            x = Fraction(1, p**m)
            g = weyl(p) * unipotent(p, x)
            fac = iwasawa_decompose(g)
            assert (fac.a1, fac.a2) == (m, -m)
            assert fac.k == Mat2(p, 1, 0, 1 / x, 1)
            b = g * fac.k.inv()
            assert b.c == 0
            assert b == Mat2(p, -1 / x, 1, 0, x)


def test_iwasawa_reconstruction_random():
    rng = random.Random(97)
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        g = rand_matrix(rng, p)
        fac = iwasawa_decompose(g)
        assert fac.k.is_unit()
        b = g * fac.k.inv()
        assert b.c == 0
        assert valuation(b.a, p) == fac.a1
        assert valuation(b.d, p) == fac.a2
        assert b * fac.k == g


def test_iwasawa_diagonal_and_singular():
    fac = iwasawa_decompose(diag(3, 9, Fraction(1, 3)))
    assert (fac.a1, fac.a2) == (2, -1)
    assert fac.k == Mat2.identity(3)
    with pytest.raises(ZeroDivisionError):
        iwasawa_decompose(Mat2(3, 1, 1, 2, 2))


# -- P^1 classes -----------------------------------------------------------------------


def test_p1_enumerate_count():
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            classes = p1_enumerate(p, n)
            assert len(classes) == p**n + p ** (n - 1)
            assert len(set(map(str, classes))) == len(classes)


def test_identity_class_is_affine_zero():
    cls = p1_class_of(Mat2.identity(3), 2)
    assert not cls.at_infinity and cls.rep == 0
    assert str(cls) == "[0:1]"


def test_class_rep_roundtrip():
    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        for cls in p1_enumerate(p, n):
            k = class_rep(cls)
            assert k.is_unit()
            assert p1_class_of(k, n) == cls


def test_class_right_invariance():
    rng = random.Random(31)
    p, n = 3, 2
    mod = p**n
    for _ in range(200):
        k = rand_matrix(rng, p, 0)
        if not k.is_unit():
            continue
        kappa = Mat2(
            p,
            1 + mod * rng.randint(-2, 2),
            mod * rng.randint(-2, 2),
            mod * rng.randint(-2, 2),
            1 + mod * rng.randint(-2, 2),
        )
        if not kappa.is_unit():
            continue
        assert p1_class_of(k * kappa, n) == p1_class_of(k, n)


def test_weyl_class_is_infinity_zero():
    cls = p1_class_of(weyl(3), 2)
    assert cls.at_infinity and cls.rep == 0
    assert str(cls) == "[1:0]"


def test_p1_class_validation():
    with pytest.raises(ValueError):
        P1Class(3, 1, True, 1)  # [1:v] needs p | v
    with pytest.raises(ValueError):
        P1Class(3, 1, False, 9)
    with pytest.raises(ValueError):
        p1_class_of(diag(3, 3, 1), 1)


def test_p1_class_hash_and_equality():
    # The hash is fixed at construction, as the dataclass would compute it;
    # equality, str and immutability are the dataclass's.
    classes = p1_enumerate(3, 2)
    again = p1_enumerate(3, 2)
    for a, b in zip(classes, again):
        assert a == b and a is not b and hash(a) == hash(b)
        assert hash(a) == hash((a.p, a.n, a.at_infinity, a.rep))
    assert len(set(classes) | set(again)) == len(classes) == 12
    assert P1Class(3, 2, False, 3) != P1Class(3, 2, True, 3)
    assert P1Class(3, 2, False, 3) != P1Class(3, 1, False, 0)
    assert [str(c) for c in (P1Class(3, 2, False, 4), P1Class(3, 2, True, 6))] == ["[4:1]", "[1:6]"]
    with pytest.raises(AttributeError):
        classes[0].rep = 1


# -- additive character -----------------------------------------------------------------


def test_psi_basic_values():
    assert psi_eval(Fraction(2, 3), 3, 1) == Cyclotomic.zeta_power(3, 1, 2)
    assert psi_eval(Fraction(7), 3, 1) == 1
    assert psi_eval(Fraction(1, 9), 3, 2) == Cyclotomic.zeta_power(3, 2, 1)
    # level-2 value of a conductor-1 argument: zeta_9^3
    assert psi_eval(Fraction(1, 3), 3, 2) == Cyclotomic.zeta_power(3, 2, 3)
    with pytest.raises(ConductorExceeded):
        psi_eval(Fraction(1, 27), 3, 2)


def test_psi_is_additive():
    rng = random.Random(53)
    p, level = 3, 3
    for _ in range(200):
        x = Fraction(rng.randint(-30, 30), p ** rng.randint(0, level))
        y = Fraction(rng.randint(-30, 30), p ** rng.randint(0, level))
        assert psi_eval(x, p, level) * psi_eval(y, p, level) == psi_eval(x + y, p, level)


# -- shell integrals ----------------------------------------------------------------------


def brute_shell_integral(m, p, level):
    """Enumerate the shell v(x) = m by cosets and sum psi exactly."""
    L = max(m + 1, 1)
    total = Cyclotomic.from_fraction(p, level, 0)
    for x in coset_reps(p, m, L):
        if valuation(x, p) == m:
            total = total + psi_eval(x, p, level)
    return total.rational_part() * Fraction(1, p**L)


def test_shell_character_integral_closed_form():
    S, N3 = QSymbolic(), QNumeric(3)
    assert shell_character_integral(0, S) == S.one - S.q_power(-1)
    assert shell_character_integral(2, S) == S.q_power(-2) * (S.one - S.q_power(-1))
    assert shell_character_integral(-1, S) == -S.one
    assert shell_character_integral(-2, S) == S.zero
    assert shell_character_integral(-5, N3) == 0
    assert shell_character_integral(1, N3) == Fraction(2, 9)


def test_shell_character_integral_matches_enumeration():
    for p in (2, 3):
        F = QNumeric(p)
        for m in range(-3, 3):
            level = max(1, -m)
            assert shell_character_integral(m, F) == brute_shell_integral(m, p, level)


# -- Haar integration -----------------------------------------------------------------------


def test_haar_volume_normalization():
    # vol(Z_p) = 1 and vol(p^m Z_p) = q^{-m} at any admissible refinement
    for p in (2, 5):
        for level in (1, 2, 3):
            v = additive_haar_integral(lambda x: Fraction(1), p, 0, level, Fraction(0))
            assert v == 1
    assert additive_haar_integral(lambda x: Fraction(1), 3, 2, 4, Fraction(0)) == Fraction(1, 9)


def test_haar_scaling_law():
    rng = random.Random(71)
    p = 3
    for _ in range(40):
        level, ball = 2, 1  # phi supported in p^{-1} Z_p, constant on p^2 Z_p cosets
        values = {}
        for x in coset_reps(p, -ball, level):
            values[x] = Fraction(rng.randint(-5, 5))

        def phi(x):
            if valuation(x, p) < -ball:
                return Fraction(0)
            step = Fraction(1, p**ball)
            rep = (x / step) % (p ** (level + ball)) * step
            return values[rep]

        base = additive_haar_integral(phi, p, -ball, level, Fraction(0))
        for c in [Fraction(3), Fraction(1, 3), Fraction(2), Fraction(5, 3)]:
            vc = valuation(c, p)
            scaled = additive_haar_integral(
                lambda x: phi(c * x), p, -ball - max(0, -vc) - 1, level + max(0, vc) + 1, Fraction(0)
            )
            assert scaled == Fraction(p) ** vc * base


def test_unit_reps():
    assert unit_reps(2, 1) == [1]
    assert unit_reps(3, 2) == [a for a in range(9) if a % 3]
    assert len(unit_reps(5, 2)) == 20
