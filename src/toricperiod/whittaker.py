"""Whittaker coefficients of family vectors, by closed form and by integration.

The k-th coefficient of a vector f is the unit-averaged torus value of its
Whittaker transform,

    c_k(f) = integral over units a of  W_f(diag(a p^k, 1)),
    W_f(g) = integral of f(w n(u) g) psi^{-1}(u) du,

with both Haar measures normalized to total mass 1 on the unit and integer
balls.  Moving the torus element through n(u) turns this into the big-cell
double integral

    c_k(f) = Y2^k * J_k(f),    J_k(f) = integral of f(w n(u)) psi^{-1}(a p^k u),

which truncates to a finite exact sum once f vanishes at the identity.  A
general vector is first split as f = f(1) * spherical + f_w; the spherical
half carries the regularized value

    c_k(spherical) = (1 - q^{-1} Y1 Y2^{-1}) * h_k(Y1, Y2)

with h_k the complete homogeneous polynomial, so only f_w is integrated.
With L the invariance level of f_w, the profile u |-> f_w(w n(u)) vanishes
for v(u) <= -L and is constant on cosets of p^L, so it is a finite table on
p^{-(L-1)} Z_p / p^L Z_p.  The unit average of psi^{-1}(a x) is the
normalized Ramanujan sum, 1 for v(x) >= 0, -1/(q-1) for v(x) = -1 and 0
below, so it depends on u only through v(u).  Every J_k therefore follows
from the value F0 = f_w(w) on the zero class and the shell sums S_v of
f_w(w n(u)) over representatives with v(u) = v:

    J_k = q^{-L} * (F0 + sum over v >= -k of S_v - S_{-k-1} / (q - 1)),   k >= -L,
    J_k = 0,                                                             k < -L.

Below -L the zero class cancels itself: inside p^L Z_p the ball p^{-k} Z_p
carries weight 1, and the shell v = -k-1, of (q - 1) times its volume,
carries weight -1/(q-1).

F0 and the S_v are read without forming a group element: w n(u) has an
explicit Iwasawa form, so each S_v is a sum of the class values of f over
the classes of one valuation, times a torus monomial when v < 0.  That is
one pass of p^L + p^{L-1} table reads per vector (see `big_cell_profile`).

All of this is rational; character sums over a cyclotomic field remain
only in the Whittaker functional `lambda_chi` and `projected_sph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .family import (
    SPH,
    IwahoriPhiW,
    LinComb,
    Spherical,
    TableVector,
    Translate,
    big_cell_split,  # noqa: F401  (bound here so perfbench/tracer.py can time the split)
    evaluate,
    invariance_level,
    tabulate,
    vector_field,
    vector_prime,
)
from .laurent import LaurentPoly
from .localfield import (
    Mat2,
    P1Class,
    coset_reps,
    psi_eval,
    shell_character_integral,
    unipotent,
    unit_reps,  # noqa: F401  (bound here so perfbench/tracer.py can count unit enumeration)
    valuation,
    weyl,
)
from .scalars import QCyclotomic, QNumeric


def shintani_sph(field, k):
    """Complete homogeneous polynomial h_k(Y1, Y2); zero for negative k.

    These are the normalized spherical Whittaker values: their generating
    series in Z is exactly 1 / ((1 - Y1 Z)(1 - Y2 Z)).
    """
    if k < 0:
        return LaurentPoly.zero(field)
    return LaurentPoly(field, {(i, k - i): field.one for i in range(k + 1)})


def sph_big_cell_value(field, m):
    """Value of the spherical vector at w n(u) for v(u) = -m < 0."""
    return LaurentPoly.monomial(field, field.q_power(-m), m, -m)


def cs_factor_regularized(field):
    """Regularized big-cell integral of the spherical vector, 1 - q^{-1} Y1 Y2^{-1}.

    The shell sum collapses because the character integral vanishes on every
    shell of depth two or more, leaving the unit ball plus one correction.
    """
    one = LaurentPoly.one(field)
    return one + sph_big_cell_value(field, 1).scale(shell_character_integral(-1, field))


def _unit_average(p, x):
    """Average of psi^{-1}(a x) over units a: the normalized Ramanujan sum.

    It depends only on v(x): 1 when psi is trivial on the orbit, -1/(q-1)
    when the orbit runs over the nontrivial p-th roots of unity, and 0 once
    it covers whole cosets of a deeper root of unity.
    """
    v = valuation(x, p)
    if v >= 0:
        return Fraction(1)
    if v == -1:
        return Fraction(-1, p - 1)
    return Fraction(0)


@dataclass(frozen=True)
class BigCellProfile:
    """The big-cell data of a vector f that every J_k is read from.

    `identity` is f(1), so f = identity * spherical + f_w; `at_weyl` is
    f_w(w), the profile on the zero class p^L Z_p; `shells[v]` is the sum of
    f_w(w n(u)) over the coset representatives u of valuation v, left out
    when it is zero.
    """

    p: int
    level: int
    identity: LaurentPoly
    at_weyl: LaurentPoly
    shells: dict


def big_cell_profile(f):
    """The shell sums of u |-> f_w(w n(u)), read off the class table of f.

    For u in Z_p, w n(u) = [[0, 1], [1, u]] already lies in GL2(Z_p): its
    class is [u^{-1} : 1] for a unit u and [1 : u] otherwise, the zero
    class p^L Z_p landing on [1 : 0].  For v(u) = -m < 0 the explicit
    Iwasawa form

        w n(u) = [[-u^{-1}, 1], [0, u]] * [[1, 0], [u^{-1}, 1]]

    contributes the torus value q^{-m} Y1^m Y2^{-m} and the class
    [u^{-1} : 1] with v(u^{-1}) = m, and each such class is hit by p^{2m}
    of the cosets u + p^L Z_p.  With a = f(1), the value on [0 : 1], every
    shell is one sum of T[c] - a over the classes c of one kind and one
    valuation: p^L + p^{L-1} table reads and no group element.  A
    translate or combination is first tabulated at its invariance level,
    where the table is exact.
    """
    p = vector_prime(f)
    if p is None:
        raise ValueError("vector carries no residue prime; tabulate it first")
    field = QNumeric(p)
    table = f if isinstance(f, TableVector) else tabulate(f, p, invariance_level(f), field)
    L = table.n
    values = table.values
    if table.field != field:
        values = {cls: value.embed(field) for cls, value in values.items()}
    sums, counts = {}, {}
    for cls, value in values.items():
        if cls.rep == 0:
            continue  # [0 : 1] is the identity, [1 : 0] the zero class
        v = valuation(cls.rep, p)
        if not cls.at_infinity:
            v = -v  # [c : 1] holds the u with u^{-1} = c mod p^L
        sums[v] = sums[v] + value if v in sums else value
        counts[v] = counts.get(v, 0) + 1
    identity = values[P1Class(p, L, False, 0)]
    at_weyl = values[P1Class(p, L, True, 0)] - identity
    shells = {}
    for v, total in sums.items():
        s = total - identity.scale(counts[v])
        if v < 0:
            s = sph_big_cell_value(field, -v).scale(p ** (-2 * v)) * s
        if not s.is_zero:
            shells[v] = s
    return BigCellProfile(p, L, identity, at_weyl, shells)


def _j_integral(profile, k):
    """Exact value of J_k(f_w) from the shell sums of its big-cell profile.

    A representative u of valuation v < L stands for the coset u + p^L Z_p,
    on which v(u) and hence the unit average of psi^{-1}(a p^k u) is
    constant, so

        J_k = q^{-L} * (F0 + sum over v >= -k of S_v - S_{-k-1} / (q - 1))

    for k >= -L.  The zero class is the whole ball p^L Z_p: for k >= -L it
    lies in the kernel of psi^{-1}(a p^k .) and carries weight 1.  For
    k < -L its own shells cancel, 1 + (q-1) * (-1/(q-1)) = 0, and every
    other shell averages to 0, so J_k vanishes.
    """
    p, L = profile.p, profile.level
    if k < -L:
        return LaurentPoly.zero(profile.at_weyl.field)
    total = profile.at_weyl
    for v, s in profile.shells.items():
        weight = _unit_average(p, Fraction(p) ** (k + v))
        if weight:
            total = total + s.scale(weight)
    return total.scale(Fraction(1, p**L))


def whittaker_coefficient(f, k, field=None, profile=None):
    """The coefficient c_k(f), exactly.

    Symbolic markers use their closed forms over the supplied field.  Table
    vectors, translates, and combinations are integrated at the prime they
    are tied to: the identity value rides the spherical closed form and the
    big-cell remainder is read off its shell profile.  A caller reading
    many k passes the `big_cell_profile(f)` it has already built.
    """
    field = vector_field(f, field)
    if isinstance(f, Spherical):
        return cs_factor_regularized(field) * shintani_sph(field, k)
    if isinstance(f, IwahoriPhiW):
        if k < 0:
            return LaurentPoly.zero(field)
        return LaurentPoly.monomial(field, field.one, 0, k)
    if profile is None:
        profile = big_cell_profile(f)
    out = profile.identity * cs_factor_regularized(field) * shintani_sph(field, k)
    j = _j_integral(profile, k)
    if not j.is_zero:
        out = out + LaurentPoly.monomial(field, field.one, 0, k) * j
    return out


def lambda_chi(f, p=None, level=None):
    """Whittaker functional: integral of f(w n(u)) psi^{-1}(u) du.

    Requires f to vanish at the identity, which forces the integrand to
    vanish identically below the truncation depth and makes the finite sum
    exact.  The accumulation runs in the cyclotomic field of the character
    values and is projected to rational coefficients at the end.
    """
    if p is None:
        p = vector_prime(f)
    if p is None:
        raise ValueError("vector carries no residue prime; pass p explicitly")
    L = invariance_level(f)
    if level is None:
        level = max(1, L - 1)
    field_c = QCyclotomic(p, level)
    if not evaluate(f, Mat2.identity(p), field_c).is_zero:
        raise ValueError("lambda_chi requires a vector vanishing at the identity")
    w = weyl(p)
    total = LaurentPoly.zero(field_c)
    for u in coset_reps(p, -(L - 1), L):
        f_u = evaluate(f, w * unipotent(p, u), field_c)
        if not f_u.is_zero:
            total = total + f_u.scale(psi_eval(-u, p, level))
    total = total.scale(Fraction(1, p**L))
    return total.project_rational(QNumeric(p))


def projected_sph(p, level=2):
    """Character-weighted smoothing of the spherical vector, vanishing at 1.

    The combination sum over a of q^{-1} psi^{-1}(a/p) translate-by-n(a/p)
    keeps the full spherical big-cell profile but kills the identity value,
    so lambda_chi applies to it; its functional value recovers the
    regularized spherical constant.
    """
    field_c = QCyclotomic(p, level)
    inv_q = Fraction(1, p)
    terms = []
    for a in range(p):
        weight = psi_eval(Fraction(-a, p), p, level)
        coeff = LaurentPoly.constant(field_c, weight).scale(inv_q)
        terms.append((coeff, Translate(unipotent(p, Fraction(a, p)), SPH)))
    return LinComb(terms)
