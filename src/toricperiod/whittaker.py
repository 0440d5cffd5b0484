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

    J_k = q^{-L} * (F0 + sum over v >= -k of S_v - S_{-k-1} / (q - 1))

for k >= -L.  Below -L, J_k vanishes: inside p^L Z_p the ball p^{-k} Z_p
carries weight 1, and the shell v = -k-1, of (q - 1) times its volume,
weight -1/(q-1).  The big-cell half of the period is U(f), the sum of
Y2^k (J_k - J_{k-1}); each S_v enters it as q w S_v at k = -v and as
-w S_v at k = -v - 1, with w = 1 / (q^L (q - 1)), so in one sweep

    U(f) = q^{-L} F0 Y2^{-L} + (q Y2 - 1) * w * sum over v of S_v Y2^{-v-1}.

The markers are profiles too, of level 0 with no shells.

F0 and the S_v are read without forming a group element: w n(u) has an
explicit Iwasawa form, so each S_v is a sum of the class values of f over
the classes of one valuation, times a torus monomial when v < 0.  That is
one pass of p^L + p^{L-1} table reads per vector (see `big_cell_profile`).

All of this is rational: no character value is ever formed, because the
unit averages are used in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .family import (
    IwahoriPhiW,
    Spherical,
    TableVector,
    big_cell_split,  # noqa: F401  (bound here so perfbench/tracer.py can time the split)
    chi_delta_value,
    evaluate,  # noqa: F401  (bound here so perfbench/tracer.py can count evaluations)
    invariance_level,
    tabulate,
    vector_field,
    vector_prime,
)
from .laurent import LaurentPoly, _of
from .localfield import (
    P1Class,
    coset_reps,  # noqa: F401  (bound here so perfbench/tracer.py can count cosets)
    shell_character_integral,
    unit_reps,  # noqa: F401  (bound here so perfbench/tracer.py can count unit enumeration)
    valuation,
)
from .scalars import QNumeric, add_into


def shintani_sph(field, k):
    """Complete homogeneous polynomial h_k(Y1, Y2); zero for negative k.

    These are the normalized spherical Whittaker values: their generating
    series in Z is exactly 1 / ((1 - Y1 Z)(1 - Y2 Z)).
    """
    if k < 0:
        return LaurentPoly.zero(field)
    return LaurentPoly(field, {(i, k - i): field.one for i in range(k + 1)})


def sph_big_cell_value(field, m):
    """Value of the spherical vector at w n(u) for v(u) = -m < 0: chi_delta at (m, -m)."""
    return chi_delta_value(field, m, -m)


def cs_factor_regularized(field):
    """Regularized big-cell integral of the spherical vector, 1 - q^{-1} Y1 Y2^{-1}.

    The shell sum collapses because the character integral vanishes on every
    shell of depth two or more, leaving the unit ball plus one correction.
    """
    one = LaurentPoly.one(field)
    return one + sph_big_cell_value(field, 1).scale(shell_character_integral(-1, field))


@dataclass(frozen=True)
class BigCellProfile:
    """The big-cell data of a vector f that every J_k is read from.

    `identity` is f(1), so f = identity * spherical + f_w; `at_weyl` is
    f_w(w), the profile on the zero class p^L Z_p; `shells[v]` is the sum of
    f_w(w n(u)) over the coset representatives u of valuation v, left out
    when it is zero.  A marker is a level-0 profile with no shells, from
    which neither J_k nor U(f) reads p, so its `p` is None.
    """

    p: int | None
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
    valuation: p^L + p^{L-1} table reads, each merged in place into one
    term dict per valuation, and no group element.  A translate or
    combination is first tabulated at its invariance level, where the
    table is exact.
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
        add_into(sums.setdefault(v, {}), value.terms)
        counts[v] = counts.get(v, 0) + 1
    identity = values[P1Class(p, L, False, 0)]
    at_weyl = values[P1Class(p, L, True, 0)] - identity
    shells = {}
    for v, terms in sums.items():
        s = _of(field, terms) - identity.scale(counts[v])
        if v < 0:
            s = s.shift(-v, v).scale(field.q_power(v) * p ** (-2 * v))
        if not s.is_zero:
            shells[v] = s
    return BigCellProfile(p, L, identity, at_weyl, shells)


def _profile(f, field, profile=None):
    """The profile of f over field; a marker's has level 0, no shells and
    (identity, at_weyl) = (1, 0) for SPH and (0, 1) for PHI_W."""
    if isinstance(f, Spherical):
        return BigCellProfile(None, 0, LaurentPoly.one(field), LaurentPoly.zero(field), {})
    if isinstance(f, IwahoriPhiW):
        return BigCellProfile(None, 0, LaurentPoly.zero(field), LaurentPoly.one(field), {})
    return big_cell_profile(f) if profile is None else profile


def period_parts(f, field=None):
    """(f(1), U(f)), so l(f) = f(1) * g2 + g1 * U(f), with U(f) summed in one
    sweep of the shells as the module docstring states."""
    field = vector_field(f, field)
    profile = _profile(f, field)
    p, L = profile.p, profile.level
    u = profile.at_weyl.shift(0, -L).scale(field.q_power(-L))
    merged = {}
    for v, s in profile.shells.items():
        add_into(merged, s.shift(0, -v - 1).terms)
    if merged:
        w = Fraction(1, p**L * (p - 1))
        u = u + LaurentPoly(field, {(0, 1): p * w, (0, 0): -w}) * _of(field, merged)
    return profile.identity, u


def whittaker_coefficient(f, k, field=None, profile=None):
    """The coefficient c_k(f), exactly.

    c_k(f) = f(1) * (1 - q^{-1} Y1 Y2^{-1}) * h_k + Y2^k * J_k with J_k read
    off the shells as the module docstring states, so c_k(phi_w) = Y2^k for
    k >= 0.  Symbolic markers live over the supplied field; other vectors
    are integrated at their prime, and a caller reading many k passes their
    profile.
    """
    field = vector_field(f, field)
    profile = _profile(f, field, profile)
    out = profile.identity * cs_factor_regularized(field) * shintani_sph(field, k)
    if k < -profile.level:
        return out
    shells = profile.shells
    j = sum((s for v, s in shells.items() if v >= -k), profile.at_weyl)
    if -k - 1 in shells:
        j = j - shells[-k - 1].scale(Fraction(1, profile.p - 1))
    return out + j.shift(0, k).scale(field.q_power(-profile.level))
