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
weight -1/(q-1).  From L - 1 on it is constant, so J_k is the prefix sum
over j <= k of the steps

    D_{-L} = q^{-L} * (F0 - S_{L-1} / (q - 1)),
    D_k    = q^{-L} * (q * S_{-k} - S_{-k-1}) / (q - 1),   -L < k < L,

which also give the period (see `period_parts`).

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


def _steps(profile):
    """The nonzero steps D_k = J_k - J_{k-1} of the profile, keyed by k."""
    p, L = profile.p, profile.level
    zero = LaurentPoly.zero(profile.at_weyl.field)
    shells = profile.shells
    steps = {-L: profile.at_weyl.scale(p - 1) - shells.get(L - 1, zero)}
    for k in range(1 - L, L):
        steps[k] = shells.get(-k, zero).scale(p) - shells.get(-k - 1, zero)
    weight = Fraction(1, p**L * (p - 1))
    return {k: d.scale(weight) for k, d in steps.items() if not d.is_zero}


def _identity_and_steps(f, field, profile=None):
    """(f(1), {k: D_k}): (1, {}) for the spherical marker, (0, {0: 1}) for
    the Iwahori marker, and read off `big_cell_profile(f)` otherwise."""
    if isinstance(f, Spherical):
        return LaurentPoly.one(field), {}
    if isinstance(f, IwahoriPhiW):
        return LaurentPoly.zero(field), {0: LaurentPoly.one(field)}
    if profile is None:
        profile = big_cell_profile(f)
    return profile.identity, _steps(profile)


def period_parts(f, field=None):
    """(f(1), U(f)) with U(f) = sum of Y2^k D_k, so l(f) = f(1) * g2 + g1 * U(f).

    The spherical marker gives (1, 0) and the Iwahori marker (0, 1).
    """
    field = vector_field(f, field)
    identity, steps = _identity_and_steps(f, field)
    u = LaurentPoly.zero(field)
    for k, d in steps.items():
        u = u + d.shift(0, k)
    return identity, u


def whittaker_coefficient(f, k, field=None, profile=None):
    """The coefficient c_k(f), exactly.

    c_k(f) = f(1) * (1 - q^{-1} Y1 Y2^{-1}) * h_k + Y2^k * J_k with J_k the
    prefix sum of the steps, so c_k(phi_w) = Y2^k for k >= 0.  Symbolic
    markers live over the supplied field; other vectors are integrated at
    their prime, and a caller reading many k passes their profile.
    """
    field = vector_field(f, field)
    identity, steps = _identity_and_steps(f, field, profile)
    out = identity * cs_factor_regularized(field) * shintani_sph(field, k)
    j = sum((d for i, d in steps.items() if i <= k), LaurentPoly.zero(field))
    if not j.is_zero:
        out = out + j.shift(0, k)
    return out
