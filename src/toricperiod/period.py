"""The toric period of a family vector, and its ideal-membership report.

The period is defined through the zeta integral in an auxiliary variable Z,

    I(f, Z) = sum over k of c_k(f) Z^k,

a rational series with denominator dividing (1 - Y1 Z)(1 - Y2 Z): l(f) is
the cleared polynomial (1 - Y1 Z)(1 - Y2 Z) I(f, Z) at Z = 1, which sits at
the unramified twist point.  With c_k = f(1) g2 h_k + Y2^k J_k, the
spherical half clears to f(1) g2, and (1 - Y2 Z) telescopes the big-cell
half to U(f), the sum of Y2^k (J_k - J_{k-1}), so

    l(f) = f(1) * g2 + g1 * U(f),
    U(f) = q^{-L} F0 Y2^{-L} + (q Y2 - 1) * w * sum over v of S_v Y2^{-v-1},

with g1 = 1 - Y1, g2 = 1 - q^{-1} Y1 Y2^{-1}, w = 1 / (q^L (q - 1)), and
F0 and the shell sums S_v the big-cell profile of `whittaker` (the markers
are profiles of level 0 with no shells).  `toric_period` evaluates this
closed form in one sweep of the shells, and it puts every period in the
ideal (g1, g2); `verify_image` certifies that membership for a given
vector.  The spherical vector's own period is g2; dividing by it
normalizes periods against the spherical line.

For a vector tied to p the closed form is summed on integers:
`whittaker.period_numerators` hands over f(1) and U(f) as integer
numerators, each with its denominator (D, the lcm of the table's
denominators, and D q^L (q - 1)), so l(f) is an integer sum over
D q^{L+1} (q - 1), and each of its coefficients is built as a Fraction
once.  The point oracle that checks every verdict decides l(1, 1/q) = 0
as one integer sum as well, and shares no code with the solver.

`zeta_window` and `cleared_window` keep the definition as the reference
route: an exact finite window of I(f, Z), cleared, with a guard zone
certifying that nothing was truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import lcm
from typing import Optional

from .family import invariance_level, vector_field, vector_prime
from .groebner import Certificate, MembershipSolver
from .laurent import LaurentPoly, NotDivisible, ZPoly, one, qpow, y1, y2
from .whittaker import (
    _add_shifted,
    big_cell_profile,
    from_numerators,
    period_numerators,
    period_parts,
    whittaker_coefficient,
)


class VerdictMismatch(ArithmeticError):
    """The membership solver and the point oracle disagree about a period."""


def zeta_window(f, field=None):
    """Exact coefficient window of I(f, Z) around the critical strip.

    The window spans [-(n+2), n+4] for invariance level n: two indices of
    certified zeros below the vanishing tail and a guard zone of at least
    two stabilized indices above the recurrence onset.  A vector tied to a
    prime is profiled on the big cell once, and every coefficient of the
    window is read from that profile.
    """
    fld = vector_field(f, field)
    n = invariance_level(f)
    profile = None if vector_prime(f) is None else big_cell_profile(f)
    return ZPoly.from_function(
        fld, -(n + 2), n + 4, lambda k: whittaker_coefficient(f, k, fld, profile)
    )


def cleared_window(f, field=None):
    """(1 - Y1 Z)(1 - Y2 Z) * I(f, Z) as a certified polynomial in Z.

    Degree at most n + 2 is enforced by the window's guard zone: a nonzero
    coefficient past it raises TailViolation.  The window's coefficients are
    exact, so a larger window would fail at the same indices.
    """
    return zeta_window(f, field).clear_l_factor(invariance_level(f) + 2)


def toric_period(f, field=None):
    """The period l(f) = f(1) * g2 + g1 * U(f), built without a window.

    A marker's parts are combined with the generators as Laurent values.
    For a vector tied to p, with f(1) and U(f) as integer numerators over
    their denominators (`period_numerators`), the first dividing the
    second, the period is summed as integers over p times U(f)'s
    denominator, from g1 = 1 - Y1 and p g2 = p - Y1 Y2^{-1}, and each
    coefficient becomes one Fraction.
    """
    field = vector_field(f, field)
    if vector_prime(f) is None:
        identity, u = period_parts(f, field)
        g1, g2 = image_ideal(field)
        return identity * g2 + g1 * u
    p, (identity, d_identity), (u, d_u) = period_numerators(f)
    k = d_u // d_identity
    la = {}
    _add_shifted(la, identity, 0, 0, p * k)
    _add_shifted(la, identity, 1, -1, -k)
    _add_shifted(la, u, 0, 0, p)
    _add_shifted(la, u, 1, 0, -p)
    return from_numerators(field, la, p * d_u)


def spherical_ratio(f, field=None):
    """The period of f divided by the spherical period, if it stays in A.

    Returns the exact Laurent quotient, or None when the ratio genuinely
    leaves the ring; the spherical vector itself normalizes to 1.  Since
    l(f) = f(1) * g2 + g1 * U(f) and g1, g2 are coprime, g2 divides l(f)
    exactly when it divides U(f), and then l(f)/g2 = f(1) + g1 * U(f)/g2.
    """
    identity, u = period_parts(f, field)
    g1, g2 = image_ideal(identity.field)
    try:
        return identity + g1 * u.divide_exact(g2)
    except NotDivisible:
        return None


@cache
def image_ideal(field):
    """Generator pair (1 - Y1, 1 - q^{-1} Y1 Y2^{-1}) of the period image.

    Built once per field: every call with an equal field returns the same
    pair, which the arithmetic only reads.
    """
    return (
        one(field) - y1(field),
        one(field) - qpow(field, -1) * y1(field) * y2(field, -1),
    )


@cache
def image_ideal_alt(field):
    """The same ideal presented on the other torus line, via 1 - q Y2.

    Built once per field, as `image_ideal` is.
    """
    return (
        one(field) - qpow(field, 1) * y2(field),
        one(field) - qpow(field, -1) * y1(field) * y2(field, -1),
    )


def _vanishes_at_image_point(la):
    """Whether la vanishes at (Y1, Y2) = (1, 1/q).

    The image ideal is the maximal ideal of that point (modulo it, Y1 = 1
    and Y2 = q^{-1} Y1), so this decides membership by evaluation alone,
    sharing no code with the solver.  Over QNumeric it is one
    integer sum; over QSymbolic, an evaluation in Q(q).
    """
    fld = la.field
    if fld.is_symbolic:
        return la.evaluate_at(fld.one, fld.q_power(-1)) == fld.zero
    if not la.terms:
        return True
    # la(1, 1/q) * q^top * den as one integer sum, den the lcm of the
    # coefficients' denominators: each power q^(top - e2) is at most
    # q^(max e2 - min e2).
    q = fld.q
    top = max(e2 for _, e2 in la.terms)
    den = lcm(*{c.denominator for c in la.terms.values()})
    total = 0
    for (_, e2), c in la.terms.items():
        total += c.numerator * (den // c.denominator) * q ** (top - e2)
    return total == 0


@dataclass(frozen=True)
class PeriodReport:
    """Certified summary of one period computation.

    `rational` is always true: every period has coefficients in the
    rationals or in Q(q).  It stays in the report and its JSON so that both
    keep their shape.
    """

    la: LaurentPoly
    member: bool
    certificate: Optional[Certificate]
    rational = True

    def to_json(self):
        return {
            "lA": self.la.to_json_terms(),
            "lA_display_X": self.la.to_x_display(),
            "member": self.member,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
            "rational": self.rational,
        }


# The one solver for the image ideal: verify_image and the CLI's identities
# and ideal commands ask it about image_ideal(field) and image_ideal_alt(field)
# only, so it holds at most two point entries per field, one per presentation.
_IMAGE_SOLVER = MembershipSolver()


def verify_image(f, field=None):
    """Compute the period of f and certify its ideal membership.

    The certificate, when present, has already been re-verified by direct
    expansion; `member` is False only when the division search honestly
    fails, which the image theorem rules out for family vectors.  The
    verdict is checked against evaluation at the ideal's one point, and
    VerdictMismatch is raised if the two disagree.

    Every call asks the one module-level solver, so the image ideal's
    point entry (its point and the Cramer combinations that make Y2 - 1/q
    and Y1 - 1) is built once per field per process.  The solver caches
    that entry only: every call still re-expands its certificate and
    evaluates the period at the point.
    """
    la = toric_period(f, field)
    g1, g2 = image_ideal(la.field)
    cert = _IMAGE_SOLVER.membership(la, g1, g2)
    if (cert is not None) != _vanishes_at_image_point(la):
        raise VerdictMismatch(
            f"solver says {'member' if cert is not None else 'non-member'}, "
            f"but evaluation at (1, 1/q) disagrees for {la}"
        )
    return PeriodReport(
        la=la,
        member=cert is not None,
        certificate=cert,
    )
