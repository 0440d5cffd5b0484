"""The toric period of a family vector, and its ideal-membership report.

The period is assembled from Whittaker coefficients through the zeta
integral in an auxiliary variable Z,

    I(f, Z) = sum over k of c_k(f) Z^k,

which is a rational series with denominator dividing (1 - Y1 Z)(1 - Y2 Z):
past the invariance level the coefficients ride the spherical recurrence,
below the vanishing tail they are zero.  Multiplying by that denominator
inside an exact finite window therefore yields an honest polynomial in Z,
with the window's guard zone certifying that nothing was truncated.  The
period is the value at Z = 1, which sits at the unramified twist point.

Every period lands in the ideal generated by

    1 - Y1    and    1 - q^{-1} Y1 Y2^{-1},

and `verify_image` produces the certified membership report for a given
vector.  The spherical vector's own period is the regularized constant
1 - q^{-1} Y1 Y2^{-1}; dividing by it normalizes periods against the
spherical line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .family import invariance_level, vector_field, vector_prime
from .groebner import Certificate, laurent_membership
from .laurent import LaurentPoly, NotDivisible, ZPoly, one, qpow, y1, y2
from .whittaker import big_cell_profile, cs_factor_regularized, whittaker_coefficient


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
    """The period l(f): the cleared zeta polynomial evaluated at Z = 1."""
    return cleared_window(f, field).eval_z1()


def spherical_ratio(f, field=None):
    """The period of f divided by the spherical period, if it stays in A.

    Returns the exact Laurent quotient, or None when the ratio genuinely
    leaves the ring; the spherical vector itself normalizes to 1.
    """
    la = toric_period(f, field)
    try:
        return la.divide_exact(cs_factor_regularized(la.field))
    except NotDivisible:
        return None


def image_ideal(field):
    """Generator pair (1 - Y1, 1 - q^{-1} Y1 Y2^{-1}) of the period image."""
    return (
        one(field) - y1(field),
        one(field) - qpow(field, -1) * y1(field) * y2(field, -1),
    )


def image_ideal_alt(field):
    """The same ideal presented on the other torus line, via 1 - q Y2."""
    return (
        one(field) - qpow(field, 1) * y2(field),
        one(field) - qpow(field, -1) * y1(field) * y2(field, -1),
    )


def _vanishes_at_image_point(la):
    """Whether la vanishes at (Y1, Y2) = (1, 1/q).

    The image ideal is the maximal ideal of that point (modulo it, Y1 = 1
    and Y2 = q^{-1} Y1), so this decides membership by evaluation alone,
    sharing no code with the Grobner route.
    """
    fld = la.field
    return la.evaluate_at(Fraction(1), fld.q_power(-1)) == fld.zero


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


def verify_image(f, field=None, solver=None):
    """Compute the period of f and certify its ideal membership.

    The certificate, when present, has already been re-verified by direct
    expansion; `member` is False only when the division search honestly
    fails, which the image theorem rules out for family vectors.  The
    verdict is checked against evaluation at the ideal's one point, and
    VerdictMismatch is raised if the two disagree.
    """
    la = toric_period(f, field)
    g1, g2 = image_ideal(la.field)
    cert = laurent_membership(la, g1, g2, solver=solver)
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
