"""Certified ideal membership in the two-variable Laurent ring.

Membership of h in an ideal (g1, g2) of A = k[Y1^{+-1}, Y2^{+-1}] is decided
in two steps.  First each generator g is tried as a lone divisor of h,
which gives the one-term certificate (h/g, 0) or (0, h/g);
`LaurentPoly.divide_exact` refutes a binomial generator linear in one
variable by its root, without a division sweep.

Past that, the pair must be the maximal ideal of one point of the torus,
as the image ideal (1 - Y1, 1 - q^{-1} Y1 Y2^{-1}) is of (Y1, Y2) = (1, 1/q).
Write f_hat for f cleared of its monomial unit, so that each variable has
minimum exponent zero.  Each g_hat must be affine-linear, c + a*Y1 + b*Y2,
with independent linear parts (a1, b1) and (a2, b2).  Then Y2 - beta and
Y1 - gamma are constant combinations S2 and S1 of g1_hat and g2_hat, read
off by Cramer's rule on the 2x2 system of linear parts, and (gamma, beta)
is the point; for both presentations of the image ideal the determinant
is -1.  The point must lie on the torus: if beta*gamma = 0 the Laurent
ideal is the whole ring.  Any other pair of nonzero generators raises
UnsupportedIdeal.  A pair with a zero generator is principal, so lone
division has already decided it.

For a point pair, h is a member exactly when h_hat vanishes at the point.
Synthetic division decides it and builds the certificate: h_hat by
Y2 - beta column by column, then the column values by Y1 - gamma, gives
h_hat = Q2*(Y2 - beta) + Q1*(Y1 - gamma) + r with r = h_hat(gamma, beta).
A nonzero r proves non-membership.  When r = 0 the cofactors are
(Q2*S2_i + Q1*S1_i) times a monomial, with the scalars S2 and S1 fixed once
per pair, so each is two scalings, a sum and a shift.
A tracked Buchberger basis of the Rabinowitsch ideal, kept with the tests
as a reference, gives the same point, the same S2 and S1 and the same
certificates.

Principality is decided by divisibility, with no gcd: the pair is (g_i)
when g_i divides g_j, and a point pair is not principal, since its two
affine-linear generators are coprime and the ideal is proper.  The
pseudo-remainder gcd kept with the tests as a reference agrees.

The per-query kernels give unit and q-monomial factors no scalar product:
`_horner` and the root test of `LaurentPoly.divide_exact` skip the powers
of a root equal to one (gamma = 1 for the image ideal), `LaurentPoly.scale`
by 1, -1 or 0, which are three of the image ideal's four cofactor
scalings, gives the polynomial itself, its negation or zero, and over
QSymbolic a factor c*q^m is a shift of exponents.

`Certificate.holds_for` re-expands every certificate in full, term by
term, but over integers: each field flattens its scalars into rows
(q-exponent, numerator, denominator), clearing first any QSymbolic
denominator that is not a power of q, and the terms of -h, u1*g1 and
u2*g2 are summed per (e1, e2, q-exponent) as unreduced fractions, which
is exact and needs no gcd.  It returns only a boolean, so no sum is turned
back into a scalar, and it forms no LaurentPoly product or sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import LaurentPoly, NotDivisible, _grevlex2, _of, one, zero
from .scalars import FieldMismatch


class CertificateError(RuntimeError):
    """A computed membership certificate failed to re-expand to its target."""


class UnsupportedIdeal(ValueError):
    """A generator pair that lone division could not settle is not the
    maximal ideal of one point of the torus.

    `MembershipSolver` decides only such pairs past lone division: two
    generators that are affine-linear in (Y1, Y2) up to a monomial, with
    independent linear parts, whose common zero (gamma, beta) has
    beta*gamma != 0.
    """


def _horner(coeffs, root, one):
    """Divide sum(coeffs[k] * x^k) by x - root: ({k: quotient coefficient}, remainder).

    A root equal to one (the field's one) costs no products."""
    unit = root == one
    top = max(coeffs)
    quo = {}
    carry = coeffs[top]
    for k in range(top - 1, -1, -1):
        if carry:
            quo[k] = carry
        if not unit:
            carry = carry * root
        c = coeffs.get(k)
        if c is not None:
            carry = c + carry
    return quo, carry


def _point_quotients(terms, beta, gamma, one):
    """Q2, Q1 and r with poly = Q2*(Y2 - beta) + Q1*(Y1 - gamma) + r.

    terms is a u-free poly as {(a, b): scalar}.  Horner division of each
    Y1-column by Y2 - beta gives Q2 and the column values R(Y1) =
    poly(Y1, beta); dividing R by Y1 - gamma gives Q1 in k[Y1] and r =
    poly(gamma, beta).  Q2 and Q1 come back as term dicts {(a, b): scalar}.
    """
    cols = {}
    for (a, b), c in terms.items():
        cols.setdefault(a, {})[b] = c
    q2, row = {}, {}
    for a, col in cols.items():
        quo, row[a] = _horner(col, beta, one)
        for b, c in quo.items():
            q2[(a, b)] = c
    quo, r = _horner(row, gamma, one)
    return q2, {(a, 0): c for a, c in quo.items()}, r


_AFFINE = ((0, 0), (1, 0), (0, 1))


def _cramer_entry(g1, g2):
    """(beta, gamma, S2, S1, shifts) for a pair that cuts out one torus point.

    With g_hat = Y^(-d) g = c + a*Y1 + b*Y2 for each generator (d its
    normalization shift), S2 = (x, y) solves x*g1_hat + y*g2_hat = Y2 - beta
    and S1 solves the same for Y1 - gamma, both as pairs of field scalars:
    by Cramer's rule on the linear parts, S2 = (-a2, a1)/det and S1 =
    (b2, -b1)/det with det = a1*b2 - a2*b1, and beta and gamma are minus
    the constant terms of those combinations.  Raises UnsupportedIdeal
    when a g_hat is not affine-linear, when det = 0, or when beta*gamma = 0.
    """
    zero = g1.field.zero
    shifts, rows = [], []
    for g in (g1, g2):
        shift, terms = g._poly_normalize()
        if not terms.keys() <= set(_AFFINE):
            raise UnsupportedIdeal(f"{g} is not affine-linear up to a monomial")
        shifts.append(shift)
        rows.append([terms.get(e, zero) for e in _AFFINE])
    (c1, a1, b1), (c2, a2, b2) = rows
    det = a1 * b2 - a2 * b1
    if det == zero:
        raise UnsupportedIdeal(f"{g1} and {g2} have dependent linear parts")
    s2 = (-a2 / det, a1 / det)
    s1 = (b2 / det, -b1 / det)
    beta = -(s2[0] * c1 + s2[1] * c2)
    gamma = -(s1[0] * c1 + s1[1] * c2)
    if beta == zero or gamma == zero:
        raise UnsupportedIdeal(f"{g1} and {g2} meet off the torus, at ({gamma}, {beta})")
    return beta, gamma, s2, s1, tuple(shifts)


@dataclass(frozen=True)
class Certificate:
    """Explicit Laurent cofactors witnessing h = u1*g1 + u2*g2.

    `verified` is always true: `MembershipSolver.membership` re-expands
    every certificate with `holds_for`, an exact integer check of the
    identity term by term, and raises `CertificateError` instead of
    returning one that fails.  It stays in the JSON so that the shape is
    unchanged.
    """

    u1: LaurentPoly
    u2: LaurentPoly
    verified = True

    def holds_for(self, h, g1, g2):
        """True exactly when u1*g1 + u2*g2 == h, checked term by term.

        Each scalar is flattened by its field into integer rows (e1, e2, j,
        n, d) for its terms n/d*q^j (`flat_terms`; over QSymbolic a
        denominator that is not a power of q is first cleared from every
        side).  -h and every product of a cofactor row with a generator row
        are summed per key (e1, e2, j) as an unreduced fraction: numerators
        add over equal denominators and cross-multiply otherwise.  The
        identity holds when every numerator is 0.

        Each key keeps its own denominator on purpose.  Summing every row
        over one common denominator scales each numerator up to q^E for an
        exponent span E, and the integers grow huge: with Python 3.11 on a
        shared 2-vCPU VM, that variant made `verify_image` at the span bound
        5x slower at p=2, E=4096 (0.109 -> 0.572 s) and 18x slower at p=7,
        E=2730 (0.076 -> 1.374 s), for no gain on the benchmark workloads.
        """
        field = h.field
        if any(p.field != field for p in (self.u1, self.u2, g1, g2)):
            raise FieldMismatch("certificate arguments live in different fields")
        hs, u1s, u2s, g1s, g2s = field.flat_terms(
            (h.terms, self.u1.terms, self.u2.terms, g1.terms, g2.terms), (2, 1, 1, 1, 1)
        )
        acc = {(e1, e2, j): (-n, d) for e1, e2, j, n, d in hs}
        for us, gs in ((u1s, g1s), (u2s, g2s)):
            if len(us) < len(gs):
                us, gs = gs, us
            for b1, b2, bj, bn, bd in gs:
                for a1, a2, aj, an, ad in us:
                    key = (a1 + b1, a2 + b2, aj + bj)
                    n, d = an * bn, ad * bd
                    s = acc.get(key)
                    if s is None:
                        acc[key] = (n, d)
                    elif s[1] == d:
                        acc[key] = (s[0] + n, d)
                    else:
                        acc[key] = (s[0] * d + n * s[1], s[1] * d)
        return not any(n for n, _ in acc.values())

    def to_json(self):
        return {
            "u1": self.u1.to_json_terms(),
            "u2": self.u2.to_json_terms(),
            "verified": self.verified,
        }


class MembershipSolver:
    """Decides h in (g1, g2)*A with certificates, caching one point entry
    (`_cramer_entry`) per pair."""

    def __init__(self):
        self._points = {}

    def _point(self, g1, g2):
        key = (g1, g2)
        entry = self._points.get(key)
        if entry is None:
            entry = self._points[key] = _cramer_entry(g1, g2)
        return entry

    def membership(self, h, g1, g2):
        """Certificate if h lies in the ideal (g1, g2) of the Laurent ring, else None.

        First each generator g is tried as a lone divisor of h, giving the
        certificate (h/g, 0) or (0, h/g); `divide_exact` refutes a g that is
        a unit times Y_v - r*Y_w^d by its root, without a division sweep.
        A pair with a zero generator is then decided.
        Otherwise synthetic division at the pair's point (`_point_quotients`)
        gives h_hat = Q2*(Y2 - beta) + Q1*(Y1 - gamma) + r, and each
        cofactor is (Q2*S2_i + Q1*S1_i)*Y^(h - d_i) from the pair's cached
        point entry: two scalings, a sum and a shift.  Raises
        UnsupportedIdeal when the pair is not the ideal of one torus point.
        Every certificate is re-expanded before it is returned.
        """
        field = h.field
        if g1.field != field or g2.field != field:
            raise FieldMismatch("membership arguments live in different fields")
        zero_ = zero(field)
        if h.is_zero:
            return Certificate(zero_, zero_)

        # Single-generator quotients first: they produce the short
        # certificates (t, 0) or (0, t) whenever one generator divides h.
        for g, shape in ((g1, True), (g2, False)):
            if g.is_zero:
                continue
            try:
                t = h.divide_exact(g)
            except NotDivisible:
                continue
            cert = Certificate(t, zero_) if shape else Certificate(zero_, t)
            if not cert.holds_for(h, g1, g2):
                raise CertificateError(f"division certificate failed for {h}")
            return cert
        if g1.is_zero or g2.is_zero:
            return None

        beta, gamma, s2, s1, shifts = self._point(g1, g2)
        (h1, h2), hterms = h._poly_normalize()
        q2, q1, r = _point_quotients(hterms, beta, gamma, field.one)
        if r:
            return None
        q2, q1 = _of(field, q2), _of(field, q1)
        cert = Certificate(
            *[
                (q2.scale(a) + q1.scale(b)).shift(h1 - d1, h2 - d2)
                for a, b, (d1, d2) in zip(s2, s1, shifts)
            ]
        )
        if not cert.holds_for(h, g1, g2):
            raise CertificateError(f"point certificate failed for {h}")
        return cert

    def is_proper(self, g1, g2):
        """True when (g1, g2) is a proper ideal, i.e. 1 is not a member."""
        return self.membership(one(g1.field), g1, g2) is None

    def ideal_equal(self, pair_a, pair_b):
        """Four membership certificates proving (a1, a2) = (b1, b2), else None.

        Order: a1 and a2 against the b-pair, then b1 and b2 against the a-pair.
        """
        a1, a2 = pair_a
        b1, b2 = pair_b
        certs = []
        for h, (g1, g2) in (
            (a1, pair_b),
            (a2, pair_b),
            (b1, pair_a),
            (b2, pair_a),
        ):
            cert = self.membership(h, g1, g2)
            if cert is None:
                return None
            certs.append(cert)
        return certs

    def is_principal_pair(self, g1, g2):
        """Decide whether (g1, g2) is a principal ideal of the Laurent ring.

        Returns (answer, d) with d the gcd of g1 and g2, made a polynomial
        with minimum exponent zero in each variable and grevlex-leading
        coefficient one.  Two zeros give (True, 0).  When g_i divides g_j
        (`divide_exact`; zero is divisible by anything), the ideal is (g_i)
        and d is g_i.  Otherwise the pair must be the ideal of one torus
        point, or UnsupportedIdeal is raised as in `membership`; its
        generators are then coprime affine-linear polynomials, so d = 1,
        which is not a member of that proper ideal: (False, 1).
        """
        field = g1.field
        if g2.field != field:
            raise FieldMismatch("principality arguments live in different fields")
        if g1.is_zero and g2.is_zero:
            return True, zero(field)
        for g, other in ((g1, g2), (g2, g1)):
            if g.is_zero:
                continue
            try:
                other.divide_exact(g)
            except NotDivisible:
                continue
            _, terms = g._poly_normalize()
            lead = terms[max(terms, key=_grevlex2)]
            return True, _of(field, terms).scale(field.one / lead)
        self._point(g1, g2)
        return False, one(field)
