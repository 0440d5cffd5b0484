"""Certified ideal arithmetic in the two-variable Laurent ring.

Membership questions about ideals of A = k[Y1^{+-1}, Y2^{+-1}] are decided
by passing to the polynomial ring k[Y1, Y2, u] and adjoining the relation
1 - u*Y1*Y2, which makes u an inverse for the product of the variables:

    h in (g1, g2)*A  <=>  h_hat in <g1_hat, g2_hat, 1 - u*Y1*Y2>

where f_hat denotes f cleared of its monomial unit so that each variable
has minimum exponent zero.  (Left to right: clear denominators of a Laurent
combination by a power of Y1*Y2 and rewrite that power as u^N modulo the
relation.  Right to left: substitute u -> (Y1*Y2)^{-1}, which kills the
relation term.)  The right-hand side is decided by a Grobner normal form.

When (g1, g2) is the maximal ideal of a point (gamma, beta), as the image
ideal (1 - Y1, 1 - q^{-1} Y1 Y2^{-1}) is at (1, 1/q), the reduced basis is
{u - alpha, Y2 - beta, Y1 - gamma}, and the normal form of h_hat is its
value at the point.  The point route finds it, with the same quotients
the tracked reduction builds, by synthetic division: h_hat by Y2 - beta
column by column, then the column values by Y1 - gamma, so that h_hat =
Q2*(Y2 - beta) + Q1*(Y1 - gamma) + r with Q2, Q1 free of u.  Since
u -> (Y1*Y2)^{-1} is a ring map, the cofactors are (Q2*S2_i + Q1*S1_i)
times a monomial, where S2_i and S1_i are the substituted basis reps of
Y2 - beta and Y1 - gamma, fixed once per cached basis (for the image ideal
they are constants).  Other ideals take the tracked normal form.  Before
either, a generator that divides h alone gives a one-term certificate; a
binomial generator linear in one variable is tried only if h vanishes on
its root, which decides that divisibility exactly.

Every reduction step is tracked against the original generators, so a
successful membership test produces explicit Laurent cofactors u1, u2 with
u1*g1 + u2*g2 = h, and the equation is re-expanded and checked before the
certificate is returned.  A nonzero normal form against a completed basis
is a proof of non-membership, so both answers are certified.

Polynomials in k[Y1, Y2, u] are plain term dicts {(a, b, c): scalar} with
no zero values, and each basis entry is a pair (poly, reps) of such dicts
with poly == sum(reps[i] * gens[i]).  Reduction (normal forms and
s-polynomials alike) runs in place on the working polynomial and on each
cofactor, so a step costs the size of the basis element it subtracts, not
the size of everything reduced so far.  The leading-term choice and the
divisor order are fixed (grevlex maximum, first divisor in basis order), so
with canonical scalars the certificates do not depend on that bookkeeping.

The per-query kernels give unit and q-monomial factors no scalar product:
`_horner` and `_root_refutes` skip the powers of a root equal to one
(gamma = 1 for the image ideal), the Laurent products that form the
point-route cofactors pass inner scalars on as they are for an outer +-1,
and over QSymbolic a factor c*q^m is a shift of exponents.  `_sub_multiple`
forms every product: for a point ideal it runs only in the basis build,
once per cached basis.

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

from .laurent import LaurentPoly, NotDivisible, _grevlex2, _of
from .scalars import FieldMismatch, pdiv_exact, pgcd, pmul, pstrip, psub


class CertificateError(RuntimeError):
    """A computed membership certificate failed to re-expand to its target."""


def _grevlex3(e):
    """Sort key realizing graded reverse lexicographic order on (Y1, Y2, u)."""
    return (e[0] + e[1] + e[2], (-e[2], -e[1], -e[0]))


def _divides(a, b):
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def _leading(terms):
    """The grevlex-largest exponent of a nonempty term dict, with its coefficient."""
    e = max(terms, key=_grevlex3)
    return e, terms[e]


def _substitute_u(field, terms, shift):
    """-Y1^s1*Y2^s2 times the image of a term dict under u -> (Y1*Y2)^{-1}.

    This is a certificate cofactor read off a rep, in one pass."""
    s1, s2 = shift
    out = {}
    for (a, b, c), v in terms.items():
        key = (a - c + s1, b - c + s2)
        out[key] = out[key] - v if key in out else -v
    return _of(field, {e: v for e, v in out.items() if v})


def _sub_multiple(dsts, srcs, c, shift):
    """dst -= c * x^shift * src for each pair of term dicts, in place.

    Cancelled terms are dropped.  Called with (work, *reps) and a basis
    entry (poly, *entry_reps), it keeps the tracking identity.
    """
    s0, s1, s2 = shift
    minus_c = -c
    for dst, src in zip(dsts, srcs):
        for (a, b, u), v in src.items():
            key = (a + s0, b + s1, u + s2)
            t = v * minus_c
            if key in dst:
                left = dst[key] + t
                if left:
                    dst[key] = left
                else:
                    del dst[key]
            else:
                dst[key] = t


def _tracked_nf(poly, reps, basis):
    """Fully reduce poly against basis, preserving the tracking identity.

    Returns (remainder, reps) as fresh term dicts; the inputs are not
    touched.  Every subtraction applied to the polynomial is mirrored on the
    reps, so whatever identity (poly, reps) satisfied on entry (for
    s-polynomials, the basis invariant poly == sum(reps[i] * gens[i]); for a
    membership query seeded with empty reps, input == remainder -
    sum(reps[i] * gens[i])) still holds on exit.  The remainder has no term
    divisible by any basis leading term.

    Each step takes the grevlex-largest term of the working polynomial and
    the first basis element, in basis order, whose leading monomial divides
    it, so the remainder and the reps do not depend on how the dicts are kept.
    """
    work = dict(poly)
    reps = tuple(dict(r) for r in reps)
    rem = {}
    lts = [(_leading(entry[0]), entry) for entry in basis]
    while work:
        e = max(work, key=_grevlex3)
        c = work[e]
        for (lm, lc), entry in lts:
            if _divides(lm, e):
                shift = (e[0] - lm[0], e[1] - lm[1], e[2] - lm[2])
                _sub_multiple((work, *reps), (entry[0], *entry[1]), c / lc, shift)
                break
        else:
            rem[e] = work.pop(e)
    return rem, reps


# Leading monomials u, Y2, Y1 of a reduced basis {u - alpha, Y2 - beta, Y1 - gamma}.
_POINT_LMS = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


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
    These are the quotients _tracked_nf finds against a point basis
    {u - alpha, Y2 - beta, Y1 - gamma}: it reduces each term that has a Y2
    by Y2 - beta, the first divisor that applies, and the rest by Y1 - gamma.
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


def _point_entry(basis, g1, g2):
    """(beta, gamma, S2, S1, shifts) for a point basis {u - alpha, Y2 - beta, Y1 - gamma}.

    S2 and S1 are the pairs of Laurent cofactors of the normalized
    generators that make Y2 - beta and Y1 - gamma (their basis reps under
    u -> (Y1*Y2)^{-1}), and shifts are the generators' normalization shifts.
    """
    field = g1.field
    (y2_poly, reps2), (y1_poly, reps1) = basis[1], basis[2]
    return (
        -y2_poly[(0, 0, 0)],
        -y1_poly[(0, 0, 0)],
        tuple(-_substitute_u(field, rep, (0, 0)) for rep in reps2[:2]),
        tuple(-_substitute_u(field, rep, (0, 0)) for rep in reps1[:2]),
        tuple(g._poly_normalize()[0] for g in (g1, g2)),
    )


def _spoly(f, g, one):
    (ef, cf), (eg, cg) = _leading(f[0]), _leading(g[0])
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    work = {}
    reps = tuple({} for _ in f[1])
    for (poly, entry_reps), c, e in ((f, -(one / cf), ef), (g, one / cg, eg)):
        shift = tuple(l - a for l, a in zip(lcm, e))
        _sub_multiple((work, *reps), (poly, *entry_reps), c, shift)
    return work, reps


def _buchberger(gens, one):
    """Reduced Grobner basis of <gens> with cofactor tracking.

    gens are term dicts over a field whose unit scalar is one.  Each basis
    entry is a pair (poly, reps) of term dicts with poly == sum(reps[i] *
    gens[i]).  Pairs whose leading monomials are coprime are skipped (their
    s-polynomial always reduces to zero), and the surviving basis is
    minimalized, tail reduced, and made monic, so normal forms against it
    are canonical.
    """
    n = len(gens)
    basis = []
    for i, g in enumerate(gens):
        if g:
            basis.append((g, tuple({(0, 0, 0): one} if j == i else {} for j in range(n))))
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        def pair_key(ij):
            a = _leading(basis[ij[0]][0])[0]
            b = _leading(basis[ij[1]][0])[0]
            return _grevlex3(tuple(max(x, y) for x, y in zip(a, b)))

        i, j = min(pairs, key=pair_key)
        pairs.remove((i, j))
        ea = _leading(basis[i][0])[0]
        eb = _leading(basis[j][0])[0]
        if all(min(x, y) == 0 for x, y in zip(ea, eb)):
            continue
        r = _tracked_nf(*_spoly(basis[i], basis[j], one), basis)
        if r[0]:
            basis.append(r)
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))

    keep = []
    for i, t in enumerate(basis):
        lm = _leading(t[0])[0]
        others = (
            _leading(basis[j][0])[0]
            for j in range(len(basis))
            if j != i and basis[j] is not None
        )
        if not any(_divides(o, lm) for o in others):
            keep.append(t)
        else:
            basis[i] = None

    for i, t in enumerate(keep):
        rest = keep[:i] + keep[i + 1 :]
        poly, reps = _tracked_nf(*t, rest) if rest else t
        s = one / _leading(poly)[1]
        keep[i] = (
            {e: v * s for e, v in poly.items()},
            tuple({e: v * s for e, v in r.items()} for r in reps),
        )
    keep.sort(key=lambda t: _grevlex3(_leading(t[0])[0]))
    return keep


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


def _rabinowitsch_gens(g1, g2):
    """The three term dicts in k[Y1, Y2, u] encoding the Laurent ideal (g1, g2)."""
    one = g1.field.one
    gens = []
    for g in (g1, g2):
        _, terms = g._poly_normalize()
        gens.append({(e[0], e[1], 0): c for e, c in terms.items()})
    gens.append({(0, 0, 0): one, (1, 1, 1): -one})
    return gens


def _root_refutes(h, g):
    """True when g is a unit times Y_v - r*Y_w^d and h does not vanish at its root.

    A binomial whose two exponents differ by 1 in Y_v is such a unit
    multiple, and A/(Y_v - r*Y_w^d) is k[Y_w^{+-1}] by Y_v -> r*Y_w^d, so
    g divides h exactly when h vanishes after that substitution: True means
    h.divide_exact(g) raises NotDivisible.  Any other g gives False.
    """
    if len(g.terms) != 2:
        return False
    (e, ce), (f, cf) = g.terms.items()
    v = next((v for v in (0, 1) if abs(e[v] - f[v]) == 1), None)
    if v is None:
        return False
    if e[v] < f[v]:
        (e, ce), (f, cf) = (f, cf), (e, ce)
    w = 1 - v
    r, d = -cf / ce, f[w] - e[w]
    unit = r == h.field.one
    powers, sums = {}, {}
    for x, c in h.terms.items():
        a = x[v]
        if not unit:
            if a not in powers:
                powers[a] = r**a
            c = c * powers[a]
        key = x[w] + d * a
        sums[key] = sums[key] + c if key in sums else c
    return any(sums.values())


class MembershipSolver:
    """Decides h in (g1, g2)*A with certificates, caching one basis (with its
    point entry) per pair."""

    def __init__(self):
        self._bases = {}

    def _basis(self, g1, g2):
        """The reduced basis of (g1, g2) and its point entry (`_point_entry`),
        or None when the basis is not {u - alpha, Y2 - beta, Y1 - gamma}."""
        key = (g1, g2)
        hit = self._bases.get(key)
        if hit is None:
            basis = _buchberger(_rabinowitsch_gens(g1, g2), g1.field.one)
            point = [_leading(poly)[0] for poly, _ in basis] == _POINT_LMS
            hit = self._bases[key] = (basis, _point_entry(basis, g1, g2) if point else None)
        return hit

    def membership(self, h, g1, g2):
        """Certificate if h lies in the ideal (g1, g2) of the Laurent ring, else None.

        First each generator g is tried as a lone divisor of h, giving the
        certificate (h/g, 0) or (0, h/g); when g is a unit times
        Y_v - r*Y_w^d, h is divided only if it vanishes at Y_v = r*Y_w^d
        (`_root_refutes`).  Otherwise h_hat is reduced against the cached
        basis.  When the basis is {u - alpha, Y2 - beta, Y1 - gamma},
        synthetic division at the point (`_point_quotients`) gives h_hat =
        Q2*(Y2 - beta) + Q1*(Y1 - gamma) + r, and each cofactor is
        (Q2*S2_i + Q1*S1_i)*Y^(h - d_i) from the basis's point entry: two
        Laurent products, a sum and a shift.  Other bases take the tracked
        normal form, whose reps give the same certificate under u ->
        (Y1*Y2)^{-1}.  Every certificate is re-expanded before it is
        returned.
        """
        field = h.field
        if g1.field != field or g2.field != field:
            raise FieldMismatch("membership arguments live in different fields")
        zero = LaurentPoly.zero(field)
        if h.is_zero:
            return Certificate(zero, zero)
        if g1.is_zero and g2.is_zero:
            return None

        # Single-generator quotients first: they produce the short
        # certificates (t, 0) or (0, t) whenever one generator divides h.
        for g, shape in ((g1, True), (g2, False)):
            if g.is_zero or _root_refutes(h, g):
                continue
            try:
                t = h.divide_exact(g)
            except NotDivisible:
                continue
            cert = Certificate(t, zero) if shape else Certificate(zero, t)
            if not cert.holds_for(h, g1, g2):
                raise CertificateError(f"division certificate failed for {h}")
            return cert

        (h1, h2), hterms = h._poly_normalize()
        basis, point = self._basis(g1, g2)
        if point is not None:
            beta, gamma, s2, s1, shifts = point
            q2, q1, r = _point_quotients(hterms, beta, gamma, field.one)
            if r:
                return None
            q2, q1 = _of(field, q2), _of(field, q1)
            cofs = [
                (q2 * a + q1 * b).shift(h1 - d1, h2 - d2)
                for a, b, (d1, d2) in zip(s2, s1, shifts)
            ]
        else:
            h_hat = {(e[0], e[1], 0): c for e, c in hterms.items()}
            rem, reps = _tracked_nf(h_hat, ({}, {}, {}), basis)
            if rem:
                return None
            # h_hat == -sum(reps[i] * gens[i]); substituting u -> (Y1*Y2)^{-1}
            # kills the relation generator and leaves Laurent cofactors for the
            # normalized pair, which the units -Y^(h - d) carry back to (g1, g2).
            cofs = []
            for g, rep in zip((g1, g2), reps[:2]):
                (d1, d2), _ = g._poly_normalize()
                cofs.append(_substitute_u(field, rep, (h1 - d1, h2 - d2)))
        cert = Certificate(*cofs)
        if not cert.holds_for(h, g1, g2):
            raise CertificateError(f"basis certificate failed for {h}")
        return cert

    def is_proper(self, g1, g2):
        """True when (g1, g2) is a proper ideal, i.e. 1 is not a member."""
        return self.membership(LaurentPoly.one(g1.field), g1, g2) is None

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

        The candidate is forced: (g1, g2) is contained in (d) for
        d = gcd(g1, g2), and any single generator of the pair ideal would
        divide both g's, hence divide d up to a unit.  So the pair is
        principal exactly when d is itself a member.  Returns (answer, d).
        """
        d = bivariate_gcd(g1, g2)
        return self.membership(d, g1, g2) is not None, d


# -- gcd in k[Y1, Y2] ----------------------------------------------------------
#
# Computed by a primitive pseudo-remainder sequence in (k[Y2])[Y1].  The outer
# polynomials are dense tuples over Y1 whose entries are dense tuples over Y2,
# lowest degree first at both layers, so the univariate helpers from scalars
# apply directly to the coefficient arithmetic.


def _rec_strip(f):
    while f and not f[-1]:
        f = f[:-1]
    return f


def _rec_scale(f, s):
    return _rec_strip(tuple(pmul(c, s) for c in f))


def _rec_sub(f, g):
    n = max(len(f), len(g))
    f = f + ((),) * (n - len(f))
    g = g + ((),) * (n - len(g))
    return _rec_strip(tuple(psub(a, b) for a, b in zip(f, g)))


def _rec_content(f):
    c = ()
    for coef in f:
        c = pgcd(c, coef)
    return c


def _rec_primitive(f):
    c = _rec_content(f)
    if c == (1,):
        return f
    return tuple(pdiv_exact(coef, c) for coef in f)


def _prem(f, g):
    """Pseudo-remainder of f by g in (k[Y2])[Y1], up to k[Y2]-unit content."""
    while len(f) >= len(g):
        shift = len(f) - len(g)
        f = _rec_sub(_rec_scale(f, g[-1]), ((),) * shift + _rec_scale(g, f[-1]))
    return f


def bivariate_gcd(f, g):
    """Gcd of two Laurent polynomials, as a polynomial with unit leading term.

    Monomials are units of the Laurent ring, so the gcd is only meaningful up
    to a unit; the representative returned is monic with respect to grevlex
    and has minimum exponent zero in each variable.
    """
    field = f.field
    if f.field != g.field:
        raise FieldMismatch("gcd arguments live in different fields")
    if f.is_zero and g.is_zero:
        return LaurentPoly.zero(field)

    def to_rec(p):
        _, terms = p._poly_normalize()
        deg1 = max(e[0] for e in terms)
        cols = []
        for a in range(deg1 + 1):
            row = {e[1]: c for e, c in terms.items() if e[0] == a}
            deg2 = max(row) if row else -1
            cols.append(pstrip(tuple(row.get(b, field.zero) for b in range(deg2 + 1))))
        return _rec_strip(tuple(cols))

    if f.is_zero or g.is_zero:
        rec = to_rec(g if f.is_zero else f)
        content = ()
    else:
        a, b = to_rec(f), to_rec(g)
        content = pgcd(_rec_content(a), _rec_content(b))
        a, b = _rec_primitive(a), _rec_primitive(b)
        if len(a) < len(b):
            a, b = b, a
        while b:
            r = _prem(a, b)
            a, b = b, (_rec_primitive(r) if r else ())
        rec = a

    if content:
        rec = tuple(pmul(c, content) for c in rec)
    terms = {}
    for e1, coef in enumerate(rec):
        for e2, c in enumerate(coef):
            if c != 0:
                terms[(e1, e2)] = c
    out = LaurentPoly(field, terms)
    lt = max(out.terms, key=_grevlex2)
    return out.scale(field.one / out.terms[lt])
