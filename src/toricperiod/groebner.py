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

Every reduction step is tracked against the original generators, so a
successful membership test produces explicit Laurent cofactors u1, u2 with
u1*g1 + u2*g2 = h, and the equation is re-expanded and checked before the
certificate is returned.  A nonzero normal form against a completed basis
is a proof of non-membership, so both answers are certified.

Reduction (normal forms and s-polynomials alike) runs in place on plain
term dicts for the working polynomial and for each cofactor, so a step
costs the size of the basis element it subtracts, not the size of
everything reduced so far.  The leading-term choice and the divisor order
are fixed (grevlex maximum, first divisor in basis order), so with
canonical scalars the certificates do not depend on that bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import LaurentPoly, NotDivisible
from .scalars import FieldMismatch, pdiv_exact, pgcd, pmul, pstrip, psub


class CertificateError(RuntimeError):
    """A computed membership certificate failed to re-expand to its target."""


def _grevlex3(e):
    """Sort key realizing graded reverse lexicographic order on (Y1, Y2, u)."""
    return (e[0] + e[1] + e[2], (-e[2], -e[1], -e[0]))


def _divides(a, b):
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


class Poly3:
    """Sparse polynomial in k[Y1, Y2, u] with exponent-triple keys."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        clean = {}
        for e, c in terms.items():
            c = field.coerce(c)
            if c != field.zero:
                clean[e] = c
        self.field = field
        self.terms = clean

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def constant(cls, field, c):
        return cls(field, {(0, 0, 0): c})

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Poly3):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __repr__(self):
        items = sorted(self.terms, key=_grevlex3, reverse=True)
        body = " + ".join(
            f"{self.field.scalar_str(self.terms[e])}*Y1^{e[0]}*Y2^{e[1]}*u^{e[2]}"
            for e in items
        )
        return f"Poly3({body or '0'})"

    def __add__(self, other):
        out = dict(self.terms)
        zero = self.field.zero
        for e, c in other.terms.items():
            s = out.get(e, zero) + c
            if s == zero:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly3(self.field, out)

    def __sub__(self, other):
        out = dict(self.terms)
        zero = self.field.zero
        for e, c in other.terms.items():
            s = out.get(e, zero) - c
            if s == zero:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly3(self.field, out)

    def __mul__(self, other):
        zero = self.field.zero
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                s = out.get(key, zero) + ca * cb
                if s == zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        return Poly3(self.field, out)

    def scale(self, c):
        return Poly3(self.field, {e: v * c for e, v in self.terms.items()})

    def leading(self):
        e = max(self.terms, key=_grevlex3)
        return e, self.terms[e]

    def substitute_u(self):
        """Image under u -> (Y1*Y2)^{-1}, as a Laurent polynomial."""
        out = {}
        for (a, b, c), v in self.terms.items():
            key = (a - c, b - c)
            out[key] = out[key] + v if key in out else v
        return LaurentPoly(self.field, out)


class TrackedPoly:
    """A Poly3 carried together with its expression in the original generators.

    The invariant poly == sum(reps[i] * gens[i]) is maintained through every
    arithmetic step of the basis computation.
    """

    __slots__ = ("poly", "reps")

    def __init__(self, poly, reps):
        self.poly = poly
        self.reps = reps

    def scale(self, c):
        return TrackedPoly(self.poly.scale(c), tuple(r.scale(c) for r in self.reps))


def _sub_multiple(work, reps, c, shift, t):
    """work -= c * x^shift * t.poly and reps[i] -= c * x^shift * t.reps[i].

    work and reps are plain term dicts, updated in place; cancelled terms
    are dropped.
    """
    s0, s1, s2 = shift
    for dst, src in zip((work, *reps), (t.poly, *t.reps)):
        for (a, b, u), v in src.terms.items():
            key = (a + s0, b + s1, u + s2)
            if key in dst:
                left = dst[key] - v * c
                if left:
                    dst[key] = left
                else:
                    del dst[key]
            else:
                dst[key] = -(v * c)


def _tracked(field, work, reps):
    return TrackedPoly(Poly3(field, work), tuple(Poly3(field, r) for r in reps))


def _tracked_nf(target, basis):
    """Fully reduce target against basis, preserving the tracking identity.

    Every subtraction applied to target.poly is mirrored on target.reps, so
    whatever identity target satisfied on entry (for s-polynomials, the basis
    invariant; for a membership query seeded with zero reps, the identity
    input = result.poly - sum(result.reps[i] * gens[i])) still holds on exit.
    The returned remainder has no term divisible by any basis leading term.

    The reduction runs in place on plain term dicts, one for the working
    polynomial and one per rep, which are wrapped as Poly3 once at the end.
    Each step takes the grevlex-largest term of the working polynomial and
    the first basis element, in basis order, whose leading monomial divides
    it, so the remainder and the reps do not depend on how the dicts are kept.
    """
    field = target.poly.field
    work = dict(target.poly.terms)
    reps = [dict(r.terms) for r in target.reps]
    rem = {}
    lts = [(t.poly.leading(), t) for t in basis]
    while work:
        e = max(work, key=_grevlex3)
        c = work[e]
        for (lm, lc), t in lts:
            if _divides(lm, e):
                shift = (e[0] - lm[0], e[1] - lm[1], e[2] - lm[2])
                _sub_multiple(work, reps, c / lc, shift, t)
                break
        else:
            rem[e] = work.pop(e)
    return _tracked(field, rem, reps)


def _spoly(f, g):
    (ef, cf), (eg, cg) = f.poly.leading(), g.poly.leading()
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    one = f.poly.field.one
    work = {}
    reps = [{} for _ in f.reps]
    _sub_multiple(work, reps, -(one / cf), tuple(l - a for l, a in zip(lcm, ef)), f)
    _sub_multiple(work, reps, one / cg, tuple(l - a for l, a in zip(lcm, eg)), g)
    return _tracked(f.poly.field, work, reps)


def _buchberger(gens):
    """Reduced Grobner basis of <gens> with cofactor tracking.

    Pairs whose leading monomials are coprime are skipped (their s-polynomial
    always reduces to zero), and the surviving basis is minimalized, tail
    reduced, and made monic, so normal forms against it are canonical.
    """
    field = gens[0].field
    n = len(gens)
    basis = []
    for i, g in enumerate(gens):
        if g.is_zero:
            continue
        reps = tuple(
            Poly3.constant(field, field.one) if j == i else Poly3.zero(field) for j in range(n)
        )
        basis.append(TrackedPoly(g, reps))
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        def pair_key(ij):
            a = basis[ij[0]].poly.leading()[0]
            b = basis[ij[1]].poly.leading()[0]
            return _grevlex3(tuple(max(x, y) for x, y in zip(a, b)))

        i, j = min(pairs, key=pair_key)
        pairs.remove((i, j))
        ea = basis[i].poly.leading()[0]
        eb = basis[j].poly.leading()[0]
        if all(min(x, y) == 0 for x, y in zip(ea, eb)):
            continue
        r = _tracked_nf(_spoly(basis[i], basis[j]), basis)
        if not r.poly.is_zero:
            basis.append(r)
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))

    keep = []
    for i, t in enumerate(basis):
        lm = t.poly.leading()[0]
        others = (
            basis[j].poly.leading()[0]
            for j in range(len(basis))
            if j != i and basis[j] is not None
        )
        if not any(_divides(o, lm) for o in others):
            keep.append(t)
        else:
            basis[i] = None

    reduced = []
    for i, t in enumerate(keep):
        rest = keep[:i] + keep[i + 1 :]
        r = _tracked_nf(t, rest) if rest else t
        lc = r.poly.leading()[1]
        reduced.append(r.scale(field.one / lc))
        keep[i] = reduced[-1]
    reduced.sort(key=lambda t: _grevlex3(t.poly.leading()[0]))
    return reduced


@dataclass(frozen=True)
class Certificate:
    """Explicit Laurent cofactors witnessing h = u1*g1 + u2*g2."""

    u1: LaurentPoly
    u2: LaurentPoly
    verified: bool = True

    def holds_for(self, h, g1, g2):
        return self.u1 * g1 + self.u2 * g2 == h

    def to_json(self):
        return {
            "u1": self.u1.to_json_terms(),
            "u2": self.u2.to_json_terms(),
            "verified": self.verified,
        }


def _rabinowitsch_gens(g1, g2):
    """The three polynomial generators encoding the Laurent ideal (g1, g2)."""
    field = g1.field
    gens = []
    for g in (g1, g2):
        _, terms = g._poly_normalize()
        gens.append(Poly3(field, {(e[0], e[1], 0): c for e, c in terms.items()}))
    gens.append(Poly3(field, {(0, 0, 0): field.one, (1, 1, 1): -field.one}))
    return gens


class MembershipSolver:
    """Decides h in (g1, g2)*A with certificates, caching one basis per pair."""

    def __init__(self):
        self._bases = {}

    def _basis(self, g1, g2):
        key = (g1, g2)
        hit = self._bases.get(key)
        if hit is None:
            hit = _buchberger(_rabinowitsch_gens(g1, g2))
            self._bases[key] = hit
        return hit

    def membership(self, h, g1, g2):
        """Certificate if h lies in the ideal (g1, g2) of the Laurent ring, else None."""
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
            if g.is_zero:
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
        h_hat = Poly3(field, {(e[0], e[1], 0): c for e, c in hterms.items()})
        basis = self._basis(g1, g2)
        seed = TrackedPoly(h_hat, tuple(Poly3.zero(field) for _ in range(3)))
        out = _tracked_nf(seed, basis)
        if not out.poly.is_zero:
            return None

        # h_hat == -sum(out.reps[i] * gens[i]); substituting u -> (Y1*Y2)^{-1}
        # kills the relation generator and leaves Laurent cofactors for the
        # normalized pair, which the monomial units then carry back to (g1, g2).
        cofs = []
        for g, rep in zip((g1, g2), out.reps[:2]):
            (d1, d2), _ = g._poly_normalize()
            unit = LaurentPoly.monomial(field, -field.one, h1 - d1, h2 - d2)
            cofs.append(unit * rep.substitute_u())
        cert = Certificate(cofs[0], cofs[1])
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


def laurent_membership(h, g1, g2, solver=None):
    """One-shot membership test; see MembershipSolver.membership."""
    return (solver or MembershipSolver()).membership(h, g1, g2)


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
    lt = max(out.terms, key=lambda e: (e[0] + e[1], e[0]))
    return out.scale(field.one / out.terms[lt])
