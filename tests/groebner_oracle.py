"""Reference ideal membership by a tracked Buchberger basis, for the tests.

The engine (`toricperiod.groebner`) decides membership in the image ideal by
synthetic division at its one point, with the point's cofactors read off by
Cramer's rule.  This module decides the same questions for any generator
pair by the general route, imports nothing from the engine's groebner
module and divides by its own sweep, never by `LaurentPoly.divide_exact`,
so the two agree only if both are right.

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
member comes with explicit Laurent cofactors u1, u2 with u1*g1 + u2*g2 = h,
and a nonzero normal form against a completed basis proves non-membership.

Polynomials in k[Y1, Y2, u] are plain term dicts {(a, b, c): scalar} with
no zero values, and each basis entry is a pair (poly, reps) of such dicts
with poly == sum(reps[i] * gens[i]).  Reduction (normal forms and
s-polynomials alike) runs in place on the working polynomial and on each
cofactor.  The leading-term choice and the divisor order are fixed (grevlex
maximum, first divisor in basis order), so with canonical scalars the
certificates do not depend on that bookkeeping.

`bivariate_gcd` computes the gcd of two Laurent polynomials by a primitive
pseudo-remainder sequence.  The engine decides principality by divisibility
alone; the reference answer is gcd-then-membership: the pair is principal
exactly when its gcd is a member.
"""

from toricperiod.laurent import LaurentPoly, _grevlex2, _of, zero
from toricperiod.scalars import FieldMismatch, pdiv_exact, pgcd, pmul, pstrip


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


def _rabinowitsch_gens(g1, g2):
    """The three term dicts in k[Y1, Y2, u] encoding the Laurent ideal (g1, g2)."""
    one = g1.field.one
    gens = []
    for g in (g1, g2):
        _, terms = g._poly_normalize()
        gens.append({(e[0], e[1], 0): c for e, c in terms.items()})
    gens.append({(0, 0, 0): one, (1, 1, 1): -one})
    return gens


# Leading monomials u, Y2, Y1 of a reduced basis {u - alpha, Y2 - beta, Y1 - gamma}.
POINT_LMS = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def oracle_basis(g1, g2):
    """The reduced, tracked basis of the Laurent ideal (g1, g2) in k[Y1, Y2, u]."""
    return _buchberger(_rabinowitsch_gens(g1, g2), g1.field.one)


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


def oracle_point_entry(g1, g2):
    """The point entry read off the Buchberger basis of (g1, g2), or None
    when that basis is not {u - alpha, Y2 - beta, Y1 - gamma}."""
    basis = oracle_basis(g1, g2)
    if [_leading(poly)[0] for poly, _ in basis] != POINT_LMS:
        return None
    return _point_entry(basis, g1, g2)


def oracle_divide(h, g):
    """h/g in the Laurent ring for a nonzero g, or None when g does not divide h.

    Both are cleared of their monomial units, and h is reduced by g in
    grevlex order: an exact quotient chain cancels leading terms step by
    step, so the sweep fails exactly when a leading term of the remainder
    is not a multiple of g's.  Unlike `LaurentPoly.divide_exact`, no
    divisor is first refuted by its root.
    """
    (h1, h2), rem = h._poly_normalize()
    (d1, d2), dterms = g._poly_normalize()
    lt_d = max(dterms, key=_grevlex2)
    quo = {}
    while rem:
        lt_r = max(rem, key=_grevlex2)
        t = (lt_r[0] - lt_d[0], lt_r[1] - lt_d[1])
        if t[0] < 0 or t[1] < 0:
            return None
        c = quo[t] = rem[lt_r] / dterms[lt_d]
        for e, v in dterms.items():
            key = (e[0] + t[0], e[1] + t[1])
            s = rem[key] - c * v if key in rem else -c * v
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return _of(h.field, quo).shift(h1 - d1, h2 - d2)


def oracle_membership(h, g1, g2):
    """Cofactors (u1, u2) with u1*g1 + u2*g2 == h, or None when h is not in (g1, g2)*A.

    A generator that divides h alone (`oracle_divide`) gives (h/g, 0) or
    (0, h/g), g1 first.
    Otherwise h_hat is reduced against `oracle_basis(g1, g2)`: a nonzero
    remainder means non-member, and a zero one leaves reps whose images
    under u -> (Y1*Y2)^{-1}, carried back by the units -Y^(h - d_i), are the
    cofactors of (g1, g2).  Any pair is accepted, and the cofactors are not
    checked here.
    """
    field = h.field
    zero_ = zero(field)
    if h.is_zero:
        return zero_, zero_
    for i, g in enumerate((g1, g2)):
        if g.is_zero:
            continue
        t = oracle_divide(h, g)
        if t is not None:
            return (t, zero_) if i == 0 else (zero_, t)
    (h1, h2), hterms = h._poly_normalize()
    h_hat = {(e[0], e[1], 0): c for e, c in hterms.items()}
    rem, reps = _tracked_nf(h_hat, ({}, {}, {}), oracle_basis(g1, g2))
    if rem:
        return None
    cofs = []
    for g, rep in zip((g1, g2), reps[:2]):
        (d1, d2), _ = g._poly_normalize()
        cofs.append(_substitute_u(field, rep, (h1 - d1, h2 - d2)))
    return tuple(cofs)


# -- gcd in k[Y1, Y2] ----------------------------------------------------------
#
# Computed by a primitive pseudo-remainder sequence in (k[Y2])[Y1].  The outer
# polynomials are dense tuples over Y1 whose entries are dense tuples over Y2,
# lowest degree first at both layers, so the univariate helpers from scalars
# apply directly to the coefficient arithmetic, with padd and psub here, which
# the engine does not use.


def padd(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + y)
    return pstrip(out)


def psub(a, b):
    return padd(a, tuple(-x for x in b))


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
        return zero(field)

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
