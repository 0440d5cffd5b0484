"""Vectors in the unramified principal-series family.

A vector assigns to each group element a value in the Laurent ring, subject
to the transformation rule f(b*g) = chi_delta(b) * f(g) for upper triangular
b, where chi_delta is the character sending diag(t1, t2) with valuations
(a1, a2) to Y1^a1 * Y2^a2 * q^a2.  Such a vector is pinned down by its
restriction to the maximal compact subgroup, and a vector invariant under
the depth-n congruence subgroup factors further through the finite set
P1(O/p^n), which is how TableVector stores arbitrary members of the family.

Two distinguished vectors get symbolic markers instead of tables so that
they can be used at any prime and over any scalar field: the normalized
spherical vector, and the Iwahori-fixed vector supported on the big cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentPoly
from .localfield import (
    Mat2,
    P1Class,
    class_rep,
    iwasawa_decompose,
    p1_class_of,
    p1_enumerate,
    valuation,
)
from .scalars import FieldMismatch, QNumeric, QSymbolic


class ClassCoverageError(ValueError):
    """A table does not assign a value to exactly the classes of P1(O/p^n)."""


class ParseError(ValueError):
    """A serialized vector is structurally malformed."""


@dataclass(frozen=True)
class Spherical:
    """Right K-invariant vector normalized to the value 1 at the identity."""


@dataclass(frozen=True)
class IwahoriPhiW:
    """Iwahori-fixed vector supported on the big cell, value 1 at the Weyl element."""


SPH = Spherical()
PHI_W = IwahoriPhiW()


class TableVector:
    """Vector given by one Laurent value per class of P1(O/p^n)."""

    __slots__ = ("p", "n", "values", "field")

    def __init__(self, p, n, values):
        expected = set(p1_enumerate(p, n))
        got = set(values)
        if got != expected:
            missing = sorted(str(c) for c in expected - got)
            extra = sorted(str(c) for c in got - expected)
            raise ClassCoverageError(
                f"table for p={p}, n={n}: missing {missing or 'none'}, extra {extra or 'none'}"
            )
        fields = {v.field for v in values.values()}
        if len(fields) != 1:
            raise FieldMismatch("table values live in different scalar fields")
        self.p = p
        self.n = n
        self.values = dict(values)
        self.field = fields.pop()

    def __eq__(self, other):
        if not isinstance(other, TableVector):
            return NotImplemented
        return (self.p, self.n, self.values) == (other.p, other.n, other.values)

    def __repr__(self):
        return f"TableVector(p={self.p}, n={self.n}, {len(self.values)} classes)"


@dataclass(frozen=True)
class Translate:
    """Right translate: the vector g |-> inner(g * by)."""

    by: Mat2
    inner: object


@dataclass(frozen=True)
class LinComb:
    """Finite linear combination with Laurent-polynomial coefficients."""

    terms: tuple

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))


def chi_delta_value(field, a1, a2):
    """Value of the half-density-shifted character on diag valuations (a1, a2)."""
    return LaurentPoly.monomial(field, field.q_power(a2), a1, a2)


def evaluate(f, g, field):
    """Value of the vector f at the group element g, over the given field.

    Table values and combination coefficients stored over another field
    are embedded on the fly (they must be rational), so a table built over
    QSymbolic is evaluated over QNumeric(p), or the other way round,
    without being rebuilt.
    """
    if isinstance(f, Spherical):
        fac = iwasawa_decompose(g)
        return chi_delta_value(field, fac.a1, fac.a2)
    if isinstance(f, IwahoriPhiW):
        fac = iwasawa_decompose(g)
        if valuation(fac.k.c, g.p) == 0:
            return chi_delta_value(field, fac.a1, fac.a2)
        return LaurentPoly.zero(field)
    if isinstance(f, TableVector):
        fac = iwasawa_decompose(g)
        val = f.values[p1_class_of(fac.k, f.n)]
        if val.field != field:
            val = val.embed(field)
        return chi_delta_value(field, fac.a1, fac.a2) * val
    if isinstance(f, Translate):
        return evaluate(f.inner, g * f.by, field)
    if isinstance(f, LinComb):
        out = LaurentPoly.zero(field)
        for coeff, vec in f.terms:
            if coeff.field != field:
                coeff = coeff.embed(field)
            out = out + coeff * evaluate(vec, g, field)
        return out
    raise TypeError(f"not a family vector: {f!r}")


def _depth(g):
    """Congruence cost of conjugating by g: worst denominator exponent of g, g^{-1}."""
    vals = [valuation(e, g.p) for e in g.entries() + g.inv().entries() if e != 0]
    return max(0, -min(vals))


def invariance_level(f):
    """A level n such that f is right invariant under the depth-n subgroup.

    This is an upper bound by construction, not a minimal level: translating
    by g costs 2 * depth(g) because conjugation moves the congruence subgroup
    by at most the denominators of g on each side.
    """
    if isinstance(f, (Spherical, IwahoriPhiW)):
        return 1
    if isinstance(f, TableVector):
        return f.n
    if isinstance(f, Translate):
        return invariance_level(f.inner) + 2 * _depth(f.by)
    if isinstance(f, LinComb):
        return max((invariance_level(vec) for _, vec in f.terms), default=1)
    raise TypeError(f"not a family vector: {f!r}")


def vector_prime(f):
    """The residue prime a vector is tied to, or None for symbolic markers."""
    if isinstance(f, TableVector):
        return f.p
    if isinstance(f, Translate):
        return f.by.p
    if isinstance(f, LinComb):
        for _, vec in f.terms:
            p = vector_prime(vec)
            if p is not None:
                return p
    return None


def vector_field(f, field=None):
    """The scalar field f is computed over.

    A vector tied to a prime p lives in QNumeric(p) and accepts no other
    field; a symbolic marker lives in whichever field the caller supplies.
    """
    p = vector_prime(f)
    if p is None:
        if field is None:
            raise ValueError("a scalar field is required for symbolic vectors")
        return field
    numeric = QNumeric(p)
    if field is not None and field != numeric:
        raise FieldMismatch(f"vector is tied to {numeric}, not {field}")
    return numeric


def tabulate(f, p, n, field):
    """Record f on class representatives as a depth-n table.

    Faithful when invariance_level(f) <= n; at a coarser level it simply
    samples one representative per class.
    """
    return TableVector(
        p, n, {cls: evaluate(f, class_rep(cls), field) for cls in p1_enumerate(p, n)}
    )


def sph_table(field, p, n):
    """The spherical vector as an explicit depth-n table (all values 1)."""
    return TableVector(p, n, {cls: LaurentPoly.one(field) for cls in p1_enumerate(p, n)})


def f0_table(field, p, n):
    """The big-cell Iwahori vector as a depth-n table.

    A class survives exactly when its bottom-left entry is a unit: affine
    classes [u:1] with u a unit, and every class at infinity.
    """
    one, zero = LaurentPoly.one(field), LaurentPoly.zero(field)
    values = {}
    for cls in p1_enumerate(p, n):
        if not cls.at_infinity and cls.rep % p == 0:
            values[cls] = zero
        else:
            values[cls] = one
    return TableVector(p, n, values)


def big_cell_split(f, p, field):
    """Split f into its value at the identity plus a vector vanishing there.

    Returns (a, f_w) with f == a * spherical + f_w and f_w(1) == 0; the
    identity value of the remainder is checked before returning.
    """
    a = evaluate(f, Mat2.identity(p), field)
    f_w = LinComb([(LaurentPoly.one(field), f), (-a, SPH)])
    if not evaluate(f_w, Mat2.identity(p), field).is_zero:
        raise ArithmeticError("big-cell remainder does not vanish at the identity")
    return a, f_w


def random_table(p, n, seed):
    """Seeded random depth-n table over QNumeric(p), a few small terms per class."""
    rng = random.Random(seed)
    field = QNumeric(p)
    coeffs = [
        Fraction(1),
        Fraction(-1),
        Fraction(2),
        Fraction(-2),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(1, 3),
        Fraction(-1, 3),
    ]
    values = {}
    for cls in p1_enumerate(p, n):
        v = LaurentPoly.zero(field)
        for _ in range(rng.randint(0, 3)):
            v = v + LaurentPoly.monomial(
                field, rng.choice(coeffs), rng.randint(-2, 2), rng.randint(-2, 2)
            )
        values[cls] = v
    return TableVector(p, n, values)


# -- serialization ----------------------------------------------------------------


def _parse_class(text, p, n):
    if not (isinstance(text, str) and text.startswith("[") and text.endswith("]")):
        raise ParseError(f"bad class label {text!r}")
    body = text[1:-1].split(":")
    if len(body) != 2:
        raise ParseError(f"bad class label {text!r}")
    try:
        a, b = int(body[0]), int(body[1])
    except ValueError:
        raise ParseError(f"bad class label {text!r}") from None
    try:
        if b == 1:
            return P1Class(p, n, False, a)
        if a == 1:
            return P1Class(p, n, True, b)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    raise ParseError(f"bad class label {text!r}")


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _class_count_exceeds(p, n, bound):
    """Whether p^n + p^(n-1) > bound, multiplying only until the bound is passed."""
    power = 1
    for _ in range(n - 1):
        power *= p
        if power > bound:
            return True
    return power * (p + 1) > bound


def vector_to_json(f):
    """JSON document for a symbolic marker or a table vector."""
    if isinstance(f, Spherical):
        return {"symbolic": "sph"}
    if isinstance(f, IwahoriPhiW):
        return {"symbolic": "phi_w"}
    if isinstance(f, TableVector):
        return {
            "prime": f.p,
            "level": f.n,
            "values": [
                {"class": str(cls), "poly": f.values[cls].to_json_terms()}
                for cls in p1_enumerate(f.p, f.n)
            ],
        }
    raise TypeError(f"only markers and tables serialize: {f!r}")


def vector_from_json(doc):
    """Parse a vector document; returns (vector, scalar field).

    Symbolic markers come back over the symbolic field, tables over
    QNumeric(p).  Structural problems raise ParseError; a wrong set of
    classes raises ClassCoverageError.
    """
    if not isinstance(doc, dict):
        raise ParseError("vector document must be an object")
    if "symbolic" in doc:
        name = doc["symbolic"]
        if name == "sph":
            return SPH, QSymbolic()
        if name == "phi_w":
            return PHI_W, QSymbolic()
        raise ParseError(f"unknown symbolic vector {name!r}")
    try:
        p, n = doc["prime"], doc["level"]
        rows = doc["values"]
    except KeyError as exc:
        raise ParseError(f"vector document missing key {exc}") from None
    if not (type(p) is int and p >= 2):
        raise ParseError(f"prime must be a prime integer, got {p!r}")
    if not (type(n) is int and n >= 1):
        raise ParseError(f"level must be a positive integer, got {n!r}")
    if not isinstance(rows, list):
        raise ParseError("values must be a list")
    # P1(Z/p^n) has p^n + p^(n-1) > p classes.  Trial division takes sqrt(p)
    # steps, so a prime past the row count is left untested (the count check
    # rejects it), and the count is compared before any class is built.
    if p <= len(rows) and not _is_prime(p):
        raise ParseError(f"prime must be a prime integer, got {p!r}")
    if _class_count_exceeds(p, n, len(rows)):
        raise ClassCoverageError(
            f"table for p={p}, n={n}: {len(rows)} rows leave classes missing "
            f"(P1(Z/p^n) has p^n + p^(n-1) classes)"
        )
    field = QNumeric(p)
    values = {}
    for row in rows:
        if not isinstance(row, dict) or "class" not in row or "poly" not in row:
            raise ParseError(f"bad value row {row!r}")
        cls = _parse_class(row["class"], p, n)
        if cls in values:
            raise ParseError(f"duplicate class {row['class']!r}")
        try:
            values[cls] = LaurentPoly.from_json_terms(field, row["poly"])
        except (ValueError, TypeError, KeyError) as exc:
            raise ParseError(f"bad polynomial for {row['class']!r}: {exc}") from None
    return TableVector(p, n, values), field
