"""Laurent polynomials in the internal coordinates Y1, Y2 and windows in Z.

The ambient ring is A = k[Y1^{±1}, Y2^{±1}] over one of the coefficient
fields from the scalars module.  The internal coordinates relate to the
classical Satake coordinates by Y1 = q^{-1/2} X1, Y2 = q^{-1/2} X2 and
Z = q^{1/2} X, which clears every square root of q from the arithmetic:

    1 - q^{-1/2} X1        <->  1 - Y1
    1 - q^{1/2}  X2        <->  1 - q Y2
    1 - q^{-1}   X1 X2^{-1} <->  1 - q^{-1} Y1 Y2^{-1}
    1/((1-X1 X)(1-X2 X))   <->  1/((1-Y1 Z)(1-Y2 Z)),  X = q^{-1/2} <-> Z = 1

Display back in X coordinates reintroduces half-integral q-exponents, but
only as strings (to_x_display), never in stored coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import FieldMismatch, NotInvertible


class NotDivisible(ArithmeticError):
    """Exact division in the Laurent ring failed (witness of non-membership)."""


class TailViolation(ArithmeticError):
    """A cleared zeta window kept nonzero coefficients past the degree bound."""

    def __init__(self, indices, message=None):
        self.indices = tuple(indices)
        super().__init__(
            message or f"nonzero cleared coefficients at Z-exponents {self.indices}"
        )


def _grevlex2(e):
    return (e[0] + e[1], e[0])


class LaurentPoly:
    """Sparse two-variable Laurent polynomial over a fixed field descriptor.

    Terms map exponent pairs (e1, e2) to nonzero scalars.  All operators
    demand equal descriptors; use embed to move between fields.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        clean = {}
        if terms:
            for e, c in terms.items():
                c = field.coerce(c)
                if c != field.zero:
                    clean[(int(e[0]), int(e[1]))] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def one(cls, field):
        return cls(field, {(0, 0): field.one})

    @classmethod
    def monomial(cls, field, coeff, e1, e2):
        return cls(field, {(e1, e2): coeff})

    @classmethod
    def constant(cls, field, coeff):
        return cls(field, {(0, 0): coeff})

    # -- ring structure ------------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch(
                f"Laurent operands over {self.field} and {other.field}"
            )

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(self.field, self.field.from_fraction(other))
        try:
            return LaurentPoly.constant(self.field, self.field.coerce(other))
        except FieldMismatch:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        zero = self.field.zero
        for e, c in o.terms.items():
            s = terms.get(e, zero) + c
            if s == zero:
                terms.pop(e, None)
            else:
                terms[e] = s
        out = LaurentPoly.__new__(LaurentPoly)
        out.field, out.terms = self.field, terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.field = self.field
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        zero = self.field.zero
        terms = {}
        for (a1, a2), c in self.terms.items():
            for (b1, b2), d in o.terms.items():
                e = (a1 + b1, a2 + b2)
                s = terms.get(e, zero) + c * d
                if s == zero:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        out = LaurentPoly.__new__(LaurentPoly)
        out.field, out.terms = self.field, terms
        return out

    __rmul__ = __mul__

    def scale(self, scalar):
        c = self.field.coerce(scalar)
        if c == self.field.zero:
            return LaurentPoly.zero(self.field)
        out = LaurentPoly.__new__(LaurentPoly)
        out.field = self.field
        out.terms = {e: v * c for e, v in self.terms.items()}
        return out

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        out = LaurentPoly.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    # -- units and exact division --------------------------------------------

    def is_unit(self):
        """Units of the Laurent ring are the nonzero monomials."""
        return len(self.terms) == 1

    def inverse(self):
        if not self.is_unit():
            raise NotInvertible(f"not a unit in the Laurent ring: {self}")
        ((e1, e2), c), = self.terms.items()
        return LaurentPoly.monomial(self.field, self.field.one / c, -e1, -e2)

    def _poly_normalize(self):
        """Return (shift, terms) with terms shifted to have per-variable min 0."""
        if not self.terms:
            return (0, 0), {}
        m1 = min(e[0] for e in self.terms)
        m2 = min(e[1] for e in self.terms)
        return (m1, m2), {(e[0] - m1, e[1] - m2): c for e, c in self.terms.items()}

    def divide_exact(self, divisor):
        """Exact quotient self/divisor in the Laurent ring, or NotDivisible.

        Both operands are first normalized into the polynomial ring by
        monomial units; exact divisibility is unchanged by that, and in the
        polynomial ring leading terms (grevlex) of an exact quotient chain
        must cancel step by step, so a single division sweep decides it.
        """
        d = self._coerce(divisor)
        if d is None:
            raise FieldMismatch("divisor in a different field")
        if d.is_zero:
            raise NotInvertible("exact division by zero")
        if self.is_zero:
            return LaurentPoly.zero(self.field)
        (h1, h2), hterms = self._poly_normalize()
        (d1, d2), dterms = d._poly_normalize()
        lt_d = max(dterms, key=_grevlex2)
        cd = dterms[lt_d]
        zero = self.field.zero
        quo = {}
        rem = dict(hterms)
        while rem:
            lt_r = max(rem, key=_grevlex2)
            t = (lt_r[0] - lt_d[0], lt_r[1] - lt_d[1])
            if t[0] < 0 or t[1] < 0:
                raise NotDivisible(f"{self} is not divisible by {divisor}")
            c = rem[lt_r] / cd
            quo[t] = quo.get(t, zero) + c
            for e, v in dterms.items():
                key = (e[0] + t[0], e[1] + t[1])
                s = rem.get(key, zero) - c * v
                if s == zero:
                    rem.pop(key, None)
                else:
                    rem[key] = s
        shift = (h1 - d1, h2 - d2)
        return LaurentPoly(
            self.field,
            {(e[0] + shift[0], e[1] + shift[1]): c for e, c in quo.items()},
        )

    # -- coefficient maps ------------------------------------------------------

    def embed(self, new_field):
        """Carry rational coefficients over to another field (raises NotRational)."""
        rational_part = self.field.rational_part
        return LaurentPoly(
            new_field,
            {e: new_field.from_fraction(rational_part(c)) for e, c in self.terms.items()},
        )

    def evaluate_at(self, v1, v2):
        """Evaluate at invertible scalar values of Y1, Y2."""
        acc = self.field.zero
        for (e1, e2), c in self.terms.items():
            acc = acc + c * v1**e1 * v2**e2
        return acc

    # -- display and serialization ----------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (t[0][0] + t[0][1],) + t[0])

    def _display(self, x_coords):
        if not self.terms:
            return "0"
        rendered = []
        for (e1, e2), c in self.sorted_terms():
            parts = []
            negative = False
            qshift = Fraction(-(e1 + e2), 2) if x_coords else Fraction(0)
            if self.field.kind == "numeric":
                negative = c < 0
                mag = abs(c)
                if mag != 1:
                    parts.append(str(mag))
            else:
                mono = c.is_q_monomial()
                if mono is not None:
                    c0, e = mono
                    negative = c0 < 0
                    mag = abs(c0)
                    if mag != 1:
                        parts.append(str(mag))
                    qshift += e
                else:
                    parts.append(f"({c})")
            if qshift != 0:
                if qshift == 1:
                    parts.append("q")
                elif qshift.denominator == 1 and qshift > 0:
                    parts.append(f"q^{qshift}")
                else:
                    parts.append(f"q^({qshift})")
            for name, e in (("X1" if x_coords else "Y1", e1),
                            ("X2" if x_coords else "Y2", e2)):
                if e == 1:
                    parts.append(name)
                elif e > 1:
                    parts.append(f"{name}^{e}")
                elif e < 0:
                    parts.append(f"{name}^({e})")
            if not parts:
                parts.append("1")
            body = "·".join(parts)
            rendered.append((negative, body))
        neg, body = rendered[0]
        out = ("-" + body) if neg else body
        for neg, body in rendered[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def to_x_display(self):
        """Render in the classical X coordinates (half-integral q powers)."""
        return self._display(True)

    def to_y_display(self):
        return self._display(False)

    def to_json_terms(self):
        return [
            {"c": self.field.scalar_str(c), "e": [e1, e2]}
            for (e1, e2), c in self.sorted_terms()
        ]

    @classmethod
    def from_json_terms(cls, field, items):
        from .scalars import parse_rational

        terms = {}
        for item in items:
            e = item["e"]
            if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
                raise ValueError(f"exponent pair of integers expected, got {e!r}")
            key = (e[0], e[1])
            c = field.from_fraction(parse_rational(item["c"]))
            if key in terms:
                terms[key] = terms[key] + c
            else:
                terms[key] = c
        return cls(field, terms)

    def __repr__(self):
        return f"LaurentPoly({self.to_y_display()})"

    def __str__(self):
        return self.to_y_display()


# Short constructors; tests and the engine build elements from these.

def zero(field):
    return LaurentPoly.zero(field)


def one(field):
    return LaurentPoly.one(field)


def y1(field, e=1):
    return LaurentPoly.monomial(field, field.one, e, 0)


def y2(field, e=1):
    return LaurentPoly.monomial(field, field.one, 0, e)


def qpow(field, e):
    return LaurentPoly.constant(field, field.q_power(e))


def mono(field, c, e1, e2):
    return LaurentPoly.monomial(field, field.from_fraction(c), e1, e2)


class ZPoly:
    """Laurent polynomial in Z over A with a declared exact window.

    Coefficients are exact for every exponent inside [k_min, k_max] and are
    declared zero below k_min; nothing is claimed beyond k_max.  Asking for
    a coefficient outside the window is an error rather than a silent zero.
    """

    __slots__ = ("field", "k_min", "k_max", "coeffs")

    def __init__(self, field, k_min, k_max, coeffs):
        if k_min > k_max:
            raise ValueError(f"empty window [{k_min}, {k_max}]")
        self.field = field
        self.k_min = k_min
        self.k_max = k_max
        clean = {}
        for k, v in coeffs.items():
            if not (k_min <= k <= k_max):
                raise ValueError(f"coefficient at Z^{k} outside window")
            if v.field != field:
                raise FieldMismatch("window coefficient in a different field")
            if not v.is_zero:
                clean[k] = v
        self.coeffs = clean

    @classmethod
    def from_function(cls, field, k_min, k_max, fn):
        return cls(field, k_min, k_max, {k: fn(k) for k in range(k_min, k_max + 1)})

    def coefficient(self, k):
        if not (self.k_min <= k <= self.k_max):
            raise ValueError(f"Z^{k} outside declared window [{self.k_min}, {self.k_max}]")
        return self.coeffs.get(k, LaurentPoly.zero(self.field))

    def clear_l_factor(self, d):
        """Multiply by (1 - Y1 Z)(1 - Y2 Z) and certify degree <= d.

        The product coefficient at Z^j needs the window at j, j-1, j-2, so
        every exponent up to k_max is exact.  All of (d, k_max] must vanish
        (two or more guard coefficients, hence the k_max >= d + 2
        precondition); otherwise TailViolation reports the offenders.
        """
        if self.k_max < d + 2:
            raise ValueError(
                f"window [{self.k_min}, {self.k_max}] leaves no guard zone past {d}"
            )
        f = self.field
        e1 = y1(f) + y2(f)
        e2 = y1(f) * y2(f)
        z = LaurentPoly.zero(f)
        prod = {}
        for j in range(self.k_min, self.k_max + 1):
            pj = (
                self.coeffs.get(j, z)
                - e1 * self.coeffs.get(j - 1, z)
                + e2 * self.coeffs.get(j - 2, z)
            )
            if not pj.is_zero:
                prod[j] = pj
        bad = sorted(j for j in prod if j > d)
        if bad:
            raise TailViolation(bad)
        return ZPoly(f, self.k_min, d, prod)

    def eval_z1(self):
        """Evaluate at Z = 1: the sum of all window coefficients."""
        acc = LaurentPoly.zero(self.field)
        for _, v in sorted(self.coeffs.items()):
            acc = acc + v
        return acc

    def __eq__(self, other):
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __repr__(self):
        body = ", ".join(f"Z^{k}: {v}" for k, v in sorted(self.coeffs.items()))
        return f"ZPoly[{self.k_min}, {self.k_max}]({body})"

    def to_json(self):
        return [
            {"k": k, "coef": v.to_json_terms()} for k, v in sorted(self.coeffs.items())
        ]
