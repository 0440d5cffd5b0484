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

from .scalars import FieldMismatch, NotInvertible, add_terms, parse_rational


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


def _powers(v, exponents):
    """{e: v**e} over the given exponents, with None for a power equal to one."""
    out = {}
    for e in exponents:
        x = v**e
        out[e] = None if x == 1 else x
    return out


def _of(field, terms):
    """LaurentPoly over field with terms as is: a fresh dict of int exponent
    pairs to nonzero scalars of field, which is not checked or coerced."""
    out = object.__new__(LaurentPoly)
    out.field, out.terms = field, terms
    return out


class LaurentPoly:
    """Sparse two-variable Laurent polynomial over a fixed field descriptor.

    Terms map exponent pairs (e1, e2) to nonzero scalars.  `+`, `-`, `*`
    and `divide_exact` take a LaurentPoly over the same field: any other
    operand is a TypeError and one over another field a FieldMismatch.  A
    scalar multiplies through `scale`; `embed` moves between fields.  `==`
    holds exactly when the fields and the terms are equal.  The constructor
    checks outside input; the arithmetic builds through `_of`.  Only those
    two write `terms`, so the hash is computed once, on first use.
    """

    __slots__ = ("field", "terms", "_hash")

    def __init__(self, field, terms):
        self.field = field
        clean = {}
        nil = field.zero
        for (e1, e2), c in terms.items():
            if type(e1) is not int or type(e2) is not int:
                raise ValueError(f"exponent pair of integers expected, got {(e1, e2)!r}")
            c = field.coerce(c)
            if c != nil:
                clean[(e1, e2)] = c
        self.terms = clean

    # -- ring structure ------------------------------------------------------

    def _same_field(self, other):
        """False when other is not a LaurentPoly; FieldMismatch when it is one
        over another field."""
        if not isinstance(other, LaurentPoly):
            return False
        if self.field != other.field:
            raise FieldMismatch(
                f"Laurent operands over {self.field} and {other.field}"
            )
        return True

    def __add__(self, other):
        if not self._same_field(other):
            return NotImplemented
        return _of(self.field, add_terms(self.terms, other.terms))

    def __neg__(self):
        return _of(self.field, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not self._same_field(other):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Product by term pairs, the shorter factor in the outer loop.

        A unit factor costs no scalar product: an outer coefficient equal to
        the field's one or -one passes each inner scalar on as it is or
        negated.  Over QSymbolic a q-monomial coefficient c*q^m costs a shift
        of the other scalar's exponents (see `RationalFunction.__mul__`).
        The first hit on an exponent is stored as it comes; keys whose sum
        cancels are dropped.
        """
        if not self._same_field(other):
            return NotImplemented
        outer, inner = self.terms, other.terms
        if len(outer) > len(inner):
            outer, inner = inner, outer
        one = self.field.one
        minus_one = -one
        terms = {}
        for (a1, a2), c in outer.items():
            plain = c == one
            negate = not plain and c == minus_one
            for (b1, b2), d in inner.items():
                if not plain:
                    d = -d if negate else c * d
                e = (a1 + b1, a2 + b2)
                s = terms.get(e)
                if s is None:
                    terms[e] = d
                else:
                    s = s + d
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
        return _of(self.field, terms)

    def scale(self, scalar):
        """self * scalar.  The field's one and -one cost no scalar product."""
        field = self.field
        c = field.coerce(scalar)
        if c == field.one:
            return self
        if c == -field.one:
            return -self
        if c == field.zero:
            return zero(field)
        return _of(field, {e: v * c for e, v in self.terms.items()})

    def shift(self, e1, e2):
        """self * Y1^e1 * Y2^e2."""
        return _of(self.field, {(a + e1, b + e2): c for (a, b), c in self.terms.items()})

    def __eq__(self, other):
        """Equal fields and equal terms; never raises across fields."""
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.field, frozenset(self.terms.items())))
            return self._hash

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    # -- exact division --------------------------------------------------------

    def _poly_normalize(self):
        """Return (shift, terms) with terms shifted to have per-variable min 0."""
        if not self.terms:
            return (0, 0), {}
        m1 = min(e[0] for e in self.terms)
        m2 = min(e[1] for e in self.terms)
        return (m1, m2), {(e[0] - m1, e[1] - m2): c for e, c in self.terms.items()}

    def divide_exact(self, divisor):
        """Exact quotient self/divisor in the Laurent ring, or NotDivisible.

        A divisor of two terms whose exponents differ by 1 in Y_v is a unit
        times Y_v - r*Y_w^d, so self must vanish on Y_v = r*Y_w^d: that is
        tested first, with r raised only to exponents relative to self's
        minimum in Y_v, and not at all when r = 1.  Then both operands are
        normalized into the polynomial ring by monomial units, which keeps
        exact divisibility, and there the grevlex leading terms of an exact
        quotient chain cancel step by step, so one sweep decides it.
        """
        if not self._same_field(divisor):
            raise TypeError(f"divisor must be a LaurentPoly, got {divisor!r}")
        if divisor.is_zero:
            raise NotInvertible("exact division by zero")
        if self.is_zero:
            return zero(self.field)
        if len(divisor.terms) == 2:
            (e, ce), (f, cf) = divisor.terms.items()
            v = 0 if abs(e[0] - f[0]) == 1 else 1 if abs(e[1] - f[1]) == 1 else None
            if v is not None:
                if e[v] < f[v]:
                    (e, ce), (f, cf) = (f, cf), (e, ce)
                w = 1 - v
                r, step = -cf / ce, f[w] - e[w]
                unit = r == self.field.one
                low = min(x[v] for x in self.terms)
                powers, sums = {}, {}
                for x, c in self.terms.items():
                    a = x[v] - low
                    if not unit:
                        if a not in powers:
                            powers[a] = r**a
                        c = c * powers[a]
                    key = x[w] + step * a
                    sums[key] = sums[key] + c if key in sums else c
                if any(sums.values()):
                    raise NotDivisible("not an exact divisor")
        (h1, h2), rem = self._poly_normalize()
        (d1, d2), dterms = divisor._poly_normalize()
        lt_d = max(dterms, key=_grevlex2)
        cd = dterms[lt_d]
        nil = self.field.zero
        quo = {}
        while rem:
            lt_r = max(rem, key=_grevlex2)
            t = (lt_r[0] - lt_d[0], lt_r[1] - lt_d[1])
            if t[0] < 0 or t[1] < 0:
                raise NotDivisible("not an exact divisor")
            c = quo[t] = rem[lt_r] / cd
            for e, v in dterms.items():
                key = (e[0] + t[0], e[1] + t[1])
                s = rem.get(key, nil) - c * v
                if s == nil:
                    rem.pop(key, None)
                else:
                    rem[key] = s
        return _of(self.field, quo).shift(h1 - d1, h2 - d2)

    # -- coefficient maps ------------------------------------------------------

    def embed(self, new_field):
        """Carry rational coefficients over to another field (raises NotRational)."""
        rational_part = self.field.rational_part
        return _of(
            new_field,
            {e: new_field.from_fraction(rational_part(c)) for e, c in self.terms.items()},
        )

    def evaluate_at(self, v1, v2):
        """Evaluate at invertible scalar values of Y1, Y2.

        Each distinct power of v1 and of v2 is taken once per call, and a
        power equal to one is not multiplied in.
        """
        pow1 = _powers(v1, {e1 for e1, _ in self.terms})
        pow2 = _powers(v2, {e2 for _, e2 in self.terms})
        acc = self.field.zero
        for (e1, e2), c in self.terms.items():
            a, b = pow1[e1], pow2[e2]
            if a is not None:
                c = c * a
            if b is not None:
                c = c * b
            acc = acc + c
        return acc

    # -- display and serialization ----------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (t[0][0] + t[0][1],) + t[0])

    def _display(self, x_coords, terms=None):
        if not self.terms:
            return "0"
        symbolic = self.field.is_symbolic
        names = ("X1", "X2") if x_coords else ("Y1", "Y2")
        out = ""
        for (e1, e2), c in terms or self.sorted_terms():
            parts = []
            # twice the power of q shown: the X coordinates carry q^(-(e1 + e2)/2)
            half = -(e1 + e2) if x_coords else 0
            mono = c.is_q_monomial() if symbolic else (c, 0)
            if mono is None:
                negative = False
                parts.append(f"({c})")
            else:
                c0, e = mono
                half += 2 * e
                mag = str(c0)
                negative = mag[0] == "-"
                if negative:
                    mag = mag[1:]
                if mag != "1":
                    parts.append(mag)
            if half == 2:
                parts.append("q")
            elif half % 2:
                parts.append(f"q^({half}/2)")
            elif half > 0:
                parts.append(f"q^{half // 2}")
            elif half < 0:
                parts.append(f"q^({half // 2})")
            for name, e in zip(names, (e1, e2)):
                if e == 1:
                    parts.append(name)
                elif e > 1:
                    parts.append(f"{name}^{e}")
                elif e < 0:
                    parts.append(f"{name}^({e})")
            body = "·".join(parts) if parts else "1"
            if out:
                out += (" - " if negative else " + ") + body
            else:
                out = "-" + body if negative else body
        return out

    def to_x_display(self, terms=None):
        """Render in the classical X coordinates (half-integral q powers).

        terms, if given, is self.sorted_terms() as the caller already has it."""
        return self._display(True, terms)

    def to_y_display(self):
        return self._display(False)

    def to_json_terms(self):
        return [
            {"c": str(c), "e": [e1, e2]}
            for (e1, e2), c in self.sorted_terms()
        ]

    @classmethod
    def from_json_terms(cls, field, items):
        """Read `to_json_terms` output: exponents and scalars are checked here,
        duplicate keys are summed and zero sums dropped, as the constructor does."""
        terms = {}
        for item in items:
            e = item["e"]
            if not (isinstance(e, list) and len(e) == 2
                    and type(e[0]) is int and type(e[1]) is int):
                raise ValueError(f"exponent pair of integers expected, got {e!r}")
            key = (e[0], e[1])
            c = field.from_fraction(parse_rational(item["c"]))
            if key in terms:
                terms[key] = terms[key] + c
            else:
                terms[key] = c
        return _of(field, {e: c for e, c in terms.items() if c})

    def __repr__(self):
        return f"LaurentPoly({self.to_y_display()})"

    def __str__(self):
        return self.to_y_display()


# The short constructors, each through the checked constructor; the engine
# and the tests build values from these, a constant c as mono(field, c, 0, 0).

def zero(field):
    return LaurentPoly(field, {})


def one(field):
    return LaurentPoly(field, {(0, 0): field.one})


def y1(field, e=1):
    return LaurentPoly(field, {(e, 0): field.one})


def y2(field, e=1):
    return LaurentPoly(field, {(0, e): field.one})


def qpow(field, e):
    return LaurentPoly(field, {(0, 0): field.q_power(e)})


def mono(field, c, e1, e2):
    """c * Y1^e1 * Y2^e2, for a scalar c of field (an int or Fraction included)."""
    return LaurentPoly(field, {(e1, e2): c})


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
        return self.coeffs.get(k, zero(self.field))

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
        z = zero(f)
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
        acc = zero(self.field)
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
