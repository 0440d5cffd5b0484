"""Exact coefficient arithmetic underlying the period computations.

Two coefficient fields show up: plain rationals (with the residue field
size q pinned to a concrete prime) and rational functions in a formal
variable q.  A small descriptor object names the field a computation lives
in; every container in this package carries one and refuses to mix scalars
from two different descriptors.

No square root of q is ever adjoined.  The half-integral powers of q from
the classical normalizations are absorbed into the variables themselves
(see the laurent module), so everything here stays honestly in the field.

`Cyclotomic` holds the values of the additive character in Q(zeta_{p^M})
with just the arithmetic a character sum needs (sums, products, and the
rational part of the total).  The engine never forms such a sum, since
every unit average it uses is in closed form; the character sums are
there as reference arithmetic that the closed forms are checked against.
"""

from __future__ import annotations

import re
from fractions import Fraction


class FieldMismatch(TypeError):
    """Binary operation attempted across two different coefficient fields."""


class NotInvertible(ZeroDivisionError):
    """Division by zero (or by a non-unit) in a coefficient field."""


class NotRational(ValueError):
    """A scalar expected to be rational has a nonzero irrational part."""


# ---------------------------------------------------------------------------
# Dense univariate polynomial helpers.
#
# A polynomial is a tuple of coefficients, lowest degree first, with no
# trailing zeros (so the zero polynomial is the empty tuple).  Coefficients
# only need +, -, *, / and comparison against 0/1, which lets the same
# helpers serve Fraction coefficients here and generic field scalars in the
# groebner module's gcd routines.

def pstrip(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + y)
    return pstrip(out)


def pneg(a):
    return tuple(-x for x in a)


def psub(a, b):
    return padd(a, pneg(b))


def pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] = out[i + j] + x * y
    return pstrip(out)


def pdivmod(a, b):
    if not b:
        raise NotInvertible("polynomial division by zero")
    if not a:
        return (), ()
    lc_inv = 1 / b[-1]
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c = rem[-1] * lc_inv
        d = len(rem) - len(b)
        quo[d] = c
        if c != 0:
            for i, y in enumerate(b):
                rem[d + i] = rem[d + i] - c * y
        rem.pop()
    return pstrip(quo), pstrip(rem)


def pdiv_exact(a, b):
    q, r = pdivmod(a, b)
    if r:
        raise ValueError("polynomial division was not exact")
    return q


def pgcd(a, b):
    while b:
        a, b = b, pdivmod(a, b)[1]
    if a:
        lc_inv = 1 / a[-1]
        a = tuple(x * lc_inv for x in a)
    return a


def peval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def pstr(a, var="q"):
    if not a:
        return "0"
    parts = []
    for e, c in enumerate(a):
        if c == 0:
            continue
        if e == 0:
            body = str(c)
        else:
            v = var if e == 1 else f"{var}^{e}"
            if c == 1:
                body = v
            elif c == -1:
                body = f"-{v}"
            else:
                body = f"{c}*{v}"
        parts.append(body)
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


# ---------------------------------------------------------------------------
# Rational functions in the formal variable q.


def _fraction_poly(coeffs):
    """coeffs as a stripped tuple of Fractions; entries already Fractions are kept."""
    return pstrip(tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs))


_F0 = Fraction(0)
_F1 = Fraction(1)


class RationalFunction:
    """Element of Q(q), stored as a reduced fraction of Fraction-tuples.

    Invariants: gcd(num, den) = 1 and den is monic; zero is ((), (1,)).
    `_k` is k when den = q^k and None otherwise.

    A denominator c*q^k (the common case: Laurent polynomials in q) skips
    Euclid, in the constructor and in every operator whose operands both
    have one: see `_laurent`.  Any other denominator takes the gcd route.
    """

    __slots__ = ("num", "den", "_k")

    def __init__(self, num, den=(1,)):
        num = _fraction_poly(num)
        den = _fraction_poly(den)
        if not den:
            raise NotInvertible("rational function with zero denominator")
        if not any(den[:-1]):
            if den[-1] != 1:
                lc_inv = 1 / den[-1]
                num = tuple(c * lc_inv for c in num)
            reduced = self._laurent(num, len(den) - 1)
            num, den = reduced.num, reduced.den
        elif not num:
            den = (_F1,)
        else:
            g = pgcd(num, den)
            if len(g) > 1:
                num = pdiv_exact(num, g)
                den = pdiv_exact(den, g)
            lc_inv = 1 / den[-1]
            num = tuple(c * lc_inv for c in num)
            den = tuple(c * lc_inv for c in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_k", None if any(den[:-1]) else len(den) - 1)

    def __setattr__(self, *_):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def _laurent(cls, num, k):
        """num/q^k in lowest terms, for a sequence num of Fractions and any int k.

        The monic gcd of num and q^k is q^m for m = min(k, ord_q num), so m
        low zeros go from num and den is q^(k-m): exactly the form the gcd
        route returns.  A negative k moves into num as low zeros.
        """
        hi = len(num)
        while hi and not num[hi - 1]:
            hi -= 1
        if not hi:
            k = 0
        lo = 0
        while lo < k and not num[lo]:
            lo += 1
        num = tuple(num[lo:hi])
        k -= lo
        if k < 0:
            num = (_F0,) * -k + num
            k = 0
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", (_F0,) * k + (_F1,))
        object.__setattr__(out, "_k", k)
        return out

    @classmethod
    def from_fraction(cls, fr):
        return cls((Fraction(fr),))

    @classmethod
    def q_power(cls, e):
        return cls._laurent((_F1,), -e)

    @staticmethod
    def _coerce(x):
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction)):
            return RationalFunction((x,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ka, kb = self._k, o._k
        if ka is None or kb is None:
            return RationalFunction(
                padd(pmul(self.num, o.den), pmul(o.num, self.den)),
                pmul(self.den, o.den),
            )
        # a/q^ka + b/q^kb = (q^(k-ka) a + q^(k-kb) b)/q^k for k = max(ka, kb)
        k = max(ka, kb)
        a = (_F0,) * (k - ka) + self.num
        b = (_F0,) * (k - kb) + o.num
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return self._laurent(out, k)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RationalFunction)
        object.__setattr__(out, "num", tuple(-c for c in self.num))
        object.__setattr__(out, "den", self.den)
        object.__setattr__(out, "_k", self._k)
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
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ka, kb = self._k, o._k
        if ka is None or kb is None:
            return RationalFunction(pmul(self.num, o.num), pmul(self.den, o.den))
        # pmul leaves the int 0 at a place no product reaches
        return self._laurent([c or _F0 for c in pmul(self.num, o.num)], ka + kb)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise NotInvertible("division by zero rational function")
        k = self._k
        mono = None if k is None else o.is_q_monomial()
        if mono is None:
            return RationalFunction(pmul(self.num, o.den), pmul(self.den, o.num))
        c, m = mono
        return self._laurent([x / c for x in self.num], k + m)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return (1 / self) ** (-e)
        out = _ONE_RF
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
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def is_constant(self):
        return self.den == (Fraction(1),) and len(self.num) <= 1

    def as_fraction(self):
        if not self.is_constant():
            raise NotRational(f"not a constant: {self}")
        return self.num[0] if self.num else Fraction(0)

    def is_q_monomial(self):
        """Return (c, e) if self = c*q^e, else None.  Zero is not a monomial."""
        nz = [i for i, c in enumerate(self.num) if c != 0]
        dz = [i for i, c in enumerate(self.den) if c != 0]
        if len(nz) != 1 or len(dz) != 1:
            return None
        return self.num[nz[0]], nz[0] - dz[0]

    def evaluate(self, q_value):
        q_value = Fraction(q_value)
        d = peval(self.den, q_value)
        if d == 0:
            raise NotInvertible(f"pole of {self} at q={q_value}")
        return peval(self.num, q_value) / d

    def __repr__(self):
        return f"RationalFunction({self})"

    def __str__(self):
        if self.den == (Fraction(1),):
            return pstr(self.num)
        return f"({pstr(self.num)})/({pstr(self.den)})"


_ZERO_RF = RationalFunction(())
_ONE_RF = RationalFunction((1,))


# ---------------------------------------------------------------------------
# Cyclotomic numbers.


def _phi_degree(p, m):
    return (p - 1) * p ** (m - 1)


class Cyclotomic:
    """Element of Q(zeta_{p^M}) as a dense vector in the power basis.

    Coordinates have length phi(p^M) = (p-1)p^{M-1}; index j is the
    coefficient of zeta^j.  Products are reduced mod Phi_{p^M} as they are
    formed, so equal elements have equal coordinates.
    """

    __slots__ = ("p", "level", "coords")

    def __init__(self, p, level, coords):
        d = _phi_degree(p, level)
        coords = tuple(coords)
        if len(coords) != d:
            raise ValueError(f"need {d} coordinates, got {len(coords)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *_):
        raise AttributeError("Cyclotomic is immutable")

    @classmethod
    def from_poly(cls, p, level, coeffs):
        """Reduce a dense polynomial in zeta into power-basis coordinates.

        Prime-power cyclotomics reduce in one linear pass: exponents fold
        modulo p^M because zeta has that order, and the top block rewrites
        through zeta^{(p-1)p^{M-1}} = -(1 + zeta^{p^{M-1}} + ...), so no
        polynomial division is needed.
        """
        d = _phi_degree(p, level)
        n = p**level
        step = p ** (level - 1)
        folded = [Fraction(0)] * n
        for e, c in enumerate(coeffs):
            if c:
                folded[e % n] += c
        coords = folded[:d]
        for r in range(step):
            c_top = folded[d + r]
            if c_top:
                for i in range(p - 1):
                    coords[i * step + r] -= c_top
        return cls(p, level, coords)

    @classmethod
    def from_fraction(cls, p, level, fr):
        return cls.from_poly(p, level, (Fraction(fr),))

    @classmethod
    def zeta_power(cls, p, level, e):
        e %= p**level
        return cls.from_poly(p, level, (0,) * e + (1,))

    def _coerce(self, x):
        if isinstance(x, Cyclotomic):
            if x.p != self.p or x.level != self.level:
                raise FieldMismatch(
                    f"cyclotomic levels differ: ({self.p},{self.level}) vs "
                    f"({x.p},{x.level})"
                )
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.from_fraction(self.p, self.level, x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.p, self.level,
                          tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coords, o.coords
        # Character sums multiply sparse-by-dense almost always; convolving
        # over the nonzero support of the sparser factor keeps that cheap.
        na = sum(1 for c in a if c != 0)
        nb = sum(1 for c in b if c != 0)
        if na > nb:
            a, b = b, a
        out = [Fraction(0)] * (2 * len(b) - 1 if b else 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y != 0:
                    out[i + j] += x * y
        return Cyclotomic.from_poly(self.p, self.level, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def rational_part(self):
        if any(c != 0 for c in self.coords[1:]):
            raise NotRational(f"irrational cyclotomic value: {self}")
        return self.coords[0]

    def __repr__(self):
        nz = {i: str(c) for i, c in enumerate(self.coords) if c != 0}
        return f"Cyclotomic(p={self.p}, M={self.level}, {nz or 0})"


# ---------------------------------------------------------------------------
# Field descriptors.


class QNumeric:
    """Rationals with the residue field size q specialized to a prime."""

    is_symbolic = False
    kind = "numeric"
    __slots__ = ("q",)

    def __init__(self, q):
        if not isinstance(q, int) or q < 2:
            raise ValueError(f"q must be an integer >= 2, got {q!r}")
        object.__setattr__(self, "q", q)

    def __setattr__(self, *_):
        raise AttributeError("field descriptors are immutable")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_fraction(self, fr):
        return Fraction(fr)

    def q_power(self, e):
        return Fraction(self.q) ** e

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise FieldMismatch(f"{x!r} is not a scalar of {self}")

    def rational_part(self, x):
        return Fraction(x)

    def scalar_str(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, QNumeric) and other.q == self.q

    def __hash__(self):
        return hash(("QNumeric", self.q))

    def __repr__(self):
        return f"QNumeric(q={self.q})"


class QSymbolic:
    """Rational functions in a formal q."""

    is_symbolic = True
    kind = "symbolic"
    __slots__ = ()

    @property
    def zero(self):
        return _ZERO_RF

    @property
    def one(self):
        return _ONE_RF

    def from_fraction(self, fr):
        return RationalFunction.from_fraction(fr)

    def q_power(self, e):
        return RationalFunction.q_power(e)

    def coerce(self, x):
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction)):
            return RationalFunction((x,))
        raise FieldMismatch(f"{x!r} is not a scalar of {self}")

    def rational_part(self, x):
        return self.coerce(x).as_fraction()

    def scalar_str(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, QSymbolic)

    def __hash__(self):
        return hash("QSymbolic")

    def __repr__(self):
        return "QSymbolic()"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(s):
    """Parse 'a' or 'a/b' into a Fraction (report and vector-file format).

    Only those integer forms are read: a decimal point, an exponent, a
    digit separator or surrounding text is refused before any arithmetic,
    so '1e100000000' costs nothing to reject.
    """
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string, got {s!r}")
    if _RATIONAL.fullmatch(s) is None:
        raise ValueError(f"malformed rational {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {s!r}") from exc
