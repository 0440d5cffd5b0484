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
# tests' reference gcd.

def pstrip(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


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


# ---------------------------------------------------------------------------
# Rational functions in the formal variable q.  A Laurent polynomial in q is
# a term dict {exponent: Fraction} with no zero values.


_F0 = Fraction(0)
_F1 = Fraction(1)
_FM1 = Fraction(-1)
_DEN1 = (_F1,)


def add_terms(a, b):
    """a + b as a fresh dict, for term dicts with nonzero values (also LaurentPoly's)."""
    if len(a) < len(b):
        a, b = b, a
    return add_into(dict(a), b)


def add_into(out, b):
    """out += b in place for term dicts with nonzero values; returns out."""
    for e, c in b.items():
        if e in out:
            c += out.pop(e)
        if c:
            out[e] = c
    return out


def _convolve(a, b):
    """a * b for term dicts."""
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            s = out.get(e + f)
            out[e + f] = c * d if s is None else s + c * d
    return {e: c for e, c in out.items() if c}


def _terms(coeffs, shift=0):
    """q^shift times the polynomial with coefficients coeffs, as a term dict."""
    return {e + shift: c for e, c in enumerate(coeffs) if c}


def _dense(num):
    """(lo, coeffs) with the nonzero term dict num = q^lo * sum coeffs[i] q^i."""
    lo = min(num)
    out = [0] * (max(num) - lo + 1)
    for e, c in num.items():
        out[e - lo] = c
    return lo, out


def _reduce(num, den):
    """(num, den) in lowest terms for a term dict num and a coefficient tuple den.

    A single-term den = c*q^m is a scale and a shift; only a denominator of
    positive degree, once its factor q^m is gone, meets num in `pgcd`.
    """
    den = pstrip(den)
    if not den:
        raise NotInvertible("rational function with zero denominator")
    m = next(i for i, x in enumerate(den) if x)
    den = den[m:]
    if num and len(den) > 1:
        lo, coeffs = _dense(num)
        g = pgcd(coeffs, den)
        if len(g) > 1:
            coeffs, den = pdiv_exact(coeffs, g), pdiv_exact(den, g)
        num = _terms(coeffs, lo)
    if not num:
        return {}, _DEN1
    c = den[-1]
    den = tuple(x / c for x in den) if len(den) > 1 else _DEN1
    if c != 1 or m:
        num = {e - m: x / c for e, x in num.items()}
    return num, den


def _new(num, den=_DEN1):
    """The RationalFunction num/den for a pair already in lowest terms."""
    out = object.__new__(RationalFunction)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    return out


def _pstr(terms):
    """Sorted (exponent >= 0, nonzero coefficient) pairs as a polynomial in q."""
    out = []
    for e, c in terms:
        v = "q" if e == 1 else f"q^{e}"
        t = str(c) if e == 0 else v if c == 1 else f"-{v}" if c == -1 else f"{c}*{v}"
        out.append(t if not out else f"- {t[1:]}" if t.startswith("-") else f"+ {t}")
    return " ".join(out) or "0"


class RationalFunction:
    """Element of Q(q): a Laurent polynomial num over a polynomial den.

    num is a term dict {exponent: Fraction} with no zero values, so a power
    of q in a denominator is a negative exponent; den is a monic tuple of
    Fractions (lowest degree first) with nonzero constant term, coprime to
    num.  Zero is ({}, (1,)).

    Every value the engine forms is a Laurent polynomial, den == (1,): `+`
    merges term dicts, `*` convolves them, and `*` or `/` by c*q^m scales
    and shifts (no scale for c = 1, a negation for c = -1).  Any other
    operand cross-multiplies into `_reduce`.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        """num/den for coefficient sequences, lowest degree first."""
        num = {e: c if type(c) is Fraction else Fraction(c) for e, c in enumerate(num) if c}
        num, den = _reduce(num, tuple(c if type(c) is Fraction else Fraction(c) for c in den))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def q_power(cls, e):
        return _new({e: _F1})

    @staticmethod
    def _coerce(x):
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction)):
            return _new({0: Fraction(x)} if x else {})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == _DEN1 == o.den:
            return _new(add_terms(self.num, o.num))
        num = add_terms(_convolve(self.num, _terms(o.den)), _convolve(o.num, _terms(self.den)))
        return _new(*_reduce(num, pmul(self.den, o.den)))

    __radd__ = __add__

    def __neg__(self):
        return _new({e: -c for e, c in self.num.items()}, self.den)

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
        if self.den == _DEN1 == o.den:
            a, b = self.num, o.num
            if len(a) > len(b):
                a, b = b, a
            if len(a) != 1:
                return _new(_convolve(a, b))
            ((m, c),) = a.items()
            if c == _F1:
                return _new({e + m: x for e, x in b.items()})
            if c == _FM1:
                return _new({e + m: -x for e, x in b.items()})
            return _new({e + m: x * c for e, x in b.items()})
        return _new(*_reduce(_convolve(self.num, o.num), pmul(self.den, o.den)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise NotInvertible("division by zero rational function")
        if o.den == _DEN1 and len(o.num) == 1:
            ((m, c),) = o.num.items()
            return _new({e - m: x / c for e, x in self.num.items()}, self.den)
        lo, coeffs = _dense(o.num)
        return _new(*_reduce(_convolve(self.num, _terms(o.den, -lo)), pmul(self.den, coeffs)))

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
        if self.is_constant():
            return hash(self.num.get(0, _F0))
        return hash((frozenset(self.num.items()), self.den))

    def __bool__(self):
        return bool(self.num)

    def is_constant(self):
        return self.den == _DEN1 and self.num.keys() <= {0}

    def as_fraction(self):
        if not self.is_constant():
            raise NotRational(f"not a constant: {self}")
        return self.num.get(0, _F0)

    def is_q_monomial(self):
        """Return (c, e) if self = c*q^e, else None.  Zero is not a monomial."""
        if self.den != _DEN1 or len(self.num) != 1:
            return None
        ((e, c),) = self.num.items()
        return c, e

    def evaluate(self, q_value):
        q_value = Fraction(q_value)
        d = peval(self.den, q_value)
        if d == 0 or (q_value == 0 and min(self.num, default=0) < 0):
            raise NotInvertible(f"pole of {self} at q={q_value}")
        return sum(c * q_value**e for e, c in self.num.items()) / d

    def __repr__(self):
        return f"RationalFunction({self})"

    def __str__(self):
        # Printed as the polynomial quotient q^k num / q^k den, with k the
        # least shift that clears the negative exponents of num.
        k = max(0, -min(self.num, default=0))
        num = _pstr(sorted((e + k, c) for e, c in self.num.items()))
        if not k and self.den == _DEN1:
            return num
        return f"({num})/({_pstr((e + k, c) for e, c in enumerate(self.den) if c)})"


_ZERO_RF = _new({})
_ONE_RF = _new({0: _F1})


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
    zero = _F0
    one = _F1
    __slots__ = ("q",)

    def __init__(self, q):
        if not isinstance(q, int) or q < 2:
            raise ValueError(f"q must be an integer >= 2, got {q!r}")
        object.__setattr__(self, "q", q)

    def __setattr__(self, *_):
        raise AttributeError("field descriptors are immutable")

    def q_power(self, e):
        return Fraction(self.q) ** e

    def coerce(self, x):
        if type(x) is Fraction:
            return x
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return Fraction(x)
        raise FieldMismatch(f"{x!r} is not a scalar of {self}")

    # a rational (int or Fraction) only: no bools, no floats and no strings
    from_fraction = coerce

    def rational_part(self, x):
        return Fraction(x)

    def flat_terms(self, dicts, powers):
        """Each term dict as rows (e1, e2, 0, n, d) with its scalar n/d.

        powers is unused: a rational has no q-polynomial denominator to
        clear (see `QSymbolic.flat_terms`).
        """
        return [
            [(e1, e2, 0, c.numerator, c.denominator) for (e1, e2), c in terms.items()]
            for terms in dicts
        ]

    def __eq__(self, other):
        return isinstance(other, QNumeric) and other.q == self.q

    def __hash__(self):
        return hash(("QNumeric", self.q))

    def __repr__(self):
        return f"QNumeric(q={self.q})"


class QSymbolic:
    """Rational functions in a formal q."""

    is_symbolic = True
    zero = _ZERO_RF
    one = _ONE_RF
    __slots__ = ()

    def q_power(self, e):
        return RationalFunction.q_power(e)

    def coerce(self, x):
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return RationalFunction((x,))
        raise FieldMismatch(f"{x!r} is not a scalar of {self}")

    from_fraction = coerce

    def rational_part(self, x):
        return self.coerce(x).as_fraction()

    def flat_terms(self, dicts, powers):
        """Each term dict times L**power as rows (e1, e2, j, n, d), one per
        term n/d*q^j of each scalar's q-Laurent numerator.

        L is the lcm of the denominators that are not powers of q (L = 1
        when there are none, the usual case), and each power is at least 1,
        so the scaled scalars are q-Laurent polynomials.  Scaling an
        identity's sides by L**power keeps it true or false, which is all a
        certificate check asks.
        """
        dens = {c.den for terms in dicts for c in terms.values() if c.den != _DEN1}
        if dens:
            lcm = _DEN1
            for den in dens:
                lcm = pmul(lcm, pdiv_exact(den, pgcd(lcm, den)))
            lcm = _new(_terms(lcm))
            scaled = []
            for terms, k in zip(dicts, powers):
                factor = lcm**k
                scaled.append({e: c * factor for e, c in terms.items()})
            dicts = scaled
        return [
            [
                (e1, e2, j, x.numerator, x.denominator)
                for (e1, e2), c in terms.items()
                for j, x in c.num.items()
            ]
            for terms in dicts
        ]

    def __eq__(self, other):
        return isinstance(other, QSymbolic)

    def __hash__(self):
        return hash("QSymbolic")

    def __repr__(self):
        return "QSymbolic()"


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(s):
    """Parse 'a' or 'a/b' into a Fraction (report and vector-file format).

    Only those integer forms are read: a decimal point, an exponent, a
    digit separator or surrounding text is refused before any arithmetic,
    so '1e100000000' costs nothing to reject.  The Fraction is built from
    the matched digits, so the string is scanned once.
    """
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string, got {s!r}")
    m = _RATIONAL.fullmatch(s)
    if m is None:
        raise ValueError(f"malformed rational {s!r}")
    num, den = m.groups()
    try:
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {s!r}") from exc
