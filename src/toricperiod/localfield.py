"""p-adic plumbing: valuations, Iwasawa decomposition, P^1 classes, characters.

Matrices live over Z[1/p] (Fractions whose denominators are p-powers), which
is dense enough to hold every group element the engine ever touches while
keeping the arithmetic exact.  The additive character psi has conductor Z_p
and enters only through its exact shell integrals
(`shell_character_integral`): no value of psi is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

INF = float("inf")


def valuation(x, p):
    """p-adic valuation of an int or a Fraction; INF for zero.

    An int is read as it is and a Fraction through its own numerator and
    denominator, so no Fraction is built.
    """
    if isinstance(x, int):
        n, d = x, 1
    else:
        n, d = x.numerator, x.denominator
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def residue_mod(x, p, n):
    """Reduce x in Z_p (a Fraction with denominator prime to p) mod p^n."""
    x = Fraction(x)
    mod = p**n
    if x.denominator % p == 0:
        raise ValueError(f"{x} is not p-integral")
    return x.numerator * pow(x.denominator, -1, mod) % mod


class Mat2:
    """2x2 matrix over Z[1/p] with the prime carried along."""

    __slots__ = ("p", "a", "b", "c", "d")

    def __init__(self, p, a, b, c, d):
        self.p = p
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.c = Fraction(c)
        self.d = Fraction(d)

    @classmethod
    def identity(cls, p):
        return cls(p, 1, 0, 0, 1)

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        if other.p != self.p:
            raise ValueError("matrices over different primes")
        return Mat2(
            self.p,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self):
        return self.a * self.d - self.b * self.c

    def inv(self):
        dt = self.det()
        if dt == 0:
            raise ZeroDivisionError("singular matrix")
        return Mat2(self.p, self.d / dt, -self.b / dt, -self.c / dt, self.a / dt)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def is_integral(self):
        return all(valuation(e, self.p) >= 0 for e in self.entries() if e != 0)

    def is_unit(self):
        """In GL2(Z_p): integral entries and unit determinant."""
        return self.is_integral() and valuation(self.det(), self.p) == 0

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.p == other.p and self.entries() == other.entries()

    def __repr__(self):
        return f"Mat2(p={self.p}, [[{self.a}, {self.b}], [{self.c}, {self.d}]])"


def weyl(p):
    """The fixed Weyl representative w = [[0, 1], [1, 0]]."""
    return Mat2(p, 0, 1, 1, 0)


def unipotent(p, x):
    """n(x) = [[1, x], [0, 1]]."""
    return Mat2(p, 1, x, 0, 1)


def diag(p, t1, t2):
    return Mat2(p, t1, 0, 0, t2)


@dataclass(frozen=True)
class IwasawaFactors:
    """g = b * k with b upper triangular, v(b11) = a1, v(b22) = a2, k in GL2(Z_p)."""

    a1: int
    a2: int
    k: Mat2


def iwasawa_decompose(g):
    """Iwasawa decomposition of g in GL2(Q_p), branching on the bottom row.

    With bottom row (c, d): if v(c) >= v(d) a lower-unipotent integral
    column operation clears c; otherwise swap columns through w first.  The
    v(u) < 0 prototype is the identity
        [[0,1],[1,u]] = [[-u^{-1}, 1], [0, u]] * [[1, 0], [u^{-1}, 1]].
    """
    p = g.p
    dt = g.det()
    if dt == 0:
        raise ZeroDivisionError("Iwasawa decomposition of a singular matrix")
    vc = valuation(g.c, p)
    vd = valuation(g.d, p)
    if vc >= vd:
        # g * [[1,0],[-c/d,1]] is upper triangular with diagonal (det/d, d).
        r = g.c / g.d
        k = Mat2(p, 1, 0, r, 1)
        a1 = valuation(dt, p) - vd
        a2 = vd
    else:
        # swap columns: (g w) has bottom row (d, c) with v(d) > v(c)
        r = g.d / g.c
        k = Mat2(p, 0, 1, 1, r)
        a1 = valuation(dt, p) - vc
        a2 = vc
    # k has entries 0, 1 and r with det k = +-1, so it lies in GL2(Z_p)
    # exactly when r is integral.
    if valuation(r, p) < 0:
        raise ArithmeticError(f"Iwasawa k-part not in GL2(Z_p): {k}")
    return IwasawaFactors(a1=a1, a2=a2, k=k)


@dataclass(frozen=True)
class P1Class:
    """Point of P^1(Z/p^n): affine [u : 1] with u mod p^n, or [1 : v] with v in pZ/p^n."""

    p: int
    n: int
    at_infinity: bool
    rep: int

    def __post_init__(self):
        mod = self.p**self.n
        if not (0 <= self.rep < mod):
            raise ValueError(f"representative {self.rep} out of range mod {mod}")
        if self.at_infinity and self.rep % self.p != 0:
            raise ValueError("[1 : v] requires v divisible by p")
        # The value the dataclass hash would compute on every call, once.
        object.__setattr__(self, "_hash", hash((self.p, self.n, self.at_infinity, self.rep)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return f"[1:{self.rep}]" if self.at_infinity else f"[{self.rep}:1]"


def p1_class_of(k, n):
    """Class of the bottom row of k in B(Z_p) \\ GL2(Z_p) / K_n.

    The identity coset is the affine class [0 : 1].
    """
    p = k.p
    if not k.is_unit():
        raise ValueError(f"not in GL2(Z_p): {k}")
    c, d = k.c, k.d
    if valuation(d, p) == 0:
        inv = Fraction(1) / d
        return P1Class(p, n, False, residue_mod(c * inv, p, n))
    # det is a unit, so c must be one here
    inv = Fraction(1) / c
    return P1Class(p, n, True, residue_mod(d * inv, p, n))


def p1_enumerate(p, n):
    """All p^n + p^{n-1} classes, affine first, in increasing representative order."""
    out = [P1Class(p, n, False, u) for u in range(p**n)]
    out.extend(P1Class(p, n, True, p * v) for v in range(p ** (n - 1)))
    return out


def class_rep(cls):
    """A GL2(Z_p) representative whose bottom row realizes the class."""
    if cls.at_infinity:
        return Mat2(cls.p, 0, -1, 1, cls.rep)
    return Mat2(cls.p, 1, 0, cls.rep, 1)


def coset_reps(p, min_val, level):
    """Representatives of p^{min_val} Z_p / p^{level} Z_p (p^{level-min_val} many)."""
    if level < min_val:
        raise ValueError("refinement level above the ball's valuation")
    step = Fraction(p) ** min_val
    return [j * step for j in range(p ** (level - min_val))]


def additive_haar_integral(fn, p, min_val, level, zero):
    """Integrate fn against additive Haar measure with vol(Z_p) = 1.

    fn must vanish outside p^{min_val} Z_p and be constant on cosets of
    p^{level} Z_p; the value is then the exact finite sum of coset values
    weighted by q^{-level}.
    """
    total = zero
    for x in coset_reps(p, min_val, level):
        total = total + fn(x)
    return total * Fraction(1, p**level)


def unit_reps(p, level):
    """Units of Z/p^{level}."""
    return [a for a in range(p**level) if a % p != 0]


def shell_character_integral(m, field):
    """Exact value of the shell integral int_{v(x) = m} psi(x) dx.

    The shell has volume q^{-m}(1 - q^{-1}); psi is trivial on it for
    m >= 0, sums to -1 across the m = -1 shell, and cancels completely
    once m <= -2.
    """
    if m >= 0:
        return field.q_power(-m) * (field.one - field.q_power(-1))
    if m == -1:
        return -field.one
    return field.zero
