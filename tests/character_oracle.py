"""The additive character psi as cyclotomic values, for the tests' brute-force oracles.

psi has conductor Z_p: psi(x) = zeta_{p^m}^u for x with p-fractional part
u/p^m, and psi is trivial on Z_p itself.  The engine never forms a value of
psi (its unit averages are used in closed form); the tests build them here
to enumerate the integrals that the closed forms replace.
"""

from fractions import Fraction

from toricperiod.localfield import residue_mod, valuation
from toricperiod.scalars import Cyclotomic


class ConductorExceeded(ValueError):
    """psi was asked for a value outside the chosen cyclotomic level."""


def psi_eval(x, p, level):
    """psi(x) = zeta_{p^m}^u as an element of Q(zeta_{p^level}).

    Here u/p^m is the p-fractional part of x; trivial on Z_p.  Raises
    ConductorExceeded if x needs a deeper root of unity than the level holds.
    """
    x = Fraction(x)
    v = valuation(x, p)
    if v >= 0:
        return Cyclotomic.from_fraction(p, level, 1)
    m = -v
    if m > level:
        raise ConductorExceeded(
            f"psi at v(x) = {-m} needs level {m}, have {level}"
        )
    u = residue_mod(x * p**m, p, m)
    return Cyclotomic.zeta_power(p, level, u * p ** (level - m))
