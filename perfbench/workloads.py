"""The two workloads: their seeded inputs, the calls that turn each input
into a verdict, and the known-answer checks on every verdict.

A workload is a list of items.  `run()` is the timed call into the library;
`check(result)` returns (reason the verdict failed or None, payload), where
the payload is the deterministic output that goes into the digest.  Items
marked `anchor` do not depend on the seed, so their digests are fixed
across seeds.  `table` is (p, L) for items that integrate a depth-L table,
which is what the coset cost model applies to.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from oracle import (
    SYMBOLIC_Q,
    certificate_holds,
    check_period_report,
    generators,
    specialize,
    terms_from_json,
    value_at_image_point,
)

# The magnitude of every coefficient, and every other choice that sets how
# much arithmetic an input costs, is drawn from a fixed random stream (a
# "shape" stream); the seed picks only signs.  Inputs differ from seed to
# seed, but each costs about the same on every seed, so the spread of a
# metric across seeds is the machine's, not the inputs'.
MAGNITUDES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 3))


class Item:
    __slots__ = ("name", "run", "check", "anchor", "table")

    def __init__(self, name, run, check, anchor=False, table=None):
        self.name = name
        self.run = run
        self.check = check
        self.anchor = anchor
        self.table = table


def predicted_cosets(p, level):
    """u-cosets refined over the zeta window [-(L+2), L+4] of a depth-L table."""
    return sum(p ** (max(level, -k) + level - 1) for k in range(-(level + 2), level + 5))


def _expected(p, which):
    return generators(p)[which]


# -- period-deep ----------------------------------------------------------------------

VALUE_EXPONENTS = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
VALUE_TERMS = 2


def dense_table_doc(p, n, rng):
    """A seeded depth-n table document whose every class value is nonzero and
    differs from the value at the identity class [0:1].

    The big-cell remainder f - f(1) * sph is then nonzero on every u-coset,
    so every input of a given (p, n) pays the same enumeration work.  Each
    class value has VALUE_TERMS terms whose exponents and coefficient
    magnitudes are fixed per (p, n) and class; the seed picks the signs.
    """
    labels = [f"[{u}:1]" for u in range(p**n)] + [f"[1:{p * v}]" for v in range(p ** (n - 1))]
    shapes = random.Random(100 * p + n)
    rows = []
    identity = None
    for label in labels:
        exponents = shapes.sample(VALUE_EXPONENTS, VALUE_TERMS)
        magnitudes = [shapes.choice(MAGNITUDES) for _ in exponents]
        while True:
            poly = {e: m * rng.choice((1, -1)) for e, m in zip(exponents, magnitudes)}
            if poly != identity:
                break
        if identity is None:
            identity = poly
        terms = [{"c": str(c), "e": list(e)} for e, c in sorted(poly.items())]
        rows.append({"class": label, "poly": terms})
    return {"prime": p, "level": n, "values": rows}


class PeriodDeep:
    """The CLI `period` command in-process on level-3 (p=3) and level-2 (p=5) documents."""

    timeout_s = 120

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random(seed)
        family, scalars = lib.family, lib.scalars
        f3, f5 = scalars.QNumeric(3), scalars.QNumeric(5)
        nudge = lib.localfield.unipotent(3, Fraction(1, 3))
        docs = [("random-p3-n3", 3, 3, dense_table_doc(3, 3, rng), None, False)]
        for i in range(2):
            inner, _ = family.vector_from_json(dense_table_doc(3, 1, rng))
            translate = family.tabulate(family.Translate(nudge, inner), 3, 3, f3)
            docs.append((f"translate-p3-n3-{i}", 3, 3, family.vector_to_json(translate),
                         None, False))
        docs += [
            ("f0-p3-n3", 3, 3, family.vector_to_json(family.f0_table(f3, 3, 3)), 0, True),
            ("f0-p5-n2", 5, 2, family.vector_to_json(family.f0_table(f5, 5, 2)), 0, True),
            ("sph-p5-n2", 5, 2, family.vector_to_json(family.sph_table(f5, 5, 2)), 1, True),
        ]
        workdir.mkdir(parents=True, exist_ok=True)
        self.items = []
        for name, p, n, doc, known, anchor in docs:
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.items.append(self._period(name, p, n, path, workdir / f"{name}.out.json",
                                           known, anchor))

    def _period(self, name, p, n, doc, out, known, anchor):
        argv = ["period", "--input", str(doc), "--out", str(out)]

        def run():
            return self.lib.cli.main(argv)

        def check(code):
            text = out.read_text() if out.exists() else ""
            out.unlink(missing_ok=True)
            row = {"doc": name, "exit": code, "report": text}
            if code != 0 or not text:
                return f"exit status {code}", row
            report = json.loads(text)
            reason = check_period_report(report, p)
            if reason is None and known is not None:
                if terms_from_json(report["lA"]) != _expected(p, known):
                    reason = f"period of {name} is not generator {known + 1}"
            return reason, row

        return Item(name, run, check, anchor=anchor, table=(p, n))


# -- membership -----------------------------------------------------------------------

# Member/non-member query pairs per field.  Cofactor sizes run evenly from
# 1 to MAX_COFACTOR_TERMS terms, giving supports of 4 to about 60 terms.  The
# numeric fields take turns along one ladder of sizes, so their query costs
# form a continuum rather than a few tiers, and a percentile over them does
# not sit on the edge between two tiers.
SYMBOLIC_PAIRS = 4
NUMERIC_QS = (2, 3, 5, 7)
NUMERIC_PAIRS = 5
MAX_COFACTOR_TERMS = 16

IDENTITY_LINES = (
    "PASS spherical-period: l(sph) = 1 - q^(-1)·X1·X2^(-1)",
    "PASS iwahori-period: l(f0) = 1 - q^(-1/2)·X1",
)


def _qmul(a, b):
    """Product of Laurent dicts whose coefficients are {q-exponent: Fraction}."""
    out = {}
    for (a1, a2), x in a.items():
        for (b1, b2), y in b.items():
            slot = out.setdefault((a1 + b1, a2 + b2), {})
            for i, c in x.items():
                for j, d in y.items():
                    slot[i + j] = slot.get(i + j, 0) + c * d
    return out


def _qadd(a, b):
    out = {e: dict(c) for e, c in a.items()}
    for e, coeff in b.items():
        slot = out.setdefault(e, {})
        for j, c in coeff.items():
            slot[j] = slot.get(j, 0) + c
    clean = {}
    for e, coeff in out.items():
        coeff = {j: c for j, c in coeff.items() if c}
        if coeff:
            clean[e] = coeff
    return clean


G1 = {(0, 0): {0: Fraction(1)}, (1, 0): {0: Fraction(-1)}}
G2 = {(0, 0): {0: Fraction(1)}, (1, -1): {-1: Fraction(-1)}}


# Cofactor supports are fixed per size, in a fixed shuffled order of the box
# [-BOX, BOX]^2; with the magnitudes, signs and powers of q drawn from the
# shape stream, a query's cost depends on its size and field, not on the
# seed.  The seed picks the sign of each whole query: negating h negates
# every step of its normal form and costs the same, while flipping single
# terms changes what cancels and moved a query's time by up to 30%.
# The wide box spreads the leading monomials apart, so a query takes many
# reduction steps.
BOX = 8
SUPPORT = [(a, b) for a in range(-BOX, BOX + 1) for b in range(-BOX, BOX + 1)]
random.Random(0).shuffle(SUPPORT)
# A symbolic coefficient is a Laurent polynomial in q with this many terms,
# so the normal form divides by, and reduces, true rational functions of q.
Q_POWERS = (-2, -1, 0, 1, 2)
Q_TERMS = 2


def _size(step, steps):
    return 1 + (MAX_COFACTOR_TERMS - 1) * step // (steps - 1)


def _coefficient(shape):
    return shape.choice(MAGNITUDES) * shape.choice((1, -1))


def _cofactor(shape, support, symbolic):
    u = {}
    for e in support:
        powers = shape.sample(Q_POWERS, Q_TERMS) if symbolic else (0,)
        u[e] = {j: _coefficient(shape) for j in powers}
    return u


def _qscale(a, sign):
    return {e: {j: sign * c for j, c in coeff.items()} for e, coeff in a.items()}


class Membership:
    """MembershipSolver.membership on seeded members and non-members, plus the
    `identities` and `ideal` commands in-process."""

    timeout_s = 60

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.solvers = {}
        rng = random.Random(seed)
        shape = random.Random(0)
        self.items = []
        fields = {q: lib.scalars.QNumeric(q) for q in NUMERIC_QS}
        fields["symbolic"] = lib.scalars.QSymbolic()
        ladder = NUMERIC_PAIRS * len(NUMERIC_QS)
        queries = [("symbolic", i, _size(i, SYMBOLIC_PAIRS)) for i in range(SYMBOLIC_PAIRS)]
        queries += [(q, i, _size(i * len(NUMERIC_QS) + f, ladder))
                    for f, q in enumerate(NUMERIC_QS) for i in range(NUMERIC_PAIRS)]
        for q, i, size in queries:
            symbolic = q == "symbolic"
            u1 = _cofactor(shape, SUPPORT[:size], symbolic)
            u2 = _cofactor(shape, SUPPORT[-size:], symbolic)
            h = _qadd(_qmul(u1, G1), _qmul(u2, G2))
            shift = {(0, 0): {0: _coefficient(shape)}}
            for member, poly in ((True, h), (False, _qadd(h, shift))):
                poly = _qscale(poly, rng.choice((1, -1)))
                self.items.append(self._query(q, fields[q], poly, member, i))
        self.items.append(self._command("identities", ["identities"], self._identities_ok))
        for check in ("equality", "principal", "proper"):
            self.items.append(self._command(f"ideal-{check}", ["ideal", "--check", check],
                                            self._ideal_ok))

    def _to_library(self, field, poly):
        scalars = self.lib.scalars
        terms = {}
        for e, coeff in poly.items():
            if field.is_symbolic:
                low = min(min(coeff), 0)
                num = [Fraction(0)] * (max(coeff) - low + 1)
                for j, c in coeff.items():
                    num[j - low] += c
                terms[e] = scalars.RationalFunction(tuple(num), (0,) * -low + (1,))
            else:
                terms[e] = sum(c * Fraction(field.q) ** j for j, c in coeff.items())
        return self.lib.laurent.LaurentPoly(field, terms)

    def _query(self, q, field, poly, member, index):
        h = self._to_library(field, poly)
        g1, g2 = self.lib.period.image_ideal(field)
        symbolic = q == "symbolic"
        at = SYMBOLIC_Q if symbolic else q
        h_at = specialize(poly, at)

        def run():
            solver = self.solvers.get(q)
            if solver is None:
                solver = self.solvers[q] = self.lib.groebner.MembershipSolver()
            return solver.membership(h, g1, g2)

        def check(cert):
            row = {"q": q, "member": cert is not None,
                   "certificate": None if cert is None else cert.to_json()}
            if (value_at_image_point(h_at, at) == 0) != member:
                return "query does not vanish as constructed", row
            if (cert is not None) != member:
                return "wrong membership verdict", row
            if cert is not None and not certificate_holds(row["certificate"], h_at, at, symbolic):
                return "certificate does not re-expand to the query", row
            return None, row

        kind = "member" if member else "nonmember"
        return Item(f"{kind}-q{q}-{index}", run, check)

    def _command(self, name, argv, verdict):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.lib.cli.main(argv)
            return code, buf.getvalue()

        def check(result):
            code, text = result
            row = {"command": argv, "exit": code, "output": text}
            if code != 0:
                return f"exit status {code}", row
            return verdict(text), row

        return Item(name, run, check, anchor=True)

    @staticmethod
    def _identities_ok(text):
        lines = text.splitlines()
        if len(lines) != 7 or not all(line.startswith("PASS ") for line in lines):
            return "identities did not all pass"
        if any(want not in lines for want in IDENTITY_LINES):
            return "l(sph) or l(f0) differs from its closed form"
        return None

    @staticmethod
    def _ideal_ok(text):
        return None if json.loads(text).get("pass") is True else "ideal check failed"


WORKLOADS = {"period-deep": PeriodDeep, "membership": Membership}
