"""Independent re-checks of certified verdicts, in plain Fraction arithmetic.

Nothing here imports toricperiod.  A Laurent polynomial is a dict mapping
exponent pairs (e1, e2) to nonzero Fractions, read back from the JSON term
lists the library emits ({"c": "a/b", "e": [e1, e2]}).  Symbolic-q
coefficients are printed rational functions of q; they are checked after
specializing q to a fixed prime, where the certificate identity must still
hold.

The image ideal (1 - Y1, 1 - q^-1 Y1 Y2^-1) is the maximal ideal of the
point (Y1, Y2) = (1, 1/q), so every period vanishes there and a member
query must too.
"""

from fractions import Fraction

SYMBOLIC_Q = 11


def add_into(acc, poly, scale=1):
    for e, c in poly.items():
        s = acc.get(e, 0) + scale * c
        if s:
            acc[e] = s
        else:
            acc.pop(e, None)
    return acc


def mul(a, b):
    out = {}
    for (a1, a2), x in a.items():
        for (b1, b2), y in b.items():
            add_into(out, {(a1 + b1, a2 + b2): x * y})
    return out


def generators(q):
    """The pair 1 - Y1 and 1 - q^-1 Y1 Y2^-1 at a concrete q."""
    q = Fraction(q)
    return {(0, 0): Fraction(1), (1, 0): Fraction(-1)}, {
        (0, 0): Fraction(1),
        (1, -1): -1 / q,
    }


def eval_q_function(text, q):
    """Value at q of a rational function printed as 'num' or '(num)/(den)'.

    num and den are sums of terms 'c', 'q', 'c*q' or 'c*q^e', joined by
    ' + ' and ' - ', with c an integer or a fraction 'a/b'.
    """
    text = text.strip()
    if text.startswith("(") and ")/(" in text:
        num, den = text[1:-1].split(")/(")
        return _eval_q_poly(num, q) / _eval_q_poly(den, q)
    return _eval_q_poly(text, q)


def _eval_q_poly(text, q):
    q = Fraction(q)
    total = Fraction(0)
    for term in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        if "q" not in term:
            total += sign * Fraction(term)
            continue
        coeff, _, power = term.partition("q")
        coeff = Fraction(coeff[:-1]) if coeff else Fraction(1)
        exponent = int(power[1:]) if power else 1
        total += sign * coeff * q**exponent
    return total


def terms_from_json(items, q=None):
    """Laurent dict from JSON terms; q specializes symbolic coefficients."""
    out = {}
    for item in items:
        e = (int(item["e"][0]), int(item["e"][1]))
        c = Fraction(item["c"]) if q is None else eval_q_function(item["c"], q)
        add_into(out, {e: c})
    return out


def specialize(poly, q):
    """A Laurent dict whose coefficients are {q-exponent: Fraction}, at q."""
    q = Fraction(q)
    out = {}
    for e, coeff in poly.items():
        add_into(out, {e: sum(c * q**j for j, c in coeff.items())})
    return out


def certificate_holds(cert, h, q, symbolic=False):
    """u1 * g1 + u2 * g2 == h, re-expanded from the certificate's JSON."""
    at = q if symbolic else None
    u1 = terms_from_json(cert["u1"], at)
    u2 = terms_from_json(cert["u2"], at)
    g1, g2 = generators(q)
    lhs = add_into(mul(u1, g1), mul(u2, g2))
    return not add_into(lhs, h, -1)


def value_at_image_point(h, q):
    """h(1, 1/q): Y1^e1 Y2^e2 becomes q^-e2."""
    q = Fraction(q)
    return sum((c * q ** (-e2) for (_, e2), c in h.items()), Fraction(0))


def check_period_report(report, q):
    """Reason a period report fails its independent checks, or None."""
    if not (report.get("member") and report.get("rational")):
        return "report is not a rational member"
    cert = report.get("certificate")
    if cert is None or not cert.get("verified"):
        return "report carries no verified certificate"
    la = terms_from_json(report["lA"])
    if not certificate_holds(cert, la, q):
        return "certificate does not re-expand to the period"
    if value_at_image_point(la, q) != 0:
        return "period does not vanish at (1, 1/q)"
    return None
