"""Command line front end for period computation and certification.

Four subcommands cover the library's verifiable claims:

    identities   symbolic closed forms and ideal presentations
    theorem      seeded random-vector membership trials at a fixed prime
    period       certified report for one vector document
    ideal        structure checks on the image ideal

Exit status is 0 when every requested check passes, 1 when a computation
honestly falsifies an expected identity or membership, and 2 for usage
errors, including unreadable or malformed input documents.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from .family import (
    PHI_W,
    SPH,
    ClassCoverageError,
    ParseError,
    f0_table,
    random_table,
    sph_table,
    vector_from_json,
)
from .groebner import MembershipSolver
from .laurent import ZPoly, one, qpow, y1, y2
from .period import (
    cleared_window,
    image_ideal,
    image_ideal_alt,
    toric_period,
    verify_image,
)
from .scalars import QNumeric, QSymbolic
from .whittaker import cs_factor_regularized, shintani_sph

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _q_argument(text):
    if text == "symbolic":
        return text
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'symbolic' or an integer, got {text!r}"
        )
    if value < 2:
        raise argparse.ArgumentTypeError("numeric q must be at least 2")
    return value


def _displayer(mode):
    if mode == "X":
        return lambda v: v.to_x_display()
    return lambda v: v.to_y_display()


def _emit(text, out, code):
    """Write a command's output to the --out file, or to stdout without one,
    and return its exit code: EXIT_USAGE when --out cannot be written."""
    if not out:
        sys.stdout.write(text)
        return code
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def _zpoly_display(window, disp):
    parts = []
    for k, v in sorted(window.coeffs.items()):
        body = f"({disp(v)})"
        parts.append(body if k == 0 else f"{body}·Z^{k}")
    return " + ".join(parts) if parts else "0"


# -- identities ----------------------------------------------------------------------


def _period_check(name, label, vec, want, field, disp):
    """A marker's period against its expected value and its cleared zeta window."""
    got = toric_period(vec, field)
    window = cleared_window(vec, field).eval_z1()
    complaint = f"expected {disp(want)}, got {disp(got)}"
    if window != got:
        complaint += f", cleared window gives {disp(window)}"
    return name, got == want == window, f"l({label}) = {disp(got)}", complaint


def _identity_checks(disp, sabotage):
    field = QSymbolic()
    unit = one(field)
    cs = cs_factor_regularized(field)

    expected_sph = cs
    if sabotage:
        expected_sph = unit + qpow(field, -1) * y1(field) * y2(field, -1)

    yield _period_check("spherical-period", "sph", SPH, expected_sph, field, disp)
    yield _period_check("iwahori-period", "f0", PHI_W, unit - y1(field), field, disp)

    window = cleared_window(PHI_W, field)
    want_window = ZPoly(field, 0, 1, {0: unit, 1: -y1(field)})
    yield (
        "iwahori-zeta-cleared",
        window == want_window,
        f"(1 - Y1 Z)(1 - Y2 Z)·I(f0, Z) = {_zpoly_display(window, disp)}",
        f"got {_zpoly_display(window, disp)}",
    )

    series = ZPoly.from_function(field, -2, 8, lambda k: shintani_sph(field, k))
    cleared = series.clear_l_factor(0)
    yield (
        "spherical-series-cleared",
        cleared == ZPoly(field, 0, 0, {0: unit}),
        "(1 - Y1 Z)(1 - Y2 Z)·sum h_k Z^k = 1",
        f"got {_zpoly_display(cleared, disp)}",
    )

    solver = MembershipSolver()
    certs = solver.ideal_equal(image_ideal(field), image_ideal_alt(field))
    yield (
        "presentation-equality",
        certs is not None,
        "both generator pairs span the same ideal, four certificates verified",
        "presentations differ",
    )

    g1, g2 = image_ideal(field)
    yield (
        "ideal-proper",
        solver.is_proper(g1, g2),
        "1 does not lie in the image ideal",
        "ideal contains 1",
    )

    principal, _ = solver.is_principal_pair(g1, g2)
    yield (
        "ideal-not-principal",
        not principal,
        "the image ideal admits no single generator",
        "ideal is principal",
    )


def cmd_identities(args):
    disp = _displayer(args.display)
    lines = []
    failures = 0
    for name, ok, detail, complaint in _identity_checks(disp, args.sabotage):
        if ok:
            lines.append(f"PASS {name}: {detail}")
        else:
            failures += 1
            lines.append(f"FAIL {name}: {complaint}")
    return _emit("\n".join(lines) + "\n", args.out, EXIT_FALSIFIED if failures else EXIT_OK)


# -- theorem trials ------------------------------------------------------------------


def cmd_theorem(args):
    p, n = args.p, args.level
    field = QNumeric(p)
    failures = 0
    lines = []
    started = time.monotonic()
    for i in range(args.trials):
        seed = args.seed + i
        vec = random_table(p, n, seed=seed)
        t0 = time.monotonic()
        report = verify_image(vec)
        passed = report.member
        if not passed:
            failures += 1
        row = {"trial": i, "p": p, "level": n, "seed": seed, "pass": passed}
        row.update(report.to_json())
        row["elapsed_ms"] = int((time.monotonic() - t0) * 1000)
        lines.append(json.dumps(row))

    g1, g2 = image_ideal(field)
    attained = [
        ("generator-1-attained", "iwahori-f0", toric_period(f0_table(field, p, n)), g1),
        ("generator-2-attained", "spherical", toric_period(sph_table(field, p, n)), g2),
    ]
    for name, by, got, want in attained:
        match = got == want
        if not match:
            failures += 1
        lines.append(
            json.dumps(
                {
                    "check": name,
                    "attained_by": by,
                    "pass": match,
                    "lA": got.to_json_terms(),
                    "lA_display_X": got.to_x_display(),
                }
            )
        )

    summary = {
        "summary": {"trials": args.trials, "failures": failures},
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    lines.append(json.dumps(summary))
    return _emit("\n".join(lines) + "\n", args.out, EXIT_FALSIFIED if failures else EXIT_OK)


# -- single-vector reports -----------------------------------------------------------


def _term_template(pad):
    """One {"c": ..., "e": [e1, e2]} term as json.dumps(indent=2) lays it out at depth pad."""
    inner = pad + "  "
    return (
        f'{pad}{{\n{inner}"c": %s,\n{inner}"e": [\n{inner}  %d,\n{inner}  %d\n'
        f"{inner}]\n{pad}}}"
    )


_LA_TERM = _term_template(" " * 4)
_CERT_TERM = _term_template(" " * 6)
_JSON_BOOL = {True: "true", False: "false"}


def _terms_json(terms, template, close):
    """to_json_terms() of a polynomial with these sorted_terms() as indented
    JSON; close is the indent of its ']'."""
    if not terms:
        return "[]"
    body = ",\n".join(template % (_quote(str(c)), e1, e2) for (e1, e2), c in terms)
    return f"[\n{body}\n{close}]"


def period_report_json(report):
    """Exactly json.dumps(report.to_json(), indent=2), read from the report's
    polynomials with fixed templates instead of the pure-Python encoder."""
    cert = report.certificate
    if cert is None:
        cert_json = "null"
    else:
        cert_json = (
            f'{{\n    "u1": {_terms_json(cert.u1.sorted_terms(), _CERT_TERM, "    ")},'
            f'\n    "u2": {_terms_json(cert.u2.sorted_terms(), _CERT_TERM, "    ")},'
            f'\n    "verified": {_JSON_BOOL[cert.verified]}\n  }}'
        )
    la_terms = report.la.sorted_terms()
    return (
        f'{{\n  "lA": {_terms_json(la_terms, _LA_TERM, "  ")},'
        f'\n  "lA_display_X": {_quote(report.la.to_x_display(la_terms))},'
        f'\n  "member": {_JSON_BOOL[report.member]},'
        f'\n  "certificate": {cert_json},'
        f'\n  "rational": {_JSON_BOOL[report.rational]}\n}}'
    )


def cmd_period(args):
    try:
        with open(args.input) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # JSONDecodeError, and the int-conversion limit on an overlong literal
        print(f"error: {args.input} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        vec, field = vector_from_json(doc)
    except (ParseError, ClassCoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = verify_image(vec, field=field)
    return _emit(
        period_report_json(report) + "\n", args.out, EXIT_OK if report.member else EXIT_FALSIFIED
    )


# -- ideal structure -----------------------------------------------------------------


def cmd_ideal(args):
    if args.q == "symbolic":
        field = QSymbolic()
    else:
        field = QNumeric(args.q)
    solver = MembershipSolver()
    g1, g2 = image_ideal(field)
    detail = {}
    if args.check == "equality":
        certs = solver.ideal_equal((g1, g2), image_ideal_alt(field))
        ok = certs is not None
        if ok:
            detail["certificates"] = [c.to_json() for c in certs]
    elif args.check == "principal":
        principal, gcd = solver.is_principal_pair(g1, g2)
        ok = not principal
        detail["gcd"] = gcd.to_json_terms()
    else:
        ok = solver.is_proper(g1, g2)
    blob = {"check": args.check, "q": args.q, "pass": ok}
    blob.update(detail)
    print(json.dumps(blob))
    return EXIT_OK if ok else EXIT_FALSIFIED


# -- argument wiring -----------------------------------------------------------------


@cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="toricperiod",
        description="exact toric periods on unramified principal series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="verify the symbolic closed forms")
    p_id.add_argument("--display", choices=["X", "Y"], default="X")
    p_id.add_argument("--out", metavar="FILE")
    p_id.add_argument(
        "--sabotage",
        action="store_true",
        help="flip one expected value to demonstrate a failing run",
    )
    p_id.set_defaults(run=cmd_identities)

    p_th = sub.add_parser("theorem", help="randomized membership trials")
    p_th.add_argument("--p", type=int, choices=[2, 3, 5, 7], required=True)
    p_th.add_argument("--level", type=int, choices=[1, 2, 3], required=True)
    p_th.add_argument("--trials", type=_positive_int, required=True)
    p_th.add_argument("--seed", type=int, default=0)
    p_th.add_argument("--out", metavar="FILE")
    p_th.set_defaults(run=cmd_theorem)

    p_pe = sub.add_parser("period", help="certified report for one vector document")
    p_pe.add_argument("--input", required=True, metavar="FILE")
    p_pe.add_argument("--out", metavar="FILE")
    p_pe.set_defaults(run=cmd_period)

    p_ideal = sub.add_parser("ideal", help="image ideal structure checks")
    p_ideal.add_argument(
        "--check", choices=["equality", "principal", "proper"], required=True
    )
    p_ideal.add_argument("--q", type=_q_argument, default="symbolic")
    p_ideal.set_defaults(run=cmd_ideal)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
