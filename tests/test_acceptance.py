"""Acceptance suite: every verifiable claim, exact equality, stated budgets.

Each test prints one pass/fail line (run with -s to see them on success)
and enforces its own wall-clock budget; all comparisons are exact, there
are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from toricperiod.family import (
    PHI_W,
    SPH,
    LinComb,
    Translate,
    chi_delta_value,
    evaluate,
    f0_table,
    random_table,
    sph_table,
)
from toricperiod.groebner import MembershipSolver
from toricperiod.laurent import ZPoly, mono, one, qpow, y1, y2
from toricperiod.localfield import (
    Mat2,
    additive_haar_integral,
    coset_reps,
    diag,
    iwasawa_decompose,
    valuation,
)
from toricperiod.period import (
    cleared_window,
    image_ideal,
    image_ideal_alt,
    spherical_ratio,
    toric_period,
    verify_image,
)
from toricperiod.scalars import QNumeric, QSymbolic
from toricperiod.whittaker import (
    cs_factor_regularized,
    shintani_sph,
    whittaker_coefficient,
)

S = QSymbolic()


def _line(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{name}]: {status} in {elapsed:.2f}s (budget {budget:g}s)")


def test_criterion_1_regularized_spherical_period():
    budget = 1.0
    t0 = time.monotonic()
    expected = one(S) - qpow(S, -1) * y1(S) * y2(S, -1)
    ok = (
        cs_factor_regularized(S) == expected
        and toric_period(SPH, S) == expected
        and cs_factor_regularized(S).to_x_display() == "1 - q^(-1)·X1·X2^(-1)"
    )
    elapsed = time.monotonic() - t0
    _line(1, "regularized spherical period", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_2_normalized_spherical_functional():
    budget = 1.0
    t0 = time.monotonic()
    window = ZPoly.from_function(S, -2, 8, lambda k: shintani_sph(S, k))
    cleared = window.clear_l_factor(0)
    ok = cleared == ZPoly(S, 0, 0, {0: one(S)}) and cleared.eval_z1() == one(S)
    elapsed = time.monotonic() - t0
    _line(2, "normalized spherical functional equals 1", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_3_iwahori_zeta_and_period():
    budget = 1.0
    t0 = time.monotonic()
    window = cleared_window(PHI_W, S)
    ok = (
        window == ZPoly(S, 0, 1, {0: one(S), 1: -y1(S)})
        and toric_period(PHI_W, S) == one(S) - y1(S)
    )
    elapsed = time.monotonic() - t0
    _line(3, "Iwahori zeta window and period", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_4_integration_matches_closed_forms():
    budget = 60.0
    t0 = time.monotonic()
    failures = []
    for p in (2, 3, 5):
        F = QNumeric(p)
        for n in (1, 2):
            for marker, table in (
                (SPH, sph_table(F, p, n)),
                (PHI_W, f0_table(F, p, n)),
            ):
                for k in range(-3, 6):
                    got = whittaker_coefficient(table, k)
                    want = whittaker_coefficient(marker, k, F)
                    if got != want:
                        failures.append(f"{marker!r} p={p} n={n} k={k}")
    elapsed = time.monotonic() - t0
    _line(4, "integrated coefficients match closed forms", not failures, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_5_randomized_membership_trials():
    per_config_budget = 300.0
    configs = [(2, 2, 20000), (3, 2, 30000), (5, 1, 50000)]
    for p, n, base in configs:
        t0 = time.monotonic()
        F = QNumeric(p)
        g1, g2 = image_ideal(F)
        failures = []
        for i in range(100):
            f = random_table(p, n, seed=base + i)
            report = verify_image(f)
            if not report.rational:
                failures.append(f"seed {base + i}: nonrational period")
            elif not report.member:
                failures.append(f"seed {base + i}: membership not certified")
            elif not report.certificate.holds_for(report.la, g1, g2):
                failures.append(f"seed {base + i}: certificate does not expand")
        elapsed = time.monotonic() - t0
        _line(
            5,
            f"100 membership trials at p={p} n={n}",
            not failures,
            elapsed,
            per_config_budget,
        )
        assert not failures, failures
        assert elapsed < per_config_budget


def test_criterion_6_presentation_equality():
    budget = 5.0
    t0 = time.monotonic()
    solver = MembershipSolver()
    certs = solver.ideal_equal(image_ideal(S), image_ideal_alt(S))
    ok = certs is not None and len(certs) == 4 and all(c.verified for c in certs)
    elapsed = time.monotonic() - t0
    _line(6, "two presentations, four certificates", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_7_proper_and_not_principal():
    budget = 5.0
    t0 = time.monotonic()
    solver = MembershipSolver()
    failures = []
    for field in (S, QNumeric(2), QNumeric(3), QNumeric(5)):
        g1, g2 = image_ideal(field)
        if not solver.is_proper(g1, g2):
            failures.append(f"{field}: 1 lies in the ideal")
        principal, _ = solver.is_principal_pair(g1, g2)
        if principal:
            failures.append(f"{field}: ideal is principal")
    elapsed = time.monotonic() - t0
    _line(7, "ideal proper and non-principal", not failures, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_8_spherical_normalization():
    budget = 1.0
    t0 = time.monotonic()
    ok = spherical_ratio(SPH, S) == one(S) and spherical_ratio(PHI_W, S) is None
    elapsed = time.monotonic() - t0
    _line(8, "normalization against the spherical line", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def _random_matrix(rng, p):
    def entry():
        num = rng.randint(-p**3, p**3)
        den = rng.choice([1, 1, p, p * p])
        return Fraction(num, den)

    while True:
        g = Mat2(p, entry(), entry(), entry(), entry())
        if g.det() != 0:
            return g


def _check_iwasawa(rng):
    for p in (2, 3, 5):
        for _ in range(334):
            g = _random_matrix(rng, p)
            fac = iwasawa_decompose(g)
            if not (fac.k.is_integral() and fac.k.is_unit()):
                return f"p={p}: maximal-compact factor not unimodular for {g!r}"
            b = g * fac.k.inv()
            if b.c != 0:
                return f"p={p}: left factor not upper triangular for {g!r}"
            if valuation(b.a, p) != fac.a1 or valuation(b.d, p) != fac.a2:
                return f"p={p}: diagonal valuations wrong for {g!r}"
            if b * fac.k != g:
                return f"p={p}: reconstruction failed for {g!r}"
    return None


def _check_cocycle(rng):
    p = 3
    F = QNumeric(p)
    vectors = [SPH, PHI_W, random_table(p, 1, seed=77), random_table(p, 2, seed=78)]
    for _ in range(50):
        g = _random_matrix(rng, p)
        a = Fraction(p) ** rng.randint(-2, 2) * rng.choice([1, 2, -1])
        d = Fraction(p) ** rng.randint(-2, 2) * rng.choice([1, 2, -1])
        x = Fraction(rng.randint(-8, 8), rng.choice([1, p]))
        b = Mat2(p, a, x, 0, d)
        factor = chi_delta_value(F, valuation(a, p), valuation(d, p))
        for f in vectors:
            if evaluate(f, b * g, F) != factor * evaluate(f, g, F):
                return f"cocycle failed for {f!r} at {b!r} * {g!r}"
    return None


def _check_right_invariance(rng):
    for p, n in ((2, 2), (3, 1), (3, 2)):
        F = QNumeric(p)
        f = random_table(p, n, seed=100 + p + n)
        pn = p**n
        for _ in range(30):
            g = _random_matrix(rng, p)
            kappa = Mat2(
                p,
                1 + pn * rng.randint(-3, 3),
                pn * rng.randint(-3, 3),
                pn * rng.randint(-3, 3),
                1 + pn * rng.randint(-3, 3),
            )
            if not (kappa.is_integral() and kappa.is_unit()):
                continue
            if evaluate(f, g * kappa, F) != evaluate(f, g, F):
                return f"right invariance failed at level {n}, p={p}"
    return None


def _check_haar_scaling(rng):
    for p in (2, 5):
        for _ in range(20):
            depth = rng.randint(0, 2)
            reps = coset_reps(p, -depth, 1)
            table = {u: Fraction(rng.randint(-4, 4)) for u in reps}

            def phi(x, _t=table, _p=p):
                for u, val in _t.items():
                    if valuation(x - u, _p) >= 1:
                        return val
                return Fraction(0)

            base = additive_haar_integral(phi, p, -depth, 1, Fraction(0))
            c = Fraction(p) ** rng.randint(-1, 1) * rng.choice([1, 3])
            v = valuation(c, p)
            scaled = additive_haar_integral(
                lambda x: phi(c * x), p, -depth - v, 1 - v + 1, Fraction(0)
            )
            if scaled != Fraction(p) ** v * base:
                return f"Haar scaling failed at p={p}, c={c}"
    return None


def _check_linearity(rng):
    p = 2
    F = QNumeric(p)
    f1 = random_table(p, 1, seed=81)
    f2 = random_table(p, 2, seed=82)
    c1 = mono(F, Fraction(-3, 2), 1, 1)
    c2 = mono(F, Fraction(5), 0, -1)
    combo = LinComb([(c1, f1), (c2, f2)])
    for k in range(-3, 4):
        want = c1 * whittaker_coefficient(f1, k) + c2 * whittaker_coefficient(f2, k)
        if whittaker_coefficient(combo, k) != want:
            return f"coefficient linearity failed at k={k}"
    if toric_period(combo) != c1 * toric_period(f1) + c2 * toric_period(f2):
        return "period linearity failed"
    return None


def _check_central_action(rng):
    p = 3
    F = QNumeric(p)
    f = random_table(p, 1, seed=91)
    base = toric_period(f)
    for u in (2, Fraction(4, 7)):
        if toric_period(Translate(Mat2(p, u, 0, 0, u), f)) != base:
            return f"central unit {u} moved the period"
    scaled = toric_period(Translate(diag(p, p, p), f))
    if scaled != mono(F, F.q_power(1), 1, 1) * base:
        return "central uniformizer did not scale by q·Y1·Y2"
    return None


def test_criterion_9_property_suites():
    budget = 180.0
    t0 = time.monotonic()
    rng = random.Random(424242)
    failures = []
    for check in (
        _check_iwasawa,
        _check_cocycle,
        _check_right_invariance,
        _check_haar_scaling,
        _check_linearity,
        _check_central_action,
    ):
        problem = check(rng)
        if problem:
            failures.append(problem)
    elapsed = time.monotonic() - t0
    _line(9, "structural property suites", not failures, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget
