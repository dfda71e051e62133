"""Acceptance suite: one criterion per test, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here, taken verbatim from the stated
requirements; nothing is deferred to later calibration.
"""
import random
from fractions import Fraction

import mpmath as mp
import pytest

from ektheta.curves import catalog, catalog_row, compute_periods
from ektheta.eklerch import (
    check_functional_equation,
    direct_hecke_sum,
    e2star_numeric,
    eisenstein_kronecker_lerch,
    hecke_L_partial,
)
from ektheta.kronecker import (
    ThetaEvaluator,
    compose_formal,
    kronecker_exact,
    valuation_heatmap,
    verify_distribution,
    verify_generating_function,
)
from ektheta.padic import (
    euler_factor_moment,
    formal_moments,
    four_term_expansions,
    four_term_moment,
    kummer_congruences,
    precision_buffer,
    restricted_formal_series,
    split_prime_generator,
)
from ektheta.scalars import ExactScalar, embed_padic
from tests.test_eklerch import make_zi_conductor_character


def report(n, name, passed, detail=""):
    line = f"ACCEPTANCE {n:>2} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert passed, line


@pytest.fixture(scope="module")
def zi4():
    return catalog_row("Z[sqrt(-1)]").curve(4)


@pytest.fixture(scope="module")
def zi4_lattice(zi4):
    return compute_periods(zi4, 256)


# -- 1 ------------------------------------------------------------------------

FIGURE_ROWS = [
    ("Z[(1+sqrt(-3))/2]", 0, 1, Fraction(0)),
    ("Z[sqrt(-3)]", 15, 11, Fraction(1, 2)),
    ("Z[(1+3*sqrt(-3))/2]", 120, 253, Fraction(2)),
    ("Z[sqrt(-1)]", 1, 0, Fraction(0)),
    ("Z[2*sqrt(-1)]", 44, 56, Fraction(1)),
    ("Z[(1+sqrt(-7))/2]", 35, 49, Fraction(1, 2)),
    ("Z[sqrt(-7)]", 595, 2793, Fraction(9, 2)),
    ("Z[sqrt(-2)]", 30, 28, Fraction(1, 2)),
    ("Z[(1+sqrt(-11))/2]", 264, 847, Fraction(2)),
    ("Z[(1+sqrt(-19))/2]", 152, 361, Fraction(2)),
    ("Z[(1+sqrt(-43))/2]", 3440, 38829, Fraction(12)),
    ("Z[(1+sqrt(-67))/2]", 29480, 974113, Fraction(38)),
    ("Z[(1+sqrt(-163))/2]", 8697680, 4936546769, Fraction(724)),
]


def test_01_catalog_fidelity():
    rows = catalog()
    ok = len(rows) == 13
    for row, (label, g2c, g3c, e2c) in zip(rows, FIGURE_ROWS):
        ok = ok and row.label == label
        ok = ok and (row.g2_coeff, row.g3_coeff, row.e2_coeff) == (g2c, g3c, e2c)
        # symbolic u weights and instantiation at u = 1
        c = row.curve(1)
        ok = ok and c.g2 == ExactScalar(g2c) and c.g3 == ExactScalar(g3c)
        ok = ok and c.e2_star == ExactScalar(e2c)
        c2 = row.curve(2)
        ok = ok and c2.g2 == ExactScalar(g2c * 2 ** row.g2_upow)
        ok = ok and c2.e2_star == ExactScalar(e2c * 2)
    report(1, "catalog fidelity (13 rows, exact)", ok)


# -- 2 ------------------------------------------------------------------------

def test_02_kronecker_identity(zi4_lattice):
    ev = ThetaEvaluator(zi4_lattice)
    rng = random.Random(1918)
    worst = mp.mpf(0)
    with mp.workprec(280):
        w1, w2 = ev.w1, ev.w2
        for _ in range(10):
            z = rng.uniform(0.05, 0.45) * w1 + rng.uniform(0.05, 0.45) * w2
            w = -rng.uniform(0.05, 0.45) * w1 + rng.uniform(0.05, 0.45) * w2
            lhs = ev.kronecker(z, w)
            k1 = eisenstein_kronecker_lerch(1, z, w, 1, zi4_lattice, 1e-24,
                                            z0_in_lattice=False,
                                            w0_in_lattice=False).to_mpc()
            worst = max(worst, abs(lhs - mp.exp(z * mp.conj(w) / ev.A) * k1))
    report(2, "Kronecker identity, 10 points, 256-bit", worst <= mp.mpf("1e-18"),
           f"max residual {mp.nstr(worst, 4)} <= 1e-18")


# -- 3 ------------------------------------------------------------------------

def test_03_generating_function(zi4, zi4_lattice):
    exp = kronecker_exact(zi4, 10)
    worst = mp.mpf(0)
    with mp.workprec(300):
        A = zi4_lattice.A()
        for b in range(1, 11):
            for a in range(0, 11 - b):
                want = exp.coeff(b - 1, a)
                ek = eisenstein_kronecker_lerch(
                    a + b, 0, 0, b, zi4_lattice, 1e-22,
                    z0_in_lattice=True, w0_in_lattice=True).to_mpc()
                num = (-1) ** (a + b - 1) * ek / (mp.factorial(a) * A ** a)
                ref = mp.mpf(want.numerator) / want.denominator
                worst = max(worst, abs(num - ref))
    origin_ok = worst <= mp.mpf("1e-15")

    rep_half = verify_generating_function((Fraction(1, 2), Fraction(0)),
                                          (Fraction(0), Fraction(1, 2)),
                                          4, 4, zi4_lattice, tol=1e-12)
    rep_third = verify_generating_function((Fraction(1, 3), Fraction(0)),
                                           (Fraction(0), Fraction(0)),
                                           4, 4, zi4_lattice, tol=1e-12)
    polar_ok = abs(rep_third.polar_w[0] - 1) < 1e-12 \
        and abs(rep_third.polar_z[0]) < 1e-12
    ok = origin_ok and rep_half.passed and rep_third.passed and polar_ok
    report(3, "generating function (origin deg 10, torsion translates)", ok,
           f"origin max {mp.nstr(worst, 4)} <= 1e-15; translates "
           f"{mp.nstr(max(rep_half.max_abs_deviation, rep_third.max_abs_deviation), 4)}"
           " <= 1e-12")


# -- 4 ------------------------------------------------------------------------

def test_04_functional_equation(zi4_lattice):
    worst = mp.mpf(0)
    with mp.workprec(280):
        w1, w2 = zi4_lattice.pair_mpc()
        z0, w0 = w1 / 3, (w1 + w2) / 3
        for a in range(0, 5):
            for s in (Fraction(1), Fraction(2), Fraction(a + 1, 2)):
                sval = mp.mpf(s.numerator) / s.denominator
                worst = max(worst, check_functional_equation(
                    a, z0, w0, sval, zi4_lattice, 1e-20))
    report(4, "functional equation, a <= 4, order-3 torsion",
           worst <= mp.mpf("1e-15"), f"max residual {mp.nstr(worst, 4)} <= 1e-15")


# -- 5 ------------------------------------------------------------------------

def test_05_e2star_cross_check():
    targets = [("Z[2*sqrt(-1)]", Fraction(1)), ("Z[sqrt(-3)]", Fraction(1, 2)),
               ("Z[(1+sqrt(-11))/2]", Fraction(2))]
    worst = mp.mpf(0)
    for label, want in targets:
        lat = compute_periods(catalog_row(label).curve(1), 256)
        val = e2star_numeric(lat, 1e-20)
        with mp.workprec(256):
            worst = max(worst, abs(val.to_mpc()
                                   - mp.mpf(want.numerator) / want.denominator))
    report(5, "e2* cross-check (three catalog rows)", worst <= mp.mpf("1e-15"),
           f"max deviation {mp.nstr(worst, 4)} <= 1e-15")


# -- 6 ------------------------------------------------------------------------

def test_06_ordinary_integrality(zi4):
    exp = kronecker_exact(zi4, 30)
    star = compose_formal(exp, zi4, 30)
    hm = valuation_heatmap(star, 13)
    bad = [k for k, e in hm.entries.items() if e > 0]
    report(6, "ordinary integrality p=13 to degree 30 (exact)", not bad,
           f"{len(hm.entries)} coefficients, all v_13 >= 0")


# -- 7 ------------------------------------------------------------------------

def test_07_supersingular_growth(zi4):
    exp = kronecker_exact(zi4, 80)
    star = compose_formal(exp, zi4, 80)
    hm = valuation_heatmap(star, 7, fit_window=(10, 80))
    target = 7 / 48
    mono = hm.ridge_nondecreasing_from(10)
    slope_ok = hm.diagonal_slope is not None and \
        abs(hm.diagonal_slope - target) / target <= 0.15
    report(7, "supersingular growth p=7, order 80", mono and slope_ok,
           f"ridge slope {hm.diagonal_slope:.4f} vs 7/48 = {target:.4f} "
           f"({abs(hm.diagonal_slope - target) / target:.1%} off); "
           f"nondecreasing from degree 10: {mono}")


# -- 8 ------------------------------------------------------------------------

def test_08_distribution_relation(zi4_lattice):
    one = ExactScalar(1)
    rep_triv = verify_distribution(one, one, zi4_lattice, n_points=3,
                                   tol=0.0, seed=11)
    exact_ok = rep_triv.max_residual == 0
    rep_a = verify_distribution(ExactScalar(2), one, zi4_lattice,
                                n_points=10, tol=1e-12, seed=12)
    rep_b = verify_distribution(one, ExactScalar(1, 1, 1), zi4_lattice,
                                n_points=10, tol=1e-12, seed=13)
    ok = exact_ok and rep_a.passed and rep_b.passed
    report(8, "distribution relation ((2),(1)) and ((1),(1+i))", ok,
           f"residuals {mp.nstr(rep_a.max_residual, 4)}, "
           f"{mp.nstr(rep_b.max_residual, 4)} <= 1e-12; (1),(1) exact")


# -- 9 ------------------------------------------------------------------------

def test_09_measure_interpolation_origin(zi4):
    p, N = 13, 12
    pi = split_prime_generator(p, 1)
    exps = four_term_expansions(zi4, pi, 12)
    exact_ok = True
    nonzero = 0
    for b in range(1, 13):
        for a in range(0, 13 - b):
            m4 = four_term_moment(zi4, pi, p, a, b, exps)
            me = euler_factor_moment(zi4, pi, p, a, b, exps[0])
            exact_ok = exact_ok and (m4 == me)
            if (a + b) % 4 == 0:
                nonzero += bool(m4)
            else:
                exact_ok = exact_ok and not m4 and not me
    rest = restricted_formal_series(zi4, p, N, 13)
    moms = formal_moments(rest, zi4, p, 11, 12)
    padic_ok = True
    checked = 0
    for (a, b), got in sorted(moms.items()):
        if a + b > 12:
            continue
        m4 = four_term_moment(zi4, pi, p, a, b, exps)
        want = embed_padic(m4, p, N + 4)
        k = min(N - precision_buffer(a, b, p), got.abs_prec, want.abs_prec)
        if k <= 0:
            continue
        checked += 1
        padic_ok = padic_ok and got.eq_mod(want, k)
    report(9, "measure interpolation at the origin (p=13, N=12)",
           exact_ok and padic_ok and nonzero >= 6 and checked >= 10,
           f"exact Q(i) identities all a+b <= 12; trace-route moments match "
           f"mod 13^(12-buffer) at {checked} pairs")


# -- 10 -----------------------------------------------------------------------

def test_10_kummer_congruences(zi4):
    rep = kummer_congruences(zi4, 13, max_exp=20)
    # Z[sqrt(-2)] has two units, so pairs with a+b = 2 mod 4 count too
    rep2 = kummer_congruences(catalog_row("Z[sqrt(-2)]").curve(1), 11,
                              max_exp=20)
    twos = sum(1 for r in rep2.rows if sum(r.pair_lo) % 4 == 2)
    report(10, "Kummer congruences (exponents <= 20, mod 13 and mod 11)",
           rep.passed and len(rep.rows) >= 8 and rep2.passed and twos >= 1,
           f"{len(rep.rows)} congruent pairs on Z[i], a_p = {rep.a_p_mod_p} "
           f"twist; {len(rep2.rows)} on Z[sqrt(-2)], {twos} with a+b = 2 mod 4")


# -- 11 -----------------------------------------------------------------------

def test_11_hecke_consistency():
    char = make_zi_conductor_character()
    s = 6
    assembled = hecke_L_partial(char, s, target_error=1e-16, prec_bits=256)
    direct = direct_hecke_sum(char, s, 500, prec_bits=256)
    with mp.workprec(256):
        diff = abs(assembled.to_mpc() - direct.to_mpc())
    report(11, "Hecke L consistency (conductor (2+2i), s=6)",
           diff <= mp.mpf("1e-10"), f"|assembled - direct| = {mp.nstr(diff, 4)}")
