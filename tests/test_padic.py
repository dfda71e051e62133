"""p-adic period note, measures, unit restriction, interpolation."""
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from ektheta.curves import CurveData, catalog, catalog_row, formal_log, \
    theta_series, wp_series
from ektheta.kronecker import compose_formal, kronecker_exact, valuation_heatmap
from ektheta import kronecker, padic
from ektheta.padic import (
    IntegralityError,
    InterpolationReport,
    InterpolationRow,
    NoPeriodError,
    _euler_moments_mod,
    _exact_composed,
    _int_mod,
    _series_mul,
    _trace_coefficient_table,
    _xy_parameter_series,
    cm_prime_generator,
    division_polynomial_p,
    euler_factor_moment,
    formal_group_translate,
    formal_moments,
    formal_torsion_algebra,
    four_term_moment,
    hasse_unit_mod_p,
    is_split,
    kummer_congruences,
    measure_from_theta,
    moment_table,
    period_note,
    precision_buffer,
    restrict_to_units,
    restricted_formal_series,
    split_prime_generator,
    verify_interpolation_origin,
)
from ektheta.scalars import ExactScalar, _vp_fraction, charpoly, embed_padic, \
    ok_omega, power_sums
from ektheta.series import BiSeries, ExactRing, KroneckerExpansion, \
    ScaledIntRing, UniSeries
from tests.series_oracle import bi, shift

QQ = ExactRing(0)


def zi_curve():
    return catalog_row("Z[sqrt(-1)]").curve(4)


SPLIT_PRIMES = [p for p in range(3, 62) if all(p % q for q in range(2, p))]


class TestPeriodSolver:
    """The period question, answered in closed form by period_note."""

    def test_irrational_log_coefficient_rejected(self):
        # the sqrt(-d) part of a coefficient is never dropped silently
        regular = bi(ExactRing(1), {(1, 2): ExactScalar(Fraction(1, 7), 1, 1)}, 4)
        hat = KroneckerExpansion(ExactScalar(0), regular)
        with pytest.raises(TypeError, match="as a rational"):
            valuation_heatmap(hat, 7)

    def test_flagship_curve_has_no_small_residue_degree(self):
        # a_p = -20 = 6 mod 13 has multiplicative order 12, so c^12 = 6 has
        # no solution in F_13^f for f <= 4; the note says so.
        assert period_note(zi_curve(), 13).startswith(
            "no f <= 4 admits a solution: residue equation c^12 = 6 has no root")

    def test_non_split_prime_rejected(self):
        with pytest.raises(NoPeriodError, match="not split"):
            measure_from_theta(zi_curve(), 7, 4, 8)

    def test_hasse_unit(self):
        assert hasse_unit_mod_p(zi_curve(), 13) == 6

    def test_note_reason_follows_the_order_of_a_p(self):
        # c^(p-1) = t has a root in F_{p^f} iff t^f = 1 (mod p): the residue
        # reason holds exactly when ord(t) > 4; otherwise the residue
        # equation is solvable and the unit root is the obstruction
        good, small = 0, []
        for row in catalog():
            curve = row.curve(1)
            for p in SPLIT_PRIMES:
                if not is_split(p, row.d):
                    continue
                if curve.discriminant().a.numerator % p == 0:
                    assert period_note(curve, p) == f"curve not good at {p}"
                    continue
                good += 1
                t = hasse_unit_mod_p(curve, p)
                order = next(k for k in range(1, p) if pow(t, k, p) == 1)
                note = period_note(curve, p)
                if order > 4:
                    assert note.startswith("no f <= 4 admits a solution"), (row.label, p)
                    assert f"c^{p - 1} = {t} has no root" in note
                else:
                    small.append((row.label, p))
                    assert note.startswith(f"residue equation c^{p - 1} = {t} has a "
                                           f"root in F_p^f for f = {order}"), (row.label, p)
                    assert "not a root of unity" in note
        assert good == 91 and len(small) == 23
        assert ("Z[(1+sqrt(-3))/2]", 7) in small


class TestSplitPrime:
    def test_pi_13(self):
        pi = split_prime_generator(13, 1)
        assert pi.norm() == 13
        # i_p(pi) = 0 mod 13 with the root 5
        img = pi.a + pi.b * 5
        assert img % 13 == 0

    def test_pi_is_deterministic(self):
        assert split_prime_generator(13, 1) == split_prime_generator(13, 1)

    def test_inert_raises(self):
        with pytest.raises(NoPeriodError):
            split_prime_generator(7, 1)

    def test_pi_lies_in_the_cm_order(self):
        # x = c1 + c2 omega lies in Z + f O_K iff f | c2
        for row in catalog():
            curve = row.curve(1)
            for p in SPLIT_PRIMES:
                if p > 13 or not is_split(p, row.d):
                    continue
                pi = cm_prime_generator(curve, p)
                c2 = pi.b / ok_omega(row.d).b
                assert pi.norm() == p, (row.label, p)
                assert c2.denominator == 1 and c2 % row.conductor == 0, (row.label, p)
                assert (pi.a + pi.b * min(r for r in range(p) if (r * r + row.d) % p == 0)
                        ).numerator % p == 0

    def test_non_maximal_orders_pick_an_associate_in_the_order(self):
        assert cm_prime_generator(catalog_row("Z[sqrt(-3)]").curve(1), 7) == \
            ExactScalar(2, -1, 3)
        assert cm_prime_generator(catalog_row("Z[2*sqrt(-1)]").curve(1), 5) == \
            ExactScalar(1, 2, 1)
        assert cm_prime_generator(catalog_row("Z[(1+3*sqrt(-3))/2]").curve(1), 7) == \
            ExactScalar(Fraction(1, 2), Fraction(3, 2), 3)
        # the scaling u does not change the order
        assert cm_prime_generator(catalog_row("Z[sqrt(-3)]").curve(5), 7) == \
            ExactScalar(2, -1, 3)

    def test_curve_outside_the_catalog_refused(self):
        from ektheta.curves import CurveData
        curve = CurveData(g2=ExactScalar(2), g3=ExactScalar(1))
        with pytest.raises(ValueError, match="not the j-invariant of a catalog curve"):
            cm_prime_generator(curve, 13)


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
            for i in range(n)]


def _division_polynomial_fractions(curve, p):
    """The p-division polynomial in exact Fractions: the recursion of
    division_polynomial_p over Q, every f_n for n <= p formed, leading zeros
    trimmed; the oracle of the integer route."""
    A, B = -curve.g2.a / 4, -curve.g3.a / 4
    F = [B, A, Fraction(0), Fraction(1)]
    F2_16 = [16 * c for c in _poly_mul(F, F)]
    f = {1: [Fraction(1)], 2: [Fraction(1)],
         3: [-A * A, 12 * B, 6 * A, Fraction(0), Fraction(3)],
         4: [2 * (-8 * B * B - A ** 3), 2 * (-4 * A * B), 2 * (-5 * A * A),
             2 * (20 * B), 2 * (5 * A), Fraction(0), Fraction(2)]}
    for n in range(5, p + 1):
        m = n // 2
        if n % 2:
            t1 = _poly_mul(f[m + 2], _poly_mul(f[m], _poly_mul(f[m], f[m])))
            t2 = _poly_mul(f[m - 1], _poly_mul(f[m + 1], _poly_mul(f[m + 1], f[m + 1])))
            val = _poly_sub(_poly_mul(t1, F2_16), t2) if m % 2 == 0 else \
                _poly_sub(t1, _poly_mul(t2, F2_16))
        else:
            val = _poly_mul(f[m], _poly_sub(
                _poly_mul(f[m + 2], _poly_mul(f[m - 1], f[m - 1])),
                _poly_mul(f[m - 2], _poly_mul(f[m + 1], f[m + 1]))))
        while len(val) > 1 and not val[-1]:
            val = val[:-1]
        f[n] = val
    return f[p]


class TestDivisionPolynomial:
    def test_degree_and_leading(self):
        f = division_polynomial_p(zi_curve(), 13, 4)
        assert len(f) - 1 == 84 and f[-1] == 13

    def test_leading_coefficient_check_can_fail(self):
        # mod p the leading coefficient p is 0, and the check refuses it
        with pytest.raises(AssertionError, match="sanity check"):
            division_polynomial_p(zi_curve(), 13, 1)

    @pytest.mark.parametrize("label,u,p,k", [
        ("Z[sqrt(-1)]", 4, 13, 20),
        ("Z[(1+sqrt(-7))/2]", 1, 11, 20),
        ("Z[(1+sqrt(-67))/2]", 1, 17, 20),
    ], ids=["zi_u4_p13", "d7_p11", "d67_p17"])
    def test_ints_equal_reduced_fraction_oracle(self, label, u, p, k):
        curve = catalog_row(label).curve(u)
        pk = p ** k
        want = [_int_mod(c, p, pk) for c in _division_polynomial_fractions(curve, p)]
        assert division_polynomial_p(curve, p, k) == want

    def test_non_integral_curve_is_refused(self):
        # u = 1/13 puts 13 in the denominators of g2/4
        curve = catalog_row("Z[sqrt(-1)]").curve(Fraction(1, 13))
        with pytest.raises(IntegralityError, match="not 13-integral"):
            division_polynomial_p(curve, 13, 4)
        with pytest.raises(IntegralityError, match="not 13-integral"):
            formal_torsion_algebra(curve, 13, 4)

    def test_vanishes_at_numeric_torsion(self):
        import mpmath as mp
        from ektheta.curves import compute_periods, wp_series
        curve = zi_curve()
        f = _division_polynomial_fractions(curve, 5)
        lat = compute_periods(curve, 160)
        w1, w2 = lat.pair_mpc()
        wp = wp_series(curve, 140)
        with mp.workprec(160):
            z = (2 * w1 + w2) / 5
            xv = mp.fsum(mp.mpf(v.numerator) / v.denominator * z ** k
                         for k, v in wp.items())
            val = mp.fsum(mp.mpf(c.numerator) / c.denominator * xv ** k
                          for k, c in enumerate(f))
            assert abs(val) / (1 + abs(xv)) ** 12 < 1e-25


XY_CURVES = [("Z[sqrt(-1)]", Fraction(4))] + [
    (label, u)
    for label in ("Z[sqrt(-1)]", "Z[2*sqrt(-1)]", "Z[sqrt(-2)]",
                  "Z[(1+sqrt(-3))/2]", "Z[(1+sqrt(-7))/2]")
    for u in (Fraction(1), Fraction(1, 3))]


class TestXYParameterSeries:
    @pytest.mark.parametrize("label,u", XY_CURVES,
                             ids=[f"{lab}-u{u}" for lab, u in XY_CURVES])
    def test_w_series_matches_wp_of_formal_log(self, label, u):
        curve = catalog_row(label).curve(u)
        # reference: x = wp(lambda(t)), and x = t/w gives w (x t^2) = t^3
        order = 60
        lam = formal_log(curve, order + 8, QQ).series
        xt2 = shift(wp_series(curve, order + 8, QQ).compose(lam), 2).truncate(order)
        W = UniSeries(QQ, dict(enumerate(_xy_parameter_series(curve, order))), order)
        prod = W * xt2
        assert [prod.coeff(k) for k in range(order + 1)] == \
            [Fraction(k == 3) for k in range(order + 1)]

        # w = t^3 + a4 t w^2 + a6 w^3 to high order
        order = 200
        wl = _xy_parameter_series(curve, order)
        W = UniSeries(QQ, dict(enumerate(wl)), order)
        a4, a6 = -QQ.coerce(curve.g2) / 4, -QQ.coerce(curve.g3) / 4
        rhs = UniSeries(QQ, {3: Fraction(1)}, order) + shift(W * W, 1).scale(a4) \
            + (W * W * W).scale(a6)
        assert list(wl) == [rhs.coeff(k) for k in range(order + 1)]

    @pytest.mark.parametrize("label,u", XY_CURVES,
                             ids=[f"{lab}-u{u}" for lab, u in XY_CURVES])
    def test_ints_equal_reduced_fractions(self, label, u):
        # at the least prime p >= 5 of good reduction
        curve = catalog_row(label).curve(u)
        disc = curve.discriminant().a
        p = next(p for p in SPLIT_PRIMES if p >= 5 and disc.numerator % p
                 and disc.denominator % p)
        pk = p ** 8
        want = [_int_mod(c, p, pk) for c in _xy_parameter_series(curve, 200)]
        assert list(_xy_parameter_series(curve, 200, pk)) == want

    def test_non_integral_curve_is_refused(self):
        curve = catalog_row("Z[sqrt(-1)]").curve(Fraction(1, 13))
        with pytest.raises(IntegralityError, match="not integral mod"):
            _xy_parameter_series(curve, 20, 13 ** 4)


class TestTorsionAlgebra:
    # d = 163 at its least good split prime 41: the degree-840 division
    # polynomial on ints makes this row cheap, which closes the division
    # polynomial half of putting d = 163 into the interpolation sweep
    @pytest.mark.parametrize("label,u,p", [
        ("Z[sqrt(-1)]", 4, 13),
        ("Z[sqrt(-2)]", 1, 11),
        ("Z[(1+sqrt(-7))/2]", 1, 23),
        ("Z[(1+sqrt(-163))/2]", 1, 41),
    ], ids=["zi_u4_p13", "zsqrt2_p11", "zomega7_p23", "d163_p41"])
    def test_w1_eisenstein_and_log_kills_torsion(self, label, u, p):
        curve = catalog_row(label).curve(u)
        M = 12
        alg = formal_torsion_algebra(curve, p, M)
        assert len(alg.W1) == p and alg.W1[-1] == 1
        assert all(w % p == 0 for w in alg.W1[:-1])
        assert alg.W1[0] % p ** 2 != 0
        # the formal log vanishes on torsion
        lam = formal_log(curve, M * (p + 1) + 8, QQ).series
        lx = alg.eval_series_at_x(dict(lam.items()), 2)
        assert all(c % p ** M == 0 for c in lx)

    @pytest.mark.parametrize("v", [
        (1, 1) + (0,) * 10,
        (3, 0, 0, 0, 5, 0, 0, 0, 7, 0, 0, 0),
    ], ids=["1+x", "3+5x4+7x8"])
    def test_inverse_unit_full_precision(self, v):
        # the algebra is ramified (x^12 ~ 13), so Newton needs about
        # log2(M * deg) steps from the residue inverse, not log2(M)
        alg = formal_torsion_algebra(zi_curve(), 13, 32)
        assert alg.mul(v, alg.inverse_unit(v)) == alg.one()

    def test_even_polynomial(self):
        alg = formal_torsion_algebra(zi_curve(), 13, 10)
        assert all(alg.W1[i] == 0 for i in range(1, 12, 2))

    def test_series_mul_matches_termwise_products(self):
        # the packed-integer product against sums of alg.mul, coefficient by
        # coefficient, with full-size entries so that every slot is stressed
        alg = formal_torsion_algebra(zi_curve(), 13, 9)
        rng = random.Random(0)
        u, v = ([tuple(rng.randrange(alg.pk) for _ in range(alg.deg))
                 for _ in range(n)] for n in (7, 5))
        keep = 8
        want = []
        for k in range(keep + 1):
            acc = alg.const(0)
            for a in range(max(0, k - len(v) + 1), min(k, len(u) - 1) + 1):
                acc = alg.add(acc, alg.mul(u[a], v[k - a]))
            want.append(acc)
        assert _series_mul(alg, u, v, keep) == want
        assert _series_mul(alg, u, v, 3) == want[:4]

    def test_translate_constant_term(self):
        alg = formal_torsion_algebra(zi_curve(), 13, 6)
        F = formal_group_translate(alg, 6)
        assert F[0] == alg.x()


def _p2_log_of(alg, F, keep):
    """p^2 lambda(F(s)) mod s^(keep+1) over the torsion algebra, F in A[[s]].
    The coefficient of s^j in p^2 lambda_k F^k has v_p at least
    2 - v_p(k) + (k - j)/deg (F_0 = xbar has valuation 1/deg), so the terms
    k <= deg (M + 3) + keep are all that survive mod p^M."""
    p, M = alg.p, alg.M
    kmax = alg.deg * (M + 3) + keep
    lam = formal_log(alg.curve, kmax, QQ).series
    out = [alg.const(0)] * (keep + 1)
    power = [alg.one()] + [alg.const(0)] * keep
    for k in range(1, kmax + 1):
        power = _series_mul(alg, power, F, keep)
        c = _int_mod(p * p * lam.coeff(k), p, alg.pk)
        out = [alg.add(a, alg.scal(b, c)) for a, b in zip(out, power)]
    return out


TRANSLATE_ORACLE = [pytest.param("Z[sqrt(-1)]", 4, 5, 6, id="zi_u4_p5"),
                    pytest.param("Z[(1+sqrt(-7))/2]", 1, 11, 4, id="zomega7_p11")]


class TestTranslateLogOracle:
    """lambda(xbar) = 0 at a torsion point, so lambda(F(s, xbar)) = lambda(s):
    a check of the translate that does not use the chord law."""

    KEEP = 6

    @staticmethod
    def _setup(label, u, p, M):
        alg = formal_torsion_algebra(catalog_row(label).curve(u), p, M)
        return alg, formal_group_translate(alg, TestTranslateLogOracle.KEEP)

    @staticmethod
    def _want(alg, keep):
        lam = formal_log(alg.curve, keep, QQ).series
        return [alg.const(_int_mod(alg.p ** 2 * lam.coeff(j), alg.p, alg.pk))
                for j in range(keep + 1)]

    @pytest.mark.parametrize("label,u,p,M", TRANSLATE_ORACLE)
    def test_log_of_translate_is_log(self, label, u, p, M):
        alg, F = self._setup(label, u, p, M)
        assert _p2_log_of(alg, F, self.KEEP) == self._want(alg, self.KEEP)

    @pytest.mark.parametrize("label,u,p,M", TRANSLATE_ORACLE)
    def test_perturbed_translate_fails(self, label, u, p, M):
        # an error of p^(M-3) in any coefficient shows up as p^(M-1) in p^2 lambda
        alg, F = self._setup(label, u, p, M)
        want = self._want(alg, self.KEEP)
        for j in range(self.KEEP + 1):
            bad = list(F)
            bad[j] = alg.add(bad[j], alg.const(p ** (M - 3)))
            assert _p2_log_of(alg, bad, self.KEEP) != want, j

    @pytest.mark.parametrize("label,u,p,M", TRANSLATE_ORACLE)
    def test_lift_certifies_all_digits(self, label, u, p, M):
        # the oracle loses the two digits of its p^2 factor, so it certifies
        # the translate at M + 2 to M digits; the translate at M must agree
        # with it mod p^M, which certifies every one of its M digits
        alg, F = self._setup(label, u, p, M)
        lift, G = self._setup(label, u, p, M + 2)
        assert _p2_log_of(lift, G, self.KEEP) == self._want(lift, self.KEEP)
        assert tuple(c % alg.pk for c in lift.W1) == alg.W1
        assert [tuple(c % alg.pk for c in g) for g in G] == F


def _direct_trace_table(alg, imax, keep):
    """The trace table from the powers F^0 .. F^imax, one series product
    each: the oracle of the recurrence in _trace_coefficient_table."""
    F = formal_group_translate(alg, keep)
    cur = [alg.one()] + [alg.const(0)] * keep
    rows = [[alg.trace(v) for v in cur]]
    for _ in range(imax):
        cur = _series_mul(alg, cur, F, keep)
        rows.append([alg.trace(v) for v in cur])
    return rows


TRACE_CASES = [("Z[sqrt(-1)]", 4, 13), ("Z[sqrt(-1)]", 1, 5),
               ("Z[(1+sqrt(-7))/2]", 1, 11), ("Z[sqrt(-2)]", 1, 11),
               ("Z[(1+sqrt(-3))/2]", 1, 7)]
TRACE_IDS = [f"{lab}-u{u}-p{p}" for lab, u, p in TRACE_CASES]


class TestTraceRecurrence:
    """Rows past deg of the trace table come from F's characteristic
    polynomial; the direct powers of F are the oracle."""

    M, KEEP = 6, 5

    @pytest.mark.parametrize("label,u,p", TRACE_CASES, ids=TRACE_IDS)
    def test_matches_direct_powers(self, label, u, p):
        alg = formal_torsion_algebra(catalog_row(label).curve(u), p, self.M)
        imax = 3 * alg.deg + 4
        assert _trace_coefficient_table(alg, imax, self.KEEP) == \
            _direct_trace_table(alg, imax, self.KEEP)

    @pytest.mark.parametrize("label,u,p", TRACE_CASES, ids=TRACE_IDS)
    def test_newton_identities_round_trip(self, label, u, p):
        # over B = Z/p^M[[s]]/(s^(KEEP+1)): traces -> characteristic
        # polynomial -> traces gives rows 0..deg back exactly
        alg = formal_torsion_algebra(catalog_row(label).curve(u), p, self.M)
        rows = _direct_trace_table(alg, alg.deg, self.KEEP)
        assert power_sums(charpoly(rows, alg.pk), alg.deg + 1, alg.pk) == rows

    def test_short_table_is_the_direct_one(self):
        alg = formal_torsion_algebra(zi_curve(), 13, self.M)
        for imax in (0, 5, alg.deg):
            want = _direct_trace_table(alg, imax, self.KEEP)
            assert _trace_coefficient_table(alg, imax, self.KEEP) == want
            assert len(want) == imax + 1

    def test_perturbed_direct_row_changes_the_extension(self):
        # +1 in any one of the rows 1..deg the recurrence starts from must
        # show up past row deg
        alg = formal_torsion_algebra(zi_curve(), 13, self.M)
        d, imax = alg.deg, 3 * alg.deg
        want = _direct_trace_table(alg, imax, self.KEEP)
        for j in range(1, d + 1):
            rows = [list(r) for r in want[:d + 1]]
            rows[j][j % (self.KEEP + 1)] += 1
            got = power_sums(charpoly(rows, alg.pk), imax + 1, alg.pk)
            assert got[d + 1:] != want[d + 1:], j


def _four_fold_restriction(curve, p, N, out_order) -> dict:
    """The unit restriction term by term: (p-1)^2 C - (p-1)(Tr_s C + Tr_t C)
    + Tr_s Tr_t C over every (i, j) of the composed expansion C, divided by
    p^2.  The oracle of restricted_formal_series's factored form, from the
    same C and trace table."""
    DS, digits = out_order, N + 6
    chat = dict(_exact_composed(curve, p, DS + (p - 1) * (N + 5), digits).items())
    pko = p ** digits
    alg = formal_torsion_algebra(curve, p, digits)
    T = _trace_coefficient_table(alg, max(i for i, _ in chat), DS)
    R2 = {}

    def bump(key, val):
        if key[0] + key[1] <= DS:
            R2[key] = (R2.get(key, 0) + val) % pko

    for (i, j), cv in chat.items():
        if i <= DS and j <= DS:
            bump((i, j), (p - 1) ** 2 * cv)
        if j <= DS:             # Tr_s: sum_i c_ij T_i(s) t^j
            for k in range(DS + 1 - j):
                bump((k, j), -(p - 1) * cv * T[i][k])
        if i <= DS:             # Tr_t: sum_j c_ij s^i T_j(t)
            for k in range(DS + 1 - i):
                bump((i, k), -(p - 1) * cv * T[j][k])
        for k in range(DS + 1):
            for l in range(DS + 1 - k):
                bump((k, l), cv * T[i][k] * T[j][l])
    out = {}
    for key, val in R2.items():
        q, r = divmod(val, p * p)
        assert r == 0, key
        if q:
            out[key] = q
    return out


@pytest.fixture(scope="module")
def restricted_n6():
    return restricted_formal_series(zi_curve(), 13, 6, 9)


class TestRestrictedSeries:
    def test_integral(self, restricted_n6):
        # ints mod 13^(N+4): restricted_formal_series divided the p^2-scaled
        # combination exactly, or it would have raised
        assert restricted_n6.ring.modulus == 13 ** 10
        assert all(isinstance(v, int) and 0 < v < 13 ** 10
                   for _, v in restricted_n6.items())

    def test_p_squared_check_can_fail(self, monkeypatch):
        # the combination is integral for every integral C (the traces are
        # divisible by p), so a +1 in C passes through as an integral change;
        # a +1 in one trace coefficient breaks the p^2 divisibility
        table = padic._trace_coefficient_table

        def perturbed(*args):
            rows = [list(r) for r in table(*args)]
            rows[1][1] += 1
            return rows

        monkeypatch.setattr(padic, "_trace_coefficient_table", perturbed)
        with pytest.raises(IntegralityError, match=r"v_p = -1"):
            restricted_formal_series(zi_curve(), 13, 4, 5)

    @pytest.mark.parametrize("N", [4, 6])
    @pytest.mark.parametrize("label,u,p", TRACE_CASES, ids=TRACE_IDS)
    def test_factored_form_equals_four_fold_loop(self, label, u, p, N):
        curve = catalog_row(label).curve(u)
        assert dict(restricted_formal_series(curve, p, N, 6).items()) == \
            _four_fold_restriction(curve, p, N, 6)

    def test_sparsity_pattern(self, restricted_n6):
        # psi-killed congruence classes: same support pattern as the composed
        # expansion, total degree = 3 mod 4
        for (i, j), _ in restricted_n6.items():
            assert (i + j) % 4 == 3

    def test_moments_match_euler_closed_form(self, restricted_n6):
        curve = zi_curve()
        p, N = 13, 6
        pi = split_prime_generator(p, 1)
        moms = formal_moments(restricted_n6, curve, p, 4, 4)
        for (a, b), got in moms.items():
            if a + b != 4:
                continue
            want = embed_padic(euler_factor_moment(curve, pi, p, a, b), p, N + 4)
            k = min(N - precision_buffer(a, b, p), got.abs_prec)
            if k > 0:
                assert got.eq_mod(want, k), (a, b)


class TestFourTermExact:
    def test_four_term_equals_euler_everywhere(self):
        curve = zi_curve()
        pi = split_prime_generator(13, 1)
        from ektheta.padic import four_term_expansions
        exps = four_term_expansions(curve, pi, 8)
        for b in range(1, 9):
            for a in range(0, 9 - b):
                m4 = four_term_moment(curve, pi, 13, a, b, exps)
                me = euler_factor_moment(curve, pi, 13, a, b, exps[0])
                assert m4 == me, (a, b)

    def test_odd_weight_moments_vanish(self):
        curve = zi_curve()
        pi = split_prime_generator(13, 1)
        from ektheta.padic import four_term_expansions
        exps = four_term_expansions(curve, pi, 8)
        for (a, b) in [(0, 1), (1, 2), (0, 3), (2, 3)]:
            assert not four_term_moment(curve, pi, 13, a, b, exps)


def _good_split_pairs():
    """(label, u, p) for every catalog row at u = 1 and Z[i] at u = 4, at
    each split prime p <= 13 where the curve has good reduction."""
    out = []
    for row, u in [(row, 1) for row in catalog()] + [(catalog_row("Z[sqrt(-1)]"), 4)]:
        disc = row.curve(u).discriminant().a
        out += [(row.label, u, p) for p in SPLIT_PRIMES
                if p <= 13 and is_split(p, row.d) and not _vp_fraction(disc, p)]
    return out


class TestIntegralComposedRoute:
    """_exact_composed runs in varpi-scaled variables on ints mod p^W; the
    Fraction route compose_formal(kronecker_exact(...)) is its oracle."""

    @pytest.mark.parametrize("label,u,p", _good_split_pairs())
    def test_matches_fraction_route(self, label, u, p):
        # orders on both sides of p - 1 and 2(p - 1), odd and even: the carry
        # rule first acts at varpi-degree p - 1, and the polar tail reaches
        # degree order + 1
        curve = catalog_row(label).curve(u)
        cases = [(16, 5), (p - 2, 4), (p - 1, 6), (p, 3), (2 * p - 3, 5),
                 (2 * p - 2, 4), (2 * p - 1, 7)]
        exp = kronecker_exact(curve, max(order for order, _ in cases))
        for order, digits in cases:
            pk = p ** digits
            try:
                hat = compose_formal(exp, curve, order)
                want = {k: _int_mod(QQ.coerce(v), p, pk)
                        for k, v in hat.regular.items()}
            except IntegralityError:
                with pytest.raises(IntegralityError):
                    _exact_composed(curve, p, order, digits)
                continue
            # a pair the Fraction route accepts must not be refused here
            got = dict(_exact_composed(curve, p, order, digits).items())
            assert got == {k: v for k, v in want.items() if v}, (order, digits)

    def test_sweep_covers_every_row_with_a_small_split_prime(self):
        # in Q(sqrt(-67)) and Q(sqrt(-163)) every prime below 17 is inert
        pairs = _good_split_pairs()
        assert {label for label, _, _ in pairs} == \
            {row.label for row in catalog() if row.d not in (67, 163)}
        assert len(pairs) == 21

    def test_non_integral_curve_is_refused_naming_v_p(self):
        # u = 1/13 puts 13 in the denominators of the composed expansion
        curve = catalog_row("Z[sqrt(-1)]").curve(Fraction(1, 13))
        with pytest.raises(IntegralityError, match=r"v_p = -\d+ < 0"):
            _exact_composed(curve, 13, 8, 4)

    def test_asymmetric_coefficient_is_refused(self, monkeypatch):
        # the composition step stores (i, j) as p^(floor((i+j)/(p-1)) + 1)
        # Theta-hat_ij: p added at (1, 2) keeps every integrality check
        # satisfied and moves Theta-hat_12 by 1 mod p^digits, but not
        # Theta-hat_21
        orig = kronecker.compose_regular

        def corrupted(*args):
            out = orig(*args)
            rows = [(den, [list(part) for part in parts]) for den, parts in out.rows]
            rows[1][1][0][2] += 13
            return BiSeries(out.ring, rows, out.order)

        monkeypatch.setattr(kronecker, "compose_regular", corrupted)
        _exact_composed.cache_clear()
        with pytest.raises(AssertionError, match="symmetry"):
            _exact_composed(zi_curve(), 13, 8, 4)


class TestScaledStorage:
    """On a ScaledIntRing the generators store the exact route's
    coefficients: c of varpi-degree k as p^floor(k/(p-1)) c mod p^W."""

    @pytest.mark.parametrize("label,u,p", _good_split_pairs())
    def test_generators_store_the_exact_coefficients(self, label, u, p):
        # order 3p spans three carry periods; the z^k entry of lambda and
        # theta has varpi-degree k - 1
        curve = catalog_row(label).curve(u)
        order, width = 3 * p, 6
        ring = ScaledIntRing(p, width)
        for scaled, exact in (
                (formal_log(curve, order, ring).series, formal_log(curve, order).series),
                (theta_series(curve, order, ring), theta_series(curve, order))):
            want = {k: _int_mod(QQ.coerce(c) * p ** ((k - 1) // (p - 1)), p, p ** width)
                    for k, c in exact.items()}
            assert scaled.order == order
            assert dict(scaled.items()) == {k: v for k, v in want.items() if v}

    def test_non_integral_e2_star_is_refused_naming_it(self):
        # g2 = 4 and g3 = 0 are 13-integral, e2* = 1/13 is not
        curve = CurveData(ExactScalar(4), ExactScalar(0), ExactScalar(Fraction(1, 13)))
        with pytest.raises(IntegralityError, match=r"1/13 has v_p = -1 < 0"):
            _exact_composed(curve, 13, 8, 4)


class TestMeasure:
    def test_measure_embeds_and_notes_period_obstruction(self):
        mu = measure_from_theta(zi_curve(), 13, 6, 12)
        assert mu.period_note == period_note(zi_curve(), 13)
        assert "no f <= 4" in mu.period_note
        assert mu.series.order == 12
        assert mu.abs_prec == 6 and mu.series.ring.modulus == 13 ** 6
        assert all(isinstance(v, int) and 0 < v < 13 ** 6
                   for _, v in mu.series.items())

    def test_moment_table_formal(self):
        mu = measure_from_theta(zi_curve(), 13, 6, 10)
        table = moment_table(mu, 3, 4)
        # unrestricted origin moments: (b-1)! a! c~(b-1, a)
        exp = four_term_expansions_base = None
        from ektheta.kronecker import kronecker_exact
        base = kronecker_exact(zi_curve(), 8)
        for (a, b), got in table.items():
            # the starred polar tails 1/lambda(u) - 1/u live on the pure-s and
            # pure-t rows, so clean comparisons need a >= 1 and b >= 2
            if a + b - 1 > 8 or (a + b) % 4 or a < 1 or b < 2:
                continue
            want = base.coeff(b - 1, a) * math.factorial(b - 1) * math.factorial(a)
            assert got.eq_mod(embed_padic(ExactScalar(want), 13, 6), 5), (a, b)

    def test_restricted_measure_moments(self):
        mu = measure_from_theta(zi_curve(), 13, 6, 9)
        rest = restrict_to_units(mu, out_order=9)
        assert rest.restricted
        table = moment_table(rest, 2, 4)
        pi = split_prime_generator(13, 1)
        got = table[(0, 4)]
        want = embed_padic(euler_factor_moment(zi_curve(), pi, 13, 0, 4), 13, 8)
        assert got.eq_mod(want, 6 - precision_buffer(0, 4, 13) + 2)


def _least_good_split_prime(row):
    """The least prime p >= 5 that splits in the row's field and where the
    row's curve at u = 1 has good reduction."""
    disc = row.curve(1).discriminant().a
    return next(p for p in SPLIT_PRIMES if p >= 5 and is_split(p, row.d)
                and disc.numerator % p and disc.denominator % p)


GATE_ROWS = [(row.label, _least_good_split_prime(row)) for row in catalog()]


class TestInterpolationSweep:
    @pytest.mark.parametrize("label,p", GATE_ROWS,
                             ids=[f"{lab}-p{p}" for lab, p in GATE_ROWS])
    def test_every_catalog_row_interpolates(self, label, p):
        # every row compares all N + 4 = 10 digits the restriction claims
        rep = verify_interpolation_origin(catalog_row(label).curve(1), p, 6, 4, 4)
        assert rep.passed
        assert len(rep.rows) == 20
        assert [r.padic_digits_checked for r in rep.rows] == [10] * 20


class TestInterpolationSmall:
    def test_origin_interpolation_n6(self):
        rep = verify_interpolation_origin(zi_curve(), 13, 6, 4, 4)
        assert rep.passed
        # no digit is held back: each moment is compared to its full N + 4
        assert all(r.padic_digits_checked == 10 for r in rep.rows)

    def test_run_checking_no_digit_does_not_pass(self):
        # rows that agree but compared no p-adic digit show nothing about the
        # measure; one compared digit makes the same run pass
        pi = split_prime_generator(13, 1)
        rows = [InterpolationRow(a, 1, True, 0, True) for a in range(3)]
        assert not InterpolationReport(13, 4, pi, rows).passed
        rows[0] = InterpolationRow(0, 1, True, 1, True)
        assert InterpolationReport(13, 4, pi, rows).passed

    @pytest.mark.parametrize("label,p", [
        ("Z[sqrt(-3)]", 7),
        ("Z[2*sqrt(-1)]", 5),
        ("Z[(1+3*sqrt(-3))/2]", 7),
    ])
    def test_non_maximal_orders_use_pi_in_the_order(self, label, p):
        # the O_K generator of the prime lies outside these orders, and the
        # interpolation and Kummer checks fail with it
        curve = catalog_row(label).curve(1)
        assert verify_interpolation_origin(curve, p, 6, 4, 4).passed
        rep = kummer_congruences(curve, p, 12)
        assert rep.rows and rep.passed

    def test_kummer_with_no_pair_does_not_pass(self):
        # exponents <= 5 give no two pairs congruent mod p - 1 = 12
        rep = kummer_congruences(zi_curve(), 13, 5)
        assert rep.rows == [] and not rep.passed

    def test_kummer_small(self):
        rep = kummer_congruences(zi_curve(), 13, max_exp=16)
        assert rep.a_p_mod_p == 6
        assert rep.rows, "no congruent exponent pairs found"
        assert rep.passed

    @pytest.mark.parametrize("label,p,w", [
        ("Z[sqrt(-2)]", 11, 2),
        ("Z[(1+sqrt(-3))/2]", 7, 6),
        ("Z[2*sqrt(-1)]", 13, 2),
        ("Z[sqrt(-1)]", 13, 4),
    ])
    def test_kummer_filters_on_unit_count(self, label, p, w):
        rep = kummer_congruences(catalog_row(label).curve(1), p, max_exp=12)
        sums = {sum(pair) % 12 for r in rep.rows
                for pair in (r.pair_lo, r.pair_hi)}
        assert rep.passed
        assert sums == set(range(0, 12, w))


# sha256 of the rows [pair_lo, pair_hi, twist_power, congruent] of
# kummer_congruences(row at u = 1, its least good split prime, max_exp=12),
# taken when the moments were formed in Q(sqrt(-d)) with ExactScalar powers
KUMMER_PINNED = [
    ("Z[(1+sqrt(-3))/2]", 7, 54, "eaf3198ab2a05f47d319826824fa8c47f24f9e418d93c12cbf4e8f9e665985d1"),
    ("Z[sqrt(-3)]", 7, 162, "e24ef9bdf4d4632415eed9e2377900263e2f55d87f965da71d35e7dce7b22f45"),
    ("Z[(1+3*sqrt(-3))/2]", 7, 162, "e24ef9bdf4d4632415eed9e2377900263e2f55d87f965da71d35e7dce7b22f45"),
    ("Z[sqrt(-1)]", 5, 204, "cc0771a5ee4f06d98be2cd87823a29bc4f80fa6fb9a8ddcbef4dacd14b4b84e8"),
    ("Z[2*sqrt(-1)]", 5, 408, "9028d1634861ca104e23d70e558f6fb68c64ea11df4f7f8462c7896ab599ae70"),
    ("Z[(1+sqrt(-7))/2]", 11, 46, "74e71878b07725e131b4bcfc96bb2c26500bc8688cb9fe4e7279f96958ce5895"),
    ("Z[sqrt(-7)]", 11, 46, "74e71878b07725e131b4bcfc96bb2c26500bc8688cb9fe4e7279f96958ce5895"),
    ("Z[sqrt(-2)]", 11, 46, "74e71878b07725e131b4bcfc96bb2c26500bc8688cb9fe4e7279f96958ce5895"),
    ("Z[(1+sqrt(-11))/2]", 5, 408, "9028d1634861ca104e23d70e558f6fb68c64ea11df4f7f8462c7896ab599ae70"),
    ("Z[(1+sqrt(-19))/2]", 5, 408, "9028d1634861ca104e23d70e558f6fb68c64ea11df4f7f8462c7896ab599ae70"),
    ("Z[(1+sqrt(-43))/2]", 11, 46, "74e71878b07725e131b4bcfc96bb2c26500bc8688cb9fe4e7279f96958ce5895"),
    ("Z[(1+sqrt(-67))/2]", 17, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("Z[(1+sqrt(-163))/2]", 41, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
]


class TestKummerOnInts:
    @pytest.mark.parametrize("label,p,n_rows,digest", KUMMER_PINNED,
                             ids=[f"{lab}-p{p}" for lab, p, _, _ in KUMMER_PINNED])
    def test_rows_pinned(self, label, p, n_rows, digest):
        row = catalog_row(label)
        assert p == _least_good_split_prime(row)
        rep = kummer_congruences(row.curve(1), p, 12)
        rows = [[list(r.pair_lo), list(r.pair_hi), r.twist_power, r.congruent]
                for r in rep.rows]
        assert len(rows) == n_rows
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest

    def test_every_catalog_row_is_pinned(self):
        assert [lab for lab, _, _, _ in KUMMER_PINNED] == [r.label for r in catalog()]

    def test_factors_equal_embedded_fraction_route(self):
        # (b-1)! a! c~(b-1, a) read off the varpi-scaled regular part, against
        # the Fraction expansion embedded to KUMMER_DIGITS, on every row at
        # its least good split prime
        for row in catalog():
            curve, p = row.curve(1), _least_good_split_prime(row)
            base = kronecker_exact(curve, 24)
            got = padic._kummer_factors(curve, p, 12)
            assert len(got) >= 28, row.label
            for (a, b), c in got.items():
                want = embed_padic(ExactScalar(base.coeff(b - 1, a) * math.factorial(b - 1)
                                               * math.factorial(a)), p, padic.KUMMER_DIGITS)
                assert (c.val, c.unit, c.abs_prec) == \
                    (want.val, want.unit, want.abs_prec), (row.label, a, b)

    def test_int_route_matches_exact_oracle(self):
        # every moment the Z[i] (u = 4, p = 13) block compares, against the
        # Euler-factor closed form computed in Q(i) and embedded
        curve, p = zi_curve(), 13
        pi = cm_prime_generator(curve, p)
        pairs = {pair for r in kummer_congruences(curve, p, 20).rows
                 for pair in (r.pair_lo, r.pair_hi)}
        moms = _euler_moments_mod(curve, p, 20)
        base = kronecker_exact(curve, 42, ExactRing(1))
        assert len(pairs) >= 16
        for a, b in sorted(pairs):
            want = embed_padic(euler_factor_moment(curve, pi, p, a, b, base), p, 4)
            assert moms[(a, b)].abs_prec >= 4
            assert moms[(a, b)].eq_mod(want, 4), (a, b)


class TestPrecisionContract:
    def test_restricted_series_stable_under_recompute_at_n_plus_4(self):
        # every reported digit must survive a recomputation at N + 4
        curve = zi_curve()
        lo = restricted_formal_series(curve, 13, 5, 7)
        hi = restricted_formal_series(curve, 13, 9, 7)
        # lo reports N + 4 = 9 digits, and all of them must agree
        assert lo.ring.modulus == 13 ** 9 and hi.ring.modulus == 13 ** 13
        for key in dict(lo.items()).keys() | dict(hi.items()).keys():
            assert (lo.coeff(*key) - hi.coeff(*key)) % 13 ** 9 == 0, key
