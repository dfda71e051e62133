"""p-adic period solver, measures, unit restriction, interpolation."""
import math
from fractions import Fraction

import pytest

from ektheta.curves import catalog_row, formal_log, wp_series
from ektheta.padic import (
    NoPeriodError,
    _xy_parameter_series,
    division_polynomial_p,
    euler_factor_moment,
    formal_group_translate,
    formal_moments,
    formal_torsion_algebra,
    four_term_moment,
    hasse_unit_mod_p,
    kummer_congruences,
    measure_from_theta,
    moment_table,
    precision_buffer,
    restrict_biseries_to_units,
    restrict_to_units,
    restricted_formal_series,
    solve_padic_period,
    solve_padic_period_for_log,
    split_prime_generator,
    verify_interpolation_origin,
)
from ektheta.scalars import ExactScalar, PadicContext, embed_padic
from ektheta.series import BiSeries, ExactRing, PadicRing, UniSeries

QQ = ExactRing(0)


def zi_curve():
    return catalog_row("Z[sqrt(-1)]").curve(4)


def gm_log(order, c=Fraction(1)):
    """lambda = c * log(1+t)."""
    coeffs = {k: c * Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)}
    return UniSeries(QQ, coeffs, order)


class TestPeriodSolver:
    def test_gm_self_test(self):
        per = solve_padic_period_for_log(gm_log(80), 7, 5)
        assert per.f == 1 and per.certificate_ok
        assert per.omega.eq_mod(PadicContext(7).from_int(1, 5), 5)

    def test_gm_rescaled(self):
        c = Fraction(3)
        per = solve_padic_period_for_log(gm_log(80, c), 7, 4)
        assert per.certificate_ok
        # Omega is determined up to Z_p^x: Omega/c must be a unit and the
        # certificate must accept exp(Omega^-1 lambda)
        ratio = per.omega / PadicContext(7).from_int(3, 8)
        assert ratio.valuation() == 0

    def test_flagship_curve_has_no_small_residue_degree(self):
        # a_p = -20 = 6 mod 13 has multiplicative order 12, so c^12 = 6 has
        # no solution in F_13^f for f <= 4; the solver reports that honestly.
        with pytest.raises(NoPeriodError, match="no f <= 4"):
            solve_padic_period(zi_curve(), 13, 8)

    def test_non_split_prime_rejected(self):
        with pytest.raises(NoPeriodError, match="not split"):
            solve_padic_period(zi_curve(), 7, 4)

    def test_hasse_unit(self):
        assert hasse_unit_mod_p(zi_curve(), 13) == 6


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


class TestDivisionPolynomial:
    def test_degree_and_leading(self):
        f = division_polynomial_p(zi_curve(), 13)
        assert len(f) - 1 == 84 and f[-1] == 13

    def test_vanishes_at_numeric_torsion(self):
        import mpmath as mp
        from ektheta.curves import compute_periods, wp_series
        curve = zi_curve()
        f = division_polynomial_p(curve, 5)
        lat = compute_periods(curve, 160)
        w1, w2 = lat.pair_mpc()
        wp = wp_series(curve, 140)
        with mp.workprec(160):
            z = (2 * w1 + w2) / 5
            xv = mp.fsum(mp.mpf(v.numerator) / v.denominator * z ** k
                         for k, v in wp.coeffs.items())
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
        # reference: x = wp(lambda(t)), y = wp'(lambda(t))
        order = 60
        lam = formal_log(curve, order + 8, QQ).series
        wp = wp_series(curve, order + 8, QQ)
        xt2 = wp.compose(lam).shift(2)
        yt3 = wp.derivative().compose(lam).shift(3)
        xl, yl = _xy_parameter_series(curve, order)
        assert list(xl) == [xt2.coeff(k) for k in range(order + 1)]
        assert list(yl) == [yt3.coeff(k) for k in range(order + 1)]
        assert yl == tuple(-2 * c for c in xl)

        # (y t^3)^2 = 4 (x t^2)^3 - g2 t^4 (x t^2) - g3 t^6 to high order
        order = 200
        xl, yl = _xy_parameter_series(curve, order)
        X = UniSeries(QQ, dict(enumerate(xl)), order)
        Y = UniSeries(QQ, dict(enumerate(yl)), order)
        g2, g3 = QQ.coerce(curve.g2), QQ.coerce(curve.g3)
        lhs = Y * Y
        rhs = (X * X * X).scale(Fraction(4)) - X.shift(4).scale(g2) \
            - UniSeries(QQ, {6: g3}, order)
        assert all(lhs.coeff(k) == rhs.coeff(k) for k in range(order + 1))


class TestTorsionAlgebra:
    @pytest.mark.parametrize("label,u,p", [
        ("Z[sqrt(-1)]", 4, 13),
        ("Z[sqrt(-2)]", 1, 11),
        ("Z[(1+sqrt(-7))/2]", 1, 23),
    ], ids=["zi_u4_p13", "zsqrt2_p11", "zomega7_p23"])
    def test_w1_eisenstein_and_log_kills_torsion(self, label, u, p):
        curve = catalog_row(label).curve(u)
        M = 12
        alg = formal_torsion_algebra(curve, p, M)
        assert len(alg.W1) == p and alg.W1[-1] == 1
        assert all(w % p == 0 for w in alg.W1[:-1])
        assert alg.W1[0] % p ** 2 != 0
        # the formal log vanishes on torsion
        lam = formal_log(curve, M * (p + 1) + 8, QQ).series
        lx = alg.eval_series_at_x(dict(lam.coeffs), 2)
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

    def test_translate_constant_term(self):
        alg = formal_torsion_algebra(zi_curve(), 13, 26)
        F = formal_group_translate(alg, 6, 6)
        assert F[0] == tuple(c % 13 ** 6 for c in alg.x())


@pytest.fixture(scope="module")
def restricted_n6():
    return restricted_formal_series(zi_curve(), 13, 6, 9)


class TestRestrictedSeries:
    def test_integral(self, restricted_n6):
        for v in restricted_n6.coeffs.values():
            assert v.val is None or v.val >= 0

    def test_sparsity_pattern(self, restricted_n6):
        # psi-killed congruence classes: same support pattern as the composed
        # expansion, total degree = 3 mod 4
        for (i, j) in restricted_n6.coeffs:
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


class TestPsiRestriction:
    def setup_method(self):
        self.ring = QQ

    def _dirac(self, c, e, order=12):
        # (1+S)^c (1+T)^e
        out = {}
        for i in range(min(c, order) + 1):
            for j in range(min(e, order - i) + 1):
                out[(i, j)] = Fraction(math.comb(c, i) * math.comb(e, j))
        return BiSeries(self.ring, out, order)

    def test_unit_dirac_fixed(self):
        f = self._dirac(3, 2)
        assert restrict_biseries_to_units(f, 5) == f

    def test_p_divisible_dirac_killed(self):
        f = self._dirac(5, 2)
        out = restrict_biseries_to_units(f, 5)
        assert not out.coeffs

    def test_idempotent_on_random_series(self):
        import random
        rng = random.Random(3)
        ctx = PadicContext(5)
        ring = PadicRing(ctx, 8)
        coeffs = {(i, j): ctx.from_int(rng.randrange(1, 5 ** 6), 8)
                  for i in range(6) for j in range(6)}
        f = BiSeries(ring, coeffs, 10)
        once = restrict_biseries_to_units(f, 5)
        twice = restrict_biseries_to_units(once, 5)
        for key in set(once.coeffs) | set(twice.coeffs):
            x = once.coeff(*key)
            y = twice.coeff(*key)
            assert (x - y).eq_mod(ctx.zero(6), 6), key

    def test_mixed_dirac_kills_one_axis(self):
        f = self._dirac(5, 3)
        out = restrict_biseries_to_units(f, 5)
        assert not out.coeffs  # S-factor at 5 kills everything
        g = self._dirac(2, 3)
        assert restrict_biseries_to_units(g, 5) == g


class TestMeasure:
    def test_measure_embeds_and_notes_period_obstruction(self):
        mu = measure_from_theta(zi_curve(), 13, 6, 12)
        assert mu.mult_series is None
        assert "no f <= 4" in mu.period_note
        assert mu.series.order == 12
        for v in mu.series.coeffs.values():
            assert v.val is None or v.val >= 0

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

    def test_dirac_moment_extractor(self):
        # feeding (1+S)(1+T) into the moment machinery returns 1 everywhere
        ctx = PadicContext(13)
        ring = PadicRing(ctx, 8)
        f = BiSeries(ring, {(0, 0): ctx.from_int(1, 8), (1, 0): ctx.from_int(1, 8),
                            (0, 1): ctx.from_int(1, 8), (1, 1): ctx.from_int(1, 8)},
                     12)
        for m in range(5):
            for n in range(5):
                assert f.log_derivative_moment(m, n).eq_mod(ctx.from_int(1, 8), 8)


class TestInterpolationSmall:
    def test_origin_interpolation_n6(self):
        rep = verify_interpolation_origin(zi_curve(), 13, 6, 4, 4)
        assert rep.passed
        fours = [r for r in rep.rows if (r.a + r.b) % 4 == 0]
        # the buffer (a+3 digits here) eats the comparison window at large a
        assert fours and all(r.padic_digits_checked > 0 for r in fours
                             if r.a + r.b == 4 and r.a <= 2)

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


class TestPrecisionContract:
    def test_restricted_series_stable_under_recompute_at_n_plus_4(self):
        # every reported digit must survive a recomputation at N + 4
        curve = zi_curve()
        lo = restricted_formal_series(curve, 13, 5, 7)
        hi = restricted_formal_series(curve, 13, 9, 7)
        for key, v in lo.coeffs.items():
            w = hi.coeff(*key)
            k = min(v.abs_prec, 5)
            assert (v - w).eq_mod(PadicContext(13).zero(k), k), key
