"""Kronecker theta: exact expansion, numeric identities, composition."""
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import pytest

from ektheta import kronecker
from ektheta.curves import catalog_row, compute_periods
from ektheta.eklerch import eisenstein_kronecker_lerch
from ektheta.kronecker import (
    ThetaEvaluator,
    PoleProximityError,
    compose_formal,
    ek_from_expansion,
    kronecker_exact,
    valuation_heatmap,
    verify_distribution,
    verify_generating_function,
)
from ektheta.scalars import ExactScalar

def zi_curve(u=4):
    return catalog_row("Z[sqrt(-1)]").curve(u)


@pytest.fixture(scope="module")
def zi_lattice():
    return compute_periods(zi_curve(), 256)


@pytest.fixture(scope="module")
def zi_exact10():
    return kronecker_exact(zi_curve(), 10)


class TestExactExpansion:
    def test_z3_coefficient_is_minus_one_fifteenth(self, zi_exact10):
        # e*_{0,4} = g2/60 = 1/15, coefficient of z^3 w^0 is -e*_{0,4}
        assert zi_exact10.coeff(3, 0) == Fraction(-1, 15)

    def test_constant_slot_vanishes_on_square_lattice(self, zi_exact10):
        assert zi_exact10.coeff(0, 0) == 0

    def test_polar_normalization(self, zi_exact10):
        assert zi_exact10.expansion.polar_z == 1
        assert zi_exact10.expansion.polar_w == 1

    def test_symmetry(self, zi_exact10):
        reg = zi_exact10.expansion.regular
        assert reg.is_symmetric()

    def test_unit_group_congruence_square(self, zi_exact10):
        for (m, n), v in zi_exact10.expansion.regular.coeffs.items():
            assert (m + n + 1) % 4 == 0, ((m, n), v)

    def test_unit_group_congruence_hexagonal(self):
        exp = kronecker_exact(catalog_row("Z[(1+sqrt(-3))/2]").curve(1), 12)
        for (m, n), v in exp.expansion.regular.coeffs.items():
            assert (m + n + 1) % 6 == 0, ((m, n), v)

    def test_ek_from_expansion(self, zi_exact10):
        assert ek_from_expansion(zi_exact10, 0, 4) == Fraction(1, 15)
        # second Eisenstein value e*_{0,8} = 3/7 G4^2 = 1/525
        assert ek_from_expansion(zi_exact10, 0, 8) == Fraction(1, 525)
        # e*_{1,3}/A = 1/6, pinned numerically against the lattice-sum engine
        assert ek_from_expansion(zi_exact10, 1, 3) == Fraction(1, 6)

    def test_ek_z2i_row(self):
        exp = kronecker_exact(catalog_row("Z[2*sqrt(-1)]").curve(1), 4)
        assert ek_from_expansion(exp, 0, 2) == Fraction(1)  # e2* = 1

    def test_order_guard(self, zi_exact10):
        with pytest.raises(ValueError):
            ek_from_expansion(zi_exact10, 6, 6)

    def test_exact_matches_numeric_lattice_sums_to_degree_10(self, zi_exact10,
                                                             zi_lattice):
        with mp.workprec(300):
            A = zi_lattice.A()
            for b in range(1, 11):
                for a in range(0, 11 - b):
                    want = zi_exact10.coeff(b - 1, a)
                    ek = eisenstein_kronecker_lerch(
                        a + b, 0, 0, b, zi_lattice, 1e-24,
                        z0_in_lattice=True, w0_in_lattice=True).to_mpc()
                    num = (-1) ** (a + b - 1) * ek / (mp.factorial(a) * A ** a)
                    ref = mp.mpf(want.numerator) / want.denominator
                    assert abs(num - ref) < 1e-15, (a, b)


class TestNumericTheta:
    def test_kronecker_identity_at_random_points(self, zi_lattice):
        # Theta(z,w) = exp(z conj(w)/A) K_1(z,w,1), 10 pseudo-random points
        rng = random.Random(20240917)
        ev = ThetaEvaluator(zi_lattice)
        with mp.workprec(280):
            w1, w2 = ev.w1, ev.w2
            for _ in range(4):
                z = rng.uniform(0.05, 0.45) * w1 + rng.uniform(0.05, 0.45) * w2
                w = -rng.uniform(0.05, 0.45) * w1 + rng.uniform(0.05, 0.45) * w2
                lhs = ev.kronecker(z, w)
                k1 = eisenstein_kronecker_lerch(1, z, w, 1, zi_lattice, 1e-24,
                                                z0_in_lattice=False,
                                                w0_in_lattice=False).to_mpc()
                rhs = mp.exp(z * mp.conj(w) / ev.A) * k1
                assert abs(lhs - rhs) < 1e-20

    def test_residue_normalization(self, zi_lattice):
        ev = ThetaEvaluator(zi_lattice)
        with mp.workprec(280):
            w = 0.3 * ev.w1 + 0.2 * ev.w2
            for t in (mp.mpf("1e-6"), mp.mpf("1e-8")):
                z = t * ev.w1
                assert abs(z * ev.kronecker(z, w) - 1) < 1e-4

    def test_homogeneity(self, zi_lattice):
        ev = ThetaEvaluator(zi_lattice)
        with mp.workprec(280):
            z = 0.21 * ev.w1 + 0.13 * ev.w2
            w = 0.17 * ev.w1 - 0.29 * ev.w2
            c = mp.mpc("1.31", "-0.42")
            # Theta(z, w; c Gamma) = c^-1 Theta(z/c, w/c; Gamma): evaluate the
            # left side on the scaled curve's own evaluator
            base = ev.kronecker(z, w)
            # scaled lattice evaluator built from scaled periods directly
            from ektheta.curves import LatticeData
            from ektheta.scalars import BigComplex
            W1, W2 = c * ev.w1, c * ev.w2
            lat_c = LatticeData(
                BigComplex(W1.real, W1.imag, 256),
                BigComplex(W2.real, W2.imag, 256),
                BigComplex(mp.im(W2 * mp.conj(W1)) / mp.pi, mp.mpf(0), 256))
            ev_c = ThetaEvaluator(lat_c)
            lhs = ev_c.kronecker(c * z, c * w)
            assert abs(lhs - base / c) < 1e-20

    def test_transformation_formula(self, zi_lattice):
        # Theta(z+u, w+v) = exp[u conj(v)/A] exp[(z conj(v) + w conj(u))/A] Theta
        ev = ThetaEvaluator(zi_lattice)
        with mp.workprec(280):
            z = 0.23 * ev.w1 + 0.11 * ev.w2
            w = -0.37 * ev.w1 + 0.41 * ev.w2
            for (mu, nu, mv, nv) in [(1, 0, 0, 1), (2, -1, 1, 1), (0, 3, -2, 0)]:
                u = mu * ev.w1 + nu * ev.w2
                v = mv * ev.w1 + nv * ev.w2
                lhs = ev.kronecker(z + u, w + v)
                rhs = mp.exp(u * mp.conj(v) / ev.A) \
                    * mp.exp((z * mp.conj(v) + w * mp.conj(u)) / ev.A) \
                    * ev.kronecker(z, w)
                assert abs(lhs - rhs) < 1e-15

    def test_pole_proximity_guard(self, zi_lattice):
        ev = ThetaEvaluator(zi_lattice)
        with pytest.raises(PoleProximityError):
            ev.kronecker(mp.mpf("1e-40") * ev.w1, 0.3 * ev.w1)


class TestTranslation:
    def test_identity_translation(self, zi_lattice):
        ev = ThetaEvaluator(zi_lattice)
        with mp.workprec(280):
            z = 0.19 * ev.w1 + 0.23 * ev.w2
            w = 0.41 * ev.w1 - 0.11 * ev.w2
            assert abs(ev.kronecker_translated(0, 0, z, w) - ev.kronecker(z, w)) == 0

    def test_composition_law(self, zi_lattice):
        # U_{v1} o U_{v0} = chi(v0, v1) U_{v0+v1}, chi = <z0-part, w1-part>
        ev = ThetaEvaluator(zi_lattice)
        with mp.workprec(280):
            w1, w2 = ev.w1, ev.w2
            v0 = (0.23 * w1 + 0.05 * w2, -0.11 * w1 + 0.31 * w2)
            v1 = (0.4 * w1 - 0.27 * w2, 0.09 * w1 + 0.14 * w2)
            z = 0.13 * w1 + 0.21 * w2
            w = 0.31 * w1 - 0.17 * w2

            def U(v, f):
                z0, w0 = v
                return lambda zz, ww: mp.exp(-z0 * mp.conj(w0) / ev.A) * mp.exp(
                    -(zz * mp.conj(w0) + ww * mp.conj(z0)) / ev.A) * f(zz + z0, ww + w0)

            f01 = U(v1, U(v0, ev.kronecker))
            fsum = U((v0[0] + v1[0], v0[1] + v1[1]), ev.kronecker)
            chi = ev.pair(v0[0], v1[1])
            assert abs(f01(z, w) - chi * fsum(z, w)) < 1e-15

    def test_lattice_shift_quasi_invariance(self, zi_lattice):
        ev = ThetaEvaluator(zi_lattice)
        with mp.workprec(280):
            w1, w2 = ev.w1, ev.w2
            z0, w0 = 0.3 * w1 + 0.2 * w2, 0.1 * w1 - 0.4 * w2
            g, gp = 2 * w1 - w2, w1 + 3 * w2
            z = 0.13 * w1 + 0.21 * w2
            w = 0.31 * w1 - 0.17 * w2
            lhs = ev.kronecker_translated(z0 + g, w0 + gp, z, w)
            rhs = ev.pair(w0, g) * ev.kronecker_translated(z0, w0, z, w)
            assert abs(lhs - rhs) < 1e-15


class TestGeneratingFunction:
    def test_origin_matches_exact(self, zi_lattice, zi_exact10):
        rep = verify_generating_function((Fraction(0), Fraction(0)),
                                         (Fraction(0), Fraction(0)),
                                         3, 4, zi_lattice, tol=1e-15)
        assert rep.passed
        # cross-check a numeric entry against the exact engine
        got, want = rep.entries[(0, 4)]
        with mp.workprec(200):
            # entries carry the expansion coefficient (-1)^(a+b-1) e*/(a! A^a)
            exact = zi_exact10.coeff(3, 0)
            assert abs(want - mp.mpf(exact.numerator) / exact.denominator) < 1e-18

    def test_half_lattice_translate(self, zi_lattice):
        rep = verify_generating_function((Fraction(1, 2), Fraction(0)),
                                         (Fraction(0), Fraction(1, 2)),
                                         4, 4, zi_lattice, tol=1e-12)
        assert rep.passed
        # nontrivial translate: both deltas vanish
        assert abs(rep.polar_z[1]) == 0 and abs(rep.polar_w[1]) == 0

    def test_third_torsion_polar_structure(self, zi_lattice):
        rep = verify_generating_function((Fraction(1, 3), Fraction(0)),
                                         (Fraction(0), Fraction(0)),
                                         2, 2, zi_lattice, tol=1e-12)
        assert rep.passed
        # z0 = w1/3 not in lattice, w0 = 0 in lattice:
        assert abs(rep.polar_z[0]) < 1e-12          # delta(z0) = 0
        assert abs(rep.polar_w[0] - 1) < 1e-12      # delta(w0) = 1

    @pytest.mark.parametrize("z0c,w0c", [
        ((Fraction(1, 10 ** 40), Fraction(0)), (Fraction(0), Fraction(1, 2))),
        ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(-1, 10 ** 40))),
    ], ids=["z0", "w0"])
    def test_pole_guard_fires_near_the_lattice(self, zi_lattice, z0c, w0c):
        # a centre 1e-40 periods off the lattice is no lattice point, yet
        # theta's series there reads a zero: the check refuses it
        with pytest.raises(PoleProximityError):
            verify_generating_function(z0c, w0c, 2, 2, zi_lattice, tol=1e-12)

    def test_theta_once_per_axis_sample(self, zi_lattice, monkeypatch):
        calls = {"theta": 0, "taylor": 0}
        for name in calls:
            orig = getattr(ThetaEvaluator, name)

            def counted(self, *args, _name=name, _orig=orig):
                calls[_name] += 1
                return _orig(self, *args)

            monkeypatch.setattr(ThetaEvaluator, name, counted)
        rep = verify_generating_function((Fraction(1, 2), Fraction(0)),
                                         (Fraction(0), Fraction(1, 2)),
                                         2, 2, zi_lattice, tol=1e-12)
        assert rep.passed
        # one Taylor series of theta about each of z0, w0 and z0 + w0, and
        # no theta value
        assert calls == {"theta": 0, "taylor": 3}

    HALF = ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)))

    def test_fails_on_a_perturbed_lattice_sum(self, zi_lattice, monkeypatch):
        orig = kronecker.ek_table

        def perturbed(*args, **kwargs):
            table = orig(*args, **kwargs)
            v = table[(0, 2)].to_mpc() + mp.mpf("1e-10")
            table[(0, 2)] = SimpleNamespace(to_mpc=lambda: v)
            return table

        monkeypatch.setattr(kronecker, "ek_table", perturbed)
        rep = verify_generating_function(*self.HALF, 2, 2, zi_lattice, tol=1e-12)
        assert not rep.passed

    def test_fails_on_a_wrong_polar_prediction(self, zi_lattice, monkeypatch):
        orig = ThetaEvaluator.pair
        monkeypatch.setattr(ThetaEvaluator, "pair",
                            lambda self, x, y: 2 * orig(self, x, y))
        rep = verify_generating_function((Fraction(0), Fraction(0)),
                                         (Fraction(0), Fraction(0)),
                                         2, 2, zi_lattice, tol=1e-12)
        assert not rep.passed

    @pytest.mark.parametrize("centre", ["z0", "w0", "z0+w0"])
    def test_fails_on_one_wrong_taylor_coefficient(self, zi_lattice, monkeypatch,
                                                   centre):
        # a relative 1e-9 error in the degree-1 coefficient of theta's series
        # about one centre (the three centres lie far apart)
        orig = ThetaEvaluator.taylor

        def wrong_once(self, c, n):
            z0, w0 = self.w1 / 2, self.w2 / 2
            at = {"z0": z0, "w0": w0, "z0+w0": z0 + w0}[centre]
            out = orig(self, c, n)
            if abs(c - at) < 1e-30:
                out[1] *= 1 + mp.mpf("1e-9")
            return out

        monkeypatch.setattr(ThetaEvaluator, "taylor", wrong_once)
        rep = verify_generating_function(*self.HALF, 2, 2, zi_lattice, tol=1e-12)
        assert not rep.passed

    def test_fails_when_a_lattice_centre_reads_no_zero(self, zi_lattice, monkeypatch):
        # theta's value at the lattice centre z0 = 0 pushed off zero by far
        # more than the pole tolerance: R_z reads regular, its polar slot 0
        # against the predicted <w0, z0> = 1
        orig = ThetaEvaluator.taylor

        def off_zero(self, c, n):
            out = orig(self, c, n)
            if abs(c) < 1e-30:
                out[0] += mp.mpf("1e-20") * out[1]
            return out

        monkeypatch.setattr(ThetaEvaluator, "taylor", off_zero)
        rep = verify_generating_function((Fraction(0), Fraction(0)),
                                         (Fraction(1, 2), Fraction(0)),
                                         2, 2, zi_lattice, tol=1e-12)
        assert rep.polar_z[0] == 0 and abs(rep.polar_z[1]) == 1
        assert not rep.passed


def _cauchy_coefficients(ev, c, n, M=64):
    """Coefficients 0..n of theta(c + t) by an M-point DFT of theta values
    on the circle |t| = |w1|/8."""
    r = abs(ev.w1) / 8
    zeta = [mp.exp(2j * mp.pi * j / M) for j in range(M)]
    vals = [ev.theta(c + r * z) for z in zeta]
    return [mp.fsum(v * zeta[(-k * j) % M] for j, v in enumerate(vals)) / (M * r ** k)
            for k in range(n + 1)]


class TestThetaTaylor:
    @pytest.mark.parametrize("coords", [
        (1, -1), (Fraction(1, 2), 0), (0, Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)), (Fraction(-1, 2), Fraction(1, 2)),
        (Fraction(1, 3), 0), (Fraction(13, 4), Fraction(-7, 3)),
    ], ids=["lattice", "half-0", "0-half", "half-half", "minus-half-half",
            "third", "far-cell"])
    def test_series_matches_a_cauchy_dft_of_theta(self, zi_lattice, coords):
        # the series reduces its centre once; the DFT's samples straddle the
        # cell boundary at the 2-torsion points and reduce one by one
        ev = ThetaEvaluator(zi_lattice)
        with mp.workprec(ev.prec + 24):
            c = kronecker.torsion_point(coords, ev.w1, ev.w2)[0]
            got = ev.taylor(c, 9)
            want = _cauchy_coefficients(ev, c, 9)
            assert len(got) == 10
            assert max(abs(x - y) for x, y in zip(got, want)) < 1e-40


class TestDistribution:
    def test_trivial_ideals(self, zi_lattice):
        one = ExactScalar(1)
        rep = verify_distribution(one, one, zi_lattice, n_points=3, tol=1e-20,
                                  seed=5)
        assert rep.passed and not rep.relaxed_epsilon

    def test_two_and_one(self, zi_lattice):
        rep = verify_distribution(ExactScalar(2), ExactScalar(1), zi_lattice,
                                  n_points=4, tol=1e-12, seed=7)
        assert rep.passed
        assert not rep.relaxed_epsilon

    def test_one_and_one_plus_i(self, zi_lattice):
        rep = verify_distribution(ExactScalar(1), ExactScalar(1, 1, 1), zi_lattice,
                                  n_points=4, tol=1e-12, seed=9)
        assert rep.passed
        assert rep.relaxed_epsilon  # ramified second ideal: hypothesis fails


class TestCompose:
    def test_leading_behaviour(self):
        curve = zi_curve()
        exp = kronecker_exact(curve, 12)
        hat = compose_formal(exp, curve, 12, starred=False)
        assert hat.expansion.polar_z == 1 and hat.expansion.polar_w == 1
        star = compose_formal(exp, curve, 12, starred=True)
        assert star.expansion.polar_z == 0
        # tail of 1/lambda(s) - 1/s starts at s^3 with coefficient 2/5
        assert star.coeff(3, 0) - exp.coeff(3, 0) == Fraction(2, 5)

    def test_parity_of_composed_support(self):
        curve = zi_curve()
        exp = kronecker_exact(curve, 16)
        star = compose_formal(exp, curve, 16)
        for (i, j), v in star.expansion.regular.coeffs.items():
            assert (i + j) % 4 == 3, ((i, j), v)

    def test_ordinary_integrality_p13(self):
        curve = zi_curve()
        exp = kronecker_exact(curve, 20)
        star = compose_formal(exp, curve, 20)
        hm = valuation_heatmap(star, 13)
        assert all(e == 0 for e in hm.entries.values())

    def test_supersingular_denominators_p7(self):
        curve = zi_curve()
        exp = kronecker_exact(curve, 24)
        star = compose_formal(exp, curve, 24)
        hm = valuation_heatmap(star, 7)
        assert any(e > 0 for e in hm.entries.values())

    def test_composed_matches_direct_substitution_numerically(self, zi_lattice):
        # oracle: evaluate Theta*(s,t) two ways at a small numeric point:
        # the composed series, and Theta(lambda(s), lambda(t)) - poles
        curve = zi_curve()
        exp = kronecker_exact(curve, 14)
        star = compose_formal(exp, curve, 14)
        ev = ThetaEvaluator(zi_lattice)
        from ektheta.curves import formal_log
        lam = formal_log(curve, 40).series
        with mp.workprec(280):
            s = mp.mpf("0.05") * abs(ev.w1)
            t = mp.mpf("0.035") * abs(ev.w1)
            lam_f = lambda x: mp.fsum(
                mp.mpf(c.numerator) / c.denominator * x ** k
                for k, c in lam.coeffs.items())
            z, w = lam_f(s), lam_f(t)
            direct = ev.kronecker(z, w) - 1 / s - 1 / t
            series_val = mp.fsum(
                mp.mpf(v.numerator) / v.denominator * s ** i * t ** j
                for (i, j), v in star.expansion.regular.coeffs.items())
            assert abs(direct - series_val) < 1e-12


class TestHeatmapRidge:
    def test_ridge_fit_window(self):
        curve = zi_curve()
        exp = kronecker_exact(curve, 40)
        star = compose_formal(exp, curve, 40)
        hm = valuation_heatmap(star, 7, fit_window=(10, 40))
        assert hm.diagonal_slope is not None
        assert hm.ridge_nondecreasing_from(10)
        rows = list(hm.csv_rows())
        assert all(len(r) == 3 for r in rows)


class TestEpsilonChecks:
    def test_supplied_epsilon_congruence_violation(self, zi_lattice):
        with pytest.raises(ValueError, match="congruence"):
            verify_distribution(ExactScalar(2), ExactScalar(1), zi_lattice,
                                n_points=1, tol=1e-10, epsilon=ExactScalar(2))

    def test_supplied_valid_epsilon_accepted(self, zi_lattice):
        rep = verify_distribution(ExactScalar(2), ExactScalar(1), zi_lattice,
                                  n_points=1, tol=1e-10, epsilon=ExactScalar(1))
        assert rep.passed and not rep.relaxed_epsilon


def test_near_rational_diagnostics_at_origin(zi_lattice):
    rep = verify_generating_function((Fraction(0), Fraction(0)),
                                     (Fraction(0), Fraction(0)),
                                     2, 4, zi_lattice, tol=1e-14)
    # diagnostics only; at the origin the coefficients are genuinely rational
    assert rep.near_rational.get((0, 4)) == Fraction(-1, 15)
