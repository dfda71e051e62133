"""Kronecker theta: exact expansion, numeric identities, composition."""
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import pytest

from ektheta import kronecker
from ektheta.curves import catalog_row, compute_periods, formal_log, theta_series
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
from ektheta.series import NotDivisibleError
from tests import series_oracle
from tests.series_oracle import is_symmetric, ridge_nondecreasing_from


def zi_curve(u=4):
    return catalog_row("Z[sqrt(-1)]").curve(u)


def theta_over_z(curve, order, ring):
    """U_0 .. U_order of U(z) = theta(z)/z, from theta's coefficients."""
    th = theta_series(curve, order + 1, ring)
    return [th.coeff(k + 1) for k in range(order + 1)]


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
        assert zi_exact10.polar == 1
        obj = zi_exact10.to_json()
        assert obj["polar_z"] == obj["polar_w"] == "1/1"

    def test_axis_vanishing_check_fires(self):
        # V - 1 = U(z + w) U(z)^-1 U(w)^-1 - 1 must vanish on both axes: the
        # true U with a wrong U^-1 (the constant 1) leaves U(w) - 1 there
        curve, order = zi_curve(), 6
        ring = curve.ring()
        U = theta_over_z(curve, order + 1, ring)
        wrong_inverse = [ring.one] + [ring.zero] * (order + 1)
        with pytest.raises(NotDivisibleError, match=r"z\^0 w\^4"):
            kronecker.kronecker_regular(ring.to_row(U), ring.to_row(wrong_inverse),
                                        order, ring)

    def test_symmetry(self, zi_exact10):
        reg = zi_exact10.regular
        assert is_symmetric(reg)

    def test_unit_group_congruence_square(self, zi_exact10):
        for (m, n), v in zi_exact10.regular.items():
            assert (m + n + 1) % 4 == 0, ((m, n), v)

    def test_unit_group_congruence_hexagonal(self):
        exp = kronecker_exact(catalog_row("Z[(1+sqrt(-3))/2]").curve(1), 12)
        for (m, n), v in exp.regular.items():
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
                    want = ek_from_expansion(zi_exact10, a, b)
                    ek = eisenstein_kronecker_lerch(
                        a + b, 0, 0, b, zi_lattice, 1e-24,
                        z0_in_lattice=True, w0_in_lattice=True).to_mpc()
                    num = ek / (mp.factorial(a) * A ** a)
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


TAYLOR_CENTRES = [
    (1, -1), (Fraction(1, 2), 0), (0, Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2)), (Fraction(-1, 2), Fraction(1, 2)),
    (Fraction(1, 3), 0), (Fraction(13, 4), Fraction(-7, 3)),
]
TAYLOR_IDS = ["lattice", "half-0", "0-half", "half-half", "minus-half-half",
              "third", "far-cell"]


def _bits(z):
    """The exact mpmath representation of a complex value."""
    return z.real._mpf_, z.imag._mpf_


class TestThetaTaylor:
    @pytest.mark.parametrize("coords", TAYLOR_CENTRES, ids=TAYLOR_IDS)
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


class TestMpcLoopsAgainstSeriesRoute:
    """theta's Taylor series and the reciprocals of verify_generating_function
    run on mpc lists; the sparse-dict series route of tests/series_oracle.py
    sums the same terms in the same order, so every coefficient agrees to
    the last bit."""

    @pytest.mark.parametrize("coords", TAYLOR_CENTRES, ids=TAYLOR_IDS)
    def test_taylor_bit_for_bit(self, zi_lattice, coords):
        ev = ThetaEvaluator(zi_lattice)
        with mp.workprec(ev.prec + 24):
            c = kronecker.torsion_point(coords, ev.w1, ev.w2)[0]
        got = ev.taylor(c, 9)
        want = series_oracle.taylor(ev, c, 9)
        assert [_bits(x) for x in got] == [_bits(x) for x in want]

    def test_generating_function_report_bit_for_bit(self, zi_lattice):
        # the README 4x4 job: a 2-torsion z0 off the lattice and w0 likewise
        z0, w0 = (Fraction(1, 2), 0), (0, Fraction(1, 2))
        rep = verify_generating_function(z0, w0, 4, 4, zi_lattice, tol=1e-12)
        want = series_oracle.generating_function_coefficients(z0, w0, 4, 4, zi_lattice)
        assert len(rep.entries) == 20
        for (a, b), (got, _) in rep.entries.items():
            assert _bits(got) == _bits(want[(b - 1, a)]), (a, b)
        assert _bits(rep.polar_z[0]) == _bits(want[(-1, 0)])
        assert _bits(rep.polar_w[0]) == _bits(want[(0, -1)])
        assert _bits(rep.e01_recorded) == _bits(want[(0, 0)])

    def test_lattice_centre_reciprocal_bit_for_bit(self, zi_lattice):
        # z0 on the lattice: R_z has its simple pole, the inverse starts at t^1
        z0, w0 = (0, 0), (Fraction(1, 3), 0)
        rep = verify_generating_function(z0, w0, 2, 3, zi_lattice, tol=1e-12)
        want = series_oracle.generating_function_coefficients(z0, w0, 2, 3, zi_lattice)
        for (a, b), (got, _) in rep.entries.items():
            assert _bits(got) == _bits(want[(b - 1, a)]), (a, b)
        assert _bits(rep.polar_z[0]) == _bits(want[(-1, 0)])
        assert _bits(rep.polar_w[0]) == _bits(want[(0, -1)])


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
        assert hat.polar == 1
        star = compose_formal(exp, curve, 12, starred=True)
        assert star.polar == 0
        assert star.regular == hat.regular
        # tail of 1/lambda(s) - 1/s starts at s^3 with coefficient 2/5
        assert star.coeff(3, 0) - exp.coeff(3, 0) == Fraction(2, 5)

    def test_parity_of_composed_support(self):
        curve = zi_curve()
        exp = kronecker_exact(curve, 16)
        star = compose_formal(exp, curve, 16)
        for (i, j), v in star.regular.items():
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
                for k, c in lam.items())
            z, w = lam_f(s), lam_f(t)
            direct = ev.kronecker(z, w) - 1 / s - 1 / t
            series_val = mp.fsum(
                mp.mpf(v.numerator) / v.denominator * s ** i * t ** j
                for (i, j), v in star.regular.items())
            assert abs(direct - series_val) < 1e-12


class TestHeatmapRidge:
    def test_ridge_fit_window(self):
        curve = zi_curve()
        exp = kronecker_exact(curve, 40)
        star = compose_formal(exp, curve, 40)
        hm = valuation_heatmap(star, 7, fit_window=(10, 40))
        assert hm.diagonal_slope is not None
        assert ridge_nondecreasing_from(hm, 10)
        rows = list(hm.csv_rows())
        assert all(len(r) == 3 for r in rows)


def _oracle_inverse(a, n, one):
    """b_0..b_n of 1/a by the scalar recurrence, term by term."""
    b = [one / a[0]]
    for m in range(1, n + 1):
        b.append(-sum((a[i] * b[m - i] for i in range(1, m + 1) if a[i]), 0 * one) / a[0])
    return b


def _fraction_oracle(curve, order):
    """(regular part of Theta, Theta-hat*) as {(m, n): scalar} dicts, by
    plain scalar loops over Fractions or ExactScalars: the route the int
    rows replaced, kept as their oracle."""
    ring = curve.ring()
    D = order + 1
    U = theta_over_z(curve, D, ring)
    Uinv = _oracle_inverse(U, D, ring.one)
    V = {(m, d - m): U[d] * math.comb(d, m)
         for d in range(D + 1) if U[d] for m in range(d + 1)}
    for axis in (0, 1):             # times U(z)^-1, then U(w)^-1
        out = {}
        for (m, n), v in V.items():
            for j, c in enumerate(Uinv):
                if c and m + n + j <= D:
                    key = (m + j, n) if axis == 0 else (m, n + j)
                    out[key] = out.get(key, 0) + v * c
        V = out
    V[(0, 0)] -= 1
    assert not any(v for (m, n), v in V.items() if v and (m == 0 or n == 0))
    reg = {(m, n): V.get((m, n + 1), 0) + V.get((m + 1, n), 0)
           for m in range(order + 1) for n in range(order + 1 - m)}
    reg = {k: v for k, v in reg.items() if v}
    lam = formal_log(curve, order + 2, ring).series
    lam_list = [lam.coeff(k) for k in range(order + 3)]
    pows = [[ring.one] + [ring.zero] * order]
    for _ in range(order):
        prev = pows[-1]
        pows.append([sum((prev[i] * lam_list[k - i] for i in range(k + 1)
                          if prev[i] and lam_list[k - i]), 0 * ring.one)
                     for k in range(order + 1)])
    hat = {}
    for (m, n), c in reg.items():
        for i, x in enumerate(pows[m]):
            for j, y in enumerate(pows[n][:order + 1 - i]):
                if x and y:
                    hat[(i, j)] = hat.get((i, j), 0) + c * x * y
    Q = _oracle_inverse(lam_list[1:], order + 1, ring.one)
    for k in range(1, order + 2):
        for key in ((k - 1, 0), (0, k - 1)):
            hat[key] = hat.get(key, 0) + Q[k]
    return reg, {k: v for k, v in hat.items() if v}


def _pibar_scaled_zi():
    """The Z[i] curve at u = 4 scaled by pibar, pi over 13: the Q(i) row of
    padic.four_term_expansions."""
    from ektheta.padic import cm_prime_generator
    curve = zi_curve()
    return curve.scaled(cm_prime_generator(curve, 13).conjugate())


class TestIntRowsAgainstFractionOracle:
    """kronecker_exact and compose_formal run on int rows over one
    denominator; plain scalar loops are their oracle, on Q and on Q(i)."""

    ROWS = {
        "d7": lambda: catalog_row("Z[(1+sqrt(-7))/2]").curve(1),
        "zi-pibar": _pibar_scaled_zi,
        "d3": lambda: catalog_row("Z[(1+sqrt(-3))/2]").curve(Fraction(2, 3)),
    }

    @pytest.mark.parametrize("name", list(ROWS))
    def test_expansion_and_composition_to_order_21(self, name):
        curve, order = self.ROWS[name](), 21
        reg, hat = _fraction_oracle(curve, order)
        exp = kronecker_exact(curve, order)
        star = compose_formal(exp, curve, order)
        assert dict(exp.regular.items()) == reg
        assert dict(star.regular.items()) == hat
        if name == "zi-pibar":      # a true Q(i) row: two parts in the rows
            assert curve.ring().d == 1
            assert any(not v.is_rational() for v in reg.values())
            assert any(not v.is_rational() for v in hat.values())

    @pytest.mark.parametrize("name", list(ROWS))
    def test_perturbed_unit_coefficient_is_refused(self, name):
        # one coefficient of U changed, against the inverse of the true U:
        # V(z, 0) = U(z)/U_true(z) is no longer 1, so V - 1 does not vanish
        # on the axes
        curve, order = self.ROWS[name](), 12
        ring = curve.ring()
        U = theta_over_z(curve, order + 1, ring)
        Uinv = _oracle_inverse(U, order + 1, ring.one)
        k = next(k for k in range(1, order + 2) if U[k])
        for wrong in (U[k] + ring.one, U[k] * 3):
            bad = U[:k] + [wrong] + U[k + 1:]
            with pytest.raises((NotDivisibleError, AssertionError)):
                kronecker.kronecker_regular(ring.to_row(bad), ring.to_row(Uinv),
                                            order, ring)
        # and the unperturbed pair passes
        kronecker.kronecker_regular(ring.to_row(U), ring.to_row(Uinv), order, ring)
