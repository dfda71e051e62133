"""Catalog, exact expansions, periods, pairing."""
import hashlib
import json
import random
from fractions import Fraction

import mpmath as mp
import pytest

from ektheta import curves
from ektheta.curves import (
    CurveData,
    PeriodPrecisionError,
    catalog,
    catalog_row,
    catalog_row_of,
    compute_periods,
    eisenstein_backcheck,
    eta1_quasi_period,
    formal_log,
    lattice_pair_mpc,
    sigma_series,
    theta_series,
    wp_series,
)
from ektheta.scalars import ExactScalar
from ektheta.series import ExactRing, UniSeries
from tests.series_oracle import exp, shift, sub


def zi_curve():
    return catalog_row("Z[sqrt(-1)]").curve(4)  # g2 = 4, g3 = 0


class TestCatalog:
    def test_thirteen_rows(self):
        assert len(catalog()) == 13

    def test_square_lattice_row(self):
        c = catalog_row("Z[sqrt(-1)]").curve(1)
        assert c.g2 == ExactScalar(1) and c.g3 == ExactScalar(0)
        assert c.e2_star == ExactScalar(0)

    def test_z2i_row(self):
        c = catalog_row("Z[2*sqrt(-1)]").curve(1)
        assert (c.g2, c.g3, c.e2_star) == (ExactScalar(44), ExactScalar(56), ExactScalar(1))

    def test_163_row(self):
        c = catalog_row("Z[(1+sqrt(-163))/2]").curve(1)
        assert c.g2 == ExactScalar(16 * 5 * 23 * 29 * 163)
        assert c.g3 == ExactScalar(7 * 11 * 19 * 127 * 163 ** 2)
        assert c.e2_star == ExactScalar(724)

    def test_u_scaling_weights(self):
        row = catalog_row("Z[2*sqrt(-1)]")
        c = row.curve(Fraction(3))
        assert c.g2 == ExactScalar(44 * 9)
        assert c.g3 == ExactScalar(56 * 27)
        assert c.e2_star == ExactScalar(3)

    def test_e2_linear_in_u_across_catalog(self):
        for row in catalog():
            a, b = row.curve(2).e2_star, row.curve(1).e2_star
            assert a == b * ExactScalar(2)

    def test_alias(self):
        assert catalog_row("Z[i]").label == "Z[sqrt(-1)]"

    def test_curve_is_its_weierstrass_data(self):
        # the CM row is read from j, not stored: a raw curve with the same
        # (g2, g3, e2*) is the same value, and hashes alike
        raw = CurveData(ExactScalar(4), ExactScalar(0), ExactScalar(0))
        assert raw == zi_curve() and hash(raw) == hash(zi_curve())
        assert CurveData.__slots__ == ("g2", "g3", "e2_star")


class TestCatalogRowOf:
    @pytest.mark.parametrize("u", [1, 4, Fraction(1, 3)], ids=["u1", "u4", "u1_3"])
    def test_every_row_is_found_from_its_j(self, u):
        for row in catalog():
            assert catalog_row_of(row.curve(u)) is row

    def test_scaled_by_pibar_keeps_its_row_and_field(self):
        # the four-term moment's curves: (g2, g3, e2*) / (pibar^4, pibar^6,
        # pibar^2) has coefficients in Q(sqrt(-d)), and the same j
        from ektheta.padic import is_split, split_prime_generator
        for row in catalog():
            p = next(q for q in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
                     if is_split(q, row.d))
            pibar = split_prime_generator(p, row.d).conjugate()
            curve = row.curve(1).scaled(pibar)
            assert catalog_row_of(curve) is row
            assert not curve.g2.is_rational() or not curve.g3.is_rational()
            assert curve.ring().d == row.d

    def test_raw_curve_outside_the_catalog_is_refused(self):
        with pytest.raises(ValueError, match="not the j-invariant of a catalog curve"):
            catalog_row_of(CurveData(ExactScalar(2), ExactScalar(1)))


class TestWpSeries:
    def test_leading_coefficients(self):
        wp = wp_series(zi_curve(), 10)
        assert wp.coeff(-2) == 1
        assert wp.coeff(2) == Fraction(1, 5)
        assert wp.coeff(6) == Fraction(1, 75)

    def test_odd_coefficients_vanish(self):
        wp = wp_series(catalog_row("Z[sqrt(-7)]").curve(1), 15)
        assert all(wp.coeff(k) == 0 for k in range(-1, 15, 2))

    @pytest.mark.parametrize("label", ["Z[sqrt(-1)]", "Z[(1+sqrt(-3))/2]",
                                       "Z[2*sqrt(-1)]", "Z[(1+sqrt(-43))/2]"])
    def test_differential_equation(self, label):
        # oracle: (wp')^2 - 4 wp^3 + g2 wp + g3 = 0 as truncated series
        curve = catalog_row(label).curve(1)
        order = 20
        wp = wp_series(curve, order + 4)
        lhs = sub(wp.derivative() * wp.derivative(), 4 * (wp * wp * wp)) \
            + wp.scale(curve.g2.a) + UniSeries.constant(wp.ring, curve.g3.a, order)
        assert all(not c for k, c in lhs.items() if k <= order)


def _sigma_by_integration(curve, order):
    """sigma by the route that the recurrence replaced, kept as its oracle:
    integrate the regular part of -wp twice and exponentiate,
    sigma = z exp(-I I (wp - z^-2))."""
    ring = curve.ring()
    wp = wp_series(curve, order + 2, ring)
    twice = {k + 2: -v * Fraction(1, (k + 1) * (k + 2))
             for k, v in wp.items() if 0 <= k <= order - 1}
    return shift(exp(UniSeries(ring, twice, order + 1)), 1).truncate(order)


class TestSigmaTheta:
    @pytest.mark.parametrize("u", [1, 4, Fraction(1, 3)], ids=["u1", "u4", "u1/3"])
    def test_recurrence_equals_integration_route(self, u):
        # Weierstrass's integers a_mn against (log sigma)'' = -wp, integrated
        for row in catalog():
            curve = row.curve(u)
            assert sigma_series(curve, 120) == _sigma_by_integration(curve, 120), row.label

    def test_weierstrass_integers_start(self):
        # sigma = z - g2 z^5/240 - g3 z^7/840 - g2^2 z^9/161280 - ...
        assert curves.sigma_integers(9) == ((1, 0, 0, 1), (5, 1, 0, -1),
                                            (7, 0, 1, -3), (9, 2, 0, -9))

    def test_sigma_leading_terms(self):
        # sigma = z - (g2/240) z^5 - (g3/840) z^7 + ...
        curve = catalog_row("Z[2*sqrt(-1)]").curve(1)
        sig = sigma_series(curve, 9)
        assert sig.coeff(1) == 1
        assert sig.coeff(5) == Fraction(-44, 240)
        assert sig.coeff(7) == Fraction(-56, 840)

    def test_sigma_numeric_against_product_expansion(self):
        # oracle: evaluate the sigma product over a truncated lattice at small z
        curve = zi_curve()
        lat = compute_periods(curve, 128)
        w1, w2 = lat.pair_mpc()
        with mp.workprec(128):
            z = mp.mpf("0.31")
            prod = z
            R = 60
            for m in range(-R, R + 1):
                for n in range(-R, R + 1):
                    if m == 0 and n == 0:
                        continue
                    g = m * w1 + n * w2
                    prod *= (1 - z / g) * mp.exp(z / g + z ** 2 / (2 * g ** 2))
            sig = sigma_series(curve, 40)
            val = mp.fsum(mp.mpf(c.numerator) / c.denominator * z ** k
                          for k, c in sig.items())
            assert abs(val - prod) < 1e-6  # truncated-product oracle is the limit

    def test_sigma_g2_4(self):
        sig = sigma_series(zi_curve(), 9)
        assert sig.coeff(5) == Fraction(-1, 60)
        assert all(sig.coeff(k) == 0 for k in range(0, 9, 2))

    def test_theta_equals_sigma_when_e2_zero(self):
        curve = zi_curve()
        assert theta_series(curve, 11) == sigma_series(curve, 11)

    def test_theta_z3_coefficient(self):
        curve = catalog_row("Z[2*sqrt(-1)]").curve(1)
        th = theta_series(curve, 7)
        assert th.coeff(3) == Fraction(-1, 2)
        assert all(th.coeff(k) == 0 for k in range(0, 7, 2))

    def test_log_sigma_second_derivative_is_minus_wp(self):
        curve = catalog_row("Z[sqrt(-2)]").curve(1)
        order = 16
        sig = sigma_series(curve, order + 3)
        wp = wp_series(curve, order)
        f = shift(sig, -1)  # sigma/z
        dlog = f.derivative() * f.inverse()  # (log(sigma/z))'
        check = sub(dlog.derivative() + wp, UniSeries(wp.ring, {-2: wp.ring.one}, order))
        assert all(not c for k, c in check.items() if k <= order - 3)


class TestFormalLog:
    def test_leading_term(self):
        lam = formal_log(catalog_row("Z[sqrt(-3)]").curve(1), 5).series
        assert lam.coeff(1) == 1 and lam.coeff(2) == 0 and lam.coeff(3) == 0

    def test_g2_4_fifth_coefficient(self):
        lam = formal_log(zi_curve(), 9).series
        assert lam.coeff(5) == Fraction(-2, 5)

    def test_exponent_support(self):
        lam = formal_log(catalog_row("Z[(1+sqrt(-3))/2]").curve(1), 40).series
        assert all(k % 6 == 1 for k, _ in lam.items())  # g2 = 0: only 6n+1
        lam2 = formal_log(catalog_row("Z[sqrt(-7)]").curve(1), 30).series
        assert all((k - 1) % 2 == 0 and any(k == 4 * m + 6 * n + 1
                                            for m in range(11) for n in range(6))
                   for k, _ in lam2.items())

    def test_against_dx_over_y_integration_oracle(self):
        # oracle: expand x(t), y(t) from the Weierstrass equation with
        # t = -2x/y and integrate dx/y term by term.
        curve = catalog_row("Z[2*sqrt(-1)]").curve(1)
        order = 21
        ring = ExactRing(0)
        wp = wp_series(curve, order + 4, ring)
        lam = formal_log(curve, order, ring).series
        x_t = wp.compose(lam.truncate(order + 2))          # x = wp(lambda(t))
        y_t = wp.derivative().compose(lam.truncate(order + 2))
        # t = -2 x / y must hold
        tt = (x_t * (-2)) * y_t.inverse()
        assert tt == UniSeries(ring, {1: ring.one}, 6)
        # d lambda = dx/y
        dx = x_t.derivative()
        assert dx * y_t.inverse() == lam.derivative().truncate(order - 4)


class TestPeriods:
    def test_square_lattice(self):
        lat = compute_periods(zi_curve(), 192)
        w1, w2 = lat.pair_mpc()
        with mp.workprec(192):
            assert abs(w2 / w1 - mp.mpc(0, 1)) < mp.mpf(10) ** -20
            # lemniscatic period
            ref = mp.gamma(Fraction(1, 4)) ** 2 / (2 * mp.sqrt(2 * mp.pi))
            assert abs(abs(w1) - ref) < mp.mpf(10) ** -40

    def test_backcheck_residual(self):
        curve = catalog_row("Z[(1+sqrt(-11))/2]").curve(1)
        lat = compute_periods(curve, 192)
        w1, w2 = lat.pair_mpc()
        g2, g3 = eisenstein_backcheck(w1, w2, 192)
        with mp.workprec(192):
            assert abs(g2 - curve.g2.to_mpc(192)) < mp.mpf(10) ** -20
            assert abs(g3 - curve.g3.to_mpc(192)) < mp.mpf(10) ** -20

    def test_hexagonal_case_one_real_root(self):
        curve = catalog_row("Z[(1+sqrt(-3))/2]").curve(1)  # g2 = 0: Delta < 0
        lat = compute_periods(curve, 160)
        w1, w2 = lat.pair_mpc()
        with mp.workprec(160):
            tau = w2 / w1
            # j = 0 lattice: tau equivalent to a primitive sixth root of unity
            assert abs(tau ** 2 - tau + 1) < mp.mpf(10) ** -20 or \
                abs(tau ** 2 + tau + 1) < mp.mpf(10) ** -20

    def test_scaling_homogeneity(self):
        base = compute_periods(zi_curve(), 128)
        # periods of (g2/c^4, g3/c^6) equal c * periods of (g2, g3)
        c = 3
        scaled = compute_periods(CurveData(ExactScalar(Fraction(4, c ** 4)),
                                           ExactScalar(0)), 128)
        with mp.workprec(128):
            r = scaled.pair_mpc()[0] / base.pair_mpc()[0]
            assert abs(r - c) < mp.mpf(10) ** -25 or abs(r + c) < mp.mpf(10) ** -25

    def test_area_positive(self):
        for label in ("Z[sqrt(-1)]", "Z[sqrt(-3)]", "Z[(1+sqrt(-19))/2]"):
            lat = compute_periods(catalog_row(label).curve(1), 96)
            assert lat.A() > 0


# sha256 of json.dumps(LatticeData.to_json(), sort_keys=True) at 256 bits.
# The seven rows whose tau the reduction to the fundamental domain moved were
# re-pinned with it (OLD_BASES keeps their earlier bases); the other nine
# bases were reduced already and kept every bit
PINNED_PERIODS = {
    ("Z[sqrt(-1)]", "1"): "3ceb5296e089894a46ec9a14c3bb0d0c8c5e43e2426980ebbee44d2d1d08c041",
    ("Z[sqrt(-2)]", "1"): "517c6677a1f375ba21de3ba20ef83253a0ae363f35922203be1620403e33af9b",
    ("Z[2*sqrt(-1)]", "1"): "62c7ace5e7d4fd7b33578f2736e9ae93a0fb560bee770ccf88767505df2ae415",
    ("Z[(1+sqrt(-3))/2]", "1"): "147c579d74825c18c44978687ae973e07693487758af89df68bec01bc0f14742",
    ("Z[sqrt(-3)]", "1"): "79f3c87e4d59fa57ae55d511f709f82e424fbc6066e8a5408a52179ad85992bd",
    ("Z[(1+3*sqrt(-3))/2]", "1"): "93794551f8cac5472a65b2a9ac2985fa8d380fd2d35c0f571b9550d007e1dff5",
    ("Z[(1+sqrt(-7))/2]", "1"): "b02294eb583af054c4f9fbc3f4526a7d9ebb0053b8d26363a97320baedaa7422",
    ("Z[sqrt(-7)]", "1"): "b0c757f445eebe51a424580f40f2c9985de30825fa98015588ec23627f78612d",
    ("Z[(1+sqrt(-11))/2]", "1"): "1a117321d9802274daeff07a591ebc11d62a285b87391805baf06bc9074d52f8",
    ("Z[(1+sqrt(-19))/2]", "1"): "6e1be55814dfb1170a28ae484261a9851ab7f4b290119a7fa13ac246d2d543d1",
    ("Z[(1+sqrt(-43))/2]", "1"): "baebee0b0221d22880e6a6a725f5c371893f7a18ca6e2a1681f286dba17cf776",
    ("Z[(1+sqrt(-67))/2]", "1"): "2f20fb3f33327e234b659991596a03fe3c03757f7ea3be550698cafb823276d4",
    ("Z[(1+sqrt(-163))/2]", "1"): "26ea0d27c3d08a6ad2c818fff6512e877cca4fad73719f19b56cbc3c85eceb56",
    ("Z[sqrt(-1)]", "4"): "f780a89154280063f08bf4c97710f6377c7aeb448ac35ab74294e2dd4dd6a960",
    ("Z[2*sqrt(-1)]", "1/1000"): "4044234ea83003c125144ebf9261e61f84e76e8b71f31ac31a8eefbb7e2456b6",
    ("Z[2*sqrt(-1)]", "1000"): "24f1b0f4eeec70e030f01ddfd8a2780b5cfb223161ec242de18d4b6448e170b5",
}


# (w1, w2) as (re, im) of the rows above before tau was reduced to the
# fundamental domain
OLD_BASES = {
    "Z[(1+sqrt(-3))/2]": (
        ("1.52995403705719287491319417230882435857282895",
         "2.64995812542817493597053424947265805385780281"),
        ("0.0",
         "5.29991625085634987194106849894531610771560561")),
    "Z[(1+3*sqrt(-3))/2]": (
        ("1.01996935803812858327546278153921623904855263",
         "0.0"),
        ("0.509984679019064291637731390769608119524276316",
         "2.64995812542817493597053424947265805385780281")),
    "Z[(1+sqrt(-7))/2]": (
        ("1.36705781718897774487204721407750103951172735",
         "0.0"),
        ("0.683528908594488872436023607038750519755863676",
         "1.80844750606441763745356419758764620596906749")),
    "Z[(1+sqrt(-11))/2]": (
        ("0.835994246645421896122568106375243434138229257",
         "0.0"),
        ("0.417997123322710948061284053187621717069114628",
         "1.38633962150934641490382453254932558795298901")),
    "Z[(1+sqrt(-19))/2]": (
        ("0.961378108115071591746713220841006665699112643",
         "0.0"),
        ("0.480689054057535795873356610420503332849556322",
         "2.09527500990295850019576042779614629084780479")),
    "Z[(1+sqrt(-67))/2]": (
        ("0.257633709611299693160733322270778481061828573",
         "0.0"),
        ("0.128816854805649846580366661135389240530914286",
         "1.05441139954731689926704894783113001512542979")),
    "Z[(1+sqrt(-163))/2]": (
        ("0.0621632483511522593963481963019366203387344939",
         "0.0"),
        ("0.0932448725267283890945222944529049305081017408",
         "0.396823613091328827281280626501436355238390019")),
}


class TestPeriodsPinned:
    def test_every_catalog_row_is_pinned(self):
        assert {label for label, u in PINNED_PERIODS if u == "1"} == \
            {row.label for row in catalog()}

    @pytest.mark.parametrize("label,u", sorted(PINNED_PERIODS))
    def test_periods_pinned(self, label, u):
        lat = compute_periods(catalog_row(label).curve(Fraction(u)), 256)
        text = json.dumps(lat.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_PERIODS[label, u]


class TestBackcheck:
    def test_perturbed_agm_is_refused(self, monkeypatch):
        # a relative error of 2^-100 in every period moves g2 by about
        # 4 * 4 * 2^-100, far above the tolerance 2^-128 * (1 + |g2| + |g3|)
        agm = curves._agm
        monkeypatch.setattr(curves, "_agm",
                            lambda a, b, prec: agm(a, b, prec) * (1 + mp.mpf(2) ** -100))
        with pytest.raises(PeriodPrecisionError):
            compute_periods(zi_curve(), 256)

    @pytest.mark.parametrize("label,u", [(row.label, u) for row in catalog()
                                         for u in ("1", "4", "1/1000", "1000")])
    def test_reduced_tau_from_one_backcheck(self, monkeypatch, label, u):
        # one back-check per call, and tau in the fundamental domain with the
        # boundary taken within eps as _reduce_basis states it
        calls = []
        check = curves.eisenstein_backcheck

        def counting(w1, w2, prec):
            calls.append(prec)
            return check(w1, w2, prec)

        monkeypatch.setattr(curves, "eisenstein_backcheck", counting)
        w1, w2 = compute_periods(catalog_row(label).curve(Fraction(u)), 256).pair_mpc()
        assert len(calls) == 1
        with mp.workprec(256):
            eps = mp.mpf(2) ** -128
            tau = w2 / w1
            t2 = abs(tau) ** 2
            assert -mp.mpf(1) / 2 - eps <= mp.re(tau) < mp.mpf(1) / 2 - eps
            assert t2 >= 1 - eps
            assert t2 >= 1 + eps or mp.re(tau) <= eps

    @pytest.mark.parametrize("label", sorted(OLD_BASES))
    def test_moved_bases_span_the_same_lattice(self, label):
        # the earlier basis is an integer combination of the reduced one, of
        # determinant +-1, to within 2^(-prec/2)
        w1, w2 = compute_periods(catalog_row(label).curve(1), 256).pair_mpc()
        with mp.workprec(256):
            det = mp.im(mp.conj(w1) * w2)
            coords = []
            for z in (mp.mpc(*v) for v in OLD_BASES[label]):
                coords += [-mp.im(mp.conj(w2) * z) / det, mp.im(mp.conj(w1) * z) / det]
            ints = [mp.nint(c) for c in coords]
            assert all(abs(c - i) < mp.mpf(2) ** -128 for c, i in zip(coords, ints))
            assert abs(ints[0] * ints[3] - ints[1] * ints[2]) == 1
            assert ints != [1, 0, 0, 1]

    @pytest.mark.parametrize("label,u", [("Z[sqrt(-1)]", "4"), ("Z[(1+sqrt(-7))/2]", "1"),
                                         ("Z[2*sqrt(-1)]", "1/1000")])
    def test_legendre_relation(self, label, u):
        # eta1 w2 - eta2 w1 = 2 pi i, with eta2 the quasi-period of w2 read
        # from the basis (w2, -w1): E2 at tau and at -1/tau share the q-terms
        w1, w2 = compute_periods(catalog_row(label).curve(Fraction(u)), 256).pair_mpc()
        with mp.workprec(256):
            eta1 = eta1_quasi_period(w1, w2, 256)
            eta2 = eta1_quasi_period(w2, -w1, 256)
            assert abs(eta1 * w2 - eta2 * w1 - 2j * mp.pi) < mp.mpf(2) ** -200


class TestPairing:
    def setup_method(self):
        self.lat = compute_periods(zi_curve(), 160)
        self.w1, self.w2 = self.lat.pair_mpc()

    def pair(self, z, w):
        return lattice_pair_mpc(mp.mpc(z), mp.mpc(w), self.lat.A())

    def test_lattice_points_pair_to_one(self):
        rng = random.Random(11)
        with mp.workprec(160):
            for _ in range(5):
                g = rng.randrange(-4, 5) * self.w1 + rng.randrange(-4, 5) * self.w2
                gp = rng.randrange(-4, 5) * self.w1 + rng.randrange(-4, 5) * self.w2
                assert abs(self.pair(g, gp) - 1) < mp.mpf(10) ** -40

    def test_primitive_root_of_unity(self):
        # oracle from expanding the definition: <w1/n, w2> = exp(-2 pi i/n)
        with mp.workprec(160):
            for n in (2, 3, 5, 8):
                val = self.pair(self.w1 / n, self.w2)
                want = mp.exp(-2j * mp.pi / n)
                assert abs(val - want) < mp.mpf(10) ** -40

    def test_antisymmetry(self):
        with mp.workprec(160):
            z = mp.mpc("0.37", "0.11")
            w = mp.mpc("-0.21", "0.43")
            zw = self.pair(z, w)
            wz = self.pair(w, z)
            assert abs(zw * wz - 1) < mp.mpf(10) ** -40
            assert abs(abs(zw) - 1) < mp.mpf(10) ** -40
