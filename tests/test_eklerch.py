"""Eisenstein-Kronecker-Lerch numerics."""
import cmath
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from ektheta import eklerch
from ektheta.curves import LatticeData, catalog_row, compute_periods
from ektheta.eklerch import (
    HeckeCharacter,
    PoleError,
    check_functional_equation,
    direct_hecke_sum,
    e2star_numeric,
    eisenstein_kronecker_lerch,
    ek_number,
    ek_table,
    hecke_L_partial,
    rational_reconstruct,
)
from ektheta.scalars import BigComplex, ExactScalar


@pytest.fixture(scope="module")
def zi_lattice():
    return compute_periods(catalog_row("Z[sqrt(-1)]").curve(4), 256)


class TestEKValues:
    def test_e04_against_brute_force_lattice_sum(self, zi_lattice):
        # oracle: truncated sum 60 sum' gamma^-4 = g2, tail ~ R^-2
        w1, w2 = zi_lattice.pair_mpc()
        with mp.workprec(128):
            R = 120
            s = mp.fsum((m * w1 + n * w2) ** -4
                        for m in range(-R, R + 1) for n in range(-R, R + 1)
                        if (m, n) != (0, 0))
            val = ek_number(0, 4, 0, 0, zi_lattice, 1e-24,
                            z0_in_lattice=True, w0_in_lattice=True)
            assert abs(val.to_mpc() - s) < 1e-4
            assert abs(60 * s - 4) < 1e-3

    def test_e04_exact_value(self, zi_lattice):
        # e*_{0,4} = g2/60 = 1/15
        val = ek_number(0, 4, 0, 0, zi_lattice, 1e-24,
                        z0_in_lattice=True, w0_in_lattice=True)
        with mp.workprec(200):
            assert abs(val.to_mpc() - mp.mpf(1) / 15) < 1e-20

    def test_K4_at_s4(self, zi_lattice):
        val = eisenstein_kronecker_lerch(4, 0, 0, 4, zi_lattice, 1e-24,
                                         z0_in_lattice=True, w0_in_lattice=True)
        with mp.workprec(200):
            assert abs(val.to_mpc() - mp.mpf(1) / 15) < 1e-20

    def test_odd_weight_vanishes_on_square_lattice(self, zi_lattice):
        for a, b in [(0, 1), (0, 2), (1, 2), (0, 3), (2, 3), (1, 4)]:
            if (a + b) % 4 == 0:
                continue
            val = ek_number(a, b, 0, 0, zi_lattice, 1e-20,
                            z0_in_lattice=True, w0_in_lattice=True)
            assert abs(val.to_mpc()) < 1e-18, (a, b)

    def test_self_consistency_on_precision_doubling(self, zi_lattice):
        w1, w2 = zi_lattice.pair_mpc()
        z0, w0 = 0.23 * w1 + 0.17 * w2, -0.31 * w1 + 0.46 * w2
        coarse = eisenstein_kronecker_lerch(3, z0, w0, 2, zi_lattice, 1e-12)
        fine = eisenstein_kronecker_lerch(3, z0, w0, 2, zi_lattice, 1e-24)
        assert abs(coarse.to_mpc() - fine.to_mpc()) < 1e-12

    def test_pole_rejected(self, zi_lattice):
        with pytest.raises(PoleError):
            eisenstein_kronecker_lerch(0, 0, 0.5, 0, zi_lattice, 1e-10,
                                       z0_in_lattice=True, w0_in_lattice=False)

    def test_conjugation_symmetry(self, zi_lattice):
        w1, w2 = zi_lattice.pair_mpc()
        with mp.workprec(220):
            z0 = 0.31 * w1 + 0.12 * w2
            w0 = 0.27 * w1 - 0.39 * w2
            a, s = 2, mp.mpc(2.0, 0.5)
            lhs = mp.conj(eisenstein_kronecker_lerch(a, z0, w0, s, zi_lattice,
                                                     1e-20).to_mpc())
            rhs = eisenstein_kronecker_lerch(a, mp.conj(z0), mp.conj(w0),
                                             mp.conj(s), zi_lattice, 1e-20).to_mpc()
            assert abs(lhs - rhs) < 1e-18


class TestFunctionalEquation:
    def test_generic_point(self, zi_lattice):
        w1, w2 = zi_lattice.pair_mpc()
        res = check_functional_equation(2, 0.2 * w1 + 0.3 * w2,
                                        0.41 * w1 - 0.11 * w2, 2, zi_lattice, 1e-20)
        assert res < 2e-20

    def test_critical_symmetry_point(self, zi_lattice):
        w1, w2 = zi_lattice.pair_mpc()
        z0 = 0.25 * w1 + 0.4 * w2
        res = check_functional_equation(3, z0, z0, 2, zi_lattice, 1e-20)
        assert res < 1e-20

    def test_order_three_torsion_grid(self, zi_lattice):
        w1, w2 = zi_lattice.pair_mpc()
        for a in range(0, 5):
            for s in (Fraction(1), Fraction(2), Fraction(a + 1, 2)):
                if a == 0 and s in (0, 1):
                    continue
                sval = mp.mpf(s.numerator) / s.denominator
                res = check_functional_equation(a, w1 / 3, (w1 + w2) / 3,
                                                sval, zi_lattice, 1e-18)
                assert res < 1e-15, (a, s)

    def test_each_lattice_sum_computed_once(self, zi_lattice, monkeypatch):
        calls = []
        orig = eklerch._I_a

        def counted(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(eklerch, "_I_a", counted)
        w1, w2 = zi_lattice.pair_mpc()
        check_functional_equation(2, w1 / 3, (w1 + w2) / 3, 2, zi_lattice, 1e-18)
        assert len(calls) == 2


def _direct_kstar(entries, z0, w0, lattice, R):
    """{(a, s): K*_a(z0, w0, s)} by the absolutely convergent sum
    sum*_{|z0+gamma| <= R} conj(z0+gamma)^a |z0+gamma|^(-2s) <gamma, w0>, in
    double precision, and a bound on the omitted tail of each entry.

    Discs of radius rho = short/2 about the lattice points are disjoint, and
    |v|^-k <= (|x| - rho)^-k on the disc about v, so with T = R - 2 rho
    sum_{|v| > R} |v|^-k <= (2/rho^2) (T^(2-k)/(k-2) + rho T^(1-k)/(k-1)),
    k = 2 Re s - a > 2."""
    w1, w2 = (complex(w) for w in lattice.pair_mpc())
    z0, w0, A = complex(z0), complex(w0), float(lattice.A())
    rho = min(abs(w1), abs(w2), abs(w1 + w2), abs(w1 - w2)) / 2
    det = (w1.conjugate() * w2).imag
    # the box that holds every gamma with |z0 + gamma| <= R
    x0, y0 = -(w2.conjugate() * z0).imag / det, (w1.conjugate() * z0).imag / det
    mr, nr = R * abs(w2) / det + 1, R * abs(w1) / det + 1
    sums = {e: 0j for e in entries}
    for m in range(int(-x0 - mr), int(-x0 + mr) + 1):
        for n in range(int(-y0 - nr), int(-y0 + nr) + 1):
            g = m * w1 + n * w2
            v = z0 + g
            r = abs(v)
            if r > R or r < 1e-9:
                continue
            pair = cmath.exp(2j * (g * w0.conjugate()).imag / A)
            for a, s in entries:
                sums[a, s] += v.conjugate() ** a * r ** (-2 * s) * pair
    T = R - 2 * rho
    tails = {(a, s): 2 / rho ** 2 * (T ** (2 - k) / (k - 2) + rho * T ** (1 - k) / (k - 1))
             for a, s in entries for k in [2 * s - a]}
    return sums, tails


class TestDirectSum:
    """K*_a for Re s > a/2 + 1 against its defining lattice sum: no incomplete
    gamma, no functional equation, no shared code with the Ewald split."""

    ENTRIES = [(0, 4), (2, 5), (4, 6)]

    @pytest.mark.parametrize("label,u", [("Z[sqrt(-1)]", 4), ("Z[(1+sqrt(-7))/2]", 1)])
    @pytest.mark.parametrize("z0c,w0c", [
        ((0, 0), (0, 0)),
        ((Fraction(1, 2), 0), (0, 0)),
        ((0, 0), (Fraction(1, 3), Fraction(1, 3))),
        ((Fraction(1, 3), 0), (0, Fraction(1, 2))),
    ], ids=["origin", "z0-half", "w0-third", "z0-third-w0-half"])
    def test_ewald_split_equals_direct_sum(self, label, u, z0c, w0c):
        lat = compute_periods(catalog_row(label).curve(u), 256)
        with mp.workprec(256):
            z0, w0 = _torsion(lat, z0c), _torsion(lat, w0c)
        direct, tails = _direct_kstar(self.ENTRIES, z0, w0, lat, R=60)
        flags = {"z0_in_lattice": z0c == (0, 0), "w0_in_lattice": w0c == (0, 0)}
        for a, s in self.ENTRIES:
            want = direct[a, s]
            got = complex(eisenstein_kronecker_lerch(a, z0, w0, s, lat, 1e-20,
                                                     **flags).to_mpc())
            assert tails[a, s] < 1e-9
            assert abs(got - want) < tails[a, s] + 1e-12 * (1 + abs(want)), \
                (a, s, got, want)


def _torsion(lattice, coords):
    """x w1 + y w2 for rational period-basis coordinates (x, y)."""
    w1, w2 = lattice.pair_mpc()
    x, y = (Fraction(c) for c in coords)
    return mp.mpf(x.numerator) / x.denominator * w1 \
        + mp.mpf(y.numerator) / y.denominator * w2


class TestBatchedTable:
    @pytest.mark.parametrize("z0c,w0c,flags", [
        ((0, 0), (0, 0), {"z0_in_lattice": True, "w0_in_lattice": True}),
        ((Fraction(1, 3), 0), (0, Fraction(1, 2)), {}),
    ], ids=["origin", "third-half"])
    def test_table_equals_per_cell_ek_number(self, zi_lattice, z0c, w0c, flags):
        with mp.workprec(280):
            z0, w0 = _torsion(zi_lattice, z0c), _torsion(zi_lattice, w0c)
        table = ek_table(2, 2, z0, w0, zi_lattice, 1e-18, **flags)
        assert sorted(table) == [(a, b) for a in range(3) for b in (1, 2)]
        for (a, b), val in table.items():
            one = ek_number(a, b, z0, w0, zi_lattice, 1e-18, **flags)
            assert (val.re, val.im, val.prec_bits) == (one.re, one.im, one.prec_bits)

    def test_one_lattice_pass_per_centre(self, zi_lattice, monkeypatch):
        passes = []
        orig = eklerch._I_a

        def counted(groups, z0, *rest, **kwargs):
            passes.append((z0, [(int(mp.re(s)), sorted(t)) for s, t in groups.items()]))
            return orig(groups, z0, *rest, **kwargs)

        monkeypatch.setattr(eklerch, "_I_a", counted)
        w1, w2 = zi_lattice.pair_mpc()
        ek_table(2, 2, w1 / 3, w2 / 2, zi_lattice, 1e-18)
        # one pass about z0 for every I(z0, w0, b), one about w0 for every
        # I(w0, z0, a + 1)
        assert len(passes) == 2
        # about z0 = w1/3, then about w0 = w2/2 (both on the normalised lattice)
        assert abs(passes[0][0] * w2 / 2 - passes[1][0] * w1 / 3) < 1e-30
        assert passes[0][1] == [(1, [1, 2, 3]), (2, [2, 3, 4])]
        assert passes[1][1] == [(1, [1, 2]), (2, [2, 3]), (3, [3, 4])]

    @pytest.mark.parametrize("centre", [(0, 0), (Fraction(1, 3), Fraction(-1, 2))],
                             ids=["origin", "torsion"])
    def test_shared_pass_equals_one_entry_passes(self, zi_lattice, centre):
        # every (s, a) of a shared pass is the sum of a pass of its own, bit
        # for bit, though the shared box is that of the largest radius (the
        # radii run from about 6.5 to 16.5, several periods apart)
        k, lat = eklerch._normalised(zi_lattice)
        with mp.workprec(160):
            z0 = _torsion(lat, centre)
            w0 = _torsion(lat, (Fraction(1, 5), Fraction(2, 3)))
            origin = centre == (0, 0)
            groups = {mp.mpc(s): {a: mp.mpf(10) ** -e for a, e in powers}
                      for s, powers in [(1, [(0, 6), (3, 20)]),
                                        (mp.mpf(5) / 2, [(0, 18), (3, 24)]),
                                        (6, [(2, 12), (9, 40)]),
                                        (mp.mpc(3, 2), [(4, 14), (5, 19)])]}
            shared = eklerch._I_a(groups, z0, w0, lat, skip_minus_z0=origin)
            assert {s: sorted(v) for s, v in shared.items()} == \
                {s: sorted(v) for s, v in groups.items()}
            for s, targets in groups.items():
                for a, target in targets.items():
                    one = eklerch._I_a({s: {a: target}}, z0, w0, lat,
                                       skip_minus_z0=origin)[s][a]
                    assert shared[s][a]._mpc_ == one._mpc_, (s, a)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-6, 6)] * 4), st.tuples(*[st.integers(-6, 6)] * 4))
def test_shells_order_restricts_to_any_sub_box(outer, inner):
    # a sub-box is walked in the order of any box containing it, so a sum
    # over a disc adds the same terms in the same order whatever box holds it
    mlo, mhi = sorted(outer[:2])
    nlo, nhi = sorted(outer[2:])
    a, b = sorted(inner[:2])
    c, d = sorted(inner[2:])
    sub = (max(a, mlo), min(b, mhi), max(c, nlo), min(d, nhi))
    walked = list(eklerch._shells(mlo, mhi, nlo, nhi))
    assert sorted(walked) == [(m, n) for m in range(mlo, mhi + 1)
                              for n in range(nlo, nhi + 1)]
    inside = [(m, n) for m, n in walked
              if sub[0] <= m <= sub[1] and sub[2] <= n <= sub[3]]
    assert list(eklerch._shells(*sub)) == inside


def _radius_oracle(a, smax, A, target, covol):
    """The radius loop without its double-precision screen."""
    C = 4 * mp.pi * A / covol
    R = mp.sqrt(A) + 1
    while 2 * C * R ** (a + 1) * mp.exp(-R * R / A) * (1 + abs(smax)) > target:
        R += mp.sqrt(A) / 4
        if R > 600:
            raise eklerch.TailBoundError("tail bound did not close below the target")
    return R


class TestRadiusScreen:
    @pytest.mark.parametrize("A", ["1", "2.7", "3.99"])
    def test_screened_radius_has_the_bits_of_the_plain_loop(self, A):
        with mp.workprec(160):
            A = mp.mpf(A)
            covol = mp.pi * A
            for s in (mp.mpc(1), mp.mpc(5) / 2, mp.mpc(6), mp.mpc(3, 2)):
                for e in (10, 20, 30, 40):
                    target = mp.mpf(10) ** -e
                    for a in range(10):
                        got = eklerch._radius_for(a, s, A, target, covol)
                        want = _radius_oracle(a, s, A, target, covol)
                        assert got._mpf_ == want._mpf_, (a, s, e)

    def test_radius_beyond_600_still_raises(self):
        with mp.workprec(160):
            A = mp.mpf(1)
            with pytest.raises(eklerch.TailBoundError):
                eklerch._radius_for(3, mp.mpc(2), A, mp.mpf(10) ** -200000, mp.pi * A)


class TestDifferentialEquation:
    def test_dz_relation_via_central_differences(self, zi_lattice):
        # d/dz K_a(z,w,s) = -s K_{a+1}(z,w,s+1), Wirtinger derivative by
        # averaging real and imaginary difference quotients
        w1, w2 = zi_lattice.pair_mpc()
        with mp.workprec(300):
            z = mp.mpf("0.2713") * w1 + mp.mpf("0.1841") * w2
            w = mp.mpf("-0.3327") * w1 + mp.mpf("0.4196") * w2
            a, s = 2, 3
            h = mp.mpf(10) ** -12
            K = lambda zz: eisenstein_kronecker_lerch(a, zz, w, s, zi_lattice,
                                                      1e-40).to_mpc()
            dre = (K(z + h) - K(z - h)) / (2 * h)
            dim = (K(z + 1j * h) - K(z - 1j * h)) / (2j * h)
            dz = (dre + dim) / 2
            rhs = -s * eisenstein_kronecker_lerch(a + 1, z, w, s + 1, zi_lattice,
                                                  1e-40).to_mpc()
            assert abs(dz - rhs) / abs(rhs) < 1e-8


def _ek02_and_gammainc_calls(u: Fraction):
    """e*_{0,2} on the Z[2*sqrt(-1)] row at scale u, and the number of
    incomplete gamma values it took."""
    lat = compute_periods(catalog_row("Z[2*sqrt(-1)]").curve(u), 256)
    with mock.patch.object(mp, "gammainc", wraps=mp.gammainc) as gammainc:
        val = ek_number(0, 2, 0, 0, lat, 1e-20,
                        z0_in_lattice=True, w0_in_lattice=True)
    return val, gammainc.call_count


@pytest.fixture(scope="module")
def gammainc_calls_at_u1():
    return _ek02_and_gammainc_calls(Fraction(1))[1]


class TestScaleFree:
    """K*_a(c z0, c w0, s; c Gamma) = conj(c)^a |c|^(-2s) K*_a(z0, w0, s; Gamma):
    the sums run on a normalised lattice, so neither their accuracy nor
    their cost depends on the scale u of the curve."""

    @pytest.mark.parametrize("e", range(-12, 13, 3))
    def test_e02_is_u_at_every_scale_for_bounded_cost(self, e, gammainc_calls_at_u1):
        # on the Z[2*sqrt(-1)] row e*_{0,2} = e2* = u exactly
        u = Fraction(10) ** e
        val, calls = _ek02_and_gammainc_calls(u)
        with mp.workprec(400):
            assert abs(val.to_mpc() - mp.mpf(u.numerator) / u.denominator) < 1e-20
        assert calls <= 2 * gammainc_calls_at_u1, (calls, gammainc_calls_at_u1)

    @pytest.mark.parametrize("u", [Fraction(1, 1000), Fraction(1000)])
    def test_homogeneity_across_catalog_scales(self, u):
        # the row at scale u has periods c = u^(-1/2) times those at u = 1,
        # so K*_a at matching torsion points differs by c^(a - 2s)
        row = catalog_row("Z[2*sqrt(-1)]")
        one, lat = (compute_periods(row.curve(v), 256) for v in (1, u))
        a, s = 3, mp.mpc(2, 0.5)
        with mp.workprec(256):
            vals = []
            for L in (one, lat):
                w1, w2 = L.pair_mpc()
                vals.append(eisenstein_kronecker_lerch(
                    a, w1 / 3, (w1 + w2) / 3, s, L, 1e-16).to_mpc())
            f = mp.sqrt(mp.mpf(u.denominator) / u.numerator) ** (a - 2 * s)
            assert abs(vals[1] - f * vals[0]) < 1e-16 * (1 + abs(f))

    def test_normalised_lattice_is_an_exact_power_of_two(self):
        for u in (Fraction(1, 10 ** 6), Fraction(1), Fraction(10 ** 6)):
            lat = compute_periods(catalog_row("Z[2*sqrt(-1)]").curve(u), 256)
            k, norm = eklerch._normalised(lat)
            assert 1 <= norm.A() < 4
            assert norm.A() == mp.ldexp(lat.A(), 2 * k)
            assert norm.omega1.re == mp.ldexp(lat.omega1.re, k)
            assert norm.omega2.im == mp.ldexp(lat.omega2.im, k)


class TestKeptDisc:
    """_I_a sums exactly the points with |z0 + gamma| <= R, R its radius."""

    @pytest.mark.parametrize("skew", [0, 3], ids=["catalog-basis", "skewed-basis"])
    @pytest.mark.parametrize("z0c", [(0, 0), (Fraction(1, 3), Fraction(1, 5))],
                             ids=["origin", "torsion"])
    def test_kept_points_are_the_disc(self, zi_lattice, skew, z0c):
        # (w1, w2 + 3 w1) spans the same lattice, but a shell bound read off
        # the shortest vector would miss disc points with large coefficients
        prec = 128
        with mp.workprec(prec):
            w1, w2 = zi_lattice.pair_mpc()
            w2 = w2 + skew * w1
            lat = LatticeData(*(BigComplex(z.real, z.imag, prec)
                                for z in (w1, w2, zi_lattice.area.to_mpc())))
            z0 = _torsion(zi_lattice, z0c)
            a, s, target = 2, mp.mpc(3), mp.mpf(10) ** -20
            origin = z0c == (0, 0)
            with mock.patch.object(mp, "gammainc", wraps=mp.gammainc) as gammainc:
                eklerch._I_a({s: {a: target}}, z0, 0, lat, skip_minus_z0=origin)
            R2 = eklerch._radius_for(a, s, lat.A(), target, mp.pi * lat.A()) ** 2
            K = 60
            inside = sum(1 for m in range(-K, K + 1) for n in range(-K, K + 1)
                         if 0 < abs(z0 + m * w1 + n * w2) ** 2 <= R2)
            # the disc lies well inside the scanned square
            assert all(abs(z0 + m * w1 + n * w2) ** 2 > R2
                       for m in (-K, K) for n in range(-K, K + 1))
            assert all(abs(z0 + m * w1 + n * w2) ** 2 > R2
                       for n in (-K, K) for m in range(-K, K + 1))
        assert gammainc.call_count == inside > 40


class TestE2StarCatalog:
    @pytest.mark.parametrize("label,want", [
        ("Z[2*sqrt(-1)]", Fraction(1)),
        ("Z[sqrt(-3)]", Fraction(1, 2)),
        ("Z[(1+sqrt(-11))/2]", Fraction(2)),
    ])
    def test_k2_matches_figure(self, label, want):
        lat = compute_periods(catalog_row(label).curve(1), 256)
        val = e2star_numeric(lat, 1e-20)
        with mp.workprec(256):
            ref = mp.mpf(want.numerator) / want.denominator
            assert abs(val.to_mpc() - ref) < 1e-15

    def test_rational_reconstruct(self):
        with mp.workprec(200):
            assert rational_reconstruct(mp.mpf(9) / 2, 100) == Fraction(9, 2)
            assert rational_reconstruct(mp.pi, 50) is None


def make_zi_conductor_character():
    """Canonical type-(1,0) character of conductor (2+2i) on Q(i):
    eps(alpha) = the unit making eps * alpha = 1 mod (2+2i)."""
    i = ExactScalar(0, 1, 1)
    one = ExactScalar(1)
    table = {one: one, i: -i, -one: -one, -i: i}
    return HeckeCharacter(d=1, conductor=ExactScalar(2, 2, 1),
                          infinity_type=(1, 0), table=table)


class TestHeckeL:
    def test_character_table_unit_inverse(self):
        char = make_zi_conductor_character()
        i = ExactScalar(0, 1, 1)
        # 3+2i = unit-class? reduce and check eps * alpha = 1 mod f
        for alpha in (ExactScalar(3, 2, 1), ExactScalar(1, 4, 1), ExactScalar(-5, 2, 1)):
            eps = char.eps(alpha)
            q = (eps * alpha - 1) / char.conductor
            assert q.a.denominator == 1 and q.b.denominator == 1

    def test_non_multiplicative_table_rejected(self):
        i = ExactScalar(0, 1, 1)
        one = ExactScalar(1)
        bad = {one: one, i: i, -one: -one, -i: i}
        with pytest.raises(ValueError):
            HeckeCharacter(1, ExactScalar(2, 2, 1), (1, 0), bad)

    @pytest.mark.parametrize("table", [
        {(1, 0): (1, 0)},
        {(1, 0): (1, 0), (0, 1): (0, -1), (-1, 0): (-1, 0), (-3, 2): (0, 1)},
        {(1, 0): (1, 0), (0, 1): (0, -1), (-1, 0): (-1, 0), (0, -1): (0, 1),
         (1, 1): (1, 0)},
    ], ids=["one-of-four-classes", "two-keys-in-one-class", "non-unit-key"])
    def test_table_needs_one_key_per_unit_class(self, table):
        # (Z[i]/(2+2i))^x has the four classes of 1, i, -1, -i
        table = {ExactScalar(a, b, 1): ExactScalar(c, e, 1)
                 for (a, b), (c, e) in table.items()}
        with pytest.raises(ValueError, match="one key per class"):
            HeckeCharacter(1, ExactScalar(2, 2, 1), (1, 0), table)

    def test_trivial_conductor_rejected_for_type_1_0(self):
        one = ExactScalar(1)
        with pytest.raises(ValueError):
            HeckeCharacter(1, one, (1, 0), {one: one})

    def test_empty_truncation_is_zero(self):
        char = make_zi_conductor_character()
        assert abs(direct_hecke_sum(char, 6, 0).to_mpc()) == 0

    def test_assembly_matches_direct_sum(self):
        char = make_zi_conductor_character()
        s = 6
        direct = direct_hecke_sum(char, s, 500, prec_bits=256)
        assembled = hecke_L_partial(char, s, target_error=1e-16, prec_bits=256)
        assert abs(direct.to_mpc() - assembled.to_mpc()) < 1e-10


class TestE2StarEstimate:
    def test_catalog_row_verified(self):
        from ektheta.eklerch import e2star_estimate
        lat = compute_periods(catalog_row("Z[sqrt(-3)]").curve(1), 200)
        val, rec, verified = e2star_estimate(lat)
        assert rec == Fraction(1, 2) and verified

    def test_non_catalog_reported_unverified(self):
        from ektheta.curves import CurveData
        from ektheta.eklerch import e2star_estimate
        from ektheta.scalars import ExactScalar
        lat = compute_periods(CurveData(ExactScalar(5), ExactScalar(1)), 200)
        val, rec, verified = e2star_estimate(lat)
        assert not verified
