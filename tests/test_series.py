"""Truncated series arithmetic."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ektheta.series import (
    ExactRing,
    ScaledIntRing,
    UniSeries,
)
from tests.series_oracle import bi, exp, from_list, is_symmetric

QQ = ExactRing(0)


def U(items, order, start=0):
    return from_list(QQ, [Fraction(x) for x in items], order, start=start)


def B(terms, order):
    return bi(QQ, {k: Fraction(v) for k, v in terms.items()}, order)


class TestUniArithmetic:
    def test_one_plus_t_times_one_minus_t(self):
        out = U([1, 1], 4) * U([1, -1], 4)
        assert out == U([1, 0, -1], 4)

    def test_exp_order_4(self):
        e = exp(U([0, 1], 4))
        assert [e.coeff(k) for k in range(5)] == [
            Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]

    def test_exp_requires_zero_constant(self):
        with pytest.raises(Exception):
            exp(U([1, 1], 3))

    def test_inverse(self):
        f = U([1, 2, 3], 5)
        assert (f * f.inverse()) == U([1], 5)


class TestComposeReversion:
    def test_compose_square(self):
        # (z^2) o (t + t^2) = t^2 + 2 t^3 + O(t^4)
        f = U([0, 0, 1], 3)
        inner = U([0, 1, 1], 3)
        assert f.compose(inner) == U([0, 0, 1, 2], 3)

    def test_compose_identity(self):
        f = U([3, 1, 4, 1, 5], 4)
        assert f.compose(U([0, 1], 4)) == f

    def test_polar_compose_against_long_division_oracle(self):
        # oracle: invert the unit series lam(t)/t by brute-force long division
        lam = U([0, 1, 0, 0, 0, Fraction(-2, 5)], 9)
        unit = [Fraction(1), 0, 0, 0, Fraction(-2, 5)]   # lam/t
        inv = [Fraction(1)]
        for n in range(1, 8):
            s = sum((unit[j] if j < len(unit) else Fraction(0)) * inv[n - j]
                    for j in range(1, n + 1))
            inv.append(-s)
        oracle = {k - 1: c for k, c in enumerate(inv) if c}
        f = UniSeries(QQ, {-1: Fraction(1)}, 6)
        got = f.compose(lam)
        for k, c in oracle.items():
            if k <= got.order:
                assert got.coeff(k) == c
        assert got.coeff(3) == Fraction(2, 5)


class TestRingLaws:
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_uni_ring_laws(self, a, b, c):
        fa, fb, fc = (U(x, 6) for x in (a, b, c))
        assert (fa + fb) * fc == fa * fc + fb * fc
        assert fa * (fb * fc) == (fa * fb) * fc

    def test_compose_respects_multiplication(self):
        rng = random.Random(7)
        for _ in range(10):
            F = U([rng.randint(-4, 4) for _ in range(6)], 5)
            G = U([rng.randint(-4, 4) for _ in range(6)], 5)
            inner = U([0, 1] + [rng.randint(-3, 3) for _ in range(4)], 5)
            assert (F * G).compose(inner) == F.compose(inner) * G.compose(inner)


class TestBiSeries:
    def test_mul(self):
        # (z + w)(1 + z w) = z + w + z^2 w + z w^2; the product of series
        # known to total degree 6 (valuation 1) and 4 (valuation 0) is
        # known to degree min(6 + 0, 4 + 1) = 5
        zpw = B({(1, 0): 1, (0, 1): 1}, 6)
        one_zw = B({(0, 0): 1, (1, 1): 1}, 4)
        prod = zpw * one_zw
        assert prod.order == 5
        assert dict(prod.items()) == {(1, 0): 1, (0, 1): 1, (2, 1): 1, (1, 2): 1}
        cube = zpw * zpw * zpw
        assert cube.order == 8
        assert dict(cube.items()) == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
        # a product term past the known degree is dropped
        prod = B({(0, 0): 1, (3, 0): 1}, 3) * B({(0, 0): 1, (0, 3): 1}, 3)
        assert prod.order == 3
        assert dict(prod.items()) == {(0, 0): 1, (3, 0): 1, (0, 3): 1}
        assert zpw * 3 == B({(1, 0): 3, (0, 1): 3}, 6)

    def test_compose_bivariate(self):
        # (z w) o (z = t + t^2, w = t) -> s t + s^2 t
        f = B({(1, 1): 1}, 4)
        inner_s = U([0, 1, 1], 4)
        inner_t = U([0, 1], 4)
        out = f.compose(inner_s, inner_t)
        assert out.coeff(1, 1) == 1 and out.coeff(2, 1) == 1

    def test_symmetry_helpers(self):
        f = B({(2, 1): 3, (1, 2): 3, (0, 0): 1}, 4)
        assert is_symmetric(f)
        assert not is_symmetric(B({(2, 1): 3}, 4))


class TestScaledIntRing:
    @pytest.mark.parametrize("p", [5, 13])
    def test_carry_rule_matches_exact_products(self, p):
        # coefficients of varpi-degree k stored as p^floor(k/(p-1)) c_k: the
        # product and the inverse formed with the carry rule are the stored
        # exact ones, to every digit of the width
        n, ring = 3 * p, ScaledIntRing(p, 6)
        rng = random.Random(p)
        a = [1] + [rng.randrange(-50, 50) for _ in range(n)]
        b = [rng.randrange(-50, 50) for _ in range(n + 1)]

        def stored(series):
            return [p ** (k // (p - 1)) * int(series.coeff(k)) % ring.modulus
                    for k in range(n + 1)]

        def on(ring, values):
            return UniSeries(ring, dict(enumerate(values)), n)

        def entries(series):
            return [series.coeff(k) for k in range(n + 1)]

        fa, fb = U(a, n), U(b, n)
        assert entries(on(ring, stored(fa)) * on(ring, stored(fb))) == stored(fa * fb)
        assert entries(on(ring, stored(fa)).inverse()) == stored(fa.inverse())
        # without the carry the product is another series
        plain = ScaledIntRing(p, 6)
        plain.carry = 1
        assert entries(on(plain, stored(fa)) * on(plain, stored(fb))) != stored(fa * fb)


class TestJson:
    def test_round_trip_shapes(self):
        f = U([1, 2, 3], 3)
        obj = f.to_json()
        assert obj["order"] == 3 and obj["terms"][0] == {"k": 0, "c": "1/1"}
        g = UniSeries(QQ, {-1: Fraction(1), 2: Fraction(5)}, 4)
        assert g.to_json()["terms"][0]["k"] == -1
        b = B({(1, 2): Fraction(1, 3)}, 5)
        assert b.to_json()["terms"] == [{"m": 1, "n": 2, "c": "1/3"}]
