"""Exact / p-adic scalar arithmetic."""
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ektheta.padic import _root_power_sums, is_split, split_prime_generator
from ektheta.scalars import (
    CLASS_NUMBER_ONE,
    ExactScalar,
    FieldMismatchError,
    PadicScalar,
    RamifiedPrimeError,
    _associate_keys,
    charpoly,
    embed_padic,
    ideal_generators,
    inverse,
    mulmod,
    ok_elements,
    power_sums,
    residue_classes,
    trace,
)
from tests.series_oracle import to_int


def Q(x):
    return ExactScalar(Fraction(x))


def gauss(a, b):
    return ExactScalar(Fraction(a), Fraction(b), 1)


class TestExactScalar:
    def test_rational_add(self):
        assert Q(Fraction(1, 2)) + Q(Fraction(1, 3)) == Q(Fraction(5, 6))

    def test_sqrt_minus_one_squares(self):
        i = gauss(0, 1)
        assert i * i == Q(-1)

    def test_norm_identity(self):
        assert gauss(2, 3) * gauss(2, -3) == Q(13)

    def test_division(self):
        x = gauss(2, 3)
        assert x / x == Q(1)
        assert (Q(1) / gauss(0, 1)) == gauss(0, -1)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            gauss(1, 1) * ExactScalar(0, 1, 3)

    def test_rational_mixes_with_any_tag(self):
        assert Q(2) * ExactScalar(0, 1, 7) == ExactScalar(0, 2, 7)

    def test_canonical_b_zero_drops_tag(self):
        x = ExactScalar(Fraction(3), Fraction(0), 0)
        y = gauss(1, 1) * gauss(1, -1) - Q(-1)  # = 2 - (-1) = 3
        assert x == y and hash(x) == hash(y)

    def test_nonsquarefree_tag_rejected(self):
        with pytest.raises(ValueError):
            ExactScalar(0, 1, 4)

    def test_json_round_trip(self):
        # a rational is one "num/den" string; otherwise a, b and the tag d
        obj = json.loads(json.dumps(Q(Fraction(-7, 3)).to_json()))
        assert obj == "-7/3"
        x = gauss(Fraction(1, 2), Fraction(-5, 4))
        obj = json.loads(json.dumps(x.to_json()))
        assert obj == {"a": "1/2", "b": "-5/4", "d": 1}
        assert ExactScalar(Fraction(obj["a"]), Fraction(obj["b"]), obj["d"]) == x


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


@st.composite
def quad_elements(draw, d=7):
    return ExactScalar(draw(rationals), draw(rationals), d)


class TestFieldAxioms:
    @given(quad_elements(), quad_elements(), quad_elements())
    @settings(max_examples=60, deadline=None)
    def test_associativity_distributivity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(quad_elements())
    @settings(max_examples=60, deadline=None)
    def test_inverses(self, x):
        if x:
            assert x * (ExactScalar(1) / x) == ExactScalar(1)
        assert x + (-x) == ExactScalar(0)


def _brute_ok(d, norm_bound):
    """O_K elements of norm <= norm_bound from a wide box of m + n omega,
    sorted by (norm, a, b), and an integrality test written from scratch."""
    half = d % 4 == 3
    om = ExactScalar(Fraction(1, 2), Fraction(1, 2), d) if half else ExactScalar(0, 1, d)
    wide = 2 * int(norm_bound ** 0.5) + 6
    elems = [ExactScalar(m) + ExactScalar(n) * om
             for m in range(-wide, wide + 1) for n in range(-wide, wide + 1)]
    elems = sorted((x for x in elems if x.norm() <= norm_bound),
                   key=lambda x: (x.norm(), x.a, x.b))

    def integral(x):
        n = x.b / om.b
        return n.denominator == 1 and (x.a - n * om.a).denominator == 1
    return elems, integral


class TestRingOfIntegers:
    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE)
    def test_helpers_match_brute_force(self, d):
        bound = 60
        elems, integral = _brute_ok(d, bound)
        assert ok_elements(bound, d) == elems
        by_norm = {}
        for x in elems:
            by_norm.setdefault(x.norm(), []).append(x)

        def associates(x):
            return [y for y in by_norm[x.norm()] if integral(y / x)]

        gens = ideal_generators(bound, d)
        assert gens == sorted(gens, key=lambda x: (x.norm(), x.a, x.b))
        # one generator per ideal, and it is the associate with largest (a, b)
        for g in gens:
            assert max((y.a, y.b) for y in associates(g)) == (g.a, g.b)
            den = 2 if d % 4 == 3 else 1
            keys = _associate_keys(int(den * g.a), int(den * g.b), d)
            assert sorted((Fraction(u, den), Fraction(v, den)) for u, v in keys) \
                == sorted((y.a, y.b) for y in associates(g))
        for x in elems[1:]:
            assert sum(integral(x / g) for g in gens if g.norm() == x.norm()) == 1
        for g in gens[:12]:
            reps = residue_classes(g, d)
            assert len(reps) == g.norm()
            assert all(not integral((x - y) / g)
                       for i, x in enumerate(reps) for y in reps[:i])
        for p in range(3, 60):
            if any(p % q == 0 for q in range(2, p)) or not is_split(p, d):
                continue
            pi = split_prime_generator(p, d)
            assert pi.norm() == p
            root = min(r for r in range(p) if (r * r + d) % p == 0)
            assert (pi.a + pi.b * root).numerator % p == 0
            assert max((y.a, y.b) for y in associates(pi)) == (pi.a, pi.b)


class TestPadicScalar:
    def test_integer_arithmetic_matches_mod_pN(self):
        N = 6
        for a, b in [(7, 9), (13 * 5, 2), (-4, 13**2 * 3)]:
            x, y = PadicScalar.from_int(a, 13, N), PadicScalar.from_int(b, 13, N)
            assert (x * y).eq_mod(PadicScalar.from_int(a * b, 13, N), N)
            assert to_int(x * y) == a * b % 13**N

    def test_valuation_examples(self):
        assert PadicScalar.from_int(13**2, 13, 5).val == 2
        zero = PadicScalar.from_int(13**5, 13, 5)
        assert zero.val is None and zero.abs_prec == 5
        assert embed_padic(Q(Fraction(1, 13)), 13, 5).val == -1

    def test_precision_tracking_product(self):
        x = PadicScalar.from_int(2, 5, 4)
        y = PadicScalar.from_int(3, 5, 7)
        assert (x * y).abs_prec == 4

    def test_zero_product_precision(self):
        zero, one = PadicScalar.from_int(0, 13, 5), PadicScalar.from_int(1, 13, 10)
        assert (zero * one).abs_prec == 5
        assert (zero * PadicScalar.from_int(0, 13, 3)).abs_prec == 8

    def test_eq_mod_across_negative_valuations(self):
        # 1/13 + 13^3 and 1/13 agree mod 13^3 but not mod 13^4; 1/13 and
        # 2/13 differ at 13^-1
        x = embed_padic(Q(Fraction(1, 13) + 13**3), 13, 5)
        y = embed_padic(Q(Fraction(1, 13)), 13, 5)
        assert x.eq_mod(y, 3) and not x.eq_mod(y, 4)
        assert not y.eq_mod(embed_padic(Q(Fraction(2, 13)), 13, 5), 1)
        assert not y.eq_mod(y, 6)       # beyond the known digits

    def test_json_shape(self):
        obj = embed_padic(Q(Fraction(5, 13)), 13, 4).to_json()
        assert obj["p"] == 13 and obj["val"] == -1 and obj["prec"] == 4


def _mulmod_termwise(u, v, W, pk) -> tuple:
    """u * v mod (W, pk), reducing after every term: the oracle of mulmod."""
    d = len(W) - 1
    out = [0] * (2 * d - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] = (out[i + j] + ui * vj) % pk
    for i in range(2 * d - 2, d - 1, -1):
        for j in range(d + 1):
            out[i - d + j] = (out[i - d + j] - out[i] * W[j]) % pk
    return tuple(out[:d])


def _matrix_trace(u, W, pk) -> int:
    """Trace of the matrix of multiplication by u on the basis 1, x, ..."""
    d = len(W) - 1
    basis = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return sum(_mulmod_termwise(u, basis[i], W, pk)[i] for i in range(d)) % pk


class TestPolyModHelpers:
    @given(st.lists(st.integers(0, 13 ** 4 - 1), min_size=6, max_size=6),
           st.lists(st.integers(0, 13 ** 4 - 1), min_size=6, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_trace_is_multiplication_matrix_trace(self, u, w):
        pk = 13 ** 4
        W = tuple(w) + (1,)
        assert trace(u, _root_power_sums(W, pk), pk) == _matrix_trace(u, W, pk)

    @pytest.mark.parametrize("seed", range(3))
    def test_power_sums_are_traces_of_powers(self, seed):
        # K = 1, rows T_0 .. T_(3 deg): Newton's identities up to deg, then
        # Cayley-Hamilton, against the traces of x^k
        rng = random.Random(seed)
        pk, d = 11 ** 5, 7
        W = tuple(rng.randrange(pk) for _ in range(d)) + (1,)
        got = power_sums([[c] for c in W[::-1]], 3 * d + 1, pk)
        xk = (1,) + (0,) * (d - 1)
        for k, row in enumerate(got):
            assert row == [_matrix_trace(xk, W, pk)], k
            xk = _mulmod_termwise(xk, (0, 1) + (0,) * (d - 2), W, pk)
        assert power_sums(charpoly(got[:d + 1], pk), 3 * d + 1, pk) == got

    @pytest.mark.parametrize("d", [2, 6, 12, 40])
    def test_mulmod_matches_termwise_reduction(self, d):
        rng = random.Random(d)
        pk = 13 ** 9
        W = tuple(rng.randrange(pk) for _ in range(d)) + (1,)
        x = (0, 1) + (0,) * (d - 2)
        for _ in range(5):
            u, v = (tuple(rng.randrange(pk) for _ in range(d)) for _ in range(2))
            assert mulmod(u, v, W, pk) == _mulmod_termwise(u, v, W, pk)
            assert mulmod(x, v, W, pk) == _mulmod_termwise(x, v, W, pk)

    def test_newton_inverse_rejects_non_unit(self):
        # Z/5^6[x]/(x^2 - 5): x has constant term 0, not a unit mod (5, x)
        pk = 5 ** 6
        with pytest.raises(ZeroDivisionError):
            inverse((0, 1), (pk - 5, 0, 1), 5, pk)

    def test_newton_inverse_needs_w_nilpotent_mod_p(self):
        # Z/5^6[x]/(x^2 - 2) is unramified: 1 + x is a unit (norm -1), but
        # x is not nilpotent mod 5, so Newton from the residue inverse 1 of
        # its constant term cannot converge
        pk = 5 ** 6
        with pytest.raises(ArithmeticError, match="did not converge"):
            inverse((1, 1), (pk - 2, 0, 1), 5, pk)


def extended_euclid_inverse(a: int, m: int) -> int:
    """Independent oracle for modular inverses."""
    g, x, _ = _xgcd(a % m, m)
    assert g == 1
    return x % m


def _xgcd(a, b):
    if a == 0:
        return b, 0, 1
    g, x, y = _xgcd(b % a, a)
    return g, y - (b // a) * x, x


class TestEmbedPadic:
    def test_embed_one_third_matches_euclid_oracle(self):
        # oracle: inverse of 3 mod 13^5 by extended Euclid
        want = extended_euclid_inverse(3, 13**5)
        got = embed_padic(Q(Fraction(1, 3)), 13, 5)
        assert to_int(got) == want
        assert to_int(got) % 13 == 9

    def test_embed_sqrt_minus_one_is_declared_root(self):
        # oracle: brute-force roots of r^2 = -1 mod 13 are {5, 8}; smallest is 5
        roots = [r for r in range(13) if (r * r + 1) % 13 == 0]
        assert roots == [5, 8]
        got = embed_padic(ExactScalar(0, 1, 1), 13, 1)
        assert to_int(got) == 5

    def test_embed_zero(self):
        z = embed_padic(Q(0), 7, 4)
        assert z.val is None and z.abs_prec == 4

    def test_embed_pole(self):
        x = embed_padic(Q(Fraction(1, 13)), 13, 5)
        assert x.val == -1

    def test_deep_pole_keeps_every_digit(self):
        # b = 13^-9: p^9 x = 13^-9 * 13^9 * sqrt(-1) needs the root to
        # 5 + 9 digits.  Oracle: the root lifted one base-13 digit at a time
        # by search, not by Newton's iteration
        r = 5
        for k in range(1, 14):
            r += next(t for t in range(13)
                      if ((r + t * 13**k) ** 2 + 1) % 13 ** (k + 1) == 0) * 13**k
        got = embed_padic(ExactScalar(0, Fraction(1, 13**9), 1), 13, 5)
        assert got.abs_prec == 5 and got.val == -9
        assert got.unit == r % 13**14

    def test_ramified_rejected(self):
        with pytest.raises(RamifiedPrimeError):
            embed_padic(ExactScalar(0, 1, 7), 7, 3)

    def test_inert_needs_even_f(self):
        # -1 is not a square mod 7: its root needs an even residue degree,
        # and the embedding lands in Z_p
        with pytest.raises(ValueError, match="not a square mod 7"):
            embed_padic(ExactScalar(0, 1, 1), 7, 3)

    @given(st.integers(-200, 200), st.integers(-200, 200),
           st.integers(-200, 200), st.integers(-200, 200))
    @settings(max_examples=40, deadline=None)
    def test_ring_homomorphism(self, a1, b1, a2, b2):
        x = ExactScalar(a1, b1, 1)
        y = ExactScalar(a2, b2, 1)
        N = 5
        # Gaussian integers embed into Z_p: compare as ints mod 13^N
        pk = 13 ** N
        ex, ey = to_int(embed_padic(x, 13, N)), to_int(embed_padic(y, 13, N))
        assert to_int(embed_padic(x * y, 13, N)) == ex * ey % pk
        assert to_int(embed_padic(x + y, 13, N)) == (ex + ey) % pk


_HEATMAP_AT_ONE = """
from ektheta.curves import catalog_row
from ektheta.kronecker import compose_formal, kronecker_exact, valuation_heatmap
curve = catalog_row("Z[sqrt(-1)]").curve(4)
valuation_heatmap(compose_formal(kronecker_exact(curve, 6), curve, 6), 1)
"""


class TestValuationNeedsAPrime:
    @pytest.mark.parametrize("call,p", [
        ("from ektheta.scalars import _vp_fraction; _vp_fraction(3, 1)", 1),
        ("from ektheta.scalars import _vp_fraction; _vp_fraction(3, 0)", 0),
        ("from ektheta.scalars import _vp_fraction; _vp_fraction(3, -1)", -1),
        ("from ektheta.padic import precision_buffer; precision_buffer(1, 3, 1)", 1),
        (_HEATMAP_AT_ONE, 1),
    ], ids=["vp-one", "vp-zero", "vp-minus-one", "precision-buffer", "heatmap"])
    def test_p_below_two_is_refused(self, call, p):
        # each in a fresh interpreter with a timeout, since v_p once looped
        # forever at p = 1 and p = -1 (and divided by zero at p = 0)
        cp = subprocess.run([sys.executable, "-c", call], capture_output=True,
                            text=True, timeout=10)
        assert cp.returncode == 1
        assert cp.stderr.rstrip().endswith(f"ValueError: v_p needs p >= 2, not p = {p}")
