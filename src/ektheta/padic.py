"""Ordinary-prime p-adic engine: measures, unit restriction, interpolation
and congruence verification at the origin.

Coordinates.  The measure is carried in the formal coordinates (s, t) of
the curve's formal group, as the starred composed expansion mod p^N.
Multiplicative (S, T) coordinates would need a p-adic period Omega with
Omega^(Frob^f - 1) = u^f, u the unit root of x^2 - a_p x + p.  Frob^f fixes
every element of the unramified extension W_f, so Omega in W_f forces
u^f = 1; but |u| = sqrt(p) under every complex embedding, so u is never a
root of unity and no finite level W_f carries Omega.  ``period_note`` says
which obstruction a search over f = 1..4 meets first: the residue equation
c^(p-1) = a_p mod p has a root in F_{p^f} iff a_p^f = 1 mod p, so it is
solvable below f = 5 only when a_p mod p has multiplicative order <= 4.
Every interpolation statement is therefore phrased on the period-normalized
side (d/dz, d/dw moments, which differ from the multiplicative
log-derivative moments by exactly Omega^(a+b-1)).

Unit restriction, formal side.  The restriction of the measure to
Z_p^x x Z_p^x is

    (1/p^2) L_s L_t C,    L_s = (p - 1) - Tr_s,  L_t = (p - 1) - Tr_t,

on the composed series C(s,t), where Tr_s C = sum over the p-1 nonzero
p-division points x of the formal group of C(s (+) x, t).  The two traces
act on separate variables, so this is the four-fold combination
(1-1/p)^2 C - (1/p)(1-1/p)(Tr_s C + Tr_t C) + (1/p^2) Tr_s Tr_t C, applied
as one operator per axis.  The division points live in the algebra
Z_p[T]/W1(T), W1 the even degree-(p-1) Weierstrass polynomial of the formal
p-torsion.  It is built in integers: the p-division polynomial, formed on
ints mod p^k, reversed in u = 1/x has a distinguished Hensel factor W_u,
and W1(T) is the characteristic polynomial of t^2 = 4x^2/y^2 on the
integral algebra Z_p[u]/(W_u), evaluated at T^2.  All of this runs on the
Z/p^k[x]/(W) helpers of ``scalars``.  s (+) x is assembled from the
chord law in the formal coordinates z = t, w = -2/y (Silverman, AEC IV.1):
the slope and intercept of the line through the two points are power
series with coefficients in Z[g2/4, g3/4] evaluated at x, so every quantity
is integral, and the only division is by a unit series.  The translate is
therefore exact in Z/p^M[x]/(W1) and needs no guard digits beyond the
output's.  L_s needs the traces T_i(s) of F^i, F = s (+) x, for i up to the
composed order.  Only F^1..F^(p-1) are formed: Newton's identities
(``scalars.charpoly``) turn their traces into F's characteristic
polynomial, and ``scalars.power_sums`` gives every T_i back from it
(Cayley-Hamilton past p-1).  The pole class (s^-1-terms and all their trace
shadows) cancels identically in L_s L_t, so only the regular part enters.

Composed expansion.  Theta-hat(s, t) = Theta(lambda(s), lambda(t)) is
p-integral at ordinary p, though lambda is not.  ``_exact_composed`` runs
the exact route (kronecker_exact + compose_formal) in varpi-scaled variables
(varpi^(p-1) = p), where every input is integral, on ints mod p^W
(``series.ScaledIntRing``: its ``coerce`` stores each coefficient the
generators form, its carry rule multiplies them), and reads Theta-hat mod
p^digits off it; the same route on Fractions is its test oracle.  The
Kummer block reads its Eisenstein-Kronecker factors off kronecker_exact on
the same ring.

Interpolation.  The Euler factors use pi, the generator of the prime above
p in the curve's CM order Z + f O_K (``cm_prime_generator``).  Each
trace-route moment is compared with the embedded exact one to every digit
both claim: modulo p^k, k the smaller of their absolute precisions.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from typing import Dict, List, NamedTuple, Optional, Tuple

from .curves import CurveData, catalog_row_of, formal_log
from .kronecker import compose_formal, kronecker_exact
from .scalars import ExactScalar, PadicScalar, charpoly, divrem_monic, \
    embed_padic, ideal_generators, inverse, kronecker_mul, mulmod, ok_omega, \
    ok_units, power_sums, trace, _sqrt_minus_d_mod, _vp_fraction
from .series import BiSeries, ExactRing, IntegralityError, IntModRing, \
    KroneckerExpansion, ScaledIntRing, axpy, _int_mod

__all__ = [
    "NoPeriodError",
    "IntegralityError",
    "MeasureSeries",
    "period_note",
    "measure_from_theta",
    "restrict_to_units",
    "moment_table",
    "verify_interpolation_origin",
    "InterpolationReport",
    "kummer_congruences",
    "KummerReport",
    "split_prime_generator",
    "cm_prime_generator",
    "precision_buffer",
]


class NoPeriodError(ArithmeticError):
    """p is unusable here: not split in K, or no degree-one prime element."""


def precision_buffer(a: int, b: int, p: int) -> int:
    """v_p((b-1)!) + a + 3: the digits that factorials and Euler denominators
    were once taken to consume.  verify_interpolation_origin compares every
    claimed digit instead; acceptance test 9 keeps this window."""
    return _vp_fraction(math.factorial(b - 1), p) + (a + 1) + 2


def _series_prec(series: BiSeries, p: int) -> int:
    """k for a series over IntModRing(p^k): its absolute precision."""
    return round(math.log(series.ring.modulus, p))


# ---------------------------------------------------------------------------
# split primes
# ---------------------------------------------------------------------------

def is_split(p: int, d: int) -> bool:
    """p splits in Q(sqrt(-d)) (odd p, p not dividing d): -d a square mod p."""
    if p == 2 or d % p == 0:
        return False
    return pow(-d % p, (p - 1) // 2, p) == 1


def _require_split(curve: CurveData, p: int) -> None:
    """NoPeriodError unless p splits in the CM field of the curve, read from
    its j-invariant (curves.catalog_row_of)."""
    d = catalog_row_of(curve).d
    if not is_split(p, d):
        raise NoPeriodError(f"p = {p} is not split in Q(sqrt(-{d}))")


def split_prime_generator(p: int, d: int) -> ExactScalar:
    """The canonical generator of the prime above p with i_p(pi) = 0 mod p,
    where i_p sends sqrt(-d) to its deterministic smallest root.  Class
    number 1 only."""
    if not is_split(p, d):
        raise NoPeriodError(f"p = {p} is not split in Q(sqrt(-{d}))")
    root = _sqrt_minus_d_mod(p, d, 1)
    for x in ideal_generators(p, d):
        if x.norm() == p and (x.a + x.b * root).numerator % p == 0:
            return x
    raise NoPeriodError(f"p = {p} has no degree-one prime element in "
                        f"Q(sqrt(-{d})) (class number > 1 or inert)")


def cm_prime_generator(curve: CurveData, p: int) -> ExactScalar:
    """pi for the curve: of the associates of split_prime_generator(p, d)
    that lie in the CM order Z + f O_K, the one with the lexicographically
    largest (a, b).  d and the conductor f come from the curve's
    j-invariant (curves.catalog_row_of).  On a non-maximal order the O_K
    generator can lie outside End(E), and the interpolation identity fails
    with it."""
    row = catalog_row_of(curve)
    pi = split_prime_generator(p, row.d)
    # x = c1 + c2 omega lies in Z + f O_K iff f | c2, and c2 = b / omega.b
    c2_per_b = 1 / ok_omega(row.d).b
    in_order = [y for y in (pi * u for u in ok_units(row.d))
                if (y.b * c2_per_b) % row.conductor == 0]
    return max(in_order, key=lambda y: (y.a, y.b))


# ---------------------------------------------------------------------------
# the p-adic period, in closed form
# ---------------------------------------------------------------------------

def hasse_unit_mod_p(curve: CurveData, p: int) -> int:
    """a_p mod p: p times the t^p coefficient of the formal logarithm."""
    lam = formal_log(curve, p + 1, ExactRing(0)).series
    return _int_mod(Fraction(p) * lam.coeff(p), p, p)


def period_note(curve: CurveData, p: int) -> str:
    """Why no finite unramified level W_f carries the multiplicative period.

    With t = a_p mod p, the residue equation c^(p-1) = t has a root in
    F_{p^f} iff t^f = 1, so the least such f is the multiplicative order of
    t.  Above 4, that is the obstruction a search over f <= 4 meets.  At or
    below 4, the residue equation is solvable, but no lift is: the period
    needs the unit root of x^2 - a_p x + p to be a root of unity."""
    disc = curve.discriminant()
    if not disc.is_rational() or _vp_fraction(disc.a, p):
        return f"curve not good at {p}"
    t = hasse_unit_mod_p(curve, p)
    if t == 0:
        return f"a_p = 0 mod {p}: p supersingular for this group"
    order = next(k for k in range(1, p) if pow(t, k, p) == 1)
    if order > 4:
        return (f"no f <= 4 admits a solution: residue equation c^{p - 1} = "
                f"{t} has no root in F_p^f for f <= 4 "
                f"(the target's multiplicative order forces a larger residue degree)")
    return (f"residue equation c^{p - 1} = {t} has a root in F_p^f for f = "
            f"{order}, but the period does not lift: the unit root of "
            f"x^2 - a_p x + p has absolute value sqrt({p}), so it is not a "
            f"root of unity and no finite unramified level carries the period")


# ---------------------------------------------------------------------------
# division polynomial and the formal p-torsion algebra
# ---------------------------------------------------------------------------

def division_polynomial_p(curve: CurveData, p: int, k: int) -> list:
    """The p-division polynomial in x (roots: x-coordinates of E[p] minus O),
    normalized with leading coefficient p, degree (p^2 - 1)/2, on ints mod
    p^k (k >= 2, so that the leading coefficient is not 0 mod p^k).

    f_n for the short model y'^2 = x^3 + A x + B (A = -g2/4, B = -g3/4):
    psi_n = f_n(x) for odd n, psi_n = 2 y' f_n(x) for even n, and

        f_{2m}   = f_m (f_{m+2} f_{m-1}^2 - f_{m-2} f_{m+1}^2)
        f_{2m+1} = 16 F^2 f_{m+2} f_m^3 - f_{m-1} f_{m+1}^3     (m even)
                 = f_{m+2} f_m^3 - 16 F^2 f_{m-1} f_{m+1}^3     (m odd)

    with F = x^3 + A x + B.  The recursion lies in Z[A, B], so it runs on
    ints mod p^k once A and B are; A or B not p-integral raises
    IntegralityError.  Only the f_n that f_p calls for are formed.  The two
    terms of each difference have the same degree, deg f_n = (n^2 - 1)/2 or
    (n^2 - 4)/2, and f_n has leading coefficient n or n/2."""
    if not (curve.g2.is_rational() and curve.g3.is_rational()):
        raise ValueError("division polynomials implemented for rational models")
    pk = p ** k
    A, B = (_int_mod(-g.a / 4, p, pk) for g in (curve.g2, curve.g3))

    def mul(*polys) -> list:
        out = polys[0]
        for q in polys[1:]:
            out = [c % pk for c in kronecker_mul(out, q, pk)]
        return out

    def sub(a: list, b: list) -> list:
        return [(x - y) % pk for x, y in zip(a, b, strict=True)]

    F = [B, A, 0, 1]
    F2_16 = [16 * c % pk for c in mul(F, F)]
    f: Dict[int, list] = {
        1: [1],
        2: [1],
        3: [-A * A % pk, 12 * B % pk, 6 * A % pk, 0, 3],
        4: [c % pk for c in (2 * (-8 * B * B - A ** 3), 2 * (-4 * A * B),
                             2 * (-5 * A * A), 2 * (20 * B), 2 * (5 * A), 0, 2)],
    }

    def get(n: int) -> list:
        if n not in f:
            m = n // 2
            if n % 2:
                t1 = mul(get(m + 2), get(m), get(m), get(m))
                t2 = mul(get(m - 1), get(m + 1), get(m + 1), get(m + 1))
                f[n] = sub(mul(t1, F2_16), t2) if m % 2 == 0 else sub(t1, mul(t2, F2_16))
            else:
                f[n] = mul(get(m), sub(mul(get(m + 2), get(m - 1), get(m - 1)),
                                       mul(get(m - 2), get(m + 1), get(m + 1))))
        return f[n]

    out = get(p)
    if len(out) - 1 != (p * p - 1) // 2 or out[-1] != p:
        raise AssertionError("division polynomial sanity check failed")
    return out


# ---------------------------------------------------------------------------
# polynomial Hensel factorization over Z/p^M
# ---------------------------------------------------------------------------

def hensel_factor_distinguished(poly: list, deg_w: int, p: int, M: int):
    """Factor poly = W * E over Z/p^M with W monic of degree deg_w,
    W = u^deg_w mod p, and the cofactor E coprime to W (E(0) a p-unit).

    Newton iteration on the factor: with q, r the quotient/remainder of poly
    by W, the update is W += (q^-1 r mod W); quadratic convergence since
    gcd(W, E) = 1 mod p.
    """
    pk = p ** M
    poly = [c % pk for c in poly]
    if any(c % p for c in poly[:deg_w]) or poly[deg_w] % p == 0:
        raise ArithmeticError("polynomial is not distinguished of the stated degree")
    W = [0] * deg_w + [1]
    for _ in range(2 * M.bit_length() + 8):
        q, r = divrem_monic(poly, W, pk)
        if not any(r):
            return W, q
        qbar = divrem_monic(q, W, pk)[1]
        step = mulmod(inverse(qbar, W, p, pk), r, W, pk)
        W = [(W[i] + (step[i] if i < deg_w else 0)) % pk for i in range(deg_w + 1)]
    raise ArithmeticError("Hensel factor iteration did not converge")


# ---------------------------------------------------------------------------
# formal p-torsion polynomial W1 (even, degree p-1)
# ---------------------------------------------------------------------------

class TorsionAlgebra:
    """Z/p^M [T]/W1(T) for the nonzero formal p-torsion; plain-int vectors."""

    def __init__(self, p: int, M: int, W1: tuple, curve: CurveData):
        self.p, self.M, self.curve = p, M, curve
        self.W1 = W1       # ints, monic, degree p-1, Eisenstein

    @property
    def deg(self) -> int:
        return len(self.W1) - 1

    @property
    def pk(self) -> int:
        return self.p ** self.M

    def mul(self, u: tuple, v: tuple) -> tuple:
        return mulmod(u, v, self.W1, self.pk)

    def const(self, c: int) -> tuple:
        return (c % self.pk,) + (0,) * (self.deg - 1)

    def one(self) -> tuple:
        return self.const(1)

    def x(self) -> tuple:
        return (0, 1) + (0,) * (self.deg - 2)

    def scal(self, u: tuple, c: int) -> tuple:
        return tuple(x * c % self.pk for x in u)

    def add(self, u: tuple, v: tuple) -> tuple:
        return tuple((x + y) % self.pk for x, y in zip(u, v))

    @cached_property
    def root_power_sums(self) -> list:
        """Power sums of the roots of W1, shared by every trace."""
        return _root_power_sums(self.W1, self.pk)

    def trace(self, u: tuple) -> int:
        return trace(u, self.root_power_sums, self.pk)

    def inverse_unit(self, u: tuple) -> tuple:
        """Inverse of an element that is a unit (constant coordinate a p-unit;
        mod p the algebra is F_p[x]/x^deg)."""
        return inverse(u, self.W1, self.p, self.pk)

    def eval_series_at_x(self, coeffs: Dict[int, Fraction], scale: int) -> tuple:
        """sum p^scale * coeffs[k] * x^k by Horner's rule, scale >= 0; each
        scaled coefficient (int or Fraction) must be p-integral.
        Convergence: x^k gains floor(k/deg) powers of p."""
        acc = self.const(0)
        for k in range(max(coeffs, default=0), -1, -1):
            acc = self.mul(acc, self.x())
            c = coeffs.get(k)
            if c:
                acc = self.add(acc, self.const(
                    _int_mod(c * self.p ** scale, self.p, self.pk)))
        return acc


def _root_power_sums(W, pk) -> list:
    """Power sums s_0 .. s_(deg-1) of the roots of monic W, mod pk."""
    return [row[0] for row in power_sums([[c] for c in W[::-1]], len(W) - 1, pk)]


def formal_torsion_algebra(curve: CurveData, p: int, M: int) -> TorsionAlgebra:
    """Build Z/p^M[T]/W1(T), W1 the even monic degree-(p-1) polynomial whose
    roots are the t-coordinates of the nonzero formal p-torsion points.

    Pipeline, in integers mod p^(M + 8), from the p-division polynomial
    formed on the same ints (division_polynomial_p):
    - the reversed p-division polynomial u^deg psi_p(1/u), u = 1/x, has the
      distinguished Hensel factor W_u of degree d = (p-1)/2, whose roots are
      the values of u at the pairs +-P of nonzero formal p-torsion points;
    - in the integral algebra A = Z_p[u]/(W_u) the element
      tau = t^2 = 4x^2/y^2 = 4u (4 - g2 u^2 - g3 u^3)^-1 is integral, since
      the inverted factor is a unit;
    - W1(T) = charpoly_A(tau)(T^2), by Newton's identities (charpoly) on
      the traces of tau^1..tau^d; the divisions by k <= d < p are by
      p-units.
    """
    guard = 8
    pk = p ** (M + guard)
    psi = division_polynomial_p(curve, p, M + guard)
    d = (p - 1) // 2
    Wu, _E = hensel_factor_distinguished(psi[::-1], d, p, M + guard)
    g2, g3 = (_int_mod(g.a, p, pk) for g in (curve.g2, curve.g3))
    den = divrem_monic([4, 0, -g2, -g3], Wu, pk)[1]
    tau = mulmod(divrem_monic([0, 4], Wu, pk)[1], inverse(den, Wu, p, pk), Wu, pk)
    sums, traces, tk = _root_power_sums(Wu, pk), [[d]], tau
    for _ in range(d):
        traces.append([trace(tk, sums, pk)])
        tk = mulmod(tk, tau, Wu, pk)
    # charpoly(X) = X^d + c_1 X^(d-1) + ... + c_d; W1(T) = charpoly(T^2)
    W1 = [0] * p
    for k, (c,) in enumerate(charpoly(traces, pk)):
        W1[2 * (d - k)] = c % p ** M
    return TorsionAlgebra(p, M, tuple(W1), curve)


# ---------------------------------------------------------------------------
# the formal translate F(s, xbar) via the integral (z, w) chord law
# ---------------------------------------------------------------------------

def _series_mul(alg: TorsionAlgebra, u: list, v: list, keep: int) -> list:
    """u v mod s^(keep+1) in A[[s]], A = alg, series as lists of A vectors.

    Each output coefficient sums the raw polynomial products u_a v_b,
    a + b = k, and is reduced mod (W1, p^M) once.  The sums come from one
    polynomial product (kronecker_mul): coefficient i of u_a sits at index
    a (2 deg - 1) + i, so the degree <= 2 deg - 2 products of one s-degree
    never reach the next."""
    d, pk = alg.deg, alg.pk
    slots = 2 * d - 1
    pad = (0,) * (d - 1)

    def flat(series) -> list:
        return [c for vec in series[:keep + 1] for c in vec + pad]

    raw = kronecker_mul(flat(u), flat(v), pk, slots * (keep + 1))
    return [tuple(divrem_monic(raw[k * slots:(k + 1) * slots], alg.W1, pk)[1])
            for k in range(keep + 1)]


def _series_inverse(alg: TorsionAlgebra, u: list, keep: int) -> list:
    """u^-1 mod s^(keep+1) for u in A[[s]] whose constant term is a unit of
    A: Newton's g <- g (2 - u g) from g = u_0^-1, each step doubling the
    number of correct s-coefficients."""
    g, n = [alg.inverse_unit(u[0])], 1
    while n <= keep:
        n = min(2 * n, keep + 1)
        e = [alg.scal(c, -1) for c in _series_mul(alg, u, g, n - 1)]
        e[0] = alg.add(e[0], alg.const(2))
        g = _series_mul(alg, g, e, n - 1)
    return g


@lru_cache(maxsize=8)
def _xy_parameter_series(curve: CurveData, order: int, modulus: Optional[int] = None):
    """Coefficients w_0 .. w_order of the Weierstrass w-series w(t): exact
    Fractions, or ints mod `modulus` when one is given.

    On Y^2 = x^3 + a4 x + a6 (Y = y/2, a4 = -g2/4, a6 = -g3/4) the formal
    coordinates are z = -x/Y = t = -2x/y and w = -1/Y (Silverman, AEC IV.1).
    Then w = t^3 U(t^2), with U = 1 + a4 s^2 U^2 + a6 s^3 U^3, whose
    coefficients lie in Z[a4, a6]; x = t/w and y = -2/w.  So the same
    recursion runs mod `modulus` once a4 and a6 do; an a4 or a6 whose
    denominator shares a factor with `modulus` raises IntegralityError.
    """
    ring = ExactRing(0)
    a4 = -ring.coerce(curve.g2) / 4
    a6 = -ring.coerce(curve.g3) / 4
    one = Fraction(1)
    if modulus is not None:
        if math.gcd(a4.denominator * a6.denominator, modulus) != 1:
            raise IntegralityError(f"a4 = {a4} or a6 = {a6} is not integral "
                                   f"mod {modulus}")
        a4, a6 = (c.numerator * pow(c.denominator, -1, modulus) for c in (a4, a6))
        one = 1

    def red(x):
        return x if modulus is None else x % modulus

    U, U2, U3 = [], [], []          # s-coefficients of U, U^2, U^3
    for k in range((order - 3) // 2 + 1):
        c = one * (k == 0)
        if k >= 2:
            c += a4 * U2[k - 2]
        if k >= 3:
            c += a6 * U3[k - 3]
        U.append(red(c))
        U2.append(red(sum(U[i] * U[k - i] for i in range(k + 1) if U[i])))
        U3.append(red(sum(U[i] * U2[k - i] for i in range(k + 1) if U[i])))
    w = [one * 0] * (order + 1)
    for k, c in enumerate(U):
        w[2 * k + 3] = c
    return tuple(w)


def formal_group_translate(alg: TorsionAlgebra, keep: int) -> list:
    """F(s, xbar): the t-coordinate of P(s) + Q, s^0..s^keep, as vectors of
    A = Z/p^M[xbar]/(W1), Q the generic nonzero formal p-torsion point.

    Chord law in the formal coordinates z = t, w(z) = sum A_n z^n (Silverman,
    AEC IV.1), where every quantity is integral.  The line through (s, w(s))
    and (xbar, w(xbar)) has slope l = sum_n A_n (s^n - xbar^n)/(s - xbar),
    whose s^j coefficient is l_j = sum_m A_(m+j+1) xbar^m, and intercept
    nu = w(s) - l s; the third intersection is -F, so

        F = s + xbar + (2 a4 l nu + 3 a6 l^2 nu) (1 + a4 l^2 + a6 l^3)^-1.

    Only ring operations and the inverse of a unit series occur, so F is
    exact mod p^M.  W1 is Eisenstein, so xbar^deg lies in pA and l_keep
    needs A_n only for n <= deg M + keep + 1; l_j = A_(j+1) + xbar l_(j+1)
    gives the others.  The constant term is checked to equal xbar.
    """
    p, pk = alg.p, alg.pk
    n = alg.deg * alg.M + keep + 1
    w = _xy_parameter_series(alg.curve, n, pk)
    A = [alg.const(c) for c in w[:keep + 1]]
    a4, a6 = (_int_mod(-g.a / 4, p, pk) for g in (alg.curve.g2, alg.curve.g3))
    ell = [None] * keep + [
        alg.eval_series_at_x({m: w[m + keep + 1] for m in range(n - keep)}, 0)]
    for j in range(keep - 1, -1, -1):
        ell[j] = alg.add(A[j + 1], alg.mul(alg.x(), ell[j + 1]))
    nu = [A[0]] + [alg.add(A[k], alg.scal(ell[k - 1], -1)) for k in range(1, keep + 1)]
    l2 = _series_mul(alg, ell, ell, keep)
    l3 = _series_mul(alg, l2, ell, keep)
    den = [alg.add(alg.scal(b, a4), alg.scal(c, a6)) for b, c in zip(l2, l3)]
    den[0] = alg.add(den[0], alg.one())
    fac = [alg.scal(c, 3 * a6) for c in ell]
    fac[0] = alg.add(fac[0], alg.const(2 * a4))
    num = _series_mul(alg, _series_mul(alg, ell, nu, keep), fac, keep)
    F = _series_mul(alg, num, _series_inverse(alg, den, keep), keep)
    F[0] = alg.add(F[0], alg.x())
    if keep:
        F[1] = alg.add(F[1], alg.one())
    if F[0] != alg.x():
        raise IntegralityError("formal translate has wrong constant term")
    return F


# ---------------------------------------------------------------------------
# the composed expansion Theta-hat on ints
# ---------------------------------------------------------------------------

def _scaled_ring(curve: CurveData, p: int, width: int) -> ScaledIntRing:
    """ScaledIntRing(p, width), once _int_mod finds g2, g3 and e2*
    p-integral: a refusal names the curve's own value."""
    for x in filter(None, (curve.g2, curve.g3, curve.e2_star)):   # None: no e2*
        _int_mod(x.a, p, p)
    return ScaledIntRing(p, width)


@lru_cache(maxsize=4)
def _exact_composed(curve: CurveData, p: int, order: int, digits: int) -> BiSeries:
    """The starred composed expansion to total degree `order` on ints mod
    p^digits (IntModRing), computed on ints.

    Everything runs in varpi-scaled variables, varpi^(p-1) = p, on
    ScaledIntRing(p, W) with W = digits + floor(order/(p-1)) + 1, through
    compose_formal(kronecker_exact(...)).  There every stored value
    (ScaledIntRing.coerce) is an int once g2, g3 and e2* are (p odd):
    - U(varpi z), U = theta/z, and its inverse: sigma's z^k coefficient is
      an integer polynomial in g2/2, 2 g3 over k!, and
      v_p(k!) <= (k - 1)/(p - 1), so v_p(U_k) >= -k/(p - 1);
    - lambda(varpi s)/varpi and Q(varpi s), Q = (lambda/s)^-1: lambda's t^k
      coefficient is an integer polynomial in g2/4, g3/4 over k, and
      v_p(k) <= floor((k - 1)/(p - 1)).
    The two stages (kronecker_regular, compose_regular) run on them with
    the carry rule and never divide.  The regular part and the polar tails
    carry one power of p above their varpi-degree, so the output at (i, j)
    is the int p^(floor((i+j)/(p-1)) + 1) Theta-hat_ij mod p^W, which
    leaves `digits` digits.

    Both ends are checked: g2, g3 or e2* not p-integral (_scaled_ring), or
    an output not divisible by p^(floor((i+j)/(p-1)) + 1) (Theta-hat not
    p-integral), raises IntegralityError naming v_p.  Theta-hat is
    symmetric by construction (a symmetric regular part, the same lambda on
    both axes), so Theta-hat_ij != Theta-hat_ji is a bug: AssertionError."""
    q = p - 1
    ring = _scaled_ring(curve, p, digits + order // q + 1)
    pk = ring.modulus
    composed = compose_formal(kronecker_exact(curve, order, ring), curve, order).regular
    pkd = p ** digits
    scale = [p ** (d // q + 1) for d in range(order + 1)]
    hat = []
    for i, (_, (row,)) in enumerate(composed.rows):
        out = []
        for j, c in enumerate(row):
            y, r = divmod(c % pk, scale[i + j])
            if r:
                raise IntegralityError(
                    f"composed coefficient at {(i, j)} has v_p = "
                    f"{_vp_fraction(r, p) - (i + j) // q - 1} < 0")
            out.append(y % pkd)
        hat.append(out)
    if any(c != hat[j][i] for i, row in enumerate(hat) for j, c in enumerate(row)):
        raise AssertionError("Theta-hat lost s<->t symmetry")
    return BiSeries(IntModRing(pkd), [(1, [row]) for row in hat], order)


# ---------------------------------------------------------------------------
# unit restriction on the formal side: (p - 1 - Tr) on each axis
# ---------------------------------------------------------------------------

def _trace_coefficient_table(alg: TorsionAlgebra, imax: int, keep: int):
    """T[i][k] = trace over the nonzero formal p-torsion of F(s, x)^i,
    coefficient of s^k, as ints mod p^M, for i <= imax.  Rows 0..deg are the
    traces of F^0..F^deg, over B = Z/p^M[[s]]/(s^(keep+1)); the table is
    power_sums of F's characteristic polynomial (charpoly of those rows),
    which gives them back and continues them."""
    F = formal_group_translate(alg, keep)
    cur = [alg.one()] + [alg.const(0)] * keep
    rows = [[alg.trace(v) for v in cur]]
    for _ in range(alg.deg):
        cur = _series_mul(alg, cur, F, keep)
        rows.append([alg.trace(v) for v in cur])
    return power_sums(charpoly(rows, alg.pk), imax + 1, alg.pk)


def restricted_formal_series(curve: CurveData, p: int, N: int,
                             out_order: int) -> BiSeries:
    """The unit-restricted measure's formal-side series (1/p^2) L_s L_t C,
    L = (p - 1) - Tr on each axis, on ints mod p^(N+4), from the composed
    integral expansion C mod p^(N+6).

    With L_i(s) = (p-1) s^i - T_i(s) from the trace table,
    G_j(s) = sum_i c_ij L_i(s) and p^2 R = sum_j G_j(s) L_j(t), to total
    degree out_order; every j enters, since T_j(t) has terms below t^j.
    The pole class cancels identically, so only the regular part enters.
    A coefficient of p^2 R not divisible by p^2 (the restriction not
    integral, against the measure property) raises IntegralityError naming
    v_p.
    """
    _require_split(curve, p)
    DS = out_order
    digits = N + 6
    DBIG = DS + (p - 1) * (N + 5)
    chat = [row for _, (row,) in _exact_composed(curve, p, DBIG, digits).rows]
    pko = p ** digits
    imax = max((i for i, row in enumerate(chat) if any(row)), default=0)
    alg = formal_torsion_algebra(curve, p, digits)
    L = [[((p - 1) * (k == i) - x) % pko for k, x in enumerate(row)]
         for i, row in enumerate(_trace_coefficient_table(alg, imax, DS))]
    G: Dict[int, list] = {}
    for i, row in enumerate(chat):
        for j, cv in compress(enumerate(row), row):
            g = G.setdefault(j, [0] * (DS + 1))
            for k, x in enumerate(L[i]):
                if x:
                    g[k] += cv * x
    R2 = [[0] * (DS + 1 - k) for k in range(DS + 1)]
    for j, g in G.items():
        for k, gk in enumerate(g):
            gk %= pko
            if gk:
                R2[k] = [y + gk * x for y, x in zip(R2[k], L[j])]
    out = []
    for k, row in enumerate(R2):
        out.append([])
        for l, val in enumerate(row):
            q, r = divmod(val % pko, p * p)
            if r:
                raise IntegralityError(f"restricted series coefficient at {(k, l)} "
                                       f"has v_p = {_vp_fraction(r, p) - 2}")
            out[-1].append(q)
    return BiSeries(IntModRing(p ** (digits - 2)), [(1, [row]) for row in out], DS)


def formal_moments(series: BiSeries, curve: CurveData, p: int,
                   a_max: int, b_max: int) -> Dict[Tuple[int, int], PadicScalar]:
    """Period-normalized moments of a formal-side (s,t) series:

        M(a, b) = d_z^(b-1) d_w^a (series as a function of z, w) at 0,

    which equals Omega_p^-(a+b-1) times the multiplicative log-derivative
    moment.  Computed with d_z = (1/lambda'(s)) d_s on the series' ints mod
    p^k; 1/lambda'(s) has integral coefficients (Silverman, AEC IV.1), and
    _int_mod raises if one is not.  Each moment comes back as a PadicScalar
    with abs_prec k."""
    ring = series.ring
    m = ring.modulus
    order = series.order
    lam = formal_log(curve, order + 2, ExactRing(0)).series
    inv = lam.derivative().truncate(order).inverse()
    lamp_inv = [_int_mod(inv.coeff(k), p, m) for k in range(order + 1)]

    def dt(rows: list) -> list:
        """d_w on int rows m over n: each row's derivative times
        lambda'(t)^-1, one degree lower."""
        out = []
        for row in rows[:-1]:
            d = [x * n for n, x in enumerate(row)][1:]
            acc = [0] * len(d)
            for k, u in enumerate(lamp_inv[:len(d)]):
                if u:
                    acc[k:] = axpy(acc[k:], d, u)
            out.append(ring.reduce_row(acc))
        return out

    def transposed(rows: list) -> list:
        return [[row[n] for row in rows[:len(rows) - n]] for n in range(len(rows))]

    prec = _series_prec(series, p)
    out: Dict[Tuple[int, int], PadicScalar] = {}
    cur_b = [row for _, (row,) in series.rows]
    for b in range(1, b_max + 1):
        if b > 1:
            cur_b = transposed(dt(transposed(cur_b)))        # d_z
        cur = cur_b
        for a in range(0, a_max + 1):
            if a > 0:
                cur = dt(cur)
            if cur:
                out[(a, b)] = PadicScalar.from_int(cur[0][0], p, prec)
    return out


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

class MeasureSeries(NamedTuple):
    """Power-series avatar of the measure attached to the starred composed
    expansion, in the formal coordinates (s, t).

    `series` holds the integral expansion on ints mod p^abs_prec
    (IntModRing): abs_prec is N from measure_from_theta, and N + 4 after
    restrict_to_units, whose series is the restriction to Z_p^x x Z_p^x.
    `period_note` says why the multiplicative (S, T) coordinates are
    unavailable.  Moment statements carry the grading Omega_p^(a+b-1)
    symbolically.
    """

    series: BiSeries
    p: int
    abs_prec: int
    provenance: str
    period_note: str
    curve: CurveData
    restricted: bool = False


def measure_from_theta(curve: CurveData, p: int, N: int, order: int) -> MeasureSeries:
    """The starred composed expansion on ints mod p^N; _exact_composed
    asserts its integrality."""
    _require_split(curve, p)
    return MeasureSeries(series=_exact_composed(curve, p, order, N), p=p, abs_prec=N,
                         provenance=f"starred composed expansion, order {order}",
                         period_note=period_note(curve, p), curve=curve)


def restrict_to_units(mu: MeasureSeries, out_order: Optional[int] = None) -> MeasureSeries:
    """Restriction of the measure to Z_p^x x Z_p^x: (1/p^2) L_s L_t C with
    L = (p - 1) - Tr on each axis (restricted_formal_series), recomputed
    from the exact composed expansion at the order needed for the trace
    tails."""
    p = mu.p
    series = restricted_formal_series(mu.curve, p, mu.abs_prec,
                                      out_order or mu.series.order)
    return MeasureSeries(series=series, p=p, abs_prec=_series_prec(series, p),
                         provenance=mu.provenance + " | unit-restricted (trace)",
                         period_note=mu.period_note, curve=mu.curve,
                         restricted=True)


def moment_table(mu: MeasureSeries, a_max: int, b_max: int):
    """(a, b) -> the period-normalized moment (the multiplicative moment
    equals Omega_p^(a+b-1) times the returned value)."""
    return formal_moments(mu.series, mu.curve, mu.p, a_max, b_max)


# ---------------------------------------------------------------------------
# interpolation at the origin and Kummer congruences
# ---------------------------------------------------------------------------

class InterpolationRow(NamedTuple):
    a: int
    b: int
    exact_equal: bool               # four-term == Euler closed form in Q(sqrt(-d))
    padic_digits_checked: int       # trace route vs embedded exact
    padic_equal: bool


class InterpolationReport(NamedTuple):
    p: int
    N: int
    pi: ExactScalar
    rows: List[InterpolationRow]

    @property
    def passed(self) -> bool:
        """Every row agrees, and at least one row compared a p-adic digit:
        a run that checked none has shown nothing about the measure."""
        return any(r.padic_digits_checked > 0 for r in self.rows) and \
            all(r.exact_equal and r.padic_equal for r in self.rows)


def four_term_moment(curve: CurveData, pi: ExactScalar, p: int,
                     a: int, b: int, exps):
    """(b-1)! a! [z^(b-1) w^a] of Theta(z,w;G) - Theta(pz,w;pibar G)
    - Theta(z,pw;pibar G) + Theta(pz,pw;pibar^2 G), all exact.

    exps: the triple (base, pibar-scaled, pibar^2-scaled) of
    four_term_expansions, to order at least a + b - 1."""
    base, e1, e2 = exps
    m, n = b - 1, a
    val = base.coeff(m, n) - (p ** m + p ** n) * e1.coeff(m, n) \
        + p ** (m + n) * e2.coeff(m, n)
    return val * (math.factorial(m) * math.factorial(n))


@lru_cache(maxsize=4)
def four_term_expansions(curve: CurveData, pi: ExactScalar, order: int):
    ring = ExactRing(pi.d)
    pibar = pi.conjugate()
    base = kronecker_exact(curve, order, ring)
    e1 = kronecker_exact(curve.scaled(pibar), order, ring)
    e2 = kronecker_exact(curve.scaled(pibar * pibar), order, ring)
    return base, e1, e2


def euler_factor_moment(curve: CurveData, pi: ExactScalar, p: int,
                        a: int, b: int, base: Optional[KroneckerExpansion] = None):
    """(b-1)! a! c~(b-1, a) (1 - pi^(a+b)/p^(a+1)) (1 - pi^(a+b)/p^b): the
    closed form of the unit-restricted moment, period-normalized."""
    if base is None:
        base = kronecker_exact(curve, a + b, ExactRing(pi.d))
    ctil = base.coeff(b - 1, a)
    pi_ab = pi ** (a + b)
    return ctil * (math.factorial(b - 1) * math.factorial(a)) \
        * (1 - pi_ab / p ** (a + 1)) * (1 - pi_ab / p ** b)


def verify_interpolation_origin(curve: CurveData, p: int, N: int,
                                a_max: int, b_max: int) -> InterpolationReport:
    """Origin instance of the interpolation identity.

    Exact side: unit-restricted moments in closed form (Euler factors times
    the Eisenstein-Kronecker value) must equal the four-term scaled-lattice
    combination as identities in Q(sqrt(-d)).  p-adic side: the trace-route
    restriction of the measure must reproduce them to every digit both sides
    claim, mod p^min(abs_prec).
    """
    pi = cm_prime_generator(curve, p)
    order = a_max + b_max
    exps = four_term_expansions(curve, pi, order)
    base = exps[0]
    rest = restricted_formal_series(curve, p, N, order + 1)
    moms = formal_moments(rest, curve, p, a_max, b_max)
    rows = []
    for b in range(1, b_max + 1):
        for a in range(0, a_max + 1):
            if a + b > order:
                continue
            m4 = four_term_moment(curve, pi, p, a, b, exps)
            me = euler_factor_moment(curve, pi, p, a, b, base)
            exact_ok = (m4 == me)
            got = moms.get((a, b))
            k = 0
            padic_ok = True
            if got is not None:
                want = embed_padic(m4, p, N + 4)
                k = min(got.abs_prec, want.abs_prec)
                if k > 0:
                    padic_ok = got.eq_mod(want, k)
            rows.append(InterpolationRow(a, b, exact_ok, max(k, 0), padic_ok))
    return InterpolationReport(p, N, pi, rows)


class KummerRow(NamedTuple):
    pair_lo: Tuple[int, int]     # (a, b)
    pair_hi: Tuple[int, int]
    twist_power: int
    congruent: bool


class KummerReport(NamedTuple):
    p: int
    a_p_mod_p: int
    rows: List[KummerRow]

    @property
    def passed(self) -> bool:
        """Every pair is congruent, and at least one pair was compared."""
        return bool(self.rows) and all(r.congruent for r in self.rows)


KUMMER_DIGITS = 4     # p-adic digits of each moment the Kummer block forms


def _euler_moments_mod(curve: CurveData, p: int,
                       max_exp: int) -> Dict[Tuple[int, int], PadicScalar]:
    """The Euler-factor moments M(a, b) (euler_factor_moment) known mod at
    least p^KUMMER_DIGITS, for a, b - 1 <= max_exp with a + b divisible by
    the unit count w of the CM order (6 when g2 = 0, 4 when g3 = 0, else 2).

    i_p(pi) has v_p exactly 1, so u = i_p(pi)/p is a p-unit and the Euler
    factors are the ints 1 - p^(b-1) u^(a+b) and 1 - p^a u^(a+b).  The factor
    (b-1)! a! c~(b-1, a) (_kummer_factors) may have a p in its denominator
    that the Euler factors cancel; with g the largest such power, the
    factors are formed mod p^(KUMMER_DIGITS + g), enough to give the product
    abs_prec >= KUMMER_DIGITS."""
    pi = cm_prime_generator(curve, p)
    ctil = _kummer_factors(curve, p, max_exp)
    k = KUMMER_DIGITS + max([0] + [-c.val for c in ctil.values() if c.val is not None])
    pk = p ** k
    u = embed_padic(pi, p, k + 1).unit
    out = {}
    for (a, b), c in ctil.items():
        un = pow(u, a + b, pk)
        euler = (1 - p ** (b - 1) * un) * (1 - p ** a * un)
        out[(a, b)] = c * PadicScalar.from_int(euler, p, k)
    return out


def _kummer_factors(curve: CurveData, p: int,
                    max_exp: int) -> Dict[Tuple[int, int], PadicScalar]:
    """(b-1)! a! c~(b-1, a) with abs_prec KUMMER_DIGITS, for a, b - 1 <=
    max_exp and a + b divisible by the unit count of the CM order (read
    from g2, g3 rather than d: Z[sqrt(-3)] and Z[2 sqrt(-1)] share d with
    orders that have more units).  Read off the varpi-scaled regular part
    (kronecker_exact on a ScaledIntRing), which stores c~ at total degree d
    as p^(floor(d/(p-1)) + 1) c~, on ints wide enough to keep KUMMER_DIGITS
    digits after that power."""
    w = 6 if not curve.g2 else 4 if not curve.g3 else 2
    order = 2 * max_exp
    ring = _scaled_ring(curve, p, KUMMER_DIGITS + order // (p - 1) + 1)
    regular = kronecker_exact(curve, order, ring).regular
    return {(a, b): PadicScalar.from_int(
                regular.coeff(b - 1, a) * math.factorial(b - 1) * math.factorial(a),
                p, KUMMER_DIGITS, (a + b - 1) // (p - 1) + 1)
            for b in range(1, max_exp + 2) for a in range(max_exp + 1)
            if (a + b) % w == 0}


def kummer_congruences(curve: CurveData, p: int, max_exp: int = 20) -> KummerReport:
    """Congruences between unit-restricted moments whose exponent pairs agree
    mod p-1.

    The multiplicative moments carry Omega_p^(a+b-1); with
    Omega_p^(p-1) = a_p^-1 (mod p) from the residue equation, the exact
    verifiable form is

        M(a, b) = a_p^((a+b)-(a'+b'))/(p-1) M(a', b')  mod (the prime over p),

    M the period-normalized Euler-factor moments, formed on ints
    (_euler_moments_mod).
    """
    ap = hasse_unit_mod_p(curve, p)
    vals = _euler_moments_mod(curve, p, max_exp)
    # each moment pairs with the later moments of its (a, b) mod p-1 bucket
    buckets: Dict[Tuple[int, int], list] = {}
    for key in sorted(vals):
        buckets.setdefault((key[0] % (p - 1), key[1] % (p - 1)), []).append(key)
    rows = []
    for (a, b), m1 in sorted(vals.items()):
        group = buckets[(a % (p - 1), b % (p - 1))]
        for a2, b2 in group[group.index((a, b)) + 1:]:
            m2 = vals[(a2, b2)]
            tw = ((a2 + b2) - (a + b)) // (p - 1)
            twist = PadicScalar.from_int(pow(ap, tw, p ** KUMMER_DIGITS), p,
                                         KUMMER_DIGITS)
            rows.append(KummerRow((a, b), (a2, b2), tw, (m1 * twist).eq_mod(m2, 1)))
    return KummerReport(p, ap, rows)
