"""Ordinary-prime p-adic engine: period solver, measures, unit restriction,
interpolation and congruence verification at the origin.

Period solver.  exp(Omega^-1 lambda(t)) - 1 is required to have p-integral
coefficients; the residue equation read off the t^p coefficient is
c^(p-1) = a_p / lambda_1^p in F_{p^f} with c = Omega^-1 and a_p = p * [t^p]
lambda.  The solver searches residue degrees f = 1..4, lifts digits by the
smallest representative passing the integrality window, and emits the
certificate (all checked coefficients p-integral).  On curves where the
residue equation has no solution below f = 5 it raises NoPeriodError with the
obstruction; the multiplicative (S,T) coordinates of the measure are then
unavailable, and every interpolation statement is phrased on the
period-normalized side (d/dz, d/dw moments, which differ from the
multiplicative log-derivative moments by exactly Omega^(a+b-1)).

Unit restriction, formal side.  The restriction of the measure to
Z_p^x x Z_p^x is computed as the four-fold trace combination

    (1-1/p)^2 C - (1/p)(1-1/p)(Tr_s C + Tr_t C) + (1/p^2) Tr_s Tr_t C

on the composed series C(s,t), where Tr_s C = sum over the p-1 nonzero
p-division points x of the formal group of C(s (+) x, t).  The division
points live in the algebra Z_p[T]/W1(T), W1 the even degree-(p-1)
Weierstrass polynomial of the formal p-torsion.  It is built in integers:
the reversed p-division polynomial in u = 1/x has a distinguished Hensel
factor W_u, and W1(T) is the characteristic polynomial of t^2 = 4x^2/y^2 on
the integral algebra Z_p[u]/(W_u), evaluated at T^2.  All of this runs on
the Z/p^k[x]/(W) helpers of ``scalars``.  s (+) x is assembled from the
curve's addition law.  The pole class
(s^-1-terms and all their trace shadows) cancels identically in the
four-fold combination, so only the regular part enters.

All comparisons are made modulo p^(N - buffer) with
buffer(a, b) = v_p((b-1)!) + (a+1) + 2.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .curves import CurveData, formal_log
from .kronecker import ComposedExpansion, ThetaExpansion, compose_formal, \
    kronecker_exact
from .scalars import ExactScalar, PadicContext, PadicScalar, base_p_digits, \
    divrem_monic, embed_padic, inverse, mulmod, powmod, trace, _sqrt_minus_d_mod, \
    _vp_fraction
from .series import BiSeries, ExactRing, PadicRing, UniSeries

__all__ = [
    "NoPeriodError",
    "IntegralityError",
    "PadicPeriod",
    "MeasureSeries",
    "solve_padic_period",
    "solve_padic_period_for_log",
    "measure_from_theta",
    "restrict_to_units",
    "restrict_biseries_to_units",
    "moment_table",
    "verify_interpolation_origin",
    "InterpolationReport",
    "kummer_congruences",
    "KummerReport",
    "split_prime_generator",
    "precision_buffer",
]


class NoPeriodError(ArithmeticError):
    """No f <= 4 admits a p-adic period (or p unusable for the solver)."""


class IntegralityError(ArithmeticError):
    """A coefficient asserted integral came out with negative valuation."""


def precision_buffer(a: int, b: int, p: int) -> int:
    """Digits consumed by factorials and Euler denominators in comparisons."""
    return _vp_fraction(math.factorial(b - 1), p) + (a + 1) + 2


def _int_mod(x: Fraction, p: int, pk: int) -> int:
    """x mod pk for a p-integral rational x."""
    if x.denominator % p == 0:
        raise IntegralityError(f"{x} is not {p}-integral")
    return x.numerator * pow(x.denominator, -1, pk) % pk


# ---------------------------------------------------------------------------
# split primes
# ---------------------------------------------------------------------------

def is_split(p: int, d: int) -> bool:
    """p splits in Q(sqrt(-d)) (odd p, p not dividing d): -d a square mod p."""
    if p == 2 or d % p == 0:
        return False
    return pow(-d % p, (p - 1) // 2, p) == 1


def split_prime_generator(p: int, d: int) -> ExactScalar:
    """Generator pi of the prime above p with i_p(pi) = 0 mod p, where i_p
    sends sqrt(-d) to its deterministic smallest root.  Class number 1 only.

    The representative is the smallest-coefficient generator in the scan
    order, fixed for reproducibility.
    """
    from .eklerch import _ring_basis_omega, _units
    if not is_split(p, d):
        raise NoPeriodError(f"p = {p} is not split in Q(sqrt(-{d}))")
    root = _sqrt_minus_d_mod(p, d, 1, 1)[0]
    w = _ring_basis_omega(d)
    lim = int(math.isqrt(4 * p)) + 2
    for aa in range(-lim, lim + 1):
        for bb in range(-lim, lim + 1):
            x = ExactScalar(aa) + ExactScalar(bb) * w
            if x.norm() != p:
                continue
            img = (Fraction(x.a) + Fraction(x.b) * root)
            num = img.numerator * pow(img.denominator, -1, p) % p if \
                img.denominator % p else None
            if num == 0:
                # normalize the associate deterministically: largest (a, b)
                assoc = [x * u for u in _units(d)]
                key = max((ux.a, ux.b) for ux in assoc)
                return next(ux for ux in assoc if (ux.a, ux.b) == key)
    raise NoPeriodError(f"p = {p} has no degree-one prime element in "
                        f"Q(sqrt(-{d})) (class number > 1 or inert)")


# ---------------------------------------------------------------------------
# p-adic period solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PadicPeriod:
    p: int
    f: int
    omega: PadicScalar
    abs_prec: int
    certificate_degree: int
    certificate_ok: bool

    def to_json(self):
        return {"p": self.p, "f": self.f, "omega": self.omega.to_json(),
                "prec": self.abs_prec,
                "certificate": {"degree": self.certificate_degree,
                                "ok": self.certificate_ok}}


def _eta_defect(c: PadicScalar, lam: UniSeries, ring: PadicRing,
                degree: int) -> Optional[int]:
    """Most negative coefficient valuation of exp(c lambda) - 1 up to degree,
    or None when all checked coefficients are integral."""
    L = UniSeries(ring, {k: c * ring.coerce(v) for k, v in lam.coeffs.items()
                         if k <= degree}, degree)
    eta = L.exp()
    worst = None
    for k, v in eta.coeffs.items():
        if k == 0 or v.val is None:
            continue
        if v.val < 0:
            worst = v.val if worst is None else min(worst, v.val)
    return worst


def _residue_solutions(p: int, f: int, target_vec: tuple) -> list:
    """All c in F_{p^f}^x with c^(p-1) = target (target in F_p^x embedded)."""
    mod = PadicContext(p, f).modulus
    return [c for c in (tuple(base_p_digits(n, p, f)) for n in range(1, p ** f))
            if powmod(c, p - 1, mod, p) == target_vec]


def solve_padic_period_for_log(lam: UniSeries, p: int, N: int,
                               max_f: int = 4) -> PadicPeriod:
    """Find Omega with exp(Omega^-1 lambda(t)) - 1 integral, certificate to
    degree p^ceil(log_p(N p)) (at least p^2).

    lambda must have p-integral coefficients apart from the usual 1/k
    denominators and an invertible linear coefficient.
    """
    if p < 5:
        raise NoPeriodError("solver needs p >= 5")
    lam1 = lam.coeff(1)
    lam_p = lam.coeff(p)
    a_p_fr = Fraction(p) * (lam_p if isinstance(lam_p, Fraction) else lam_p.a)
    lam1_fr = lam1 if isinstance(lam1, Fraction) else lam1.a
    if _vp_fraction(lam1_fr, p):
        raise NoPeriodError("lambda'(0) must be a p-adic unit")
    Dstar = p ** max(2, math.ceil(math.log(N * p, p)))
    Dstar = min(Dstar, max(p * p, p * (N + 2)))  # certificate window
    target = a_p_fr / lam1_fr ** p
    tv = _vp_fraction(target, p)
    if tv is None or tv != 0:
        raise NoPeriodError(f"a_p = {a_p_fr} is not a p-unit: p supersingular "
                            "for this group")
    t_mod = _int_mod(target, p, p)
    guard = Dstar // (p - 1) + 6
    for f in range(1, max_f + 1):
        sols = _residue_solutions(p, f, (t_mod,) + (0,) * (f - 1))
        if not sols:
            continue
        ctx = PadicContext(p, f)
        ring = PadicRing(ctx, N + guard)
        # deterministic representative: smallest residue vector, then lift by
        # the smallest digit passing the integrality window
        c_vec = list(min(sols))
        ok_res = None
        for digit_level in range(1, N):
            found = False
            for delta in range(p ** f):
                dv = base_p_digits(delta, p, f)
                cand = [c_vec[i] + dv[i] * p ** digit_level for i in range(f)]
                c = ctx.from_vector(tuple(cand), N + guard)
                worst = _eta_defect(c, lam, ring, min(Dstar, p * (digit_level + 2)))
                if worst is None:
                    c_vec = cand
                    found = True
                    break
            if not found:
                break
        else:
            found = True
        c = ctx.from_vector(tuple(c_vec), N + guard)
        worst = _eta_defect(c, lam, ring, Dstar)
        if worst is None:
            omega = c.inverse().with_abs_prec(N)
            return PadicPeriod(p, f, omega, N, Dstar, True)
    raise NoPeriodError(
        f"no f <= {max_f} admits a solution: residue equation c^{p - 1} = "
        f"{t_mod} has no root in F_p^f for f <= {max_f} "
        f"(the target's multiplicative order forces a larger residue degree)")


def solve_padic_period(curve: CurveData, p: int, N: int,
                       max_f: int = 4) -> PadicPeriod:
    """Spec'd period search for a curve's formal group at an ordinary p."""
    d = curve.d or 1
    if not is_split(p, d):
        raise NoPeriodError(f"p = {p} is not split in Q(sqrt(-{d}))")
    disc = curve.discriminant()
    if not disc.is_rational() or _vp_fraction(disc.a, p):
        raise NoPeriodError(f"curve not good at {p}")
    Dstar = max(p * p, p * (N + 2))
    lam = formal_log(curve, Dstar + 1, ExactRing(0)).series
    return solve_padic_period_for_log(lam, p, N, max_f)


# ---------------------------------------------------------------------------
# division polynomial and the formal p-torsion algebra
# ---------------------------------------------------------------------------

def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def _division_polynomials(g2: Fraction, g3: Fraction, nmax: int):
    """f_n for the short model y'^2 = x^3 + A x + B (A = -g2/4, B = -g3/4):
    psi_n = f_n(x) for odd n, psi_n = 2 y' f_n(x) for even n.

        f_{2m}   = f_m (f_{m+2} f_{m-1}^2 - f_{m-2} f_{m+1}^2)
        f_{2m+1} = 16 F^2 f_{m+2} f_m^3 - f_{m-1} f_{m+1}^3     (m even)
                 = f_{m+2} f_m^3 - 16 F^2 f_{m-1} f_{m+1}^3     (m odd)

    with F = x^3 + A x + B; deg f_p = (p^2-1)/2, leading coefficient p.
    """
    A, B = -g2 / 4, -g3 / 4
    F = [B, A, Fraction(0), Fraction(1)]
    F2_16 = [16 * c for c in _poly_mul(F, F)]
    f: Dict[int, list] = {
        0: [Fraction(0)],
        1: [Fraction(1)],
        2: [Fraction(1)],
        3: [-A * A, 12 * B, 6 * A, Fraction(0), Fraction(3)],
        4: [2 * (-8 * B * B - A ** 3), 2 * (-4 * A * B), 2 * (-5 * A * A),
            2 * (20 * B), 2 * (5 * A), Fraction(0), Fraction(2)],
    }

    def get(n: int) -> list:
        if n in f:
            return f[n]
        m = (n - 1) // 2 if n % 2 else n // 2
        if n % 2 == 1:
            cube = _poly_mul(get(m), _poly_mul(get(m), get(m)))
            cube1 = _poly_mul(get(m + 1), _poly_mul(get(m + 1), get(m + 1)))
            t1 = _poly_mul(get(m + 2), cube)
            t2 = _poly_mul(get(m - 1), cube1)
            if m % 2 == 0:
                val = _sub(_poly_mul(t1, F2_16), t2)
            else:
                val = _sub(t1, _poly_mul(t2, F2_16))
        else:
            t1 = _poly_mul(get(m + 2), _poly_mul(get(m - 1), get(m - 1)))
            t2 = _poly_mul(get(m - 2), _poly_mul(get(m + 1), get(m + 1)))
            val = _poly_mul(get(m), _sub(t1, t2))
        f[n] = _trim(val)
        return f[n]

    for n in range(5, nmax + 1):
        get(n)
    return {n: tuple(get(n)) for n in range(nmax + 1)}


def _sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
            for i in range(n)]


def _trim(a: list) -> list:
    while len(a) > 1 and not a[-1]:
        a = a[:-1]
    return a


def division_polynomial_p(curve: CurveData, p: int) -> list:
    """The p-division polynomial in x (roots: x-coordinates of E[p] minus O),
    normalized with leading coefficient p, degree (p^2 - 1)/2."""
    if not (curve.g2.is_rational() and curve.g3.is_rational()):
        raise ValueError("division polynomials implemented for rational models")
    polys = _division_polynomials(curve.g2.a, curve.g3.a, p)
    out = list(polys[p])
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
        start = (pow(qbar[0], -1, p),) + (0,) * (deg_w - 1)
        step = mulmod(inverse(qbar, W, pk, start), r, W, pk)
        W = [(W[i] + (step[i] if i < deg_w else 0)) % pk for i in range(deg_w + 1)]
    raise ArithmeticError("Hensel factor iteration did not converge")


# ---------------------------------------------------------------------------
# formal p-torsion polynomial W1 (even, degree p-1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorsionAlgebra:
    """Z/p^M [T]/W1(T) for the nonzero formal p-torsion; plain-int vectors."""

    p: int
    M: int
    W1: tuple          # ints, monic, degree p-1, Eisenstein
    curve: CurveData

    @property
    def deg(self) -> int:
        return len(self.W1) - 1

    @property
    def pk(self) -> int:
        return self.p ** self.M

    def mul(self, u: tuple, v: tuple) -> tuple:
        return mulmod(u, v, self.W1, self.pk)

    def one(self) -> tuple:
        return (1,) + (0,) * (self.deg - 1)

    def x(self) -> tuple:
        return (0, 1) + (0,) * (self.deg - 2)

    def scal(self, u: tuple, c: int) -> tuple:
        return tuple(x * c % self.pk for x in u)

    def add(self, u: tuple, v: tuple) -> tuple:
        return tuple((x + y) % self.pk for x, y in zip(u, v))

    def trace(self, u: tuple) -> int:
        return trace(u, self.W1, self.pk)

    def inverse_unit(self, u: tuple) -> tuple:
        """Inverse of an element that is a unit (constant coordinate a p-unit;
        mod p the algebra is F_p[x]/x^deg)."""
        if u[0] % self.p == 0:
            raise ZeroDivisionError("not a unit in the torsion algebra")
        start = (pow(u[0], -1, self.p),) + (0,) * (self.deg - 1)
        return inverse(u, self.W1, self.pk, start)

    def p_times_x_inverse(self) -> tuple:
        """p * x^-1 = -(W1[1] + W1[2] x + ... + x^(deg-1)) * (p / W1[0])."""
        w0 = self.W1[0]
        assert w0 % self.p == 0 and (w0 // self.p) % self.p != 0
        unit_inv = pow(w0 // self.p, -1, self.pk)
        vec = tuple((-self.W1[i + 1]) % self.pk for i in range(self.deg))
        return self.scal(vec, unit_inv)

    def eval_series_at_x(self, coeffs: Dict[int, Fraction], scale: int) -> tuple:
        """sum p^scale * coeffs[k] * x^k; each scaled coefficient must be
        p-integral.  Convergence: x^k gains floor(k/deg) powers of p."""
        acc = [0] * self.deg
        xp = self.one()
        xx = self.x()
        kmax = max(coeffs) if coeffs else 0
        for k in range(0, kmax + 1):
            if k:
                xp = self.mul(xp, xx)
            c = coeffs.get(k)
            if c is None or not c:
                continue
            ci = _int_mod(c * Fraction(self.p) ** scale, self.p, self.pk)
            for i in range(self.deg):
                acc[i] = (acc[i] + ci * xp[i]) % self.pk
        return tuple(acc)


def formal_torsion_algebra(curve: CurveData, p: int, M: int) -> TorsionAlgebra:
    """Build Z/p^M[T]/W1(T), W1 the even monic degree-(p-1) polynomial whose
    roots are the t-coordinates of the nonzero formal p-torsion points.

    Pipeline, in integers mod p^(M + 8):
    - the reversed p-division polynomial u^deg psi_p(1/u), u = 1/x, has the
      distinguished Hensel factor W_u of degree d = (p-1)/2, whose roots are
      the values of u at the pairs +-P of nonzero formal p-torsion points;
    - in the integral algebra A = Z_p[u]/(W_u) the element
      tau = t^2 = 4x^2/y^2 = 4u (4 - g2 u^2 - g3 u^3)^-1 is integral, since
      the inverted factor is a unit;
    - W1(T) = charpoly_A(tau)(T^2), by Newton's identities on the traces of
      tau^1..tau^d; the divisions by k <= d < p are by p-units.
    """
    guard = 8
    pk = p ** (M + guard)
    psi = division_polynomial_p(curve, p)
    d = (p - 1) // 2
    Wu, _E = hensel_factor_distinguished(
        [_int_mod(c, p, pk) for c in reversed(psi)], d, p, M + guard)
    g2, g3 = (_int_mod(g.a, p, pk) for g in (curve.g2, curve.g3))
    den = divrem_monic([4, 0, -g2, -g3], Wu, pk)[1]
    den_inv = inverse(den, Wu, pk, (pow(4, -1, p),) + (0,) * (d - 1))
    tau = mulmod(divrem_monic([0, 4], Wu, pk)[1], den_inv, Wu, pk)
    # power sums s_k = Tr tau^k, then e_k = (1/k) sum_i (-1)^(i-1) e_(k-i) s_i
    s, tk = [], tau
    for _ in range(d):
        s.append(trace(tk, Wu, pk))
        tk = mulmod(tk, tau, Wu, pk)
    e = [1]
    for k in range(1, d + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * s[i - 1] for i in range(1, k + 1))
        e.append(acc * pow(k, -1, pk) % pk)
    # charpoly(X) = sum_k (-1)^k e_k X^(d-k); W1(T) = charpoly(T^2)
    W1 = [0] * p
    for k in range(d + 1):
        W1[2 * (d - k)] = (-1) ** k * e[k] % p ** M
    return TorsionAlgebra(p, M, tuple(W1), curve)


# ---------------------------------------------------------------------------
# the formal translate F(s, xbar) via the curve addition law
# ---------------------------------------------------------------------------

def _sv_norm(alg, vec, e, kn):
    """Normalize (vec, e, kn): value = vec / p^e with vec valid mod p^kn.
    Each stripped p-power trades one exponent for one known digit."""
    if all(c == 0 for c in vec):
        return vec, 0, kn
    p = alg.p
    while e > 0 and all(c % p == 0 for c in vec):
        vec = tuple(c // p for c in vec)
        e -= 1
        kn -= 1
    return vec, e, kn


def _sv_add(alg, a, b):
    (u, e1, k1), (v, e2, k2) = a, b
    e = max(e1, e2)
    pk = alg.pk
    if e1 < e:
        u = tuple(c * alg.p ** (e - e1) % pk for c in u)
        k1 = min(k1 + (e - e1), alg.M)
    if e2 < e:
        v = tuple(c * alg.p ** (e - e2) % pk for c in v)
        k2 = min(k2 + (e - e2), alg.M)
    return _sv_norm(alg, alg.add(u, v), e, min(k1, k2))


def _sv_mul(alg, a, b):
    (u, e1, k1), (v, e2, k2) = a, b
    return _sv_norm(alg, alg.mul(u, v), e1 + e2, min(k1, k2))


def _sv_neg(alg, a):
    (u, e, kn) = a
    pk = alg.pk
    return tuple((-c) % pk for c in u), e, kn


def _sv_inv(alg, a):
    """Inverse of a nonzero scaled vector in the ramified fraction field:
    u xbar^k = p^j * (algebra unit) for some 0 <= k < deg, so
    u^-1 = xbar^k unit^-1 / p^j (times the incoming scale)."""
    (u, e, kn) = a
    p = alg.p

    def strip(vec):
        j = 0
        while any(vec) and all(c % p == 0 for c in vec):
            vec = tuple(c // p for c in vec)
            j += 1
        return vec, j

    xk = alg.one()
    w = u
    for k in range(alg.deg):
        w_str, j = strip(w)
        if not any(w_str):
            raise ZeroDivisionError("inverse of (indistinguishable from) zero")
        if w_str[0] % p != 0:
            inv = alg.mul(xk, alg.inverse_unit(w_str))
            return _sv_norm(alg, inv, j - e, kn - j)
        xk = alg.mul(xk, alg.x())
        w = alg.mul(u, xk)
    raise ZeroDivisionError("element not invertible at this precision")


def _sv_zero(alg):
    return ((0,) * alg.deg, 0, alg.M)


class _ScaledLaurent:
    """Laurent series over the torsion algebra: coefficients are scaled
    vectors (vec, e, kn), value vec / p^e with vec valid mod p^kn."""

    __slots__ = ("alg", "shift", "coeffs")

    def __init__(self, alg: TorsionAlgebra, shift: int, coeffs: list):
        while coeffs and all(c == 0 for c in coeffs[0][0]):
            coeffs = coeffs[1:]
            shift += 1
        self.alg = alg
        self.shift = shift
        self.coeffs = coeffs

    def add(self, other: "_ScaledLaurent") -> "_ScaledLaurent":
        alg = self.alg
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        sh = min(self.shift, other.shift)
        n = max(self.shift + len(self.coeffs), other.shift + len(other.coeffs)) - sh
        out = [_sv_zero(alg)] * n
        for src in (self, other):
            for i, sv in enumerate(src.coeffs):
                j = i + src.shift - sh
                out[j] = _sv_add(alg, out[j], sv)
        return _ScaledLaurent(alg, sh, out)

    def neg(self) -> "_ScaledLaurent":
        return _ScaledLaurent(self.alg, self.shift,
                              [_sv_neg(self.alg, sv) for sv in self.coeffs])

    def mul(self, other: "_ScaledLaurent", keep: int) -> "_ScaledLaurent":
        alg = self.alg
        sh = self.shift + other.shift
        n = min(len(self.coeffs) + len(other.coeffs) - 1, keep - sh + 1)
        if n <= 0 or not self.coeffs or not other.coeffs:
            return _ScaledLaurent(alg, 0, [])
        out = [_sv_zero(alg)] * n
        for i, u in enumerate(self.coeffs):
            if i >= n:
                break
            if all(c == 0 for c in u[0]):
                continue
            for j, v in enumerate(other.coeffs):
                if i + j >= n:
                    break
                if all(c == 0 for c in v[0]):
                    continue
                out[i + j] = _sv_add(alg, out[i + j], _sv_mul(alg, u, v))
        return _ScaledLaurent(alg, sh, out)

    def inverse(self, keep: int) -> "_ScaledLaurent":
        alg = self.alg
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero series")
        lead_inv = _sv_inv(alg, self.coeffs[0])
        n = max(keep + self.shift + 1, 1)
        out = [lead_inv]
        for m in range(1, n):
            s = _sv_zero(alg)
            for i in range(1, min(m, len(self.coeffs) - 1) + 1):
                s = _sv_add(alg, s, _sv_mul(alg, self.coeffs[i], out[m - i]))
            out.append(_sv_neg(alg, _sv_mul(alg, lead_inv, s)))
        return _ScaledLaurent(alg, -self.shift, out)

    def scale_int(self, c: int) -> "_ScaledLaurent":
        pk = self.alg.pk
        return _ScaledLaurent(
            self.alg, self.shift,
            [_sv_norm(self.alg, tuple(x * c % pk for x in vec), e, kn)
             for (vec, e, kn) in self.coeffs])

    def as_integral_regular(self, keep: int, out_digits: int) -> list:
        """[s^0 .. s^keep] as plain vectors mod p^out_digits; the object must
        be regular and p-integral to that depth."""
        alg = self.alg
        pko = alg.p ** out_digits
        out = [(0,) * alg.deg] * (keep + 1)
        for i, (vec, e, kn) in enumerate(self.coeffs):
            k = i + self.shift
            if kn < out_digits + max(e, 0) and any(vec):
                raise IntegralityError(
                    f"insufficient working precision at s^{k}: "
                    f"{kn} known digits, need {out_digits + max(e, 0)}")
            if k < 0 or e > 0:
                # polar or fractional entries must vanish to the target depth
                if any(c % alg.p ** (out_digits + max(e, 0)) for c in vec):
                    raise IntegralityError(
                        f"formal translate not integral/regular at s^{k}")
                continue
            out[k] = tuple(c * alg.p ** (-e) % pko for c in vec) if e < 0 \
                else tuple(c % pko for c in vec)
        return out


@lru_cache(maxsize=8)
def _xy_parameter_series(curve: CurveData, order: int):
    """Exact x(t) t^2 and y(t) t^3 coefficient tuples for t = -2x/y.

    With s = t^2, x t^2 = 1/U(s), where U is the Weierstrass w-series
    recursion U = 1 - (g2/4) s^2 U^2 - (g3/4) s^3 U^3 (Silverman, AEC IV.1),
    whose coefficients lie in Z[g2/4, g3/4].  y = -2x/t gives y t^3 = -2 x t^2.
    """
    ring = ExactRing(0)
    q2 = ring.coerce(curve.g2) / 4
    q3 = ring.coerce(curve.g3) / 4
    n = order // 2
    U, U2, U3 = [], [], []          # s-coefficients of U, U^2, U^3
    for k in range(n + 1):
        c = Fraction(k == 0)
        if k >= 2:
            c -= q2 * U2[k - 2]
        if k >= 3:
            c -= q3 * U3[k - 3]
        U.append(c)
        U2.append(sum((U[i] * U[k - i] for i in range(k + 1) if U[i]), Fraction(0)))
        U3.append(sum((U[i] * U2[k - i] for i in range(k + 1) if U[i]), Fraction(0)))
    X = UniSeries(ring, dict(enumerate(U)), n).inverse()
    xl = tuple(X.coeff(k // 2) if k % 2 == 0 else Fraction(0)
               for k in range(order + 1))
    yl = tuple(-2 * c for c in xl)
    return xl, yl


TRANSLATE_EROSION = 18  # scaled-vector strips consumed by the chord law


def formal_group_translate(alg: TorsionAlgebra, keep: int,
                           out_digits: Optional[int] = None) -> list:
    """F(s, xbar): the t-coordinate of P(s) + Q as an integral A1[[s]]
    series (list of A1 vectors, s^0..s^keep, reduced mod p^out_digits), Q the
    generic nonzero formal p-torsion point of the algebra.

    Assembled from the chord law on y^2 = 4x^3 - g2 x - g3:
        m = (Y(s) - y_Q)/(X(s) - x_Q),
        x3 = -X - x_Q + m^2/4,   y3 = -y_Q - m (x3 - x_Q),
        F = -2 x3 / y3.

    The algebra must carry TRANSLATE_EROSION guard digits beyond out_digits;
    the constant term is checked to equal xbar at the output modulus.
    """
    curve = alg.curve
    p, pk = alg.p, alg.pk
    if out_digits is None:
        out_digits = alg.M - TRANSLATE_EROSION
    if out_digits <= 0 or out_digits > alg.M - 4:
        raise ValueError("torsion algebra lacks guard digits for the translate")
    DX = alg.deg * (alg.M + 2) + 8
    xt2, yt3 = _xy_parameter_series(curve, max(DX, keep + 8))
    # torsion point coordinates: x_Q = xbar^-2 S2, y_Q = xbar^-3 S3, carried
    # as scaled vectors (p xbar^-1 is integral; the p-powers go to the scale)
    S2 = alg.eval_series_at_x({k: v for k, v in enumerate(xt2) if v}, 0)
    S3 = alg.eval_series_at_x({k: v for k, v in enumerate(yt3) if v}, 0)
    pxi = alg.p_times_x_inverse()
    pxi2 = alg.mul(pxi, pxi)
    xQ_sv = _sv_norm(alg, alg.mul(pxi2, S2), 2, alg.M)             # x_Q
    yQ_sv = _sv_norm(alg, alg.mul(alg.mul(pxi2, pxi), S3), 3, alg.M)

    def embed_series(coeffs, shift):
        out = []
        for fr in coeffs[: keep + 8 - shift]:
            c = _int_mod(Fraction(fr), p, pk)
            out.append((((c,) + (0,) * (alg.deg - 1)), 0, alg.M))
        return _ScaledLaurent(alg, shift, out)

    X = embed_series(xt2, -2)
    Y = embed_series(yt3, -3)
    const = lambda sv: _ScaledLaurent(alg, 0, [sv])
    slack = 8
    num = Y.add(const(_sv_neg(alg, yQ_sv)))
    den = X.add(const(_sv_neg(alg, xQ_sv)))
    m = num.mul(den.inverse(keep + slack), keep + slack)
    x3 = X.neg().add(const(_sv_neg(alg, xQ_sv))) \
        .add(m.mul(m, keep + slack).scale_int(pow(4, -1, pk)))
    y3 = const(_sv_neg(alg, yQ_sv)) \
        .add(m.mul(x3.add(const(_sv_neg(alg, xQ_sv))), keep + slack).neg())
    t3 = x3.mul(y3.inverse(keep + slack), keep).scale_int(pk - 2)
    out = t3.as_integral_regular(keep, out_digits)
    if out[0] != tuple(c % p ** out_digits for c in alg.x()):
        raise IntegralityError("formal translate has wrong constant term")
    return out


# ---------------------------------------------------------------------------
# unit restriction on the formal side (four-fold torsion trace)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _exact_composed(curve: CurveData, order: int) -> ComposedExpansion:
    exp = kronecker_exact(curve, order)
    return compose_formal(exp, curve, order, starred=True)


def _trace_coefficient_table(alg: TorsionAlgebra, imax: int, keep: int,
                             out_digits: int):
    """T[i][k] = trace over the nonzero formal p-torsion of F(s, x)^i,
    coefficient of s^k, as ints mod p^out_digits."""
    F = formal_group_translate(alg, keep, out_digits)
    pko = alg.p ** out_digits
    # work in the reduced modulus from here on: products of valid digits
    red = TorsionAlgebra(alg.p, out_digits, tuple(c % pko for c in alg.W1),
                         alg.curve)
    rows = [[red.trace(red.one()) if k == 0 else 0 for k in range(keep + 1)]]
    cur = [red.one()] + [(0,) * red.deg] * keep
    Fv = [tuple(c % pko for c in vec) for vec in F]
    for i in range(1, imax + 1):
        new = [(0,) * red.deg] * (keep + 1)
        for a in range(keep + 1):
            va = cur[a]
            if not any(va):
                continue
            for b in range(keep + 1 - a):
                vb = Fv[b]
                if not any(vb):
                    continue
                prod = red.mul(va, vb)
                tgt = new[a + b]
                new[a + b] = red.add(tgt, prod)
        cur = new
        rows.append([red.trace(v) for v in cur])
    return rows


def restricted_formal_series(curve: CurveData, p: int, N: int,
                             out_order: int) -> BiSeries:
    """The unit-restricted measure's formal-side series

        (1-1/p)^2 C - (1/p)(1-1/p)(Tr_s C + Tr_t C) + (1/p^2) Tr_s Tr_t C

    over PadicScalar coefficients, from the composed integral expansion C.
    The pole class cancels identically, so only the regular part enters.
    Coefficients are asserted integral (the measure property).
    """
    d = curve.d or 1
    if not is_split(p, d):
        raise NoPeriodError(f"p = {p} is not split in Q(sqrt(-{d}))")
    DS = out_order
    digits = N + 6
    DBIG = DS + (p - 1) * (N + 5)
    hat = _exact_composed(curve, DBIG)
    ctx = PadicContext(p)
    pko = p ** digits
    chat = {}
    for (i, j), v in hat.expansion.regular.coeffs.items():
        fr = v if isinstance(v, Fraction) else v.a
        if fr.denominator % p == 0:
            raise IntegralityError(
                f"composed expansion not p-integral at ({i},{j}): ordinary "
                "integrality violated")
        chat[(i, j)] = fr.numerator * pow(fr.denominator, -1, pko) % pko
    imax = max((i for i, _ in chat), default=0)
    alg = formal_torsion_algebra(curve, p, digits + TRANSLATE_EROSION + 4)
    T = _trace_coefficient_table(alg, imax, DS, digits)
    # scale by p^2: R2 = (p-1)^2 C - (p-1)(TrS + TrT) + TrS TrT
    R2: Dict[Tuple[int, int], int] = {}

    def bump(key, val):
        if key[0] + key[1] <= DS:
            R2[key] = (R2.get(key, 0) + val) % pko

    w1sq = (p - 1) ** 2
    for (i, j), cv in chat.items():
        if i <= DS and j <= DS:
            bump((i, j), w1sq * cv)
        # single traces: sum_i c_{ij} T_i(s) t^j   and the t-side mirror
        if j <= DS:
            row = T[i]
            for k in range(0, DS + 1 - j):
                if row[k]:
                    bump((k, j), -(p - 1) * cv * row[k])
        if i <= DS:
            row = T[j]
            for k in range(0, DS + 1 - i):
                if row[k]:
                    bump((i, k), -(p - 1) * cv * row[k])
        rowi, rowj = T[i], T[j]
        for k in range(0, DS + 1):
            if not rowi[k]:
                continue
            ck = cv * rowi[k] % pko
            for l in range(0, DS + 1 - k):
                if rowj[l]:
                    bump((k, l), ck * rowj[l])
    ring = PadicRing(ctx, digits - 2)
    out = {}
    for key, val in R2.items():
        sc = ctx.from_int(val, digits).shift(-2)
        if sc.val is not None and sc.val < 0:
            raise IntegralityError(
                f"restricted series coefficient at {key} has v_p = {sc.val}")
        out[key] = sc
    return BiSeries(ring, out, DS)


def formal_moments(series: BiSeries, curve: CurveData, p: int,
                   a_max: int, b_max: int) -> Dict[Tuple[int, int], PadicScalar]:
    """Period-normalized moments of a formal-side (s,t) series:

        M(a, b) = d_z^(b-1) d_w^a (series as a function of z, w) at 0,

    which equals Omega_p^-(a+b-1) times the multiplicative log-derivative
    moment.  Computed with d_z = (1/lambda'(s)) d_s."""
    ring = series.ring
    order = series.order
    lam = formal_log(curve, order + 2, ExactRing(0)).series
    lamp = lam.derivative().truncate(order)
    lamp_inv_fr = lamp.inverse()
    lamp_inv = UniSeries(ring, {k: ring.coerce(v)
                                for k, v in lamp_inv_fr.coeffs.items()}, order)

    def dz(f: BiSeries, axis: int) -> BiSeries:
        dd = {}
        for (i, j), v in f.coeffs.items():
            k = (i, j)[axis]
            if k == 0:
                continue
            key = (i - 1, j) if axis == 0 else (i, j - 1)
            t = v * k
            dd[key] = dd[key] + t if key in dd else t
        deriv = BiSeries(ring, dd, f.order - 1)
        # multiply by lambda'(s or t)^-1 along the axis
        out = {}
        for (i, j), v in deriv.coeffs.items():
            for k, u in lamp_inv.coeffs.items():
                key = (i + k, j) if axis == 0 else (i, j + k)
                if key[0] + key[1] > deriv.order:
                    continue
                t = v * u
                out[key] = out[key] + t if key in out else t
        return BiSeries(ring, out, deriv.order)

    out: Dict[Tuple[int, int], PadicScalar] = {}
    cur_b = series
    for b in range(1, b_max + 1):
        if b > 1:
            cur_b = dz(cur_b, 0)
        cur = cur_b
        for a in range(0, a_max + 1):
            if a > 0:
                cur = dz(cur, 1)
            if a + b - 1 <= cur.order:
                out[(a, b)] = cur.coeff(0, 0)
    return out


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass
class MeasureSeries:
    """Power-series avatar of the measure attached to the starred composed
    expansion.

    `series` always holds the formal-coordinate (s, t) embedding of the
    integral expansion mod p^abs_prec.  `mult_series` holds the genuine
    multiplicative-coordinate (S, T) power series when a finite-level p-adic
    period exists (Gm-type logs and anomalous-style curves); otherwise it is
    None and `period_note` records the obstruction.  Moment statements on the
    formal side carry the grading Omega_p^(a+b-1) symbolically.
    """

    series: BiSeries
    p: int
    f: int
    abs_prec: int
    provenance: str
    coords: str = "formal"
    restricted: bool = False
    mult_series: Optional[BiSeries] = None
    period: Optional[PadicPeriod] = None
    period_note: Optional[str] = None
    curve: Optional[CurveData] = None


def measure_from_theta(curve: CurveData, p: int, N: int, order: int,
                       want_multiplicative: bool = True) -> MeasureSeries:
    """Embed the starred composed expansion mod p^N; assert integrality.

    The multiplicative (S, T) coordinates require a finite-level period; when
    the solver cannot produce one (the generic CM situation: the residue
    equation needs a residue degree beyond the searched range) the measure is
    carried in formal coordinates only.
    """
    d = curve.d or 1
    if not is_split(p, d):
        raise NoPeriodError(f"p = {p} is not split in Q(sqrt(-{d}))")
    hat = _exact_composed(curve, order)
    ctx = PadicContext(p)
    ring = PadicRing(ctx, N)
    out = {}
    for key, v in hat.expansion.regular.coeffs.items():
        fr = v if isinstance(v, Fraction) else v.a
        vp = _vp_fraction(fr, p)
        if vp is not None and vp < 0:
            raise IntegralityError(f"coefficient at {key} has v_p = {vp} < 0")
        out[key] = ctx.from_fraction(fr, N)
    series = BiSeries(ring, out, order)
    mult = None
    period = None
    note = None
    if want_multiplicative:
        try:
            period = solve_padic_period(curve, p, N)
            guard = 6
            ring_g = PadicRing(ctx, N + guard)
            lam = formal_log(curve, order + 2, ExactRing(0)).series
            lam_p = UniSeries(ring_g, {k: ring_g.coerce(v)
                                       for k, v in lam.coeffs.items()
                                       if k <= order + 1}, order + 1)
            om_inv = period.omega.inverse().with_abs_prec(N + guard)
            eta = lam_p.scale(om_inv).exp() - UniSeries.constant(ring_g, 1, order + 1)
            iota = eta.reversion()
            mult = series.compose(
                UniSeries(ring, {k: v.with_abs_prec(N) for k, v in iota.coeffs.items()},
                          order),
                UniSeries(ring, {k: v.with_abs_prec(N) for k, v in iota.coeffs.items()},
                          order))
        except NoPeriodError as exc:
            note = str(exc)
    return MeasureSeries(series=series, p=p, f=1, abs_prec=N,
                         provenance=f"starred composed expansion, order {order}",
                         mult_series=mult, period=period, period_note=note,
                         curve=curve)


def restrict_biseries_to_units(series: BiSeries, p: int) -> BiSeries:
    """psi-operator restriction on multiplicative (S, T) coordinates.

    Change to the binomial basis (1+S)^j (1+T)^k and drop every index with
    p | j or p | k; no root of unity is materialized (the triangular system
    behind the trace identity is solved by the basis change).
    """
    order = series.order
    ring = series.ring
    # S-axis then T-axis
    def one_axis(coeffs, axis):
        # b_j = sum_k (-1)^(k-j) C(k, j) a_k  (upper-triangular inverse)
        out = {}
        # group by the other index
        rows = defaultdict(dict)
        for (i, j), v in coeffs.items():
            k, other = (i, j) if axis == 0 else (j, i)
            rows[other][k] = v
        for other, row in rows.items():
            kmax = max(row)
            b = {}
            for j in range(0, kmax + 1):
                acc = None
                for k in range(j, kmax + 1):
                    v = row.get(k)
                    if v is None:
                        continue
                    c = math.comb(k, j) * (-1) ** (k - j)
                    t = v * c
                    acc = t if acc is None else acc + t
                if acc is not None and not ring.is_zero(acc):
                    if j % p != 0:
                        b[j] = acc
            # back to monomial basis: a'_k = sum_j b_j C(j, k)
            for j, v in b.items():
                for k in range(0, j + 1):
                    key = (k, other) if axis == 0 else (other, k)
                    if key[0] + key[1] > order:
                        continue
                    t = v * math.comb(j, k)
                    out[key] = out[key] + t if key in out else t
        return out

    step1 = one_axis(series.coeffs, 0)
    step2 = one_axis(step1, 1)
    return BiSeries(ring, step2, order)


def restrict_to_units(mu: MeasureSeries, out_order: Optional[int] = None) -> MeasureSeries:
    """Restriction of the measure to Z_p^x x Z_p^x.

    Multiplicative coordinates: the binomial-basis psi projection.  Formal
    coordinates: the four-fold torsion-trace combination, recomputed from the
    exact composed expansion at the order needed for the trace tails.
    """
    p = mu.p
    out_order = out_order or mu.series.order
    if mu.curve is None:
        if mu.mult_series is None:
            raise ValueError("measure lacks both a curve and mult coordinates")
        rest = restrict_biseries_to_units(mu.mult_series, p)
        return MeasureSeries(series=mu.series, p=p, f=mu.f, abs_prec=mu.abs_prec,
                             provenance=mu.provenance + " | unit-restricted",
                             coords="multiplicative", restricted=True,
                             mult_series=rest, period=mu.period,
                             period_note=mu.period_note, curve=None)
    series = restricted_formal_series(mu.curve, p, mu.abs_prec, out_order)
    mult = None
    if mu.mult_series is not None:
        mult = restrict_biseries_to_units(mu.mult_series, p)
    return MeasureSeries(series=series, p=p, f=mu.f,
                         abs_prec=mu.abs_prec,
                         provenance=mu.provenance + " | unit-restricted (trace)",
                         restricted=True, mult_series=mult, period=mu.period,
                         period_note=mu.period_note, curve=mu.curve)


def moment_table(mu: MeasureSeries, a_max: int, b_max: int):
    """(a, b) -> moment scalar.

    Multiplicative coordinates: int x^(b-1) y^a dmu via log-derivatives.
    Formal coordinates: the period-normalized moments (the multiplicative
    moment equals Omega_p^(a+b-1) times the returned value)."""
    if mu.mult_series is not None:
        out = {}
        for b in range(1, b_max + 1):
            for a in range(0, a_max + 1):
                if (b - 1) + a <= mu.mult_series.order:
                    out[(a, b)] = mu.mult_series.log_derivative_moment(b - 1, a)
        return out
    if mu.curve is None:
        raise ValueError("formal-coordinate moments need the curve")
    return formal_moments(mu.series, mu.curve, mu.p, a_max, b_max)


# ---------------------------------------------------------------------------
# interpolation at the origin and Kummer congruences
# ---------------------------------------------------------------------------

@dataclass
class InterpolationRow:
    a: int
    b: int
    exact_equal: bool               # four-term == Euler closed form in Q(sqrt(-d))
    padic_digits_checked: int       # trace route vs embedded exact
    padic_equal: bool


@dataclass
class InterpolationReport:
    p: int
    N: int
    pi: ExactScalar
    rows: List[InterpolationRow]

    @property
    def passed(self) -> bool:
        return all(r.exact_equal and r.padic_equal for r in self.rows)


def four_term_moment(curve: CurveData, pi: ExactScalar, p: int,
                     a: int, b: int, exps=None):
    """(b-1)! a! [z^(b-1) w^a] of Theta(z,w;G) - Theta(pz,w;pibar G)
    - Theta(z,pw;pibar G) + Theta(pz,pw;pibar^2 G), all exact.

    exps: optional cached triple (base, pibar-scaled, pibar^2-scaled)."""
    if exps is None:
        exps = four_term_expansions(curve, pi, a + b)
    base, e1, e2 = exps
    m, n = b - 1, a
    val = base.coeff(m, n) \
        - ExactScalar(p) ** m * e1.coeff(m, n) \
        - ExactScalar(p) ** n * e1.coeff(m, n) \
        + ExactScalar(p) ** (m + n) * e2.coeff(m, n)
    return val * math.factorial(m) * math.factorial(n)


@lru_cache(maxsize=4)
def four_term_expansions(curve: CurveData, pi: ExactScalar, order: int):
    ring = ExactRing(pi.d)
    pibar = pi.conjugate()
    base = kronecker_exact(curve, order, ring)
    e1 = kronecker_exact(curve.scaled(pibar), order, ring)
    e2 = kronecker_exact(curve.scaled(pibar * pibar), order, ring)
    return base, e1, e2


def euler_factor_moment(curve: CurveData, pi: ExactScalar, p: int,
                        a: int, b: int, base: Optional[ThetaExpansion] = None):
    """(b-1)! a! c~(b-1, a) (1 - pi^(a+b)/p^(a+1)) (1 - pi^(a+b)/p^b): the
    closed form of the unit-restricted moment, period-normalized."""
    if base is None:
        base = kronecker_exact(curve, a + b, ExactRing(pi.d))
    ctil = base.coeff(b - 1, a)
    one = ExactScalar(1)
    return ctil * math.factorial(b - 1) * math.factorial(a) \
        * (one - pi ** (a + b) / ExactScalar(p) ** (a + 1)) \
        * (one - pi ** (a + b) / ExactScalar(p) ** b)


def verify_interpolation_origin(curve: CurveData, p: int, N: int,
                                a_max: int, b_max: int) -> InterpolationReport:
    """Origin instance of the interpolation identity.

    Exact side: unit-restricted moments in closed form (Euler factors times
    the Eisenstein-Kronecker value) must equal the four-term scaled-lattice
    combination as identities in Q(sqrt(-d)).  p-adic side: the trace-route
    restriction of the measure must reproduce them mod p^(N - buffer(a,b)).
    """
    d = curve.d or 1
    pi = split_prime_generator(p, d)
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
            buf = precision_buffer(a, b, p)
            k = 0
            padic_ok = True
            if got is not None:
                want = embed_padic(m4, p, N + 4)
                k = min(N - buf, got.abs_prec, want.abs_prec)
                if k > 0:
                    padic_ok = got.eq_mod(want, k)
            rows.append(InterpolationRow(a, b, exact_ok, max(k, 0), padic_ok))
    return InterpolationReport(p, N, pi, rows)


@dataclass
class KummerRow:
    pair_lo: Tuple[int, int]     # (a, b)
    pair_hi: Tuple[int, int]
    twist_power: int
    congruent: bool


@dataclass
class KummerReport:
    p: int
    a_p_mod_p: int
    rows: List[KummerRow]

    @property
    def passed(self) -> bool:
        return all(r.congruent for r in self.rows)


def hasse_unit_mod_p(curve: CurveData, p: int) -> int:
    """a_p mod p: p times the t^p coefficient of the formal logarithm."""
    lam = formal_log(curve, p + 1, ExactRing(0)).series
    return _int_mod(Fraction(p) * lam.coeff(p), p, p)


def kummer_congruences(curve: CurveData, p: int, max_exp: int = 20) -> KummerReport:
    """Congruences between unit-restricted moments whose exponent pairs agree
    mod p-1.

    The multiplicative moments carry Omega_p^(a+b-1); with
    Omega_p^(p-1) = a_p^-1 (mod p) from the residue equation, the exact
    verifiable form is

        M(a, b) = a_p^((a+b)-(a'+b'))/(p-1) M(a', b')  mod (the prime over p),

    M the period-normalized Euler-factor moments.
    """
    d = curve.d or 1
    pi = split_prime_generator(p, d)
    ap = hasse_unit_mod_p(curve, p)
    # unit count of the CM order, from g2, g3 rather than d: Z[sqrt(-3)]
    # and Z[2 sqrt(-1)] share d with orders that have more units
    w = 6 if not curve.g2 else 4 if not curve.g3 else 2
    order = 2 * max_exp + 2
    base = kronecker_exact(curve, order, ExactRing(d))
    vals = {}
    for x in range(0, max_exp + 1):       # x = b - 1
        for y in range(0, max_exp + 1):   # y = a
            a, b = y, x + 1
            if a + b > order or (a + b) % w != 0:
                continue
            vals[(a, b)] = euler_factor_moment(curve, pi, p, a, b, base)
    rows = []
    for (a, b), m1 in sorted(vals.items()):
        for (a2, b2), m2 in sorted(vals.items()):
            if (a2, b2) <= (a, b):
                continue
            if (b2 - b) % (p - 1) or (a2 - a) % (p - 1):
                continue
            delta = (a2 + b2) - (a + b)
            tw = delta // (p - 1)
            # m2 = a_p^(-tw)-twisted... compare m1 * ap^tw = m2 mod prime
            lhs = embed_padic(m1 * ExactScalar(pow(ap, tw, p ** 4)), p, 4)
            rhs = embed_padic(m2, p, 4)
            cong = (lhs - rhs).valuation()
            ok = not isinstance(cong, int) or cong >= 1
            rows.append(KummerRow((a, b), (a2, b2), tw, ok))
    return KummerReport(p, ap, rows)
