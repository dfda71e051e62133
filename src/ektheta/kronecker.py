"""The Kronecker theta function: exact expansion, numeric evaluation,
translations, identity verification, and the formal-parameter composition.

Exact engine.  theta(z) = z U(z) with U a unit series, and

    Theta(z, w) - 1/z - 1/w = (z + w) (V - 1) / (z w),
    V(z, w) = U(z + w) / (U(z) U(w)),

where V - 1 is divisible by z w exactly because V(z, 0) = V(0, w) = 1; the
division is performed and checked term by term.  The regular part is the
generating function of the Eisenstein-Kronecker numbers:

    coeff(z^(b-1) w^a) = (-1)^(a+b-1) e*_{a,b}(0,0) / (a! A^a).

Numeric engine.  theta is evaluated through the first Jacobi theta function
after reducing the argument into the fundamental cell with the reduced-theta
transformation factor alpha(gamma) exp[(z gamma-bar + |gamma|^2/2)/A];
Theta(z, w) = theta(z+w)/(theta(z) theta(w)) and translations carry the
exponential factor exp[-z0 conj(w0)/A] exp[-(z conj(w0) + w conj(z0))/A].
The translate is thus separable, exp[-z0 conj(w0)/A] R_z(z) R_w(w) G(z + w)
with R_z = exp[-z conj(w0)/A]/theta(z0 + z), R_w likewise and G(s) =
theta(z0 + w0 + s): its Laurent coefficients are the finite Cauchy product
of three one-variable series, each built from theta's Taylor series at its
centre (derivatives of the Jacobi theta_1 there, times the series of the
transformation factor), R_z and R_w by series inversion.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Tuple

from .curves import (
    CurveData,
    LatticeData,
    catalog_row_of,
    eta1_quasi_period,
    formal_log,
    lattice_pair_mpc,
    theta_series,
)
from .eklerch import ek_table
from .scalars import ExactScalar, _vp_fraction, in_ok, mp, ok_elements, \
    residue_classes
from .series import (
    BiSeries,
    KroneckerExpansion,
    NotDivisibleError,
    UniSeries,
    axpy,
    bilinear,
    carried,
    inverse_row,
    lcm_into,
)

__all__ = [
    "kronecker_exact",
    "kronecker_regular",
    "ek_from_expansion",
    "ThetaEvaluator",
    "PoleProximityError",
    "taylor_coefficients_2d",
    "verify_generating_function",
    "GenFunReport",
    "torsion_point",
    "verify_distribution",
    "DistributionReport",
    "compose_formal",
    "compose_regular",
    "valuation_heatmap",
    "HeatmapReport",
]


# ---------------------------------------------------------------------------
# exact expansion
# ---------------------------------------------------------------------------

def kronecker_exact(curve: CurveData, order: int, ring=None) -> KroneckerExpansion:
    """Exact Theta expansion at the origin, 1/z + 1/w plus the symmetric
    regular part to total degree `order`, in the curve's field, or
    varpi-scaled on a ScaledIntRing (kronecker_regular)."""
    ring = ring or curve.ring()
    U = theta_series(curve, order + 2, ring)._row_from(1)    # theta(z)/z
    return KroneckerExpansion(ring.one, kronecker_regular(
        U, inverse_row(U, order + 1, ring), order, ring))


def kronecker_regular(U: tuple, Uinv: tuple, order: int, ring) -> BiSeries:
    """(z + w)(V - 1)/(z w), V = U(z + w) U(z)^-1 U(w)^-1, to total degree
    `order`, from the int rows of U and U^-1 (degrees 0..order+1).

    The loops run on anti-diagonals, one row per total degree d indexed by
    the z-exponent: U(z)^-1 moves (m, n) to (m + j, n) and U(w)^-1 to
    (m, n + j), so each coefficient of U^-1 scales a whole anti-diagonal by
    one factor, and each anti-diagonal sums its terms over the lcm of their
    denominators.  The same loops run on the int rows of Q, of Q(sqrt(-d))
    (series.bilinear takes them apart into parts) and of a ScaledIntRing
    (U and U^-1 of varpi-scaled z, entry k of varpi-degree k, and a product
    carries one factor p where the carry rule says so).  There
    the result at total degree d is stored with p^(floor(d/(p-1)) + 1), one
    power of p above its varpi-degree, so that the shift through
    (z + w)/(z w) multiplies by p or 1 and never divides.

    V - 1 must vanish on both axes and the result must be symmetric; either
    failure is a bug, not a data condition."""
    D = order + 1
    period, carry = ring.period, ring.carry
    du, up = U

    def times_inverse(diagonals, inverse, along_z: bool) -> list:
        (di, (inv,)), = inverse
        uinv = [(j, c, c * carry, j % period) for j, c in enumerate(inv[:D + 1]) if c]
        live = [d for d, (_, (src,)) in enumerate(diagonals) if any(src)]
        dens = [1] * (D + 1)
        for d in live:
            lcm_into(dens, (d + j for j, *_ in uinv if d + j <= D),
                     diagonals[d][0] * di)
        out = [[0] * (d + 1) for d in range(D + 1)]
        for d in live:
            (sd, (src,)), rd = diagonals[d], d % period
            q = sd * di
            for j, c, cc, r in uinv:
                if d + j > D:
                    break
                c = cc if rd + r >= period else c
                if dens[d + j] != q:
                    c *= dens[d + j] // q
                tgt, lo = out[d + j], j if along_z else 0
                tgt[lo:lo + d + 1] = axpy(tgt[lo:lo + d + 1], src, c)
        return [ring.normalize(den, [row]) for den, row in zip(dens, out)]

    # A = U(z + w): anti-diagonal d holds U_d C(d, m) at index m
    A = [ring.normalize(du, [[u[d] * math.comb(d, m) for m in range(d + 1)]
                             for u in up]) if any(u[d] for u in up)
         else (1, [[0] * (d + 1) for u in up]) for d in range(D + 1)]
    V = bilinear(ring, times_inverse, bilinear(ring, times_inverse, A, [Uinv], True),
                 [Uinv], False)
    den, parts = V[0]
    parts[0][0] -= den
    V[0] = ring.normalize(den, parts)
    # V - 1 must vanish on both axes (forced by the polar structure)
    for d, (den, parts) in enumerate(V):
        if any(part[0] or part[d] for part in parts):
            m = 0 if any(part[0] for part in parts) else d
            value = ring.from_row(den, [[part[m]] for part in parts])[0]
            raise NotDivisibleError(
                f"Kronecker divisibility failed at z^{m} w^{d - m}: {value} "
                "(implementation bug, not a data condition)")
    # (z + w) (V - 1)/(z w): (m, n) of degree d - 1 takes V(m, n+1) + V(m+1, n)
    diagonals = []
    for d in range(1, D + 1):
        den, parts = V[d]
        if not any(map(any, parts)):
            diagonals.append((1, [part[1:] for part in parts]))
            continue
        parts = [[a + b for a, b in zip(part, part[1:])] for part in parts]
        if d % period:
            parts = [[v * carry for v in part] for part in parts]
        den, parts = ring.normalize(den, parts)
        if any(part != part[::-1] for part in parts):
            raise AssertionError("Theta expansion lost z<->w symmetry")
        diagonals.append((den, parts))
    return BiSeries(ring, _rows_of_diagonals(diagonals), order)


def _rows_of_diagonals(diagonals: list) -> list:
    """Row m over n from anti-diagonal rows (entry m of total degree d is
    (m, d - m)), over the lcm of the denominators of degrees d >= m."""
    dens = [1]
    for dd, _ in reversed(diagonals):
        dens.append(math.lcm(dens[-1], dd))
    rows = []
    for m, den in enumerate(dens[:0:-1]):
        src = diagonals[m:]
        parts = [[parts[k][m] for _, parts in src] for k in range(len(src[0][1]))]
        if den != 1:
            factors = [den // dd for dd, _ in src]
            parts = [list(map(mul, part, factors)) for part in parts]
        rows.append((den, parts))
    return rows


def ek_from_expansion(exp: KroneckerExpansion, a: int, b: int):
    """e*_{a,b}(0,0)/(a! A^a), read off the (z^(b-1) w^a) coefficient."""
    if a < 0 or b <= 0:
        raise ValueError("need a >= 0, b > 0")
    if a + b - 1 > exp.order:
        raise ValueError(f"order {exp.order} < a+b-1 = {a + b - 1}")
    c = exp.coeff(b - 1, a)
    return c if (a + b - 1) % 2 == 0 else -c


# ---------------------------------------------------------------------------
# numeric engine
# ---------------------------------------------------------------------------

class PoleProximityError(ArithmeticError):
    """Evaluation requested too close to the polar divisor."""


def _theta1_derivatives(v, q, n: int) -> List[mp.mpc]:
    """[theta_1^(j)(v, q) for j = 0..n] (mpmath's jtheta(1, v, q, j)) from one
    pass over the q-series

        theta_1(v, q) = 2 q^(1/4) sum_k (-1)^k q^(k(k+1)) sin(c_k v),  c_k = 2k+1.

    With S(+-)_j = sum_k (-1)^k q^(k(k+1)) c_k^j e^(+-i c_k v), the j-th
    derivative is q^(1/4) (i^(j-1) S(+)_j - (-i)^(j+1) S(-)_j).  The sum stops
    once a term, weighted by c_k^n, falls below 2^-wp of the first; it runs
    at 16 + 4n bits above the caller's precision."""
    wp = mp.mp.prec + 16 + 4 * n
    with mp.workprec(wp):
        v, q = mp.mpc(v), mp.mpc(q)
        e = mp.exp(1j * v)
        ep, em = e, 1 / e
        e2, q2 = e * e, q * q
        ie2 = 1 / e2
        weight, step = mp.mpc(1), q2
        plus, minus = [mp.mpc(0)] * (n + 1), [mp.mpc(0)] * (n + 1)
        eps = mp.ldexp(abs(ep) + abs(em), -wp)
        k = 0
        while True:
            c = 2 * k + 1
            tp, tm = weight * ep, weight * em
            if k and (abs(tp) + abs(tm)) * c ** n < eps:
                break
            for j in range(n + 1):
                plus[j] += tp
                minus[j] += tm
                tp, tm = tp * c, tm * c
            weight, step = -weight * step, step * q2
            ep, em = ep * e2, em * ie2
            k += 1
        q4 = mp.nthroot(q, 4)
        return [q4 * (1j ** (j - 1) * plus[j] - (-1j) ** (j + 1) * minus[j])
                for j in range(n + 1)]


class ThetaEvaluator:
    """Numeric reduced theta / Kronecker theta on a fixed lattice."""

    def __init__(self, lattice: LatticeData):
        self.lattice = lattice
        self.prec = lattice.prec_bits
        with mp.workprec(self.prec + 24):
            self.w1, self.w2 = lattice.pair_mpc()
            self.A = lattice.A()
            self.tau = self.w2 / self.w1
            self.q = mp.exp(1j * mp.pi * self.tau)
            self.eta1 = eta1_quasi_period(self.w1, self.w2, self.prec + 24)
            self.e2 = (self.eta1 - mp.conj(self.w1) / self.A) / self.w1
            self.th1p0 = mp.jtheta(1, 0, self.q, 1)
            det = mp.im(mp.conj(self.w1) * self.w2)
            self._det = det
            # distance to the lattice below which an argument counts as a pole
            self.pole_tol = abs(self.w1) * mp.mpf(2) ** (-(self.prec // 3))

    def coords(self, z) -> Tuple[mp.mpf, mp.mpf]:
        """Real (x, y) with z = x w1 + y w2."""
        z = mp.mpc(z)
        y = mp.im(mp.conj(self.w1) * z) / self._det
        x = -mp.im(mp.conj(self.w2) * z) / self._det
        return x, y

    def dist_to_lattice(self, z) -> mp.mpf:
        x, y = self.coords(z)
        return abs(mp.mpc(z) - mp.nint(x) * self.w1 - mp.nint(y) * self.w2)

    def _reduced(self, z):
        """(z - g, g, alpha(g)) for g the lattice point of z's cell."""
        x, y = self.coords(z)
        m, n = mp.nint(x), mp.nint(y)
        g = m * self.w1 + n * self.w2
        alpha = 1 if (int(m) % 2 == 0 and int(n) % 2 == 0) else -1
        return z - g, g, alpha

    def theta(self, z):
        """Reduced theta: exp(-e2*/2 z^2) sigma(z), evaluated by reducing z
        into the fundamental cell and applying the transformation factor."""
        with mp.workprec(self.prec + 24):
            z0, g, alpha = self._reduced(mp.mpc(z))
            factor = alpha * mp.exp((z0 * mp.conj(g) + abs(g) ** 2 / 2) / self.A)
            sig = (self.w1 / mp.pi) * mp.exp(self.eta1 * z0 ** 2 / (2 * self.w1)) \
                * mp.jtheta(1, mp.pi * z0 / self.w1, self.q) / self.th1p0
            return factor * mp.exp(-self.e2 * z0 ** 2 / 2) * sig

    def taylor(self, c, n: int) -> List[mp.mpc]:
        """Coefficients 0..n of theta(c + t) in t.  c is reduced once to
        u = c - g, and with kappa = eta1/(2 w1) - e2/2

            theta(c + t) = alpha exp(((u + t) conj(g) + |g|^2/2)/A + kappa (u + t)^2)
                           (w1/pi) theta_1(pi (u + t)/w1, q) / theta_1'(0, q)

        is expanded from the derivatives of theta_1 at pi u/w1
        (_theta1_derivatives, one pass over its q-series) times the series of
        the exponential (_mpc_exp, _mpc_product)."""
        with mp.workprec(self.prec + 24):
            u, g, alpha = self._reduced(mp.mpc(c))
            cg = mp.conj(g)
            kappa = self.eta1 / (2 * self.w1) - self.e2 / 2
            lead = alpha * (self.w1 / mp.pi) / self.th1p0 \
                * mp.exp((u * cg + abs(g) ** 2 / 2) / self.A + kappa * u ** 2)
            h = mp.pi / self.w1
            derivs = _theta1_derivatives(h * u, self.q, n)
            jac = [derivs[d] * h ** d / mp.factorial(d) for d in range(n + 1)]
            expo = _mpc_exp([0, cg / self.A + 2 * kappa * u, kappa], n)
            return [lead * c for c in _mpc_product(jac, expo, n)]

    def _pole_guard(self, *zs):
        for z in zs:
            if self.dist_to_lattice(z) < self.pole_tol:
                raise PoleProximityError("argument within pole tolerance of the divisor")

    def kronecker(self, z, w):
        """Theta(z, w) = theta(z+w)/(theta(z) theta(w))."""
        with mp.workprec(self.prec + 24):
            self._pole_guard(z, w)
            return self.theta(z + w) / (self.theta(z) * self.theta(w))

    def kronecker_translated(self, z0, w0, z, w):
        """U_{(z0,w0)} Theta evaluated at (z, w)."""
        with mp.workprec(self.prec + 24):
            z0, w0, z, w = (mp.mpc(v) for v in (z0, w0, z, w))
            self._pole_guard(z + z0, w + w0)
            return self._translated(z0, w0, z, w, self.theta(z + z0),
                                    self.theta(w + w0))

    def _translated(self, z0, w0, z, w, theta_z, theta_w):
        """kronecker_translated from theta_z = theta(z + z0) and
        theta_w = theta(w + w0), their arguments already guarded."""
        pref = mp.exp(-z0 * mp.conj(w0) / self.A) \
            * mp.exp(-(z * mp.conj(w0) + w * mp.conj(z0)) / self.A)
        return pref * (self.theta(z + z0 + (w + w0)) / (theta_z * theta_w))

    def pair(self, x, y):
        return lattice_pair_mpc(mp.mpc(x), mp.mpc(y), self.A)


# Taylor series of theta values as mpc coefficient lists.  Each coefficient
# is a sum taken in ascending order of the first factor's index, with the
# terms that have a zero factor left out: that order fixes how it rounds.

def _mpc_product(a: list, b: list, n: int) -> list:
    """Coefficients 0..n of the product of the series a and b."""
    out = [None] * (n + 1)
    for i, x in enumerate(a[:n + 1]):
        if x:
            for k, y in enumerate(b[:n + 1 - i], i):
                if y:
                    t = x * y
                    out[k] = t if out[k] is None else out[k] + t
    return [mp.mpc(0) if c is None else c for c in out]


def _mpc_recurrence(c: list, n: int, first, step) -> list:
    """x_0 = first and x_m = step(m, sum_{i=1..m} c_i x_(m-i)) for m = 1..n
    (0 where every c_i is 0): exp(f) from c_i = i f_i, step s/m (E' = f' E),
    and 1/a from c = a, first 1/a_0 and step -s/a_0."""
    terms = [(i, v) for i, v in enumerate(c[1:n + 1], 1) if v]
    x = [first]
    for m in range(1, n + 1):
        s = None
        for i, v in terms:
            if i > m:
                break
            t = v * x[m - i]
            s = t if s is None else s + t
        x.append(mp.mpc(0) if s is None else step(m, s))
    return x


def _mpc_exp(f: list, n: int) -> list:
    """Coefficients 0..n of exp(f), f[0] = 0."""
    return _mpc_recurrence([v * k for k, v in enumerate(f)], n, mp.mpc(1),
                           lambda m, s: s * (mp.mpf(1) / m))


# ---------------------------------------------------------------------------
# Taylor coefficients of the translate
# ---------------------------------------------------------------------------

def taylor_coefficients_2d(rz, rw, g, a_max: int, b_max: int):
    """Laurent coefficients c[(m, n)], -1 <= m <= b_max-1, -1 <= n <= a_max,
    of f(z, w) = rz(z) rw(w) g(z + w), from the coefficients of its factors:
    rz[k], k = -1..b_max-1, rw[k], k = -1..a_max, and g[k], k = 0..a_max +
    b_max + 1.  As [z^i w^j] g(z + w) = C(i + j, i) g_(i+j), c is the finite
    Cauchy product

        c[(m, n)] = sum_{i, j >= -1} rz_i rw_j C(m-i + n-j, m-i) g_(m-i+n-j)."""
    return {(m, n): mp.fsum(rz[i] * rw[j] * math.comb(m - i + n - j, m - i)
                            * g[m - i + n - j]
                            for i in range(-1, m + 1) for j in range(-1, n + 1))
            for m in range(-1, b_max) for n in range(-1, a_max + 1)}


class GenFunReport(NamedTuple):
    max_abs_deviation: mp.mpf
    entries: Dict[Tuple[int, int], Tuple[mp.mpc, mp.mpc]]
    polar_z: Tuple[mp.mpc, mp.mpc]
    polar_w: Tuple[mp.mpc, mp.mpc]
    e01_recorded: mp.mpc
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_abs_deviation <= self.tolerance)


def verify_generating_function(z0_coords: Tuple[Fraction, Fraction],
                               w0_coords: Tuple[Fraction, Fraction],
                               a_max: int, b_max: int, lattice: LatticeData,
                               tol: float = 1e-12,
                               target_error: float = 1e-18) -> GenFunReport:
    """Compare numeric Taylor coefficients of the translated Kronecker theta
    against (-1)^(a+b-1) e*_{a,b}(z0, w0)/(a! A^a) from the lattice sums,
    polar terms included.  Coordinates are rational in the period basis.

    The translate factors exactly as

        U_{(z0,w0)} Theta(z, w) = exp(-z0 conj(w0)/A) R_z(z) R_w(w) G(z + w),
        R_z(z) = exp(-z conj(w0)/A)/theta(z0 + z),
        R_w(w) = exp(-w conj(z0)/A)/theta(w0 + w),   G(s) = theta(z0 + w0 + s).

    Each factor's series comes from theta's Taylor series at its centre
    (ThetaEvaluator.taylor): R_z and R_w by series inversion, with a simple
    pole exactly where theta's series reads a zero at the centre (|theta_0|
    within the pole tolerance of |theta_1|, a first-order distance to the
    lattice).  A centre off the lattice that reads a zero raises
    PoleProximityError; a lattice centre that reads none gets polar slot 0,
    which fails against the prediction.  taylor_coefficients_2d forms the
    coefficients by the finite Cauchy product of the three series."""
    ev = ThetaEvaluator(lattice)
    prec = ev.prec
    with mp.workprec(prec + 24):
        w1, w2 = ev.w1, ev.w2
        z0, dz = torsion_point(z0_coords, w1, w2)
        w0, dw = torsion_point(w0_coords, w1, w2)
        pair_wz = ev.pair(w0, z0)
        polar_z_pred = pair_wz if dz else mp.mpc(0)
        polar_w_pred = mp.mpc(1) if dw else mp.mpc(0)

        A = ev.A
        cw0, cz0 = mp.conj(w0), mp.conj(z0)

        def reciprocal(c, on_lattice: bool, slope, order: int):
            """Laurent coefficients -1..order of exp(slope t)/theta(c + t):
            1/theta from theta's coefficients from t^v on (v = 1 at a pole,
            where theta has a simple zero), known to t^(top - v)."""
            th = ev.taylor(c, order + (2 if on_lattice else 1))
            polar = abs(th[0]) < ev.pole_tol * abs(th[1])
            if polar and not on_lattice:
                raise PoleProximityError("centre within pole tolerance of the divisor")
            v = int(polar)
            n, lead = len(th) - 1 - v, 1 / th[v]
            inv = _mpc_recurrence(th[v:], n, lead, lambda m, s: -(lead * s))
            top = min(n, order + 1)
            out = _mpc_product(inv, _mpc_exp([0, slope], order + 1), top)  # t^(k - v)
            return {k: out[k + v] if 0 <= k + v <= top else mp.mpc(0)
                    for k in range(-1, order + 1)}

        # U_{(z0,w0)} Theta = R_z(z) R_w(w) G(z + w), the constant
        # exp(-z0 cw0/A) carried in R_z; theta(z0 + w0 + s) is a numerator
        pref0 = mp.exp(-z0 * cw0 / A)
        rz = {k: pref0 * v for k, v in reciprocal(z0, dz, -cw0 / A, b_max - 1).items()}
        rw = reciprocal(w0, dw, -cz0 / A, a_max)
        coeffs = taylor_coefficients_2d(rz, rw, ev.taylor(z0 + w0, a_max + b_max + 1),
                                        a_max, b_max)
        table = ek_table(a_max, b_max, z0, w0, lattice, target_error,
                         z0_in_lattice=dz, w0_in_lattice=dw)
        entries = {}
        maxdev = mp.mpf(0)
        for b in range(1, b_max + 1):
            for a in range(0, a_max + 1):
                got = coeffs[(b - 1, a)]
                ek = table[(a, b)].to_mpc()
                want = (-1) ** (a + b - 1) * ek / (mp.factorial(a) * A ** a)
                entries[(a, b)] = (got, want)
                maxdev = max(maxdev, abs(got - want))
        polar_z, polar_w = coeffs[(-1, 0)], coeffs[(0, -1)]
        maxdev = max(maxdev, abs(polar_z - polar_z_pred),
                     abs(polar_w - polar_w_pred))
        return GenFunReport(
            max_abs_deviation=maxdev,
            entries=entries,
            polar_z=(polar_z, polar_z_pred),
            polar_w=(polar_w, polar_w_pred),
            e01_recorded=coeffs[(0, 0)],
            tolerance=tol,
        )


def torsion_point(coords, w1, w2):
    """(c1 w1 + c2 w2, whether it is a lattice point) for rational
    period-basis coordinates (c1, c2)."""
    c1, c2 = (Fraction(c) for c in coords)
    z = (mp.mpf(c1.numerator) / c1.denominator) * w1 \
        + (mp.mpf(c2.numerator) / c2.denominator) * w2
    return z, c1.denominator == 1 and c2.denominator == 1


# ---------------------------------------------------------------------------
# distribution relation
# ---------------------------------------------------------------------------

class DistributionReport(NamedTuple):
    max_residual: mp.mpf
    residuals: List[mp.mpf]
    epsilon: ExactScalar
    relaxed_epsilon: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)


def find_epsilon(a_gen: ExactScalar, b_gen: ExactScalar, d: int) -> ExactScalar:
    """Smallest-norm eps with eps = 1 mod (a b), eps = 0 mod conj(b)."""
    ab = a_gen * b_gen
    bbar = b_gen.conjugate()
    bound = 4 * int(ab.norm() * bbar.norm()) + 16
    for t in ok_elements(bound, d):
        eps = bbar * t
        if in_ok((eps - 1) / ab, d):
            return eps
    raise ValueError("no epsilon found: hypothesis (ab, conj(b)) = 1 violated?")


def require_maximal_order(curve: CurveData):
    """curve's catalog row (catalog_row_of); ValueError when its CM order is
    not maximal, which verify_distribution cannot take."""
    row = catalog_row_of(curve)
    if row.conductor != 1:
        raise ValueError(f"the distribution relation needs Gamma = O_K w1: "
                         f"{row.label} has conductor {row.conductor}")
    return row


def verify_distribution(a_gen: ExactScalar, b_gen: ExactScalar,
                        lattice: LatticeData, n_points: int = 10,
                        tol: float = 1e-12, seed: int = 0) -> DistributionReport:
    """Numeric residual of the distribution relation

        sum_{alpha, beta} <eps alpha, w0> Theta_{z0 + eps alpha, w0 + eps beta}
            = N(ab) Theta_{N(a) z0, N(b) w0}(N(a) z, N(b) w; conj(ab) Gamma)

    at z0 = w0 = 0 over pseudo-random sample points, in the CM field of the
    lattice's curve (curves.catalog_row_of).  When the coprimality hypothesis
    (ab, conj b) = 1 fails (ramified b), epsilon = 1 is used and the report
    flags the relaxation; at the origin the epsilon factors are vacuous.
    alpha and beta run over (1/a) O_K/O_K through the identification
    Gamma = O_K w1, which holds only when the CM order is maximal: a curve
    of conductor f > 1 (End(E) = Z + f O_K) raises ValueError
    (require_maximal_order).
    """
    import random as _random

    d = require_maximal_order(lattice.curve).d
    ev = ThetaEvaluator(lattice)
    with mp.workprec(ev.prec + 24):
        w1, w2 = ev.w1, ev.w2
        ab = a_gen * b_gen
        relaxed = False
        try:
            epsilon = find_epsilon(a_gen, b_gen, d)
        except ValueError:
            epsilon = ExactScalar(1)
            relaxed = True
        # (1/g) O_K / O_K for the CM identification Gamma = O_K * w1
        alphas = [x / a_gen for x in residue_classes(a_gen, d)]
        betas = [x / b_gen for x in residue_classes(b_gen, d)]
        sqd = mp.sqrt(mp.mpf(d)) * 1j

        def embed(x: ExactScalar):
            # a + b sqrt(-d) -> a + b * (numeric sqrt(-d)), scaled onto w1
            return (mp.mpf(x.a.numerator) / x.a.denominator
                    + (mp.mpf(x.b.numerator) / x.b.denominator) * sqd) * w1

        eps_num = embed(epsilon) / w1
        Na, Nb = int(a_gen.norm()), int(b_gen.norm())
        c = ab.conjugate()
        c_num = embed(c) / w1
        zas = [eps_num * embed(al) for al in alphas]
        wbs = [eps_num * embed(be) for be in betas]
        rng = _random.Random(seed)
        residuals = []
        for _ in range(n_points):
            z = (rng.uniform(0.07, 0.43) * w1 + rng.uniform(0.07, 0.43) * w2) \
                * (1 if rng.random() < 0.5 else -1)
            w = (rng.uniform(0.07, 0.43) * w1 - rng.uniform(0.07, 0.43) * w2) \
                * (1 if rng.random() < 0.5 else -1)
            # theta(z + z_alpha) once per alpha and theta(w + w_beta) once
            # per beta, each guarded; the terms add in (alpha, beta) order
            ev._pole_guard(*(z + za for za in zas), *(w + wb for wb in wbs))
            theta_z = [ev.theta(z + za) for za in zas]
            theta_w = [ev.theta(w + wb) for wb in wbs]
            lhs = mp.mpc(0)
            for za, tz in zip(zas, theta_z):
                for wb, tw in zip(wbs, theta_w):
                    lhs += ev._translated(za, wb, z, w, tz, tw)
            # RHS on the scaled lattice via homogeneity
            Z, W = Na * z, Nb * w
            rhs = Na * Nb * ev.kronecker(Z / c_num, W / c_num) / c_num
            residuals.append(abs(lhs - rhs))
        return DistributionReport(max(residuals), residuals, epsilon, relaxed, tol)


# ---------------------------------------------------------------------------
# formal composition and valuations
# ---------------------------------------------------------------------------

def compose_formal(exp: KroneckerExpansion, curve: CurveData, order: int,
                   starred: bool = True) -> KroneckerExpansion:
    """Theta-hat(s, t): substitute z = lambda(s), w = lambda(t) into the
    Theta expansion.

    The polar parts transform through 1/lambda(s) = (1/s) (lambda/s)^(-1);
    the starred variant subtracts exactly 1/s and 1/t (polar 0), so its
    regular part picks up the tail (1/lambda(s) - 1/s) + (1/lambda(t) - 1/t).
    The unstarred one keeps polar 1 and the same regular part.
    """
    if order > exp.order:
        raise ValueError(f"composition order {order} exceeds expansion order "
                         f"{exp.order}")
    ring = exp.regular.ring
    lam = formal_log(curve, order + 2, ring).series
    # Q = (lambda/s)^(-1) to degree order + 1: lambda's row one degree down
    Q = UniSeries._of_row(ring, lam.start - 1, lam.row, lam.order - 1).inverse()
    composed = compose_regular(exp.regular.truncate(order), lam.truncate(order), Q, order)
    return KroneckerExpansion(ring.zero if starred else ring.one, composed)


def compose_regular(regular: BiSeries, lam: UniSeries, Q: UniSeries,
                    order: int) -> BiSeries:
    """regular(lam(s), lam(t)) plus the polar tails 1/lam(u) - 1/u =
    (Q(u) - 1)/u on both axes, to total degree `order`; exact, or
    varpi-scaled on a ScaledIntRing (BiSeries.compose), as the inputs are.
    There the regular part carries one power of p above its varpi-degree
    (kronecker_regular), and so does each tail term: Q_k, of varpi-degree
    k, moves to degree k - 1 times p, or times 1 when p - 1 divides k."""
    ring = regular.ring
    composed = regular.compose(lam, lam)
    den, parts = Q._row_from(1)
    parts = [carried(part[:order + 1], 1, ring.period - 1, ring) for part in parts]
    tails = [(den, [[2 * part[0]] + part[1:] for part in parts])] + \
        [(den, [[part[m]] + [0] * (order - m) for part in parts])
         for m in range(1, order + 1)]
    return composed + BiSeries(ring, tails, order)


class HeatmapReport(NamedTuple):
    """Denominator exponents of a composed expansion at p.

    entries: (m, n) -> max(0, -v_p).  ridge maps total degree T to the
    maximal exponent on the antidiagonal m + n = T (the landscape's growth
    direction; the literal m = n diagonal vanishes identically on CM curves
    whose nonzero coefficients sit in a single congruence class of total
    degree).  diagonal_slope is the least-squares slope of ridge over the
    fitted window, per unit total degree.
    """

    p: int
    entries: Dict[Tuple[int, int], int]
    ridge: Dict[int, int]
    diagonal_slope: Optional[float]
    fit_window: Tuple[int, int]

    def csv_rows(self):
        for (m, n), e in sorted(self.entries.items()):
            yield m, n, e


def valuation_heatmap(composed: KroneckerExpansion, p: int,
                      fit_window: Tuple[int, int] = (10, 10 ** 9)) -> HeatmapReport:
    """Exponent of p in the denominator of every coefficient, with the
    antidiagonal ridge statistic and its least-squares slope; v_p of a
    coefficient is that of its numerator less that of its row's
    denominator."""
    entries = {}
    ridge: Dict[int, int] = {}
    for m, (den, parts) in enumerate(composed.regular.rows):
        if any(map(any, parts[1:])):
            raise TypeError(f"cannot reinterpret row {m}, with a sqrt(-d) part, as a rational")
        v_den = _vp_fraction(den, p)
        for n, a in enumerate(parts[0]):
            if a:
                e = max(0, v_den - _vp_fraction(a, p))
                entries[(m, n)] = e
                ridge[m + n] = max(ridge.get(m + n, 0), e)
    lo, hi = fit_window
    hi = min(hi, composed.order)
    pts = [(T, e) for T, e in ridge.items() if lo <= T <= hi]
    slope = None
    if len(pts) >= 2:
        nn = len(pts)
        sx = sum(x for x, _ in pts)
        sy = sum(y for _, y in pts)
        sxx = sum(x * x for x, _ in pts)
        sxy = sum(x * y for x, y in pts)
        denom = nn * sxx - sx * sx
        if denom:
            slope = (nn * sxy - sx * sy) / denom
    return HeatmapReport(p, entries, ridge, slope, (lo, hi))
