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
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import mpmath as mp

from .curves import (
    CurveData,
    LatticeData,
    eta1_quasi_period,
    formal_log,
    lattice_pair_mpc,
    theta_series,
)
from .eklerch import ek_table
from .scalars import ExactScalar, _vp_fraction, in_ok, ok_elements, \
    residue_classes
from .series import (
    BiSeries,
    ComplexRing,
    ExactRing,
    KroneckerExpansion,
    NotDivisibleError,
    UniSeries,
)

__all__ = [
    "ThetaExpansion",
    "ComposedExpansion",
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
    "log_and_tail_inverse",
    "compose_regular",
    "valuation_heatmap",
    "HeatmapReport",
]


# ---------------------------------------------------------------------------
# exact expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaExpansion:
    """Exact origin expansion of Theta(z, w): polar parts 1/z + 1/w and the
    symmetric regular part, coefficients in the curve's field."""

    expansion: KroneckerExpansion
    curve: CurveData
    order: int

    def coeff(self, m: int, n: int):
        return self.expansion.regular.coeff(m, n)


def _unit_series_list(curve: CurveData, order: int, ring) -> list:
    th = theta_series(curve, order + 1, ring)
    return [th.coeff(k + 1) for k in range(order + 1)]


def kronecker_exact(curve: CurveData, order: int,
                    ring: Optional[ExactRing] = None) -> ThetaExpansion:
    """Exact Theta expansion with regular part to total degree `order`."""
    ring = ring or curve.ring()
    D = order + 1
    U = _unit_series_list(curve, D, ring)
    Uinv = UniSeries.from_list(ring, U, D).inverse()
    regular = kronecker_regular(U, [Uinv.coeff(j) for j in range(D + 1)],
                                order, ring)
    return ThetaExpansion(KroneckerExpansion(ring.one, ring.one, regular),
                          curve, order)


def kronecker_regular(U: list, Uinv: list, order: int, ring) -> BiSeries:
    """(z + w)(V - 1)/(z w), V = U(z + w) U(z)^-1 U(w)^-1, to total degree
    `order`, from the coefficient lists of U and U^-1 (degrees 0..order+1).

    ring.reduce is applied after each stage, so the same loop runs on exact
    scalars and on ints mod m (IntModRing).  V - 1 must vanish on both axes
    and the result must be symmetric; either failure is a bug, not a data
    condition."""
    D = order + 1
    reduce = ring.reduce
    uinv = [(j, c) for j, c in enumerate(Uinv) if not ring.is_zero(c)]
    # A = U(z + w), as {(m, n): coeff}
    amap: Dict[Tuple[int, int], object] = {}
    for k in range(D + 1):
        if ring.is_zero(U[k]):
            continue
        for j in range(k + 1):
            amap[(j, k - j)] = reduce(U[k] * math.comb(k, j))
    # multiply by U(z)^-1 then U(w)^-1 (univariate convolutions)
    bmap: Dict[Tuple[int, int], object] = {}
    for (m, n), v in amap.items():
        lim = D - m - n
        for j, c in uinv:
            if j > lim:
                break
            key = (m + j, n)
            t = v * c
            bmap[key] = bmap[key] + t if key in bmap else t
    vmap: Dict[Tuple[int, int], object] = {}
    for (m, n), v in bmap.items():
        v = reduce(v)
        lim = D - m - n
        for j, c in uinv:
            if j > lim:
                break
            key = (m, n + j)
            t = v * c
            vmap[key] = vmap[key] + t if key in vmap else t
    # V - 1 must vanish on both axes (forced by the polar structure)
    vmap[(0, 0)] = vmap.get((0, 0), ring.zero) - ring.one
    reg: Dict[Tuple[int, int], object] = {}
    for (m, n), v in vmap.items():
        v = reduce(v)
        if ring.is_zero(v):
            continue
        if m == 0 or n == 0:
            raise NotDivisibleError(
                f"Kronecker divisibility failed at z^{m} w^{n}: {v} "
                "(implementation bug, not a data condition)")
        # (z + w) * (V - 1)/(z w): shift (m-1, n-1) through (z + w)
        for key in ((m, n - 1), (m - 1, n)):
            if key[0] + key[1] <= order:
                reg[key] = reg[key] + v if key in reg else v
    regular = BiSeries(ring, {k: reduce(v) for k, v in reg.items()}, order)
    if not regular.is_symmetric():
        raise AssertionError("Theta expansion lost z<->w symmetry")
    return regular


def ek_from_expansion(exp: ThetaExpansion, a: int, b: int):
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


class ThetaEvaluator:
    """Numeric reduced theta / Kronecker theta on a fixed lattice."""

    def __init__(self, lattice: LatticeData, prec_bits: Optional[int] = None):
        self.lattice = lattice
        self.prec = prec_bits or lattice.prec_bits
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

        is expanded from the derivatives of theta_1 at pi u/w1 times the
        series of the exponential."""
        with mp.workprec(self.prec + 24):
            u, g, alpha = self._reduced(mp.mpc(c))
            cg = mp.conj(g)
            kappa = self.eta1 / (2 * self.w1) - self.e2 / 2
            lead = alpha * (self.w1 / mp.pi) / self.th1p0 \
                * mp.exp((u * cg + abs(g) ** 2 / 2) / self.A + kappa * u ** 2)
            h = mp.pi / self.w1
            ring = ComplexRing()
            jac = UniSeries(ring, {d: mp.jtheta(1, h * u, self.q, d) * h ** d
                                   / mp.factorial(d) for d in range(n + 1)}, n)
            expo = UniSeries(ring, {1: cg / self.A + 2 * kappa * u, 2: kappa}, n).exp()
            prod = jac * expo
            return [lead * prod.coeff(d) for d in range(n + 1)]

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
            pref = mp.exp(-z0 * mp.conj(w0) / self.A) \
                * mp.exp(-(z * mp.conj(w0) + w * mp.conj(z0)) / self.A)
            return pref * self.kronecker(z + z0, w + w0)

    def pair(self, x, y):
        return lattice_pair_mpc(mp.mpc(x), mp.mpc(y), self.A)


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


@dataclass
class GenFunReport:
    max_abs_deviation: mp.mpf
    entries: Dict[Tuple[int, int], Tuple[mp.mpc, mp.mpc]]
    polar_z: Tuple[mp.mpc, mp.mpc]
    polar_w: Tuple[mp.mpc, mp.mpc]
    e01_recorded: mp.mpc
    tolerance: float
    # heuristic diagnostics, never asserted: continued-fraction reconstructions
    # of a! A^a times the extracted coefficients that came out near-rational
    near_rational: Dict[Tuple[int, int], Fraction] = None

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
        ring = ComplexRing()

        def reciprocal(c, on_lattice: bool, slope, order: int):
            """Laurent coefficients -1..order of exp(slope t)/theta(c + t)."""
            th = ev.taylor(c, order + (2 if on_lattice else 1))
            polar = abs(th[0]) < ev.pole_tol * abs(th[1])
            if polar and not on_lattice:
                raise PoleProximityError("centre within pole tolerance of the divisor")
            den = UniSeries(ring, {k: th[k] for k in range(int(polar), len(th))},
                            len(th) - 1)
            out = den.inverse() * UniSeries(ring, {1: slope}, order + 1).exp()
            return {k: out.coeff(k) for k in range(-1, order + 1)}

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
        from .eklerch import rational_reconstruct
        near_rational = {}
        for (a, b), (got, _want) in entries.items():
            scaled = got * mp.factorial(a) * A ** a
            if abs(mp.im(scaled)) < mp.mpf(10) * tol:
                rec = rational_reconstruct(mp.re(scaled), 10 ** 5,
                                           tol=mp.mpf(100) * tol)
                if rec is not None:
                    near_rational[(a, b)] = rec
        return GenFunReport(
            max_abs_deviation=maxdev,
            entries=entries,
            polar_z=(polar_z, polar_z_pred),
            polar_w=(polar_w, polar_w_pred),
            e01_recorded=coeffs[(0, 0)],
            tolerance=tol,
            near_rational=near_rational,
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

@dataclass
class DistributionReport:
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


def verify_distribution(a_gen: ExactScalar, b_gen: ExactScalar,
                        lattice: LatticeData, n_points: int = 10,
                        tol: float = 1e-12, seed: int = 0,
                        epsilon: Optional[ExactScalar] = None) -> DistributionReport:
    """Numeric residual of the distribution relation

        sum_{alpha, beta} <eps alpha, w0> Theta_{z0 + eps alpha, w0 + eps beta}
            = N(ab) Theta_{N(a) z0, N(b) w0}(N(a) z, N(b) w; conj(ab) Gamma)

    at z0 = w0 = 0 over pseudo-random sample points.  When the coprimality
    hypothesis (ab, conj b) = 1 fails (ramified b), the caller-supplied
    epsilon (default 1) is used and the report flags the relaxation; at the
    origin the epsilon factors are vacuous.
    """
    import random as _random

    curve = lattice.curve
    d = curve.d if curve is not None else 1
    ev = ThetaEvaluator(lattice)
    with mp.workprec(ev.prec + 24):
        w1, w2 = ev.w1, ev.w2
        ab = a_gen * b_gen
        bbar = b_gen.conjugate()
        relaxed = False
        if epsilon is None:
            try:
                epsilon = find_epsilon(a_gen, b_gen, d)
            except ValueError:
                epsilon = ExactScalar(1)
                relaxed = True
        else:
            # caller-supplied: check the congruences when the hypothesis holds
            ok = in_ok((epsilon - 1) / ab, d) and in_ok(epsilon / bbar, d)
            if not ok:
                try:
                    find_epsilon(a_gen, b_gen, d)
                except ValueError:
                    relaxed = True  # hypothesis (ab, conj b) = 1 fails: origin case
                else:
                    raise ValueError("epsilon violates its congruences")
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
        Ac = abs(c_num) ** 2 * ev.A
        rng = _random.Random(seed)
        residuals = []
        for _ in range(n_points):
            z = (rng.uniform(0.07, 0.43) * w1 + rng.uniform(0.07, 0.43) * w2) \
                * (1 if rng.random() < 0.5 else -1)
            w = (rng.uniform(0.07, 0.43) * w1 - rng.uniform(0.07, 0.43) * w2) \
                * (1 if rng.random() < 0.5 else -1)
            lhs = mp.mpc(0)
            for al in alphas:
                for be in betas:
                    za = eps_num * embed(al)
                    wb = eps_num * embed(be)
                    lhs += ev.kronecker_translated(za, wb, z, w)
            # RHS on the scaled lattice via homogeneity
            Z, W = Na * z, Nb * w
            rhs = Na * Nb * ev.kronecker(Z / c_num, W / c_num) / c_num
            residuals.append(abs(lhs - rhs))
        return DistributionReport(max(residuals), residuals, epsilon, relaxed, tol)


# ---------------------------------------------------------------------------
# formal composition and valuations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComposedExpansion:
    """Theta-hat(s, t): the origin expansion composed with z = lambda(s),
    w = lambda(t).  starred = True subtracts the raw 1/s + 1/t poles, leaving
    polar flags 0; the (1/lambda - 1/s)-tails live in the regular part."""

    expansion: KroneckerExpansion
    curve: CurveData
    starred: bool

    @property
    def order(self) -> int:
        return self.expansion.regular.order

    def coeff(self, m: int, n: int):
        return self.expansion.regular.coeff(m, n)


def compose_formal(exp: ThetaExpansion, curve: CurveData, order: int,
                   starred: bool = True) -> ComposedExpansion:
    """Substitute z = lambda(s), w = lambda(t) into the Theta expansion.

    The polar parts transform through 1/lambda(s) = (1/s) (lambda/s)^(-1);
    the starred variant subtracts exactly 1/s and 1/t, so its regular part
    picks up the tail (1/lambda(s) - 1/s) + (1/lambda(t) - 1/t).
    """
    if order > exp.order:
        raise ValueError(f"composition order {order} exceeds expansion order "
                         f"{exp.order}")
    ring = exp.expansion.regular.ring
    lam, Q = log_and_tail_inverse(curve, order, ring)
    composed = compose_regular(exp.expansion.regular.truncate(order), lam, Q, order)
    pol = ring.zero if starred else ring.one
    out = KroneckerExpansion(pol, pol, composed)
    return ComposedExpansion(out, curve, starred)


def log_and_tail_inverse(curve: CurveData, order: int, ring: ExactRing):
    """lambda to degree `order` and Q = (lambda/s)^(-1) to degree order + 1,
    the univariate inputs of compose_regular."""
    lam = formal_log(curve, order + 2, ring).series
    lam_over = UniSeries(ring, {k - 1: v for k, v in lam.coeffs.items()},
                         lam.order - 1)
    return lam.truncate(order), lam_over.inverse()


def compose_regular(regular: BiSeries, lam: UniSeries, Q: UniSeries,
                    order: int) -> BiSeries:
    """regular(lam(s), lam(t)) plus the polar tails 1/lam(u) - 1/u =
    (Q(u) - 1)/u on both axes, to total degree `order`; exact or on ints
    mod m (IntModRing), as the inputs are."""
    ring = regular.ring
    composed = regular.compose(lam, lam)
    add = {}
    for k, v in Q.coeffs.items():
        if k >= 1 and k - 1 <= order:
            for key in ((k - 1, 0), (0, k - 1)):
                add[key] = add[key] + v if key in add else v
    return composed + BiSeries(ring, {k: ring.reduce(v) for k, v in add.items()},
                               order)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, ExactScalar) and v.is_rational():
        return v.a
    raise TypeError(f"cannot reinterpret {v!r} as a rational")


@dataclass
class HeatmapReport:
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

    def ridge_nondecreasing_from(self, T0: int) -> bool:
        keys = sorted(T for T in self.ridge if T >= T0)
        vals = [self.ridge[T] for T in keys]
        return all(b >= a for a, b in zip(vals, vals[1:]))

    def csv_rows(self):
        for (m, n), e in sorted(self.entries.items()):
            yield m, n, e


def valuation_heatmap(composed: ComposedExpansion, p: int,
                      fit_window: Tuple[int, int] = (10, 10 ** 9)) -> HeatmapReport:
    """Exponent of p in the denominator of every coefficient, with the
    antidiagonal ridge statistic and its least-squares slope."""
    entries = {}
    ridge: Dict[int, int] = {}
    for (m, n), v in composed.expansion.regular.coeffs.items():
        fr = _as_fraction(v)
        vp = _vp_fraction(fr, p)
        if vp is None:
            continue
        e = max(0, -vp)
        entries[(m, n)] = e
        T = m + n
        ridge[T] = max(ridge.get(T, 0), e)
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
