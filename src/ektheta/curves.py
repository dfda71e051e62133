"""CM curve catalog, exact Weierstrass expansions, periods and the pairing.

Conventions
-----------
Curves are given in the form y^2 = 4x^3 - g2 x - g3 with the invariant
differential dx/y; the local parameter at the origin is t = -2x/y, and the
formal logarithm lambda(t) is normalized by lambda'(0) = 1.  Lattices are
Gamma = Z w1 + Z w2 with Im(w2/w1) > 0, A = Im(w2 conj(w1))/pi, and the
pairing is <z, w> = exp[(z conj(w) - w conj(z))/A].

The catalog lists the thirteen CM curves over Q, one per imaginary quadratic
order, with a free scaling parameter u: replacing u multiplies (g2, g3, e2*)
by (u^2, u^3, u)-weighted powers, i.e. scales the lattice by u^(-1/2)-type
homogeneity.  Row data: (order label, field tag d, g2/u^2, g3/u^3, e2*/u)
with the weight conventions of the table itself (g2 ~ u^k as listed).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial
from typing import Dict, List, NamedTuple, Optional, Tuple

from .scalars import BigComplex, ExactScalar, mp
from .series import ExactRing, SeriesError, UniSeries

__all__ = [
    "CurveData",
    "CatalogRow",
    "LatticeData",
    "FormalLog",
    "catalog",
    "catalog_row",
    "catalog_row_of",
    "j_invariant",
    "wp_series",
    "sigma_integers",
    "sigma_series",
    "theta_series",
    "log_integers",
    "formal_log",
    "compute_periods",
    "lattice_coords",
    "lattice_pair_mpc",
    "eisenstein_backcheck",
    "PeriodPrecisionError",
]


class PeriodPrecisionError(ArithmeticError):
    """Back-check residual of a computed period lattice exceeded tolerance."""


class CurveData:
    """Weierstrass data y^2 = 4x^3 - g2 x - g3 and, for theta, e2*.  Its CM
    order is read from the j-invariant (catalog_row_of).  An immutable value:
    equal data compare and hash alike, as the lru_cache keys on curves need."""

    __slots__ = ("g2", "g3", "e2_star")

    def __init__(self, g2: ExactScalar, g3: ExactScalar,
                 e2_star: Optional[ExactScalar] = None):
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "g3", g3)
        object.__setattr__(self, "e2_star", e2_star)
        if not self.discriminant():
            raise ValueError("degenerate curve: g2^3 - 27 g3^2 = 0")

    def __setattr__(self, *args):
        raise AttributeError("CurveData is immutable")

    def _key(self) -> tuple:
        return self.g2, self.g3, self.e2_star

    def __eq__(self, other):
        if not isinstance(other, CurveData):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "CurveData(g2={!r}, g3={!r}, e2_star={!r})".format(*self._key())

    def discriminant(self) -> ExactScalar:
        return self.g2 ** 3 - ExactScalar(27) * self.g3 ** 2

    def ring(self) -> ExactRing:
        """Q, or Q(sqrt(-d)) when a coefficient is irrational (its own tag)."""
        return ExactRing(max(x.d for x in (self.g2, self.g3, self.e2_star)
                             if x is not None))

    def scaled(self, c: ExactScalar) -> "CurveData":
        """Curve of the lattice c * Gamma: (g2, g3, e2*) / (c^4, c^6, c^2)."""
        return CurveData(
            g2=self.g2 / c ** 4,
            g3=self.g3 / c ** 6,
            e2_star=None if self.e2_star is None else self.e2_star / c ** 2,
        )

    def to_json(self):
        return {
            "g2": self.g2.to_json(),
            "g3": self.g3.to_json(),
            "e2_star": None if self.e2_star is None else self.e2_star.to_json(),
        }


class CatalogRow(NamedTuple):
    """One row of the CM-over-Q table, symbolic in the scaling u."""

    label: str
    d: int
    g2_coeff: int      # g2 = g2_coeff * u^2   (u^1 for the square lattice row)
    g2_upow: int
    g3_coeff: int      # g3 = g3_coeff * u^3
    g3_upow: int
    e2_coeff: Fraction  # e2* = e2_coeff * u
    conductor: int = 1  # the CM order is Z + conductor * O_K

    def curve(self, u=1) -> CurveData:
        uu = u if isinstance(u, ExactScalar) else ExactScalar(Fraction(u))
        if not uu:
            raise ValueError("u must be nonzero")
        return CurveData(
            g2=ExactScalar(self.g2_coeff) * uu ** self.g2_upow,
            g3=ExactScalar(self.g3_coeff) * uu ** self.g3_upow,
            e2_star=ExactScalar(self.e2_coeff) * uu,
        )

    def to_json(self):
        return {
            "cm_order": self.label,
            "d": self.d,
            "g2": {"coeff": str(self.g2_coeff), "u_pow": self.g2_upow},
            "g3": {"coeff": str(self.g3_coeff), "u_pow": self.g3_upow},
            "e2_star": {"coeff": f"{self.e2_coeff.numerator}/{self.e2_coeff.denominator}",
                        "u_pow": 1},
        }


_CATALOG: List[CatalogRow] = [
    CatalogRow("Z[(1+sqrt(-3))/2]", 3, 0, 2, 1, 3, Fraction(0)),
    CatalogRow("Z[sqrt(-3)]", 3, 15, 2, 11, 3, Fraction(1, 2), 2),
    CatalogRow("Z[(1+3*sqrt(-3))/2]", 3, 120, 2, 253, 3, Fraction(2), 3),
    CatalogRow("Z[sqrt(-1)]", 1, 1, 1, 0, 3, Fraction(0)),
    CatalogRow("Z[2*sqrt(-1)]", 1, 44, 2, 56, 3, Fraction(1), 2),
    CatalogRow("Z[(1+sqrt(-7))/2]", 7, 35, 2, 49, 3, Fraction(1, 2)),
    CatalogRow("Z[sqrt(-7)]", 7, 5 * 7 * 17, 2, 3 * 7**2 * 19, 3, Fraction(9, 2),
               2),
    CatalogRow("Z[sqrt(-2)]", 2, 30, 2, 28, 3, Fraction(1, 2)),
    CatalogRow("Z[(1+sqrt(-11))/2]", 11, 8 * 3 * 11, 2, 7 * 11**2, 3, Fraction(2)),
    CatalogRow("Z[(1+sqrt(-19))/2]", 19, 8 * 19, 2, 19**2, 3, Fraction(2)),
    CatalogRow("Z[(1+sqrt(-43))/2]", 43, 16 * 5 * 43, 2, 3 * 7 * 43**2, 3, Fraction(12)),
    CatalogRow("Z[(1+sqrt(-67))/2]", 67, 8 * 5 * 11 * 67, 2, 7 * 31 * 67**2, 3,
               Fraction(38)),
    CatalogRow("Z[(1+sqrt(-163))/2]", 163, 16 * 5 * 23 * 29 * 163, 2,
               7 * 11 * 19 * 127 * 163**2, 3, Fraction(724)),
]

_ALIASES = {
    "Z[i]": "Z[sqrt(-1)]",
    "Z[2i]": "Z[2*sqrt(-1)]",
    "Z[sqrt-1]": "Z[sqrt(-1)]",
}


def catalog() -> List[CatalogRow]:
    """The thirteen CM curves over Q, symbolic in u."""
    return list(_CATALOG)


def catalog_row(label: str) -> CatalogRow:
    want = _ALIASES.get(label, label).replace(" ", "")
    for row in _CATALOG:
        if row.label.replace(" ", "") == want:
            return row
    raise KeyError(f"no catalog row labelled {label!r}")


def j_invariant(curve: CurveData) -> ExactScalar:
    """j = 1728 g2^3 / (g2^3 - 27 g3^2), the same for every scaling u."""
    return ExactScalar(1728) * curve.g2 ** 3 / curve.discriminant()


@lru_cache(maxsize=None)
def _rows_by_j() -> Dict[Fraction, CatalogRow]:
    """{j: row}, j = 1728 g2^3/(g2^3 - 27 g3^2) from each row at u = 1."""
    return {Fraction(1728 * r.g2_coeff ** 3,
                     r.g2_coeff ** 3 - 27 * r.g3_coeff ** 2): r for r in _CATALOG}


def catalog_row_of(curve: CurveData) -> CatalogRow:
    """The catalog row whose curves share curve's j-invariant, so its CM
    order; raises ValueError when no row does."""
    j = j_invariant(curve)
    row = _rows_by_j().get(j.a) if j.is_rational() else None
    if row is None:
        raise ValueError(f"j = {j} is not the j-invariant of a catalog curve")
    return row


# ---------------------------------------------------------------------------
# exact expansions
# ---------------------------------------------------------------------------

def wp_series(curve: CurveData, order: int, ring: Optional[ExactRing] = None) -> UniSeries:
    """Weierstrass wp as a Laurent series: z^-2 + sum_{k>=2} c_k z^(2k-2).

    c_2 = g2/20, c_3 = g3/28 and for k >= 4 the quadratic recursion
    c_k = 3/((2k+1)(k-3)) * sum_{i=2}^{k-2} c_i c_{k-i}.
    """
    if order < 4:
        raise SeriesError("wp needs order >= 4")
    ring = ring or curve.ring()
    g2, g3 = ring.coerce(curve.g2), ring.coerce(curve.g3)
    kmax = order // 2 + 1
    c = {2: g2 * Fraction(1, 20), 3: g3 * Fraction(1, 28)}
    for k in range(4, kmax + 1):
        s = None
        for i in range(2, k - 1):
            t = c[i] * c[k - i]
            s = t if s is None else s + t
        c[k] = s * Fraction(3, (2 * k + 1) * (k - 3))
    out = {-2: ring.one}
    for k, v in c.items():
        if 2 * k - 2 <= order:
            out[2 * k - 2] = v
    return UniSeries(ring, out, order)


@lru_cache(maxsize=8)
def sigma_integers(order: int) -> Tuple[Tuple[int, int, int, int], ...]:
    """(k, m, n, a_mn) for k = 4m + 6n + 1 <= order: Weierstrass's integers
    (DLMF section 23.9), by weight 2m + 3n from a_00 = 1,

        3 a_mn = 9 (m+1) a_(m+1,n-1) + 16 (n+1) a_(m-2,n+1)
                 - (2m+3n-1)(4m+6n-1) a_(m-1,n),

    a with a negative index being 0.  Each a_mn is an integer: a remainder
    mod 3 is a bug."""
    a: Dict[Tuple[int, int], int] = {(0, 0): 1}
    out = [(1, 0, 0, 1)]
    for wt in range(1, (order - 1) // 2 + 1):
        for n in range(wt % 2, wt // 3 + 1, 2):
            m = (wt - 3 * n) // 2
            t = 9 * (m + 1) * a.get((m + 1, n - 1), 0) \
                + 16 * (n + 1) * a.get((m - 2, n + 1), 0) \
                - (2 * m + 3 * n - 1) * (4 * m + 6 * n - 1) * a.get((m - 1, n), 0)
            q, r = divmod(t, 3)
            if r:
                raise AssertionError(f"Weierstrass a_({m},{n}) is not an integer")
            a[(m, n)] = q
            out.append((2 * wt + 1, m, n, q))
    return tuple(out)


def _weighted_series(curve: CurveData, order: int, ring, table, c2, c3, div):
    """sum a (c2 g2)^m (c3 g3)^n z^k/div(k) over the (k, m, n, a) of table,
    formed in the curve's field and stored on `ring` with ring.coerce
    (z^k: varpi-degree k - 1): sigma and the formal logarithm."""
    field = curve.ring()
    ring = ring or field
    h2 = field.coerce(curve.g2) * c2
    h3 = field.coerce(curve.g3) * c3
    h2pow, h3pow = [field.one], [field.one]
    out = {}
    for k, m, n, a in table:
        while len(h2pow) <= m:
            h2pow.append(h2pow[-1] * h2)
        while len(h3pow) <= n:
            h3pow.append(h3pow[-1] * h3)
        if a and h2pow[m] and h3pow[n]:
            c = h2pow[m] * h3pow[n] * a
            out[k] = out[k] + c if k in out else c
    return UniSeries(ring, {k: ring.coerce(c * Fraction(1, div(k)), k - 1)
                            for k, c in out.items()}, order)


def sigma_series(curve: CurveData, order: int, ring=None) -> UniSeries:
    """Weierstrass sigma (DLMF section 23.9):

        sigma(z) = sum_{m,n} a_mn (g2/2)^m (2 g3)^n z^(4m+6n+1)/(4m+6n+1)!,

    with Weierstrass's integers a_mn (sigma_integers)."""
    return _weighted_series(curve, order, ring, sigma_integers(order),
                            Fraction(1, 2), 2, factorial)


def theta_series(curve: CurveData, order: int, ring=None) -> UniSeries:
    """Reduced theta series exp(-(e2*/2) z^2) sigma(z), theta'(0) = 1; the
    exponential as sum_j (-e2*/2)^j z^(2j)/j!, its z^(2j) entry of
    varpi-degree 2j (sigma_series)."""
    if curve.e2_star is None:
        raise ValueError("curve has no e2* (supply one or use a catalog row)")
    field = curve.ring()
    ring = ring or field
    sig = sigma_series(curve, order, ring)
    h = -(field.coerce(curve.e2_star) * Fraction(1, 2))
    quad, c = {}, field.one
    for j in range(order // 2 + 1):
        quad[2 * j] = ring.coerce(c, 2 * j)
        c = c * h * Fraction(1, j + 1)
    return (UniSeries(ring, quad, order) * sig).truncate(order)


class FormalLog(NamedTuple):
    """lambda(t): odd series with lambda'(0) = 1, exponents in 4m + 6n + 1."""

    series: UniSeries
    curve: CurveData


def log_integers(order: int):
    """(k, m, n, (2m+3n)!/((m+2n)! m! n!)) for k = 4m + 6n + 1 <= order: the
    terms of the formal logarithm (formal_log), the multinomial an integer."""
    for m in range((order - 1) // 4 + 1):
        for n in range((order - 1 - 4 * m) // 6 + 1):
            yield (4 * m + 6 * n + 1, m, n,
                   factorial(2 * m + 3 * n)
                   // (factorial(m + 2 * n) * factorial(m) * factorial(n)))


def formal_log(curve: CurveData, order: int, ring=None) -> FormalLog:
    """Formal logarithm for the parameter t = -2x/y:

        lambda(t) = sum_{m,n >= 0} (2m+3n)!/((m+2n)! m! n!)
                    (-g2/4)^m (-g3/4)^n t^(4m+6n+1)/(4m+6n+1)."""
    return FormalLog(_weighted_series(curve, order, ring, log_integers(order),
                                      Fraction(-1, 4), Fraction(-1, 4),
                                      lambda k: k), curve)


# ---------------------------------------------------------------------------
# numeric lattice
# ---------------------------------------------------------------------------

class LatticeData(NamedTuple):
    """Numeric period lattice with derived constants."""

    omega1: BigComplex
    omega2: BigComplex
    area: BigComplex             # A = Im(w2 conj(w1))/pi, real positive
    curve: Optional[CurveData] = None

    @property
    def prec_bits(self) -> int:
        return self.omega1.prec_bits

    def pair_mpc(self) -> Tuple[mp.mpc, mp.mpc]:
        return self.omega1.to_mpc(), self.omega2.to_mpc()

    def A(self) -> mp.mpf:
        return self.area.re

    @classmethod
    def of_basis(cls, w1, w2, prec_bits: int, curve=None) -> "LatticeData":
        """Z w1 + Z w2 for mpc w1, w2 (w2 negated if Im(w2/w1) < 0), A formed
        at the caller's working precision and each value labelled prec_bits."""
        if mp.im(w2 / w1) < 0:
            w2 = -w2
        area = mp.im(w2 * mp.conj(w1)) / mp.pi
        return cls(BigComplex(w1.real, w1.imag, prec_bits),
                   BigComplex(w2.real, w2.imag, prec_bits),
                   BigComplex(area, mp.mpf(0), prec_bits), curve)

    def to_json(self):
        return {"omega1": self.omega1.to_json(), "omega2": self.omega2.to_json(),
                "A": self.area.to_json()}


def _agm(a, b, prec):
    """Optimal complex AGM: sqrt branch chosen by |a-b| <= |a+b|."""
    eps = mp.mpf(2) ** (-prec + 8)
    for _ in range(prec):
        if abs(a - b) <= eps * abs(a):
            break
        a, b = (a + b) / 2, mp.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
    return (a + b) / 2


def _q_terms(w1, w2, prec_bits: int):
    """[q^n] and [1 - q^n] for n = 1 .. nmax - 1, q = exp(2 pi i w2/w1): the
    terms of every q-expansion below, with nmax set so |q|^nmax < 2^-prec_bits.
    Call inside workprec(prec_bits)."""
    tau = w2 / w1
    q = mp.exp(2j * mp.pi * tau)
    nmax = max(8, int(prec_bits / max(1e-9, -mp.log(abs(q), 2))) + 4)
    qn = [q ** n for n in range(1, nmax)]
    return qn, [1 - x for x in qn]


def eisenstein_backcheck(w1, w2, prec_bits: int):
    """(g2, g3) of Z w1 + Z w2 via exponentially convergent q-expansions:
    g2 = (2 pi / w1)^4 E4/12, g3 = (2 pi / w1)^6 E6/216."""
    with mp.workprec(prec_bits):
        qn, den = _q_terms(w1, w2, prec_bits)
        E4 = 1 + 240 * mp.fsum(n ** 3 * x / y for n, (x, y) in enumerate(zip(qn, den), 1))
        E6 = 1 - 504 * mp.fsum(n ** 5 * x / y for n, (x, y) in enumerate(zip(qn, den), 1))
        g2 = (2 * mp.pi / w1) ** 4 * E4 / 12
        g3 = (2 * mp.pi / w1) ** 6 * E6 / 216
    return g2, g3


def eta1_quasi_period(w1, w2, prec_bits: int):
    """Quasi-period eta1 (sigma(z + w1) factor) = (pi^2/(3 w1)) E2(tau)."""
    with mp.workprec(prec_bits):
        qn, den = _q_terms(w1, w2, prec_bits)
        E2 = 1 - 24 * mp.fsum(n * x / y for n, (x, y) in enumerate(zip(qn, den), 1))
        return mp.pi ** 2 / (3 * w1) * E2


def _reduce_basis(w1, w2, eps):
    """The basis of Z w1 + Z w2 whose tau = w2/w1 is reduced: -1/2 <= Re tau
    < 1/2, |tau| >= 1, and Re tau <= 0 when |tau| = 1 (Cohen, A Course
    in Computational Algebraic Number Theory, Algorithm 7.4.2: translate by
    T^-n, n the integer nearest Re tau, and apply S: tau -> -1/tau while
    |tau| < 1).  A boundary counts as met within eps, so a CM tau that lies on
    it (i, rho, (-1+sqrt(-7))/2, ...) takes one fixed side however its last
    bits round: -1/2 - eps <= Re tau < 1/2 - eps, and Re tau <= eps once
    | |tau|^2 - 1 | < eps."""
    if mp.im(w2 / w1) < 0:
        w2 = -w2
    while True:
        n = int(mp.floor(mp.re(w2 / w1) + mp.mpf(1) / 2 + eps))
        if n:
            w2 = w2 - n * w1
        tau = w2 / w1
        t2 = abs(tau) ** 2
        if t2 < 1 - eps or (t2 < 1 + eps and mp.re(tau) > eps):
            w1, w2 = w2, -w1
        else:
            return w1, w2


def compute_periods(curve: CurveData, prec_bits: int = 256) -> LatticeData:
    """Period lattice of the curve with Im(w2/w1) > 0 and tau = w2/w1 reduced
    (_reduce_basis), validated by the Eisenstein back-check to
    2^(-prec_bits/2).

    The roots of 4x^3 - g2 x - g3 are combined through the optimal AGM in the
    first root ordering; the reduced basis of that lattice is back-checked
    against (g2, g3) once.  Only when that back-check fails (or the AGM does
    not converge) is the next of the 6 orderings tried; the basis kept is
    the first that passes.
    """
    work = prec_bits + 48
    tol = mp.mpf(2) ** (-(prec_bits // 2))
    with mp.workprec(work):
        g2 = curve.g2.to_mpc(work)
        g3 = curve.g3.to_mpc(work)
        scale = 1 + abs(g2) + abs(g3)
        roots = mp.polyroots([4, 0, -g2, -g3], maxsteps=200, extraprec=60)
        least = None
        for e1, e2, e3 in permutations(roots):
            try:
                a = mp.sqrt(e1 - e3)
                b = mp.sqrt(e1 - e2)
                w1 = mp.pi / _agm(a, b, work)
                w2 = mp.pi * 1j / _agm(a, mp.sqrt(e2 - e3), work)
            except (mp.libmp.libhyper.NoConvergence, ZeroDivisionError):
                continue
            if not mp.im(w2 / w1):
                continue
            w1, w2 = _reduce_basis(w1, w2, tol)
            bg2, bg3 = eisenstein_backcheck(w1, w2, work)
            res = abs(bg2 - g2) + abs(bg3 - g3)
            if res <= tol * scale:
                return LatticeData.of_basis(w1, w2, prec_bits, curve)
            least = res if least is None else min(least, res)
        if least is None:
            raise PeriodPrecisionError("no admissible period basis found")
        raise PeriodPrecisionError(
            f"back-check residual {mp.nstr(least, 5)} exceeds tolerance")


def lattice_coords(z, w1, w2) -> Tuple[mp.mpf, mp.mpf]:
    """Real (x, y) with z = x w1 + y w2, at the caller's working precision."""
    z = mp.mpc(z)
    det = mp.im(mp.conj(w1) * w2)
    return -mp.im(mp.conj(w2) * z) / det, mp.im(mp.conj(w1) * z) / det


def lattice_pair_mpc(z, w, A) -> mp.mpc:
    """<z, w> = exp[(z conj(w) - w conj(z))/A] on raw mpmath values."""
    return mp.exp((z * mp.conj(w) - w * mp.conj(z)) / A)

