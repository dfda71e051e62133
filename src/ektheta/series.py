"""Truncated power/Laurent series, generic over the coefficient scalars.

A :class:`UniSeries` is known modulo t^(order+1) and may carry finitely many
negative-index (polar) coefficients.  A :class:`BiSeries` is truncated by
total degree.  Coefficient scalars only need ``+ - * /`` among themselves and
with ints, and their truthiness is the zero test; a small ring adapter
supplies zero/one, Fraction coercion (for exp denominators) and ``reduce``
(``reduce_row`` on a list), which series products apply where their sums
would otherwise grow without bound.
Plain ``Fraction`` objects serve as the scalars of the rational exact ring
and ``ExactScalar`` for quadratic fields.  The p-adic engine uses plain
ints mod p^k, the scalars of :class:`IntModRing`: each series carries one
absolute precision, its ring's modulus.  Its composed expansion runs in
varpi-scaled variables on :class:`ScaledIntRing`, ints mod p^W whose
products follow a carry rule.  The numeric engine's Taylor series of theta
take mpmath complex numbers, the scalars of :class:`ComplexRing`.

Multiplication of truncated series keeps the usual Laurent bookkeeping:
the product of series known mod t^(Na+1), t^(Nb+1) with valuations va, vb is
known mod t^(min(Na+vb, Nb+va)+1).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Dict, NamedTuple, Tuple

from .scalars import ExactScalar, mp

__all__ = [
    "ExactRing",
    "IntModRing",
    "ScaledIntRing",
    "ComplexRing",
    "UniSeries",
    "BiSeries",
    "KroneckerExpansion",
    "SeriesError",
    "NotDivisibleError",
    "axpy",
    "carried",
    "scaled_mul",
    "unit_inverse",
]


class SeriesError(ValueError):
    pass


class NotDivisibleError(SeriesError):
    """A series that must vanish on an axis before a division does not."""


class ExactRing:
    """Rational (d = 0, scalars are Fractions) or Q(sqrt(-d)) coefficients."""

    period = carry = 1      # no carry rule (see ScaledIntRing)

    def __init__(self, d: int = 0):
        self.d = d
        if d == 0:
            self.zero = Fraction(0)
            self.one = Fraction(1)
        else:
            self.zero = ExactScalar(0, 0, 0)
            self.one = ExactScalar(1)

    def coerce(self, x):
        if self.d == 0:
            if isinstance(x, ExactScalar):
                if not x.is_rational():
                    raise SeriesError("irrational scalar in rational ring")
                return x.a
            return Fraction(x)
        if isinstance(x, ExactScalar):
            return x
        return ExactScalar(Fraction(x))

    def from_fraction(self, fr: Fraction):
        return fr if self.d == 0 else ExactScalar(fr)

    @staticmethod
    def reduce(x):
        return x

    @staticmethod
    def reduce_row(row: list) -> list:
        return row

    def __repr__(self):
        return f"ExactRing(d={self.d})"


class IntModRing:
    """Z/m: plain ints, brought into [0, m) by ``reduce``."""

    zero = 0
    one = 1
    period = carry = 1

    def __init__(self, modulus: int):
        self.modulus = modulus

    def coerce(self, x):
        if not isinstance(x, int):
            raise SeriesError(f"cannot coerce {type(x)} into {self!r}")
        return x % self.modulus

    def reduce(self, x: int) -> int:
        return x % self.modulus

    def reduce_row(self, row: list) -> list:
        m = self.modulus
        return [x % m for x in row]

    def __repr__(self):
        return f"IntModRing({self.modulus})"


class ScaledIntRing(IntModRing):
    """Z_p[varpi]/(p^width), varpi^(p-1) = p, for series in varpi-scaled
    variables (z -> varpi z): ints mod p^width in coordinates.

    A coefficient c of varpi-degree k is stored as the int
    p^floor(k/(p-1)) c mod p^width; the monomial varpi^(k mod (p-1)) is left
    implicit, because the coefficient's position fixes k.  The product of
    stored values of varpi-degrees a and b is then their int product, times
    p exactly when (a mod (p-1)) + (b mod (p-1)) >= p - 1: the carry rule,
    read by the kernels below from ``period`` (p - 1) and ``carry`` (p).  No
    step divides.  On the other rings both are 1 and no product carries."""

    def __init__(self, p: int, width: int):
        super().__init__(p ** width)
        self.p, self.width = p, width
        self.period, self.carry = p - 1, p

    def __repr__(self):
        return f"ScaledIntRing({self.p}, {self.width})"


class ComplexRing:
    """mpmath complex numbers, rounded at the caller's working precision."""

    period = carry = 1

    def __init__(self):
        self.zero = mp.mpc(0)
        self.one = mp.mpc(1)

    @staticmethod
    def coerce(x):
        return mp.mpc(x)

    @staticmethod
    def from_fraction(fr: Fraction):
        return mp.mpf(fr.numerator) / fr.denominator

    @staticmethod
    def reduce(x):
        return x

    def __repr__(self):
        return "ComplexRing()"


_BIG = 1 << 60


class UniSeries:
    """Sparse univariate truncated series with optional polar part."""

    __slots__ = ("ring", "coeffs", "order")

    def __init__(self, ring, coeffs: Dict[int, object], order: int, normalize=True):
        self.ring = ring
        self.order = order
        if normalize:
            coeffs = {k: v for k, v in coeffs.items()
                      if k <= order and v}
        self.coeffs = coeffs

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_list(ring, items, order: int, start: int = 0) -> "UniSeries":
        return UniSeries(ring, {start + k: ring.coerce(c) for k, c in enumerate(items)},
                         order)

    @staticmethod
    def constant(ring, c, order: int) -> "UniSeries":
        return UniSeries(ring, {0: ring.coerce(c)}, order)

    # -- basics -------------------------------------------------------------
    def coeff(self, k: int):
        return self.coeffs.get(k, self.ring.zero)

    def valuation(self) -> int:
        return min(self.coeffs) if self.coeffs else _BIG

    def truncate(self, order: int) -> "UniSeries":
        if order >= self.order:
            return self
        return UniSeries(self.ring, {k: v for k, v in self.coeffs.items() if k <= order},
                         order, normalize=False)

    def __add__(self, other):
        if not isinstance(other, UniSeries):
            other = UniSeries.constant(self.ring, other, self.order)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return UniSeries(self.ring, out, min(self.order, other.order))

    def __neg__(self):
        return UniSeries(self.ring, {k: -v for k, v in self.coeffs.items()},
                         self.order, normalize=False)

    def __sub__(self, other):
        if not isinstance(other, UniSeries):
            other = UniSeries.constant(self.ring, other, self.order)
        return self + (-other)

    def scale(self, c) -> "UniSeries":
        c = self.ring.coerce(c)
        return UniSeries(self.ring, {k: v * c for k, v in self.coeffs.items()}, self.order)

    def __mul__(self, other):
        if not isinstance(other, UniSeries):
            return self.scale(other)
        va, vb = self.valuation(), other.valuation()
        if va == _BIG or vb == _BIG:
            return UniSeries(self.ring, {}, min(self.order + (vb if vb != _BIG else 0),
                                                other.order + (va if va != _BIG else 0)))
        order = min(self.order + vb, other.order + va)
        out: Dict[int, object] = {}
        for i, x in self.coeffs.items():
            for j, y in other.coeffs.items():
                k = i + j
                if k > order:
                    continue
                p = x * y
                out[k] = out[k] + p if k in out else p
        return UniSeries(self.ring, out, order)

    __rmul__ = scale

    def shift(self, k: int) -> "UniSeries":
        """Multiply by t^k."""
        return UniSeries(self.ring, {i + k: v for i, v in self.coeffs.items()},
                         self.order + k, normalize=False)

    def inverse(self) -> "UniSeries":
        """Reciprocal of a series whose lowest coefficient is invertible."""
        v = self.valuation()
        if v == _BIG:
            raise ZeroDivisionError("inverse of zero series")
        n = self.order - v
        b = unit_inverse([self.coeff(v + k) for k in range(n + 1)], n, self.ring)
        return UniSeries(self.ring, {k - v: c for k, c in enumerate(b)}, n - v)

    def derivative(self) -> "UniSeries":
        return UniSeries(self.ring,
                         {k - 1: v * k for k, v in self.coeffs.items() if k != 0},
                         self.order - 1)

    def exp(self) -> "UniSeries":
        """exp of a series with zero constant term (and no polar part)."""
        if self.valuation() < 1:
            raise SeriesError("exp needs positive valuation")
        n = self.order
        Lp = self.derivative()
        e = [self.ring.one]
        for m in range(1, n + 1):
            # m e_m = sum_{j=1}^{m} j L_j e_{m-j}  via  E' = L' E
            s = None
            for j in range(1, m + 1):
                c = Lp.coeff(j - 1)
                if not c:
                    continue
                t = c * e[m - j]
                s = t if s is None else s + t
            e.append(s * self.ring.from_fraction(Fraction(1, m))
                     if s is not None else self.ring.zero)
        return UniSeries(self.ring, dict(enumerate(e)), n)

    def compose(self, inner: "UniSeries") -> "UniSeries":
        """self(inner(t)); inner must have zero constant term.

        Polar coefficients of self turn into Laurent contributions through
        1/inner(t)^k, which requires inner to have valuation exactly 1.
        """
        if inner.coeff(0):
            raise SeriesError("inner constant term must vanish")
        order = min(self.order, inner.order)
        out = UniSeries(self.ring, {}, order)
        polar = [k for k in self.coeffs if k < 0]
        if polar:
            if inner.valuation() != 1:
                raise SeriesError("polar composition needs valuation-1 inner")
            inv = inner.inverse()
            for k in polar:
                term = _int_pow(inv, -k).scale(self.coeffs[k])
                out = out + term
        cur = UniSeries.constant(self.ring, self.ring.one, order)
        reg = UniSeries(self.ring, {0: self.coeff(0)}, order)
        maxdeg = max((k for k in self.coeffs if k > 0), default=0)
        for k in range(1, maxdeg + 1):
            cur = (cur * inner).truncate(order)
            c = self.coeffs.get(k)
            if c is not None:
                reg = reg + cur.scale(c)
        return out + reg

    def __eq__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        n = min(self.order, other.order)
        keys = {k for k in (*self.coeffs, *other.coeffs) if k <= n}
        return all(self.coeff(k) == other.coeff(k) for k in keys)

    def __repr__(self):
        items = sorted(self.coeffs)[:6]
        body = " + ".join(f"({self.coeffs[k]})*t^{k}" for k in items)
        return f"UniSeries({body or '0'} + O(t^{self.order + 1}))"

    def to_json(self, scalar_json=None):
        sj = scalar_json or _scalar_json
        return {"order": self.order,
                "terms": [{"k": k, "c": sj(v)} for k, v in sorted(self.coeffs.items())]}


def _int_pow(s: UniSeries, k: int) -> UniSeries:
    out = None
    base = s
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return out if out is not None else UniSeries.constant(s.ring, s.ring.one, s.order)


def _scalar_json(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v.to_json()


class BiSeries:
    """Bivariate series truncated by total degree; indices m, n >= 0."""

    __slots__ = ("ring", "coeffs", "order")

    def __init__(self, ring, coeffs: Dict[Tuple[int, int], object], order: int,
                 normalize=True):
        self.ring = ring
        self.order = order
        if normalize:
            coeffs = {k: v for k, v in coeffs.items()
                      if k[0] + k[1] <= order and v}
        self.coeffs = coeffs

    def coeff(self, m: int, n: int):
        return self.coeffs.get((m, n), self.ring.zero)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return BiSeries(self.ring, out, min(self.order, other.order))

    def __neg__(self):
        return BiSeries(self.ring, {k: -v for k, v in self.coeffs.items()}, self.order,
                        normalize=False)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "BiSeries":
        c = self.ring.coerce(c)
        return BiSeries(self.ring, {k: v * c for k, v in self.coeffs.items()}, self.order)

    def __mul__(self, other):
        if not isinstance(other, BiSeries):
            return self.scale(other)
        va = min((m + n for m, n in self.coeffs), default=0)
        vb = min((m + n for m, n in other.coeffs), default=0)
        order = min(self.order + vb, other.order + va)
        out: Dict[Tuple[int, int], object] = {}
        for (m1, n1), x in self.coeffs.items():
            for (m2, n2), y in other.coeffs.items():
                if m1 + m2 + n1 + n2 > order:
                    continue
                key = (m1 + m2, n1 + n2)
                p = x * y
                out[key] = out[key] + p if key in out else p
        return BiSeries(self.ring, out, order)

    __rmul__ = scale

    def truncate(self, order: int) -> "BiSeries":
        if order >= self.order:
            return self
        return BiSeries(self.ring, {k: v for k, v in self.coeffs.items()
                                    if k[0] + k[1] <= order}, order, normalize=False)

    def is_symmetric(self) -> bool:
        return all(self.coeff(n, m) == v for (m, n), v in self.coeffs.items())

    def compose(self, inner_s: UniSeries, inner_t: UniSeries) -> "BiSeries":
        """self(inner_s(s), inner_t(t)); both inners with zero constant term.

        The rows of self (row m over n) contract with the powers of inner_s
        into rows i over n, and, transposed, with the powers of inner_t.  On a
        ScaledIntRing self holds c_mn varpi^(m+n) and each inner f(varpi s)/
        varpi, whose s^k coefficient has varpi-degree k - 1: the result is
        then the varpi-scaled composition, entry (i, j) of varpi-degree
        i + j."""
        for inner in (inner_s, inner_t):
            if inner.coeff(0):
                raise SeriesError("inner constant term must vanish")
        ring = self.ring
        order = min(self.order, inner_s.order, inner_t.order)
        rows = [[ring.zero] * (order - m + 1) for m in range(order + 1)]
        for (m, n), c in self.coeffs.items():
            if m + n <= order:
                rows[m][n] = c
        max_m = max((m for m, n in self.coeffs if m + n <= order), default=0)
        max_n = max((n for m, n in self.coeffs if m + n <= order), default=0)
        if inner_t is inner_s:      # one table serves both axes
            pows_s = pows_t = _power_table(inner_s, max(max_m, max_n), order)
        else:
            pows_s = _power_table(inner_s, max_m, order)
            pows_t = _power_table(inner_t, max_n, order)
        t1 = _contract(rows, pows_s, order, ring)                   # [i][n]
        t1 = [[t1[i][n] for i in range(order - n + 1)] for n in range(order + 1)]
        t2 = _contract(t1, pows_t, order, ring)                     # [j][i]
        return BiSeries(ring, {(i, j): v for j, row in enumerate(t2)
                               for i, v in enumerate(row) if v}, order,
                        normalize=False)

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        n = min(self.order, other.order)
        keys = {k for k in (*self.coeffs, *other.coeffs) if k[0] + k[1] <= n}
        return all(self.coeff(*k) == other.coeff(*k) for k in keys)

    def __repr__(self):
        return f"BiSeries({len(self.coeffs)} terms, order {self.order})"

    def to_json(self, scalar_json=None):
        sj = scalar_json or _scalar_json
        return {"order": self.order,
                "terms": [{"m": m, "n": n, "c": sj(v)}
                          for (m, n), v in sorted(self.coeffs.items())]}


def axpy(ys: list, xs: list, c) -> list:
    """[y + c x], as long as the shorter list; a zero y is not added to.
    The callers pass the rows of a CM expansion sliced to their support
    (_support), so few x are zero."""
    return [y + x * c if y else x * c for y, x in zip(ys, xs)]


def _support(row: list):
    """(s, g) with every nonzero entry of row at s, s + g, s + 2g, ...
    (g the gcd of their distances, len(row) for a single one), or None for
    a zero row: a CM expansion fills one residue class of the degree."""
    nz = [n for n, v in enumerate(row) if v]
    if not nz:
        return None
    return nz[0], math.gcd(*(n - nz[0] for n in nz[1:])) or len(row)


@lru_cache(maxsize=None)
def _carry_pattern(period: int, carry: int, start: int, r: int) -> tuple:
    return tuple(carry if (start + n) % period + r >= period else 1
                 for n in range(period))


def carried(row: list, start: int, r: int, ring) -> list:
    """row, with entry n (of varpi-degree start + n) times ring.carry where
    its product with a factor of varpi-degree residue r carries: what
    multiplies that factor's coefficient under the carry rule."""
    period = ring.period
    if period == 1 or not r:
        return row
    pattern = _carry_pattern(period, ring.carry, start % period, r)
    return list(map(mul, row, pattern * (len(row) // period + 1)))


def scaled_mul(a: list, b: list, n: int, ring, sa: int = 0, sb: int = 0) -> list:
    """Coefficients 0..n of the product of the coefficient lists a and b,
    reduced; entry k of a (of b) has varpi-degree k + sa (k + sb), which
    only a ScaledIntRing reads (the carry rule)."""
    out = [ring.zero] * (n + 1)
    support = _support(a[:n + 1])
    if support is None:
        return out
    lo, g = support
    src, variants = a[lo:n + 1], {}
    for k, c in enumerate(b[:n + 1 - lo]):
        if c:
            r = (k + sb) % ring.period
            if r not in variants:
                variants[r] = carried(src, lo + sa, r, ring)[::g]
            out[k + lo::g] = axpy(out[k + lo::g], variants[r], c)
    return ring.reduce_row(out)


def unit_inverse(a: list, n: int, ring) -> list:
    """b_0 .. b_n of 1/a, a a coefficient list with a_0 invertible:
    b_m = -a_0^-1 sum_{i=1..m} a_i b_(m-i).  On a ScaledIntRing (entry k of
    varpi-degree k, the carry rule) a_0 must be 1."""
    period, carry = ring.period, ring.carry
    inv_lead = ring.one if a[0] == ring.one else ring.one / a[0]
    terms = [(i, c, c * carry if carry != 1 else c, i % period)
             for i, c in enumerate(a[1:n + 1], 1) if c]
    b = [inv_lead]
    for m in range(1, n + 1):
        s = None
        for i, c, cc, r in terms:
            if i > m:
                break
            t = (cc if r + (m - i) % period >= period else c) * b[m - i]
            s = t if s is None else s + t
        b.append(ring.zero if s is None else ring.reduce(-(inv_lead * s)))
    return b


def _power_table(s: UniSeries, kmax: int, order: int):
    """s^0 .. s^kmax to degree `order`, each as (degree i, coeff, r) triples
    in increasing degree, r the residue mod ring.period of the coefficient's
    varpi-degree i - m (s held as f(varpi s)/varpi: its s^k coefficient has
    varpi-degree k - 1)."""
    ring = s.ring
    base = [s.coeff(k) for k in range(order + 1)]
    table, cur = [[(0, ring.one, 0)]], base
    for m in range(1, kmax + 1):
        if m > 1:
            cur = scaled_mul(cur, base, order, ring, 1 - m, -1)
        table.append([(i, c, (i - m) % ring.period) for i, c in enumerate(cur) if c])
    return table


def _contract(rows: list, pows: list, order: int, ring) -> list:
    """out[i][n] = sum_m (pows[m])_i rows[m][n] for n <= order - i, reduced;
    rows[m][n] has varpi-degree m + n."""
    out = [[ring.zero] * (order - i + 1) for i in range(order + 1)]
    for m, row in enumerate(rows[:len(pows)]):
        support = _support(row)
        if support is None:
            continue
        s, g = support
        variants = {}
        for i, e, r in pows[m]:
            if r not in variants:
                variants[r] = carried(row, m, r, ring)[s::g]
            tgt = out[i]
            tgt[s::g] = axpy(tgt[s::g], variants[r], e)
    return [ring.reduce_row(o) for o in out]


class KroneckerExpansion(NamedTuple):
    """polar/z + polar/w + regular(z, w): the Kronecker theta expansion at the
    origin (polar 1) or its composition with the formal logarithm (polar 1,
    or 0 when starred, the raw 1/s + 1/t subtracted)."""

    polar: object
    regular: BiSeries

    @property
    def order(self) -> int:
        return self.regular.order

    def coeff(self, m: int, n: int):
        return self.regular.coeff(m, n)

    def to_json(self):
        polar = _scalar_json(self.polar)
        return {"polar_z": polar, "polar_w": polar, "regular": self.regular.to_json()}
