"""Truncated power/Laurent series, generic over the coefficient scalars.

A :class:`UniSeries` is known modulo t^(order+1) and may carry finitely many
negative-index (polar) coefficients.  A :class:`BiSeries` is truncated by
total degree.  Coefficient scalars only need ``+ - * /`` among themselves and
with ints, and their truthiness is the zero test; a small ring adapter
supplies zero/one, Fraction coercion (for exp, log and integration
denominators) and ``reduce``, which series products apply where their sums
would otherwise grow without bound.
Plain ``Fraction`` objects serve as the scalars of the rational exact ring
and ``ExactScalar`` for quadratic fields.  The p-adic engine uses plain
ints mod p^k, the scalars of :class:`IntModRing`: each series carries one
absolute precision, its ring's modulus.  The numeric engine's Taylor series
of theta take mpmath complex numbers, the scalars of :class:`ComplexRing`.

Multiplication of truncated series keeps the usual Laurent bookkeeping:
the product of series known mod t^(Na+1), t^(Nb+1) with valuations va, vb is
known mod t^(min(Na+vb, Nb+va)+1).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from typing import Dict, Tuple

import mpmath as mp

from .scalars import ExactScalar

__all__ = [
    "ExactRing",
    "IntModRing",
    "ComplexRing",
    "UniSeries",
    "BiSeries",
    "KroneckerExpansion",
    "SeriesError",
    "NotDivisibleError",
]


class SeriesError(ValueError):
    pass


class NotDivisibleError(SeriesError):
    """A series that must vanish on an axis before a division does not."""


class ExactRing:
    """Rational (d = 0, scalars are Fractions) or Q(sqrt(-d)) coefficients."""

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

    def __repr__(self):
        return f"ExactRing(d={self.d})"


class IntModRing:
    """Z/m: plain ints, brought into [0, m) by ``reduce``."""

    zero = 0
    one = 1

    def __init__(self, modulus: int):
        self.modulus = modulus

    def coerce(self, x):
        if not isinstance(x, int):
            raise SeriesError(f"cannot coerce {type(x)} into {self!r}")
        return x % self.modulus

    def reduce(self, x: int) -> int:
        return x % self.modulus

    def __repr__(self):
        return f"IntModRing({self.modulus})"


class ComplexRing:
    """mpmath complex numbers, rounded at the caller's working precision."""

    zero = mp.mpc(0)
    one = mp.mpc(1)

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
        lead = self.coeffs[v]
        n = self.order - v
        a = [self.coeff(v + k) for k in range(n + 1)]
        inv_lead = self.ring.one / lead
        b = [inv_lead]
        for m in range(1, n + 1):
            s = None
            for i in range(1, m + 1):
                if not a[i]:
                    continue
                t = a[i] * b[m - i]
                s = t if s is None else s + t
            b.append(-(inv_lead * s) if s is not None else self.ring.zero)
        return UniSeries(self.ring, {k - v: c for k, c in enumerate(b)}, n - v)

    def derivative(self) -> "UniSeries":
        return UniSeries(self.ring,
                         {k - 1: v * k for k, v in self.coeffs.items() if k != 0},
                         self.order - 1)

    def integrate(self) -> "UniSeries":
        """Antiderivative with zero constant term."""
        out = {}
        for k, v in self.coeffs.items():
            if k == -1:
                raise SeriesError("cannot integrate t^-1 term")
            out[k + 1] = v * self.ring.from_fraction(Fraction(1, k + 1))
        return UniSeries(self.ring, out, self.order + 1)

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
        """self(inner_s(s), inner_t(t)); both inners with zero constant term."""
        for inner in (inner_s, inner_t):
            if inner.coeff(0):
                raise SeriesError("inner constant term must vanish")
        order = min(self.order, inner_s.order, inner_t.order)
        reduce = self.ring.reduce
        max_m = max((m for m, _ in self.coeffs), default=0)
        max_n = max((n for _, n in self.coeffs), default=0)
        if inner_t is inner_s:      # one table serves both axes
            pows_s = pows_t = _power_table(inner_s, max(max_m, max_n), order)
        else:
            pows_s = _power_table(inner_s, max_m, order)
            pows_t = _power_table(inner_t, max_n, order)
        # stage 1: contract over m:  T1[i][n] = sum_m c_{mn} (inner_s^m)_i
        t1: Dict[Tuple[int, int], object] = {}
        for (m, n), c in self.coeffs.items():
            for i, u in pows_s[m]:
                if i + n > order:
                    break
                key = (i, n)
                p = c * u
                t1[key] = t1[key] + p if key in t1 else p
        out: Dict[Tuple[int, int], object] = {}
        for (i, n), c in t1.items():
            c = reduce(c)
            for j, u in pows_t[n]:
                if i + j > order:
                    break
                key = (i, j)
                p = c * u
                out[key] = out[key] + p if key in out else p
        return BiSeries(self.ring, {k: reduce(v) for k, v in out.items()}, order)

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


def _power_table(s: UniSeries, kmax: int, order: int):
    """[s^0 .. s^kmax] to degree `order`, each as (degree, coeff) pairs in
    increasing degree."""
    reduce = s.ring.reduce
    pows = [UniSeries.constant(s.ring, s.ring.one, order), s.truncate(order)]
    for _ in range(2, kmax + 1):
        prod = (pows[-1] * s).truncate(order)
        pows.append(UniSeries(s.ring, {k: reduce(v) for k, v in prod.coeffs.items()},
                              order))
    return [sorted(p.coeffs.items()) for p in pows]


@dataclass(frozen=True)
class KroneckerExpansion:
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
