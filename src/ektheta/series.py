"""Truncated power/Laurent series over exact and integer scalars.

A :class:`UniSeries` is known modulo t^(order+1) and may carry finitely many
negative-index (polar) coefficients; it keeps one int row, its entries from
its lowest stored index.  A :class:`BiSeries` is truncated by total degree
and keeps one int row per power of its first variable.
Scalars are ``Fraction`` on Q and ``ExactScalar`` on Q(sqrt(-d))
(:class:`ExactRing`), and plain ints mod p^k on :class:`IntModRing`, whose
series carry one absolute precision, the ring's modulus.  The p-adic
composed expansion runs in varpi-scaled variables on :class:`ScaledIntRing`,
ints mod p^W whose products follow a carry rule.  The generators of
``curves`` store each coefficient with ``ring.coerce(c, degree)``, so one
pipeline (kronecker_exact, compose_formal) serves every ring.

The kernels (inverse, product, the bivariate composition, and the Kronecker
regular part) run on int rows: a row is (den, parts), one positive
denominator and one int list per part, entry k being parts[0][k]/den on Q,
(parts[0][k] + parts[1][k] sqrt(-d))/den on Q(sqrt(-d)), and parts[0][k]
with den 1 on the integer rings.  A scalar multiplies a row as ints, a row
that a kernel sums into is put over the lcm of its terms' denominators, and
a finished row is brought to lowest terms (``normalize``: one gcd, or the
reduction mod m).  The kernels run on rows of one part; ``bilinear`` takes
Q(sqrt(-d)) apart.  Row m of a BiSeries holds its entries (m, n),
n = 0..order - m, and the row of a UniSeries its entries start..order; a
Fraction or ExactScalar is formed only when a coefficient is read
(``coeff``, ``items``, ``to_json``).

Multiplication of truncated series keeps the usual Laurent bookkeeping:
the product of series known mod t^(Na+1), t^(Nb+1) with valuations va, vb is
known mod t^(min(Na+vb, Nb+va)+1).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, islice
from operator import mul
from typing import Dict, NamedTuple

from .scalars import ExactScalar, _vp_fraction

__all__ = [
    "ExactRing",
    "IntModRing",
    "ScaledIntRing",
    "UniSeries",
    "BiSeries",
    "KroneckerExpansion",
    "SeriesError",
    "NotDivisibleError",
    "IntegralityError",
    "axpy",
    "bilinear",
    "carried",
    "inverse_row",
    "lcm_into",
]


class SeriesError(ValueError):
    pass


class NotDivisibleError(SeriesError):
    """A series that must vanish on an axis before a division does not."""


class IntegralityError(ArithmeticError):
    """A coefficient asserted integral came out with negative valuation."""


def _int_mod(x: Fraction, p: int, pk: int) -> int:
    """x mod pk for a p-integral rational x; IntegralityError naming v_p
    otherwise."""
    if x.denominator % p == 0:
        raise IntegralityError(f"{x} has v_p = {_vp_fraction(x, p)} < 0: "
                               f"not {p}-integral")
    return x.numerator * pow(x.denominator, -1, pk) % pk


class ExactRing:
    """Rational (d = 0, scalars are Fractions) or Q(sqrt(-d)) coefficients;
    int rows of one part (Q) or two (the a and b of a + b sqrt(-d))."""

    period = carry = 1      # no carry rule (see ScaledIntRing)

    def __init__(self, d: int = 0):
        self.d = d
        if d == 0:
            self.zero = Fraction(0)
            self.one = Fraction(1)
        else:
            self.zero = ExactScalar(0, 0, 0)
            self.one = ExactScalar(1)

    def coerce(self, x, degree: int = 0):
        """x as a scalar of the ring (the degree: ScaledIntRing.coerce)."""
        if self.d == 0:
            if isinstance(x, ExactScalar):
                if not x.is_rational():
                    raise SeriesError("irrational scalar in rational ring")
                return x.a
            return Fraction(x)
        if isinstance(x, ExactScalar):
            return x
        return ExactScalar(Fraction(x))

    def to_row(self, values) -> tuple:
        """(den, parts) of a list of scalars, den the lcm of their
        denominators (so already in lowest terms)."""
        if self.d == 0:
            fracs = [values]
        else:
            fracs = [[], []]
            for v in values:
                a, b = (v.a, v.b) if isinstance(v, ExactScalar) else (v, 0)
                fracs[0].append(a)
                fracs[1].append(b)
        den = math.lcm(*(x.denominator for x in chain.from_iterable(fracs)))
        return den, [[x.numerator * (den // x.denominator) for x in part]
                     for part in fracs]

    def from_row(self, den: int, parts: list) -> list:
        zero = self.zero
        if self.d == 0:
            return [Fraction(n, den) if n else zero for n in parts[0]]
        d = self.d
        return [ExactScalar(Fraction(a, den), Fraction(b, den), d) if a or b
                else zero for a, b in zip(*parts)]

    @staticmethod
    def normalize(den: int, parts: list) -> tuple:
        """The row in lowest terms: one gcd over the denominator and every
        entry."""
        g = math.gcd(den, *chain.from_iterable(parts))
        if g == 1:
            return den, parts
        return den // g, [[x // g for x in part] for part in parts]

    def __repr__(self):
        return f"ExactRing(d={self.d})"


class IntModRing:
    """Z/m: plain ints, brought into [0, m) by ``reduce_row``; int rows of
    one part over the denominator 1."""

    zero = 0
    one = 1
    period = carry = 1
    d = 0               # rows of one part, as on Q

    def __init__(self, modulus: int):
        self.modulus = modulus

    def reduce_row(self, row: list) -> list:
        m = self.modulus
        return [x % m for x in row]

    def to_row(self, values) -> tuple:
        return 1, [self.reduce_row(values)]

    @staticmethod
    def from_row(den: int, parts: list) -> list:
        return parts[0]

    def normalize(self, den: int, parts: list) -> tuple:
        if den != 1:
            raise SeriesError(f"{self!r} has no denominators")
        return 1, [self.reduce_row(part) if any(part) else part for part in parts]

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

    def coerce(self, x, degree: int = 0) -> int:
        """p^floor(degree/(p-1)) x mod p^width, the stored value of a rational
        x of varpi-degree `degree`; IntegralityError naming v_p if not integral."""
        x = _RATIONALS.coerce(x) * self.p ** (degree // self.period)
        return _int_mod(x, self.p, self.modulus)

    def __repr__(self):
        return f"ScaledIntRing({self.p}, {self.width})"


_RATIONALS = ExactRing(0)
_BIG = 1 << 60


class UniSeries:
    """Univariate truncated series, polar part allowed: ``row`` holds the
    entries k = start..order; a kernel's result is built by ``_of_row``."""

    __slots__ = ("ring", "start", "row", "order")

    def __init__(self, ring, coeffs: Dict[int, object], order: int):
        live = {k: v for k, v in coeffs.items() if k <= order and v}
        self.ring, self.order, self.start = ring, order, min(live, default=0)
        self.row = ring.to_row([live.get(k, ring.zero) for k in range(self.start, order + 1)])

    @classmethod
    def _of_row(cls, ring, start: int, row: tuple, order: int) -> "UniSeries":
        out = cls.__new__(cls)
        out.ring, out.start, out.row, out.order = ring, start, row, order
        return out

    @staticmethod
    def constant(ring, c, order: int) -> "UniSeries":
        return UniSeries(ring, {0: ring.coerce(c)}, order)

    def coeff(self, k: int):
        if not self.start <= k <= self.order:
            return self.ring.zero
        den, parts = self.row
        return self.ring.from_row(den, [[part[k - self.start]] for part in parts])[0]

    def items(self):
        """(k, c) for every nonzero coefficient c, in ascending k."""
        for k, c in enumerate(self.ring.from_row(*self.row), self.start):
            if c:
                yield k, c

    def _row_from(self, lo: int) -> tuple:
        """The row of the entries lo..order."""
        (den, parts), i = self.row, lo - self.start
        return den, [[0] * -i + part if i < 0 else part[i:] for part in parts]

    def valuation(self) -> int:
        return next((self.start + i for i, x in enumerate(zip(*self.row[1])) if any(x)), _BIG)

    def truncate(self, order: int) -> "UniSeries":
        if order >= self.order:
            return self
        den, parts, n = *self.row, max(0, order - self.start + 1)
        return UniSeries._of_row(self.ring, self.start, (den, [part[:n] for part in parts]),
                                 order)

    def __add__(self, other):
        if not isinstance(other, UniSeries):
            other = UniSeries.constant(self.ring, other, self.order)
        start, order = min(self.start, other.start), min(self.order, other.order)
        return UniSeries._of_row(self.ring, start, _sum_rows(
            self.ring, [self._row_from(start), other._row_from(start)], order - start + 1),
            order)

    def scale(self, c) -> "UniSeries":
        ring = self.ring
        row, = bilinear(ring, _product, [self.row], [ring.to_row([ring.coerce(c)])],
                        self.order - self.start, ring, 0, 0)
        return UniSeries._of_row(ring, self.start, row, self.order)

    def __mul__(self, other):
        """The product on the row kernel (_product), each factor's row
        counted from its lowest coefficient."""
        if not isinstance(other, UniSeries):
            return self.scale(other)
        va, vb = self.valuation(), other.valuation()
        if va == _BIG or vb == _BIG:
            return UniSeries(self.ring, {}, min(self.order + (vb if vb != _BIG else 0),
                                                other.order + (va if va != _BIG else 0)))
        order = min(self.order + vb, other.order + va)
        row, = bilinear(self.ring, _product, [self._row_from(va)], [other._row_from(vb)],
                        order - va - vb, self.ring, 0, 0)
        return UniSeries._of_row(self.ring, va + vb, row, order)

    __rmul__ = scale

    def inverse(self) -> "UniSeries":
        """1/self, self's lowest coefficient invertible (inverse_row)."""
        v = self.valuation()
        if v == _BIG:
            raise ZeroDivisionError("inverse of zero series")
        n = self.order - v
        return UniSeries._of_row(self.ring, -v,
                                 inverse_row(self._row_from(v), n, self.ring), n - v)

    def derivative(self) -> "UniSeries":
        den, parts = self.row
        return UniSeries._of_row(self.ring, self.start - 1, self.ring.normalize(
            den, [[x * k for k, x in enumerate(part, self.start)] for part in parts]),
            self.order - 1)

    def compose(self, inner: "UniSeries") -> "UniSeries":
        """self(inner(t)); inner must have zero constant term.

        Polar coefficients of self turn into Laurent contributions through
        1/inner(t)^k, which requires inner to have valuation exactly 1.
        """
        if inner.coeff(0):
            raise SeriesError("inner constant term must vanish")
        order, v = min(self.order, inner.order), self.valuation()
        out = UniSeries(self.ring, {}, order)
        if v < 0:
            if inner.valuation() != 1:
                raise SeriesError("polar composition needs valuation-1 inner")
            inv = inner.inverse()
            for k in range(-1, v - 1, -1):
                term = inv if k == -1 else term * inv       # inner^k
                if self.coeff(k):
                    out = out + term.scale(self.coeff(k))
        cur = UniSeries.constant(self.ring, self.ring.one, order)
        reg = UniSeries(self.ring, {0: self.coeff(0)}, order)
        for k in range(1, max((k for k, _ in self.items()), default=0) + 1):
            cur = (cur * inner).truncate(order)
            if self.coeff(k):
                reg = reg + cur.scale(self.coeff(k))
        return out + reg

    def __eq__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return dict(self.truncate(n).items()) == dict(other.truncate(n).items())

    def __repr__(self):
        body = " + ".join(f"({c})*t^{k}" for k, c in islice(self.items(), 6))
        return f"UniSeries({body or '0'} + O(t^{self.order + 1}))"

    def to_json(self, scalar_json=None):
        sj = scalar_json or _scalar_json
        return {"order": self.order,
                "terms": [{"k": k, "c": sj(v)} for k, v in self.items()]}


def _scalar_json(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v.to_json()


class BiSeries:
    """Bivariate series truncated by total degree; indices m, n >= 0.

    ``rows`` holds the int rows m = 0..order, row m (den, parts) the
    entries n = 0..order - m: the form in which kronecker_regular and
    ``compose`` compute them."""

    __slots__ = ("ring", "rows", "order")

    def __init__(self, ring, rows: list, order: int):
        self.ring = ring
        self.rows = rows
        self.order = order

    def coeff(self, m: int, n: int):
        if m < 0 or n < 0 or m + n > self.order:
            return self.ring.zero
        den, parts = self.rows[m]
        return self.ring.from_row(den, [[part[n]] for part in parts])[0]

    def items(self):
        """((m, n), c) for every nonzero coefficient c, in (m, n) order."""
        from_row = self.ring.from_row
        for m, row in enumerate(self.rows):
            for n, c in enumerate(from_row(*row)):
                if c:
                    yield (m, n), c

    def __add__(self, other):
        ring, order = self.ring, min(self.order, other.order)
        return BiSeries(ring, [_sum_rows(ring, pair, order - m + 1) for m, pair
                               in enumerate(zip(self.rows[:order + 1], other.rows))],
                        order)

    def __mul__(self, other):
        """The product, row m1 of self times row m2 of other (_product) into
        row m1 + m2; a scalar multiplies as the constant series."""
        ring = self.ring
        if not isinstance(other, BiSeries):
            other = BiSeries(ring, [ring.to_row([ring.coerce(other)])]
                             + [ring.to_row([ring.zero])] * self.order, self.order)
        va, vb = self._valuation(), other._valuation()
        order = min(self.order + vb, other.order + va)
        terms = [[] for _ in range(order + 1)]
        for m1, x in enumerate(self.rows[:order + 1]):
            for m2, y in enumerate(other.rows[:order + 1 - m1]):
                terms[m1 + m2] += bilinear(ring, _product, [x], [y],
                                           order - m1 - m2, ring, m1, m2)
        return BiSeries(ring, [_sum_rows(ring, t, order - m + 1) for m, t in enumerate(terms)],
                        order)

    __rmul__ = __mul__

    def _valuation(self) -> int:
        return min((m + n for m, (_, parts) in enumerate(self.rows)
                    for n, x in enumerate(zip(*parts)) if any(x)), default=0)

    def truncate(self, order: int) -> "BiSeries":
        if order >= self.order:
            return self
        return BiSeries(self.ring, [(den, [part[:order - m + 1] for part in parts])
                                    for m, (den, parts) in enumerate(self.rows[:order + 1])],
                        order)

    def compose(self, inner_s: UniSeries, inner_t: UniSeries) -> "BiSeries":
        """self(inner_s(s), inner_t(t)); both inners with zero constant term.

        The rows of self (row m over n) contract with the powers of inner_s
        into rows i over n, and, transposed over their lcm, with the powers
        of inner_t; the result is transposed back over its lcm.  On
        a ScaledIntRing self holds c_mn varpi^(m+n) and each inner
        f(varpi s)/varpi, whose s^k coefficient has varpi-degree k - 1: the
        result is then the varpi-scaled composition, entry (i, j) of
        varpi-degree i + j."""
        for inner in (inner_s, inner_t):
            if inner.coeff(0):
                raise SeriesError("inner constant term must vanish")
        ring = self.ring
        order = min(self.order, inner_s.order, inner_t.order)
        pows_s = _power_table(inner_s, order)
        pows_t = pows_s if inner_t is inner_s else _power_table(inner_t, order)
        t1 = bilinear(ring, _contract, pows_s, self.truncate(order).rows, order,
                      ring)                                             # [i][n]
        t2 = bilinear(ring, _contract, pows_t, _transposed(t1, order), order,
                      ring)                                             # [j][i]
        return BiSeries(ring, _transposed(t2, order), order)

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return dict(self.truncate(n).items()) == dict(other.truncate(n).items())

    def __repr__(self):
        return f"BiSeries({sum(1 for _ in self.items())} terms, order {self.order})"

    def to_json(self, scalar_json=None):
        sj = scalar_json or _scalar_json
        return {"order": self.order,
                "terms": [{"m": m, "n": n, "c": sj(v)} for (m, n), v in self.items()]}


def _sum_rows(ring, rows: list, n: int) -> tuple:
    """Entries 0..n-1 of the sum of rows (a zero row for none), over the
    lcm of their denominators, normalized."""
    den = math.lcm(1, *(d for d, _ in rows))
    out = [[0] * n for _ in range(2 if ring.d else 1)]
    for d, parts in rows:
        for acc, part in zip(out, parts):
            acc[:len(part)] = axpy(acc, part, den // d)
    return ring.normalize(den, out)


def _transposed(rows: list, order: int) -> list:
    """Rows n over m of a triangle given as rows m over n (row m of the
    entries n <= order - m), all over the lcm of the rows' denominators."""
    den = math.lcm(*(d for d, _ in rows))
    rows = [parts if d == den else [[x * (den // d) for x in part] for part in parts]
            for d, parts in rows]
    return [(den, [[parts[k][n] for parts in rows[:order - n + 1]]
                   for k in range(len(rows[0]))]) for n in range(order + 1)]


def axpy(ys: list, xs: list, c) -> list:
    """[y + c x], as long as the shorter list; a zero y is not added to.
    The callers pass the rows of a CM expansion sliced to their support
    (_support), so few x are zero."""
    return [y + x * c if y else x * c for y, x in zip(ys, xs)]


def _support(row: list):
    """(s, g) with every nonzero entry of row at s, s + g, s + 2g, ...
    (g the gcd of their distances, len(row) for a single one), or None for
    a zero row: a CM expansion fills one residue class of the degree."""
    nz = list(compress(range(len(row)), row))
    if not nz:
        return None
    return nz[0], math.gcd(*(n - nz[0] for n in nz[1:])) or len(row)


def bilinear(ring, kernel, xs: list, ys: list, *args) -> list:
    """kernel(xs, ys, *args), for a kernel that is bilinear in two lists of
    rows, runs on rows of one part and returns a list of rows.  On
    Q(sqrt(-d)) it runs part by part, (a + b w)(c + e w) = ac - d be +
    (ae + bc) w with w^2 = -d, skipping the terms of a zero part, and each
    output row adds its terms over the lcm of their denominators."""
    if ring.d == 0:
        return kernel(xs, ys, *args)

    def part(rows, k):
        return [(den, [parts[k]]) for den, parts in rows], \
            any(any(parts[k]) for _, parts in rows)

    (xa, _), (xb, xb_live), (ya, _), (yb, yb_live) = \
        part(xs, 0), part(xs, 1), part(ys, 0), part(ys, 1)
    sums = [[(1, kernel(xa, ya, *args))], []]
    if xb_live and yb_live:
        sums[0].append((-ring.d, kernel(xb, yb, *args)))
    if yb_live:
        sums[1].append((1, kernel(xa, yb, *args)))
    if xb_live:
        sums[1].append((1, kernel(xb, ya, *args)))
    out = []
    for t, (_, (first,)) in enumerate(sums[0][0][1]):
        den = math.lcm(*(rows[t][0] for terms in sums for _, rows in terms))
        parts = []
        for terms in sums:
            acc = [0] * len(first)
            for c, rows in terms:
                acc = axpy(acc, rows[t][1][0], c * (den // rows[t][0]))
            parts.append(acc)
        out.append(ring.normalize(den, parts))
    return out


def _times(x, y, d: int) -> list:
    """The parts of the product of two scalars given by their parts."""
    if len(x) == 1:
        return [x[0] * y[0]]
    return [x[0] * y[0] - d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]]


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


def lcm_into(dens: list, targets, q: int) -> None:
    """dens[t] = lcm(dens[t], q) for each target row t of a term over q, so
    that every term's denominator divides its row's before the sum."""
    if q != 1:
        for t in targets:
            dens[t] = math.lcm(dens[t], q)


def _product(xs: list, ys: list, n: int, ring, sa: int, sb: int) -> list:
    """[Entries 0..n of the product of the one-part rows xs[0] and ys[0]],
    over the product of their denominators, normalized; entry k of xs[0]
    (of ys[0]) has varpi-degree k + sa (k + sb), which only a ScaledIntRing
    reads (the carry rule)."""
    (da, (a,)), (db, (b,)) = xs[0], ys[0]
    out = [0] * (n + 1)
    support = _support(a[:n + 1])
    if support is not None:
        lo, g = support
        src, variants = a[lo:n + 1], {}
        b = b[:n + 1 - lo]
        for k, c in compress(enumerate(b), b):
            r = (k + sb) % ring.period
            if r not in variants:
                variants[r] = carried(src, lo + sa, r, ring)[::g]
            out[k + lo::g] = axpy(out[k + lo::g], variants[r], c)
    return [ring.normalize(da * db, [out])]


def inverse_row(a: tuple, n: int, ring) -> tuple:
    """Entries 0..n of 1/a as a row, a = A/den(a) a row with a_0
    invertible.  With the b found so far over one denominator D, b_m is
    -J (sum_{i=1..m} A_i B_(m-i))/(j D), with 1/A_0 = J/j, an int dot
    product brought to lowest terms once; D grows to the lcm when b_m needs
    it.  Only the multiples of the gcd g of a's degrees are visited.  On a
    ScaledIntRing (entry k of varpi-degree k) a_0 must be 1, and a_i
    carries where (i mod (p-1)) + ((m - i) mod (p-1)) >= p - 1."""
    (da, pa), period, carry, d = a, ring.period, ring.carry, ring.d
    pa = [part[:n + 1] + [0] * (n + 1 - len(part)) for part in pa]
    if len(pa) == 1:
        J, j = [1], pa[0][0]
        if j < 0:
            J, j = [-1], -j
    else:
        a0, b0 = pa[0][0], pa[1][0]
        J, j = [a0, -b0], a0 * a0 + d * b0 * b0
    if not j:
        raise ZeroDivisionError("inverse of a series with zero constant term")
    # a and 1/a live on the multiples of g: run on those entries alone
    g = _support(pa[0] if len(pa) == 1 else [a or b for a, b in zip(*pa)])[1]
    pa = [part[::g] for part in pa]
    D, B = ring.normalize(j, [[da * x] for x in J])        # b_0 = den(a) J/j
    variants = {}
    for t in range(1, n // g + 1):
        A = pa
        if period != 1:
            rm = g * t % period
            if rm not in variants:
                variants[rm] = [[x * carry if g * i % period + (rm - g * i) % period
                                 >= period else x for i, x in enumerate(pa[0])]]
            A = variants[rm]
        dots = [[sum(map(mul, x[1:t + 1], y[t - 1::-1])) for y in B] for x in A]
        S = [dots[0][0]] if len(A) == 1 else \
            [dots[0][0] - d * dots[1][1], dots[0][1] + dots[1][0]]
        den, num = ring.normalize(j * D, [[-x] for x in _times(J, S, d)])
        if D % den:
            f = den // math.gcd(D, den)
            B = [[x * f for x in part] for part in B]
            D *= f
        for part, x in zip(B, num):
            part.append(x[0] * (D // den))
    out = [[0] * (n + 1) for _ in B]
    for part, b in zip(out, B):
        part[::g] = b
    return D, out


def _power_table(s: UniSeries, order: int) -> list:
    """s^0 .. s^order to degree `order` as rows; s is held as f(varpi s)/varpi,
    so the s^i coefficient of s^m has varpi-degree i - m."""
    ring = s.ring
    den, parts = s._row_from(0)
    base = den, [part[:order + 1] for part in parts]
    table, cur = [ring.to_row([ring.one] + [ring.zero] * order)], base
    for m in range(1, order + 1):
        if m > 1:
            cur, = bilinear(ring, _product, [cur], [base], order, ring, 1 - m, -1)
        table.append(cur)
    return table


def _contract(X: list, Y: list, order: int, ring) -> list:
    """Rows out[i] = sum_k X[k]_i Y[k] over the entries n <= order - i,
    normalized: each nonzero entry of the row X[k] scales the row Y[k] into
    the row of its index, whose denominator is the lcm of its terms'.
    X[k]_i has varpi-degree i - k and Y[k]_n has n + k (the carry rule)."""
    period, work, dens = ring.period, [], [1] * (order + 1)
    for k, ((xd, (x,)), (yd, (y,))) in enumerate(zip(X, Y)):
        support = _support(y)
        if support is not None:
            entries = list(compress(enumerate(x), x))
            lcm_into(dens, (i for i, _ in entries), xd * yd)
            work.append((k, y, support, xd * yd, entries))
    out = [[0] * (order - i + 1) for i in range(order + 1)]
    for k, y, (s, g), q, entries in work:
        variants = {}
        for i, e in entries:
            r = (i - k) % period
            if r not in variants:
                variants[r] = carried(y, k, r, ring)[s::g]
            if dens[i] != q:
                e *= dens[i] // q
            tgt = out[i]
            tgt[s::g] = axpy(tgt[s::g], variants[r], e)
    return [ring.normalize(den, [row]) for den, row in zip(dens, out)]


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
