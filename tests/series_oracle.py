"""Series algebra that only the tests use, kept as oracles beside the
library: constructors and operations the commands never call, the dict
storage that ``UniSeries`` kept before its int row (``DictSeries``), and
the scalar-by-scalar mpc route that theta's Taylor series once took.

The mpc route is the one ``ThetaEvaluator.taylor`` and
``verify_generating_function`` ran on ``UniSeries`` over mpmath complex
scalars: sparse dicts, products summed term by term in ascending index of
the first factor, zero terms left out.  ``tests/test_kronecker.py`` asserts
that the library's mpc list loops round exactly as this route does.
"""
from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from ektheta.kronecker import ThetaEvaluator, _theta1_derivatives, \
    taylor_coefficients_2d, torsion_point
from ektheta.series import BiSeries, SeriesError, UniSeries, _product, bilinear, \
    inverse_row


# ---------------------------------------------------------------------------
# exact series
# ---------------------------------------------------------------------------

def from_list(ring, items, order: int, start: int = 0) -> UniSeries:
    return UniSeries(ring, {start + k: ring.coerce(c) for k, c in enumerate(items)},
                     order)


def shift(f: UniSeries, k: int) -> UniSeries:
    """f times t^k."""
    return UniSeries(f.ring, {i + k: v for i, v in f.items()}, f.order + k)


def sub(f: UniSeries, g: UniSeries) -> UniSeries:
    return f + UniSeries(g.ring, {k: -v for k, v in g.items()}, g.order)


def exp(f: UniSeries) -> UniSeries:
    """exp of a series with zero constant term, by m e_m = sum_j j f_j e_(m-j)."""
    if f.valuation() < 1:
        raise SeriesError("exp needs positive valuation")
    ring, n = f.ring, f.order
    df = sorted((k, k * v) for k, v in f.items())
    e = [ring.one]
    for m in range(1, n + 1):
        s = sum((c * e[m - j] for j, c in df if j <= m), ring.zero)
        e.append(s * ring.coerce(Fraction(1, m)))
    return UniSeries(ring, dict(enumerate(e)), n)


def bi(ring, terms: dict, order: int) -> BiSeries:
    """The BiSeries with the coefficients {(m, n): c} to total degree order."""
    return BiSeries(ring, [ring.to_row([ring.coerce(terms.get((m, n), 0))
                                        for n in range(order - m + 1)])
                           for m in range(order + 1)], order)


def is_symmetric(f: BiSeries) -> bool:
    return all(f.coeff(n, m) == v for (m, n), v in f.items())


# ---------------------------------------------------------------------------
# the dict storage that UniSeries kept before its row
# ---------------------------------------------------------------------------

def scaled_mul(a: list, b: list, n: int, ring) -> list:
    """Coefficients 0..n of the product of the coefficient lists a and b,
    entry k of each of varpi-degree k, through the row kernel."""
    return ring.from_row(*bilinear(ring, _product, [ring.to_row(a)], [ring.to_row(b)],
                                   n, ring, 0, 0)[0])


def unit_inverse(a: list, n: int, ring) -> list:
    """b_0 .. b_n of 1/a, a a coefficient list with a_0 invertible."""
    return ring.from_row(*inverse_row(ring.to_row(a[:n + 1]), n, ring))


class DictSeries:
    """A univariate series stored as {k: scalar}, the nonzero coefficients
    k <= order, with UniSeries's arithmetic as it ran on that dict: the
    product and the inverse on lists read from each factor's lowest
    coefficient (scaled_mul, unit_inverse), the rest entry by entry.  On
    an integer ring each entry is kept mod the ring's modulus."""

    def __init__(self, ring, coeffs: dict, order: int):
        m = getattr(ring, "modulus", None)
        self.ring, self.order = ring, order
        self.coeffs = {k: v % m if m else v for k, v in coeffs.items() if k <= order}
        self.coeffs = {k: v for k, v in self.coeffs.items() if v}

    @staticmethod
    def constant(ring, c, order: int) -> "DictSeries":
        return DictSeries(ring, {0: ring.coerce(c)}, order)

    def coeff(self, k: int):
        return self.coeffs.get(k, self.ring.zero)

    def valuation(self) -> int:
        return min(self.coeffs) if self.coeffs else 1 << 60

    def truncate(self, order: int) -> "DictSeries":
        return self if order >= self.order else DictSeries(self.ring, self.coeffs, order)

    def __add__(self, other):
        if not isinstance(other, DictSeries):
            other = DictSeries.constant(self.ring, other, self.order)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return DictSeries(self.ring, out, min(self.order, other.order))

    def scale(self, c) -> "DictSeries":
        c = self.ring.coerce(c)
        return DictSeries(self.ring, {k: v * c for k, v in self.coeffs.items()}, self.order)

    def __mul__(self, other):
        if not isinstance(other, DictSeries):
            return self.scale(other)
        va, vb = self.valuation(), other.valuation()
        if not self.coeffs or not other.coeffs:
            return DictSeries(self.ring, {}, min(self.order + (vb if other.coeffs else 0),
                                                 other.order + (va if self.coeffs else 0)))
        order = min(self.order + vb, other.order + va)
        n = order - va - vb
        prod = scaled_mul([self.coeff(va + k) for k in range(n + 1)],
                          [other.coeff(vb + k) for k in range(n + 1)], n, self.ring)
        return DictSeries(self.ring, {va + vb + k: c for k, c in enumerate(prod)}, order)

    def inverse(self) -> "DictSeries":
        v = self.valuation()
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero series")
        n = self.order - v
        b = unit_inverse([self.coeff(v + k) for k in range(n + 1)], n, self.ring)
        return DictSeries(self.ring, {k - v: c for k, c in enumerate(b)}, n - v)

    def derivative(self) -> "DictSeries":
        return DictSeries(self.ring, {k - 1: v * k for k, v in self.coeffs.items() if k},
                          self.order - 1)

    def compose(self, inner: "DictSeries") -> "DictSeries":
        if inner.coeff(0):
            raise SeriesError("inner constant term must vanish")
        order = min(self.order, inner.order)
        out = DictSeries(self.ring, {}, order)
        polar = [k for k in self.coeffs if k < 0]
        if polar:
            if inner.valuation() != 1:
                raise SeriesError("polar composition needs valuation-1 inner")
            inv = inner.inverse()
            for k in range(-1, min(polar) - 1, -1):
                term = inv if k == -1 else term * inv       # inner^k
                if k in self.coeffs:
                    out = out + term.scale(self.coeffs[k])
        cur = DictSeries.constant(self.ring, self.ring.one, order)
        reg = DictSeries(self.ring, {0: self.coeff(0)}, order)
        for k in range(1, max((k for k in self.coeffs if k > 0), default=0) + 1):
            cur = (cur * inner).truncate(order)
            if k in self.coeffs:
                reg = reg + cur.scale(self.coeffs[k])
        return out + reg

    def to_json(self, scalar_json):
        return {"order": self.order, "terms": [{"k": k, "c": scalar_json(v)}
                                               for k, v in sorted(self.coeffs.items())]}


# ---------------------------------------------------------------------------
# p-adic scalars and reports
# ---------------------------------------------------------------------------

def to_int(x, digits=None) -> int:
    """A p-integral PadicScalar mod p^min(digits, abs_prec), in [0, p^k)."""
    k = x.abs_prec if digits is None else min(digits, x.abs_prec)
    if x.val is None or x.val >= k:
        return 0
    if x.val < 0:
        raise ValueError("to_int() needs a p-integral element")
    return x.unit * x.p ** x.val % x.p ** k


def ridge_nondecreasing_from(hm, T0: int) -> bool:
    vals = [hm.ridge[T] for T in sorted(T for T in hm.ridge if T >= T0)]
    return all(b >= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# the mpc route of theta's Taylor series
# ---------------------------------------------------------------------------

class ComplexSeries:
    """Sparse mpc series {k: c} known to t^order, zeros dropped."""

    def __init__(self, coeffs: dict, order: int):
        self.order = order
        self.coeffs = {k: v for k, v in coeffs.items() if k <= order and v}

    def coeff(self, k: int):
        return self.coeffs.get(k, mp.mpc(0))

    def valuation(self) -> int:
        return min(self.coeffs)

    def __mul__(self, other: "ComplexSeries") -> "ComplexSeries":
        va, vb = self.valuation(), other.valuation()
        order = min(self.order + vb, other.order + va)
        out = {}
        for i, x in self.coeffs.items():
            for j, y in other.coeffs.items():
                k = i + j
                if k > order:
                    continue
                p = x * y
                out[k] = out[k] + p if k in out else p
        return ComplexSeries(out, order)

    def exp(self) -> "ComplexSeries":
        n = self.order
        lp = ComplexSeries({k - 1: v * k for k, v in self.coeffs.items() if k}, n - 1)
        e = [mp.mpc(1)]
        for m in range(1, n + 1):
            s = None
            for j in range(1, m + 1):
                c = lp.coeff(j - 1)
                if not c:
                    continue
                t = c * e[m - j]
                s = t if s is None else s + t
            e.append(s * (mp.mpf(1) / m) if s is not None else mp.mpc(0))
        return ComplexSeries(dict(enumerate(e)), n)

    def inverse(self) -> "ComplexSeries":
        v = self.valuation()
        n = self.order - v
        a = [self.coeff(v + k) for k in range(n + 1)]
        one = mp.mpc(1)
        inv_lead = one if a[0] == one else one / a[0]
        terms = [(i, c) for i, c in enumerate(a[1:], 1) if c]
        b = [inv_lead]
        for m in range(1, n + 1):
            s = None
            for i, c in terms:
                if i > m:
                    break
                t = c * b[m - i]
                s = t if s is None else s + t
            b.append(mp.mpc(0) if s is None else -(inv_lead * s))
        return ComplexSeries({k - v: c for k, c in enumerate(b)}, n - v)


def taylor(ev: ThetaEvaluator, c, n: int) -> list:
    """ThetaEvaluator.taylor(c, n) on ComplexSeries."""
    with mp.workprec(ev.prec + 24):
        u, g, alpha = ev._reduced(mp.mpc(c))
        cg = mp.conj(g)
        kappa = ev.eta1 / (2 * ev.w1) - ev.e2 / 2
        lead = alpha * (ev.w1 / mp.pi) / ev.th1p0 \
            * mp.exp((u * cg + abs(g) ** 2 / 2) / ev.A + kappa * u ** 2)
        h = mp.pi / ev.w1
        derivs = _theta1_derivatives(h * u, ev.q, n)
        jac = ComplexSeries({d: derivs[d] * h ** d / mp.factorial(d)
                             for d in range(n + 1)}, n)
        expo = ComplexSeries({1: cg / ev.A + 2 * kappa * u, 2: kappa}, n).exp()
        prod = jac * expo
        return [lead * prod.coeff(d) for d in range(n + 1)]


def generating_function_coefficients(z0_coords, w0_coords, a_max: int, b_max: int,
                                     lattice) -> dict:
    """The Laurent coefficients c[(m, n)] that verify_generating_function
    reads its entries and polar slots from, on ComplexSeries."""
    ev = ThetaEvaluator(lattice)
    with mp.workprec(ev.prec + 24):
        z0, dz = torsion_point(z0_coords, ev.w1, ev.w2)
        w0, dw = torsion_point(w0_coords, ev.w1, ev.w2)
        A = ev.A

        def reciprocal(c, on_lattice, slope, order):
            th = taylor(ev, c, order + (2 if on_lattice else 1))
            polar = abs(th[0]) < ev.pole_tol * abs(th[1])
            den = ComplexSeries({k: th[k] for k in range(int(polar), len(th))},
                                len(th) - 1)
            out = den.inverse() * ComplexSeries({1: slope}, order + 1).exp()
            return {k: out.coeff(k) for k in range(-1, order + 1)}

        pref0 = mp.exp(-z0 * mp.conj(w0) / A)
        rz = {k: pref0 * v for k, v in
              reciprocal(z0, dz, -mp.conj(w0) / A, b_max - 1).items()}
        rw = reciprocal(w0, dw, -mp.conj(z0) / A, a_max)
        return taylor_coefficients_2d(rz, rw, taylor(ev, z0 + w0, a_max + b_max + 1),
                                      a_max, b_max)
