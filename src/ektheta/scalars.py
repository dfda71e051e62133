"""Coefficient scalars for the three arithmetic engines.

Three scalar kinds live here:

* :class:`ExactScalar` -- elements a + b*sqrt(-d) of an imaginary quadratic
  field Q(sqrt(-d)) with rational a, b.  The tag d = 0 encodes a plain
  rational (b is then zero).  Values are immutable and canonical: Fractions
  are kept reduced and a vanishing b collapses the tag to d = 0, so equality
  and hashing are structural.

* :class:`BigComplex` -- an arbitrary-precision complex value, for output,
  carrying its working mantissa precision in bits.

* :class:`PadicScalar` -- an element of Q_p, stored as p^val * unit with
  the int unit known modulo p^(abs_prec - val).  It is a value for output
  and comparison: the p-adic engine computes on plain ints mod p^k (one
  absolute precision per series) and builds these at the end.  Its one
  operation is the product, which keeps the smaller relative precision.

The p-adic embedding of exact scalars (``embed_padic``) fixes the split-prime
square root of -d deterministically: the root r of x^2 + d = 0 (mod p) with
the smallest nonnegative representative, Hensel-lifted, so runs are
reproducible.

The ring of integers O_K = Z + Z omega of a class-number-one field has one
set of helpers here: membership, units, elements by norm, ideal generators
and residue classes.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Union


def _lazy_mpmath():
    """The mpmath module, executed at its first attribute read (or as it is,
    when something imported it already).  The exact and p-adic engines never
    read it, so their commands skip its import.  The other modules take `mp`
    from here and reach its submodules as attributes (mp.libmp): an import
    statement executes mpmath at once, and a first `from mpmath.libmp import`
    through the lazy module executes mpmath.libmp a second time."""
    if "mpmath" in sys.modules:
        return sys.modules["mpmath"]
    spec = importlib.util.find_spec("mpmath")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["mpmath"] = module
    spec.loader.exec_module(module)
    return module


mp = _lazy_mpmath()

__all__ = [
    "ExactScalar",
    "BigComplex",
    "PadicScalar",
    "embed_padic",
    "FieldMismatchError",
    "RamifiedPrimeError",
    "CLASS_NUMBER_ONE",
    "ok_omega",
    "in_ok",
    "ok_units",
    "ok_elements",
    "ideal_generators",
    "residue_key",
    "residue_classes",
]

RationalLike = Union[int, Fraction, "ExactScalar"]


class FieldMismatchError(ValueError):
    """Arithmetic attempted between distinct quadratic fields."""


class RamifiedPrimeError(ValueError):
    """p-adic embedding requested at a ramified or unusable prime."""


def _is_squarefree(d: int) -> bool:
    if d < 0:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


class ExactScalar:
    """a + b*sqrt(-d), a and b rational, d squarefree >= 0 (d = 0: rational)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 0):
        if isinstance(a, ExactScalar):
            if b:
                raise TypeError("cannot combine an ExactScalar with extra parts")
            a, b, d = a.a, a.b, a.d
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            d = 0
        elif d <= 0 or not _is_squarefree(d):
            raise ValueError(f"field tag must be squarefree positive, got {d}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("ExactScalar is immutable")

    # -- coercion -----------------------------------------------------------
    @staticmethod
    def _coerce(x) -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactScalar(x)
        return NotImplemented  # type: ignore[return-value]

    def _join(self, other: "ExactScalar") -> int:
        if self.d == other.d:
            return self.d
        if self.d == 0:
            return other.d
        if other.d == 0:
            return self.d
        raise FieldMismatchError(f"cannot mix Q(sqrt(-{self.d})) with Q(sqrt(-{other.d}))")

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join(o)
        return ExactScalar(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join(o)
        # (a1 + b1 w)(a2 + b2 w) with w^2 = -d
        return ExactScalar(
            self.a * o.a - d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join(o)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero ExactScalar")
        # multiply by conjugate / norm
        num = self * o.conjugate()
        return ExactScalar(num.a / n, num.b / n, d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return ExactScalar(1) / self ** (-k)
        out = ExactScalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure -----------------------------------------------------------
    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """a^2 + d b^2, the norm to Q."""
        return self.a * self.a + self.d * self.b * self.b

    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.b == 0 and o.b == 0:
            return self.a == o.a
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        if self.b == 0:
            return f"ExactScalar({self.a})"
        return f"ExactScalar({self.a}, {self.b}, d={self.d})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt(-{self.d})"

    # -- numeric image under the fixed complex embedding sqrt(-d) -> i sqrt(d)
    def to_mpc(self, prec_bits: int = 113) -> mp.mpc:
        with mp.workprec(prec_bits):
            re = mp.mpf(self.a.numerator) / self.a.denominator
            im = (mp.mpf(self.b.numerator) / self.b.denominator) * mp.sqrt(self.d)
            return mp.mpc(re, im)

    # -- JSON ------------------------------------------------------------
    def to_json(self):
        if self.b == 0:
            return f"{self.a.numerator}/{self.a.denominator}"
        return {
            "a": f"{self.a.numerator}/{self.a.denominator}",
            "b": f"{self.b.numerator}/{self.b.denominator}",
            "d": self.d,
        }


# ---------------------------------------------------------------------------
# the ring of integers O_K = Z + Z omega of a class-number-one K = Q(sqrt(-d))
# ---------------------------------------------------------------------------

CLASS_NUMBER_ONE = (1, 2, 3, 7, 11, 19, 43, 67, 163)


def ok_omega(d: int) -> ExactScalar:
    """Second basis element of O_K over Z: sqrt(-d), or (1+sqrt(-d))/2."""
    if d % 4 == 3:
        return ExactScalar(Fraction(1, 2), Fraction(1, 2), d)
    return ExactScalar(0, 1, d)


def _ok_coords(x: ExactScalar, d: int) -> tuple:
    """(c1, c2) with x = c1 + c2 * ok_omega(d)."""
    if d % 4 == 3:
        return x.a - x.b, 2 * x.b
    return x.a, x.b


def in_ok(x: ExactScalar, d: int) -> bool:
    return all(c.denominator == 1 for c in _ok_coords(x, d))


def ok_units(d: int) -> list:
    """The roots of unity of K: fourth roots for d = 1, sixth for d = 3."""
    one = ExactScalar(1)
    if d == 1:
        i = ExactScalar(0, 1, 1)
        return [one, i, -one, -i]
    if d == 3:
        w = ExactScalar(Fraction(1, 2), Fraction(1, 2), 3)  # primitive 6th root
        return [w ** k for k in range(6)]
    return [one, -one]


def _ok_points(norm_bound: int, d: int) -> tuple:
    """(den, sorted [(den^2 N(x), u, v)]) for every x = (u + v sqrt(-d))/den
    in O_K with N(x) <= norm_bound, 0 included.  Only the lattice points
    inside the norm ellipse are visited: den = 2 when d = 3 mod 4 (else 1),
    and u = v mod den."""
    den = 2 if d % 4 == 3 else 1
    bound = den * den * norm_bound
    vmax = math.isqrt(bound // d)
    points = []
    for v in range(-vmax, vmax + 1):
        r = math.isqrt(bound - d * v * v)
        for u in range(-r + (r + v) % den, r + 1, den):
            points.append((u * u + d * v * v, u, v))
    points.sort()
    return den, points


def ok_elements(norm_bound: int, d: int) -> list:
    """Every x = a + b sqrt(-d) in O_K with N(x) <= norm_bound, 0 included,
    in (norm, a, b) order."""
    den, points = _ok_points(norm_bound, d)
    return [ExactScalar(Fraction(u, den), Fraction(v, den), d) for _, u, v in points]


def _associate_keys(u: int, v: int, d: int) -> list:
    """The integer coordinates (den*a, den*b) of the associates of
    (u + v sqrt(-d))/den: its products with ok_units(d), in that order."""
    if d == 1:
        return [(u, v), (-v, u), (-u, -v), (v, -u)]
    if d == 3:
        keys = [(u, v)]
        for _ in range(5):      # times (1 + sqrt(-3))/2
            u, v = (u - 3 * v) // 2, (u + v) // 2
            keys.append((u, v))
        return keys
    return [(u, v), (-u, -v)]


def ideal_generators(norm_bound: int, d: int) -> list:
    """The canonical generator of each nonzero ideal of O_K with norm
    <= norm_bound, in (norm, a, b) order (class number one): of its
    associates, the one with the lexicographically largest (a, b)."""
    den, points = _ok_points(norm_bound, d)
    return [ExactScalar(Fraction(u, den), Fraction(v, den), d)
            for n, u, v in points if n and max(_associate_keys(u, v, d)) == (u, v)]


def residue_key(x: ExactScalar, g: ExactScalar, d: int) -> tuple:
    """A key of the class of x in O_K / (g): x = y mod g iff the keys agree."""
    return tuple(c % 1 for c in _ok_coords(x / g, d))


def residue_classes(g: ExactScalar, d: int) -> list:
    """One representative j + k omega of each class of O_K / (g), the first
    met in the scan j = 0..N(g) (outer), k = 0..N(g), listed in scan order:
    numeric sums over the classes add their terms in this order."""
    n = int(g.norm())
    om = ok_omega(d)
    reps = {}
    for j in range(n + 1):
        for k in range(n + 1):
            x = ExactScalar(j) + ExactScalar(k) * om
            reps.setdefault(residue_key(x, g, d), x)
            if len(reps) == n:
                return list(reps.values())
    raise ValueError(f"{g} is not in O_K")


def _dps_for(prec_bits: int) -> int:
    return int(prec_bits * 0.30103) + 4


class BigComplex(NamedTuple):
    """Arbitrary-precision complex value with explicit mantissa precision."""

    re: mp.mpf
    im: mp.mpf
    prec_bits: int

    def to_mpc(self) -> mp.mpc:
        with mp.workprec(max(self.prec_bits, mp.mp.prec)):
            return mp.mpc(self.re, self.im)

    def to_json(self):
        dps = _dps_for(self.prec_bits)
        return {
            "re": mp.nstr(self.re, dps),
            "im": mp.nstr(self.im, dps),
            "prec_bits": self.prec_bits,
        }


# ---------------------------------------------------------------------------
# p-adic scalars
# ---------------------------------------------------------------------------

def _vp_fraction(x, p: int) -> Optional[int]:
    """v_p of a nonzero int or Fraction; None for zero."""
    if p < 2:
        raise ValueError(f"v_p needs p >= 2, not p = {p}")
    if not x:
        return None
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def kronecker_mul(u, v, bound: int, size: Optional[int] = None) -> list:
    """Coefficients 0..size-1 (default: all) of the product of the
    polynomials u and v, whose coefficients are ints in [0, bound).

    One integer product (Kronecker substitution): coefficient i of u fills
    bytes [i nb, (i + 1) nb) of a packed integer, and likewise for v, with
    nb wide enough that no coefficient of the product, a sum of at most
    min(len(u), len(v)) terms below bound^2, overflows into the next."""
    n = len(u) + len(v) - 1 if size is None else size
    nb = (2 * (bound - 1).bit_length() + min(len(u), len(v)).bit_length()) // 8 + 1

    def pack(a) -> int:
        return int.from_bytes(b"".join(c.to_bytes(nb, "little") for c in a[:n]), "little")

    raw = (pack(u) * pack(v) & ((1 << 8 * nb * n) - 1)).to_bytes(nb * n, "little")
    return [int.from_bytes(raw[i * nb:(i + 1) * nb], "little") for i in range(n)]


# integer arithmetic in Z/p^k[x]/(W), W monic; elements are coefficient tuples

def mulmod(u, v, W, pk) -> tuple:
    """u * v mod (W(x), pk); u, v of length at most deg W.  The schoolbook
    product is formed on unreduced ints and reduced once (divrem_monic)."""
    out = [0] * (2 * len(W) - 3)         # degree <= 2 deg W - 2
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                out[i + j] += ui * vj
    return tuple(divrem_monic(out, W, pk)[1])


def divrem_monic(f, W, pk):
    """Quotient and remainder (lists) of the polynomial f by W over Z/pk."""
    d = len(W) - 1
    rem = list(f)
    q = [0] * max(len(f) - d, 1)
    for i in range(len(f) - 1, d - 1, -1):
        c = rem[i] % pk
        q[i - d] = c
        if c:
            for j in range(d + 1):
                rem[i - d + j] = (rem[i - d + j] - c * W[j]) % pk
    return q, [x % pk for x in rem[:d]]


# Newton's identities over B = Z/pk[[s]]/(s^K): an element of B is a row of
# K ints, and K = 1 is Z/pk itself.  For an element F of a free rank-d
# algebra over B with traces T_i = Tr F^i and characteristic polynomial
# X^d + c_1 X^(d-1) + ... + c_d (c_0 = 1),
#
#     T_k + c_1 T_(k-1) + ... + c_(k-1) T_1 + k c_k = 0      (k <= d)
#     T_k + c_1 T_(k-1) + ... + c_d T_(k-d) = 0              (k > d)
#
# the second being Cayley-Hamilton.  Both hold over any commutative ring, so
# each direction is exact mod pk, given that every k <= d is a unit mod pk.

def _row_dot(us, vs, K: int) -> list:
    """sum_j us[j] vs[j] in Z[[s]]/(s^K), unreduced."""
    acc = [0] * K
    for u, v in zip(us, vs):
        for a, x in enumerate(u):
            if x:
                for b in range(K - a):
                    acc[a + b] += x * v[b]
    return acc


def charpoly(T, pk) -> list:
    """Rows c_0 = 1, c_1 .. c_d of the characteristic polynomial of F from
    its traces T_0 = d, T_1 .. T_d: k c_k = -sum_(i=1..k) c_(k-i) T_i."""
    K = len(T[0])
    c = [[1] + [0] * (K - 1)]
    for k in range(1, len(T)):
        inv = -pow(k, -1, pk)
        c.append([x * inv % pk for x in _row_dot(c[k - 1::-1], T[1:k + 1], K)])
    return c


def power_sums(c, n: int, pk) -> list:
    """Rows T_0 .. T_(n-1), T_i = Tr F^i, from the characteristic polynomial
    c_0 = 1, c_1 .. c_d of F: T_k = -(k c_k + sum_(i=1..k-1) c_i T_(k-i)),
    with c_k = 0 past d (Cayley-Hamilton)."""
    d, K = len(c) - 1, len(c[0])
    T = [[d] + [0] * (K - 1)]
    for k in range(1, n):
        acc = _row_dot(c[1:], T[k - 1:max(k - d - 1, 0):-1], K)
        if k <= d:
            acc = [x + k * y for x, y in zip(acc, c[k])]
        T.append([-x % pk for x in acc])
    return T


def trace(u, sums, pk) -> int:
    """Trace of multiplication by u on Z/pk[x]/(W): sum of u_i times the
    power sums s_i of the roots of W (the K = 1 power_sums of W)."""
    return sum(ui * si for ui, si in zip(u, sums)) % pk


def inverse(u, W, p, pk) -> tuple:
    """Inverse of u mod (W(x), pk) by Newton's iteration inv <- inv (2 - u inv)
    from (u_0^-1 mod p, 0, ..., 0); u_0 not a p-unit raises ZeroDivisionError.

    That start inverts u modulo (p, x).  Each step doubles the valuation of
    1 - u inv.  When W = x^deg mod p, (p, x) is the maximal ideal and its
    deg-th power lies in (p), so k*deg doublings reach p^k; k <= log2(pk)
    bounds the steps allowed before giving up.
    """
    if u[0] % p == 0:
        raise ZeroDivisionError(f"constant term {u[0]} is not a {p}-unit")
    d = len(W) - 1
    one = (1,) + (0,) * (d - 1)
    inv = (pow(u[0], -1, p),) + (0,) * (d - 1)
    for _ in range((pk.bit_length() * d).bit_length() + 2):
        prod = mulmod(u, inv, W, pk)
        if prod == one:
            return inv
        inv = mulmod(inv, ((2 - prod[0]) % pk,) + tuple(-c % pk for c in prod[1:]), W, pk)
    raise ArithmeticError("Newton inverse did not converge: W is not x^deg "
                          "modulo p")


class PadicScalar:
    """p^val * unit in Q_p, the int unit known mod p^(abs_prec - val);
    val None = zero at this precision.  A value for comparison and output,
    not a ring element: its one operation is the product."""

    __slots__ = ("p", "val", "unit", "abs_prec")

    def __init__(self, p: int, val: Optional[int], unit: int, abs_prec: int):
        self.p = p
        self.val = val
        self.unit = unit
        self.abs_prec = abs_prec

    @staticmethod
    def from_int(n: int, p: int, abs_prec: int, shift: int = 0) -> "PadicScalar":
        """n / p^shift, for an int n known mod p^(abs_prec + shift)."""
        n %= p ** (abs_prec + shift)
        v = _vp_fraction(n, p)
        if v is None:
            return PadicScalar(p, None, 0, abs_prec)
        return PadicScalar(p, v - shift, n // p ** v, abs_prec)

    @property
    def rel_prec(self) -> int:
        if self.val is None:
            return 0
        return self.abs_prec - self.val

    def __mul__(self, other):
        if not isinstance(other, PadicScalar):
            return NotImplemented
        if other.p != self.p:
            raise FieldMismatchError("mixed p-adic primes")
        if self.val is None or other.val is None:
            # O(p^a) * p^v (unit or O(1)) is O(p^(a + v))
            va = self.val if self.val is not None else self.abs_prec
            vb = other.val if other.val is not None else other.abs_prec
            return PadicScalar(self.p, None, 0, va + vb)
        rel = min(self.rel_prec, other.rel_prec)
        val = self.val + other.val
        # unit*unit stays a unit; no re-extraction needed
        return PadicScalar(self.p, val, self.unit * other.unit % self.p ** rel,
                           val + rel)

    def eq_mod(self, other: "PadicScalar", k: int) -> bool:
        """self = other mod p^k, with both known to at least p^k."""
        if k > min(self.abs_prec, other.abs_prec):
            return False
        # p^e x is an int for both, e clearing the lower valuation
        e = max([0] + [-x.val for x in (self, other) if x.val is not None])

        def scaled(x: "PadicScalar") -> int:
            return 0 if x.val is None else x.unit * self.p ** (x.val + e)

        return (scaled(self) - scaled(other)) % self.p ** (k + e) == 0

    def digits(self) -> list:
        """Base-p digits of the unit part, least significant first."""
        n, out = self.unit, []
        for _ in range(self.rel_prec):       # rel_prec is 0 for zero
            n, r = divmod(n, self.p)
            out.append(r)
        return out

    def to_json(self):
        # "f": the residue degree of the scalar's field, always 1 (Z_p)
        return {
            "p": self.p,
            "f": 1,
            "val": self.val,
            "digits": self.digits(),
            "prec": self.abs_prec,
        }

    def __repr__(self):
        if self.val is None:
            return f"PadicScalar(O({self.p}^{self.abs_prec}))"
        return (f"PadicScalar({self.p}^{self.val}*{self.unit}"
                f" + O({self.p}^{self.abs_prec}))")


# ---------------------------------------------------------------------------
# embedding Q(sqrt(-d)) -> Q_p
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sqrt_minus_d_mod(p: int, d: int, abs_prec: int) -> int:
    """Root of x^2 + d = 0 in Z_p mod p^abs_prec; smallest residue, Hensel lifted.

    Raises RamifiedPrimeError when p | 4d and ValueError when -d is not a
    square mod p.
    """
    if p == 2 or d % p == 0:
        raise RamifiedPrimeError(f"p={p} ramifies in Q(sqrt(-{d}))")
    r = next((r for r in range(p) if (r * r + d) % p == 0), None)
    if r is None:
        raise ValueError(f"-{d} is not a square mod {p}")
    # Hensel: r <- r - (r^2 + d) / (2 r)
    k = 1
    while k < abs_prec:
        k = min(2 * k, abs_prec)
        q = p ** k
        r = (r - (r * r + d) * pow(2 * r, -1, q)) % q
    return r


def embed_padic(x: ExactScalar, p: int, abs_prec: int) -> PadicScalar:
    """Image of x under the fixed embedding i_p into Q_p mod p^abs_prec.

    The embedding sends sqrt(-d) to the deterministic root of x^2 + d chosen
    by :func:`_sqrt_minus_d_mod`.  With p^e the least power that makes both
    parts of x p-integral, p^e x is formed on ints mod p^(abs_prec + e), the
    root lifted that far, so the result carries all abs_prec digits however
    negative v_p(x) is.
    """
    e = max([0] + [-_vp_fraction(c, p) for c in (x.a, x.b) if c])
    k = abs_prec + e
    pk = p ** k

    def scaled(c: Fraction) -> int:
        c *= Fraction(p) ** e
        return c.numerator * pow(c.denominator, -1, pk)

    n = scaled(x.a)
    if x.b:
        n += scaled(x.b) * _sqrt_minus_d_mod(p, x.d, k)
    return PadicScalar.from_int(n, p, abs_prec, e)
