"""Arbitrary-precision evaluation of Eisenstein-Kronecker-Lerch sums.

The working representation is

    Gamma(s) K*_a(z0, w0, s) = I_a(z0, w0, s)
                               + A^(a+1-2s) I_a(w0, z0, a+1-s) <w0, z0>,

    I_a(z0, w0, s) = sum*_gamma Gamma(s, |z0+gamma|^2/A)
                     (conj(z0) + conj(gamma))^a <gamma, w0> / |z0+gamma|^(2s),

where sum* omits gamma = -z0 whenever z0 lies in the lattice.  For each
lattice sum a radius R is chosen with the Gaussian tail bound

    sum_{|z0+gamma| > R} ... <= C * R^(a+1) exp(-R^2/A),

with the covolume constant C computed crudely and doubled.  The sum keeps
exactly the disc |z0+gamma| <= R that this bound certifies.  Its points are
found in the box of (m, n) that the dual basis bounds, so the basis need not
be reduced, and the box is walked in a fixed order (growing max(|m|, |n|),
then lexicographic), so results are bit-reproducible at fixed precision.
Sums over several powers a at one s share a single shell pass (ek_table);
each power still adds exactly the terms, in exactly the order, of its own
pass.

The sums are homogeneous in the lattice,

    K*_a(c z0, c w0, s; c Gamma) = conj(c)^a |c|^(-2s) K*_a(z0, w0, s; Gamma),

so every sum runs on the lattice 2^k Gamma with 4^k A in [1, 4) and is
scaled back by 2^(2ks - ka); a power of two scales exactly, and the cost of
a sum does not depend on the scale of the curve.  Radii, tail targets and
working precisions are chosen in these normalised units.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

import mpmath as mp

from .curves import LatticeData, lattice_pair_mpc
from .scalars import BigComplex, CLASS_NUMBER_ONE, ExactScalar, ideal_generators, \
    in_ok, ok_omega, ok_units, residue_classes, residue_key

__all__ = [
    "PoleError",
    "TailBoundError",
    "eisenstein_kronecker_lerch",
    "ek_number",
    "ek_table",
    "truncation_radius",
    "check_functional_equation",
    "e2star_numeric",
    "is_lattice_point",
    "HeckeCharacter",
    "hecke_L_partial",
    "direct_hecke_sum",
    "rational_reconstruct",
]


class PoleError(ArithmeticError):
    """K*_a requested at one of its poles."""


class TailBoundError(ArithmeticError):
    """Requested target error unachievable at the lattice precision."""


def _work_prec(lattice: LatticeData, target_error) -> int:
    need = int(-mp.log(mp.mpf(target_error), 2)) + 48
    if need > lattice.prec_bits + 40:
        raise TailBoundError(
            f"target {target_error} needs ~{need} bits; lattice carries "
            f"{lattice.prec_bits}")
    return max(need, 64)


def is_lattice_point(z, lattice: LatticeData, prec: Optional[int] = None) -> bool:
    """Numeric membership test: distance to the nearest lattice point below
    2^(-prec/4)-level resolution."""
    prec = prec or lattice.prec_bits
    with mp.workprec(prec):
        w1, w2 = lattice.pair_mpc()
        z = mp.mpc(z)
        det = mp.im(mp.conj(w1) * w2)
        # z = x w1 + y w2 with real x, y
        x = -mp.im(mp.conj(w2) * z) / det
        y = mp.im(mp.conj(w1) * z) / det
        dist = abs(z - (mp.nint(x) * w1 + mp.nint(y) * w2))
        return dist < mp.mpf(2) ** (-(prec // 4))


def _shells(mlo: int, mhi: int, nlo: int, nhi: int):
    """The (m, n) of the box mlo <= m <= mhi, nlo <= n <= nhi by growing shell
    max(|m|, |n|), lexicographic within a shell; each shell's perimeter is
    walked directly."""
    for M in range(max(-mlo, mhi, -nlo, nhi, 0) + 1):
        for m in range(max(-M, mlo), min(M, mhi) + 1):
            if abs(m) == M:
                ns = range(max(-M, nlo), min(M, nhi) + 1)
            else:
                ns = [n for n in (-M, M) if nlo <= n <= nhi]
            for n in ns:
                yield m, n


def _normalised(lattice: LatticeData) -> Tuple[int, LatticeData]:
    """(k, 2^k Gamma) with k the integer that puts 4^k A in [1, 4)."""
    _, e = mp.frexp(lattice.A())  # A in [2^(e-1), 2^e)
    k = -((e - 1) // 2)
    if k == 0:
        return 0, lattice
    prec = lattice.prec_bits
    om1, om2, area = (BigComplex(mp.ldexp(z.re, j), mp.ldexp(z.im, j), prec)
                      for z, j in ((lattice.omega1, k), (lattice.omega2, k),
                                   (lattice.area, 2 * k)))
    return k, LatticeData(om1, om2, area)


def _scaled(z, k: int) -> mp.mpc:
    """2^k z, exactly."""
    return mp.mpc(mp.ldexp(z.real, k), mp.ldexp(z.imag, k))


def _homogeneity_factor(k: int, a: int, s):
    """2^(2ks - ka): K*_a(z0, w0, s; Gamma) over K*_a on 2^k Gamma."""
    return mp.mpf(2) ** (k * (2 * s - a))


def _radius_for(a: int, smax, A, target, covol):
    """Smallest R with 2 * (2 pi A / covol) R^(a+1) exp(-R^2/A) < target."""
    C = 4 * mp.pi * A / covol
    R = mp.sqrt(A) + 1
    while 2 * C * R ** (a + 1) * mp.exp(-R * R / A) * (1 + abs(smax)) > target:
        R += mp.sqrt(A) / 4
        if R > 600:
            raise TailBoundError("tail bound did not close below the target")
    return R


def _tail_target(target_error, A, a: int):
    """Tail target of each lattice sum of K*_a: a quarter of the error,
    shared with the A^(a+1)-weighted second sum."""
    return mp.mpf(target_error) / (4 * (1 + A ** (a + 1)))


def truncation_radius(a: int, s, lattice: LatticeData, target_error):
    """Radius at which the I_a(z0, w0, s) sum of K*_a(z0, w0, s) is cut
    for target_error, at the caller's working precision."""
    k, lattice = _normalised(lattice)
    A = lattice.A()
    target = target_error / abs(_homogeneity_factor(k, a, s))
    return mp.ldexp(_radius_for(a, s, A, _tail_target(target, A, a), mp.pi * A), -k)


def _I_a(targets: Dict[int, object], z0, w0, s, lattice: LatticeData,
         skip_minus_z0: bool) -> Dict[int, mp.mpc]:
    """I_a(z0, w0, s) for every power a in targets (a -> tail target), summed
    in one shell pass.  Each power sums exactly the disc |z0+gamma| <= R of
    its own radius; the incomplete gamma, |z0+gamma|^(2s) and pairing of a
    point are computed only when some power keeps it."""
    w1, w2 = lattice.pair_mpc()
    A = lattice.A()
    covol = mp.pi * A
    cuts = {a: _radius_for(a, s, A, target, covol) ** 2 for a, target in targets.items()}
    R = mp.sqrt(max(cuts.values()))
    # |z0 + m w1 + n w2| <= R bounds m within R |w2|/covol of the w1-coordinate
    # of -z0 and n within R |w1|/covol of its w2-coordinate (the dual basis),
    # whether or not the basis is reduced
    x0, y0 = mp.im(mp.conj(w2) * z0) / covol, -mp.im(mp.conj(w1) * z0) / covol
    dm, dn = R * abs(w2) / covol, R * abs(w1) / covol
    box = (int(mp.floor(x0 - dm)) - 1, int(mp.ceil(x0 + dm)) + 1,
           int(mp.floor(y0 - dn)) - 1, int(mp.ceil(y0 + dn)) + 1)
    sums = {a: mp.mpc(0) for a in targets}
    tiny = mp.mpf(2) ** (-lattice.prec_bits // 2)
    for m, n in _shells(*box):
        g = m * w1 + n * w2
        zz = z0 + g
        az2 = abs(zz) ** 2
        if skip_minus_z0 and az2 < tiny:
            continue
        if az2 == 0:
            continue
        keep = [a for a, cut in cuts.items() if az2 <= cut]
        if not keep:
            continue
        gam = mp.gammainc(s, az2 / A)
        den = az2 ** s
        pair = lattice_pair_mpc(g, w0, A)
        czz = mp.conj(zz)
        for a in keep:
            sums[a] += gam * czz ** a / den * pair
    return sums


def _omitted_terms(z0, w0, s, A, dz: bool, dw: bool):
    """Gamma(s) K*_0 minus the two sums of its split, when z0 or w0 is a
    lattice point: the gamma = -z0 term omitted from the theta sum and the
    gamma = -w0 term omitted from its Poisson dual, each integrated over
    t < 1/A.  For a > 0 both terms carry conj(0)^a = 0."""
    out = mp.mpc(0)
    if dz:
        out -= lattice_pair_mpc(-z0, w0, A) * A ** -s / s
    if dw:
        out += A ** -s / (s - 1)
    return out


def _kstar_values(entries, z0, w0, lattice: LatticeData, target_error,
                  z0_in_lattice: Optional[bool], w0_in_lattice: Optional[bool]):
    """K*_a(z0, w0, s) for each (a, s) in entries.  The I_a(z0, w0, s) sums
    that share s run in one lattice pass, and so do the I_a(w0, z0, a+1-s)
    sums that share a+1-s.  Every sum runs on the normalised lattice, each
    (a, s) to the target error divided by its homogeneity factor."""
    k, lattice = _normalised(lattice)
    prec = _work_prec(lattice, min(
        target_error / abs(_homogeneity_factor(k, a, mp.mpc(s))) for a, s in entries))
    with mp.workprec(prec):
        z0 = _scaled(mp.mpc(z0), k)
        w0 = _scaled(mp.mpc(w0), k)
        entries = [(a, mp.mpc(s)) for a, s in entries]
        factors = [_homogeneity_factor(k, a, s) for a, s in entries]
        dz = is_lattice_point(z0, lattice, prec) if z0_in_lattice is None else z0_in_lattice
        dw = is_lattice_point(w0, lattice, prec) if w0_in_lattice is None else w0_in_lattice
        for a, s in entries:
            if a == 0 and dz and abs(s) < mp.mpf(2) ** (-prec // 4):
                raise PoleError("K*_0 has a pole at s = 0 when z0 is a lattice point")
            if a == 0 and dw and abs(s - 1) < mp.mpf(2) ** (-prec // 4):
                raise PoleError("K*_0 has a pole at s = 1 when w0 is a lattice point")
        A = lattice.A()
        at_z0, at_w0 = {}, {}  # s -> {a: tail target}
        for (a, s), f in zip(entries, factors):
            sub_target = _tail_target(target_error / abs(f), A, a)
            at_z0.setdefault(s, {})[a] = sub_target
            at_w0.setdefault(a + 1 - s, {})[a] = sub_target
        I1 = {s: _I_a(t, z0, w0, s, lattice, dz) for s, t in at_z0.items()}
        I2 = {s: _I_a(t, w0, z0, s, lattice, dw) for s, t in at_w0.items()}
        out = []
        for (a, s), f in zip(entries, factors):
            val = I1[s][a] + A ** (a + 1 - 2 * s) * I2[a + 1 - s][a] \
                * lattice_pair_mpc(w0, z0, A)
            if a == 0:
                val += _omitted_terms(z0, w0, s, A, dz, dw)
            val = f * val / mp.gamma(s)
            out.append(BigComplex(val.real, val.imag, prec))
        return out


def eisenstein_kronecker_lerch(a: int, z0, w0, s, lattice: LatticeData,
                               target_error=1e-20,
                               z0_in_lattice: Optional[bool] = None,
                               w0_in_lattice: Optional[bool] = None) -> BigComplex:
    """K*_a(z0, w0, s) for integer a >= 0 and complex s, within target_error.

    z0, w0 are complex values (anything mpmath accepts); exact-engine callers
    should pass the torsion flags rather than rely on the numeric membership
    classification.
    """
    if a < 0:
        raise ValueError("a must be a nonnegative integer")
    return _kstar_values([(a, s)], z0, w0, lattice, target_error,
                         z0_in_lattice, w0_in_lattice)[0]


def ek_number(a: int, b: int, z0, w0, lattice: LatticeData,
              target_error=1e-20, **flags) -> BigComplex:
    """e*_{a,b}(z0, w0) = K*_{a+b}(z0, w0, b)."""
    if a < 0 or b <= 0:
        raise ValueError("need a >= 0 and b > 0")
    return eisenstein_kronecker_lerch(a + b, z0, w0, b, lattice, target_error, **flags)


def ek_table(a_max: int, b_max: int, z0, w0, lattice: LatticeData,
             target_error=1e-20, z0_in_lattice: Optional[bool] = None,
             w0_in_lattice: Optional[bool] = None
             ) -> Dict[Tuple[int, int], BigComplex]:
    """{(a, b): e*_{a,b}(z0, w0)} for 0 <= a <= a_max, 1 <= b <= b_max, each
    equal to ek_number(a, b, ...), in b_max + a_max + 1 lattice passes."""
    if a_max < 0 or b_max <= 0:
        raise ValueError("need a_max >= 0 and b_max > 0")
    cells = [(a, b) for b in range(1, b_max + 1) for a in range(a_max + 1)]
    vals = _kstar_values([(a + b, b) for a, b in cells], z0, w0, lattice,
                         target_error, z0_in_lattice, w0_in_lattice)
    return dict(zip(cells, vals))


def check_functional_equation(a: int, z0, w0, s, lattice: LatticeData,
                              target_error=1e-20) -> mp.mpf:
    """|Gamma(s) K*_a(z0,w0,s) - A^(a+1-2s) Gamma(a+1-s) K*_a(w0,z0,a+1-s) <w0,z0>|.

    Both completed sides are assembled from the incomplete-gamma lattice sums
    directly, so values where Gamma(a+1-s) has a pole (compensated by a zero
    of K*) stay finite.  Both sides scale by the same homogeneity factor, so
    the residual is taken on the normalised lattice and scaled back.
    """
    k, lattice = _normalised(lattice)
    prec = _work_prec(lattice,
                      target_error / abs(_homogeneity_factor(k, a, mp.mpc(s))))
    with mp.workprec(prec):
        s = mp.mpc(s)
        z0 = _scaled(mp.mpc(z0), k)
        w0 = _scaled(mp.mpc(w0), k)
        f = abs(_homogeneity_factor(k, a, s))
        A = lattice.A()
        dz = is_lattice_point(z0, lattice, prec)
        dw = is_lattice_point(w0, lattice, prec)
        sub = _tail_target(target_error / f, A, a)
        I1 = _I_a({a: sub}, z0, w0, s, lattice, skip_minus_z0=dz)[a]
        I2 = _I_a({a: sub}, w0, z0, a + 1 - s, lattice, skip_minus_z0=dw)[a]
        lhs = I1 + A ** (a + 1 - 2 * s) * I2 * lattice_pair_mpc(w0, z0, A)
        rhs = A ** (a + 1 - 2 * s) * (
            I2 + A ** (2 * s - a - 1) * I1 * lattice_pair_mpc(z0, w0, A)
        ) * lattice_pair_mpc(w0, z0, A)
        return f * abs(lhs - rhs)


def e2star_numeric(lattice: LatticeData, target_error=1e-20) -> BigComplex:
    """e2* = e*_{0,2}(Gamma) = K*_2(0, 0, 2)."""
    return eisenstein_kronecker_lerch(2, 0, 0, 2, lattice, target_error,
                                      z0_in_lattice=True, w0_in_lattice=True)


def rational_reconstruct(x, max_den: int = 10 ** 6, tol=None) -> Optional[Fraction]:
    """Continued-fraction rational reconstruction of a real value; None when
    no denominator <= max_den reproduces x within tol."""
    x = mp.mpf(x)
    tol = mp.mpf(tol) if tol is not None else mp.mpf(2) ** (-mp.mp.prec // 2)
    p0, q0, p1, q1 = 0, 1, 1, 0
    y = x
    for _ in range(64):
        a = int(mp.floor(y))
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        if q1 > max_den:
            return None
        if abs(x - Fraction(p1, q1)) < tol:
            return Fraction(p1, q1)
        frac = y - a
        if frac == 0:
            return None
        y = 1 / frac
    return None


# ---------------------------------------------------------------------------
# Hecke L partial sums (class number 1)
# ---------------------------------------------------------------------------

@dataclass
class HeckeCharacter:
    """Finite part of an algebraic Hecke character on a class-number-1 field.

    table maps one representative of each class of (O/f)^x, f the
    conductor, to an exact root-of-unity value (a table missing a class or
    holding two keys of one class is rejected); infinity_type (m, n) gives
    phi((alpha)) = eps(alpha) alpha^m conj(alpha)^n.
    """

    d: int
    conductor: ExactScalar
    infinity_type: Tuple[int, int]
    table: Dict[ExactScalar, ExactScalar]

    def __post_init__(self):
        if self.d not in CLASS_NUMBER_ONE:
            raise ValueError(f"class number of Q(sqrt(-{self.d})) is not 1")
        self._index_classes()
        self._check_table()
        # w_f sanity for type (1,0)-style characters
        m, n = self.infinity_type
        if (m, n) == (1, 0) and self.count_units_cong_one() != 1:
            raise ValueError(
                "type (1,0) requires w_f = 1 (no nontrivial unit = 1 mod f)")

    # -- residue bookkeeping -------------------------------------------------
    def reduce(self, x: ExactScalar) -> ExactScalar:
        rep = self._class_rep.get(residue_key(x, self.conductor, self.d))
        if rep is None:
            raise KeyError(f"{x} is not coprime to the conductor")
        return rep

    def eps(self, x: ExactScalar) -> ExactScalar:
        return self.table[self.reduce(x)]

    def value_on_generator(self, alpha: ExactScalar) -> ExactScalar:
        m, n = self.infinity_type
        return self.eps(alpha) * alpha ** m * alpha.conjugate() ** n

    def is_coprime(self, x: ExactScalar) -> bool:
        try:
            self.reduce(x)
            return True
        except KeyError:
            return False

    def count_units_cong_one(self) -> int:
        count = 0
        for u in ok_units(self.d):
            if in_ok((u - 1) / self.conductor, self.d):
                count += 1
        return count

    def _index_classes(self):
        """Map each class of (O/f)^x to its table key; the table must hold
        exactly one key per class."""
        f, d = self.conductor, self.d
        classes = residue_classes(f, d)
        unit_classes = {residue_key(x, f, d) for x in classes
                        if any(in_ok((x * y - 1) / f, d) for y in classes)}
        self._class_rep = {residue_key(r, f, d): r for r in self.table}
        if len(self._class_rep) != len(self.table) \
                or self._class_rep.keys() != unit_classes:
            raise ValueError("character table needs exactly one key per "
                             "class of (O/f)^x")

    def _check_table(self):
        reps = list(self.table)
        for r1 in reps:
            for r2 in reps:
                want = self.table[self.reduce(r1 * r2)]
                got = self.table[r1] * self.table[r2]
                if want != got:
                    raise ValueError(f"character table not multiplicative at "
                                     f"({r1}) * ({r2})")

    def well_defined_on_ideals(self) -> bool:
        """phi((alpha)) independent of the generator: phi(u alpha) = phi(alpha)."""
        m, n = self.infinity_type
        for u in ok_units(self.d):
            if not self.is_coprime(u):
                return False
            if self.eps(u) * u ** m * u.conjugate() ** n != ExactScalar(1):
                return False
        return True


def direct_hecke_sum(char: HeckeCharacter, s, norm_bound: int,
                     prec_bits: int = 256) -> BigComplex:
    """Truncated L_f(phi, s) = sum_{(a,f)=1, Na <= bound} phi(a) Na^-s.

    Absolutely convergent for Re s > (m+n)/2 + 1; the caller picks s well
    inside the range so the tail is below the comparison tolerance.
    """
    with mp.workprec(prec_bits):
        tot = mp.mpc(0)
        for g in ideal_generators(norm_bound, char.d):
            if not char.is_coprime(g):
                continue
            val = char.value_on_generator(g)
            tot += val.to_mpc(prec_bits) / mp.mpf(int(g.norm())) ** mp.mpc(s)
        return BigComplex(tot.real, tot.imag, prec_bits)


def hecke_L_partial(char: HeckeCharacter, s, target_error=1e-14,
                    prec_bits: int = 256, omega=1) -> BigComplex:
    """L_f(phi, s) assembled from Eisenstein-Kronecker-Lerch values.

    Class number 1 with trivial ray class group I(f)/P(f) (checked): the sum
    collapses to a single K* evaluation on the conductor lattice,

        L_f(phi, s) = (1/w_f) K*_{|m-n|}(alpha0^delta, 0, s - min(m,n);
                                          (f)^delta),

    alpha0 = 1, delta = conjugation when m > n.  omega optionally rescales
    the lattice (f * omega) for period-normalized values.
    """
    m, n = char.infinity_type
    if m == n:
        raise ValueError("infinity type must have m != n")
    if not char.well_defined_on_ideals():
        raise ValueError("character not trivial on units: not an ideal character")
    # trivial ray class group <=> #(O/f)^x == #units-image
    wf = char.count_units_cong_one()
    nclasses = len(char.table) * wf // len(ok_units(char.d))
    if nclasses != 1:
        raise NotImplementedError(
            "only conductors with trivial ray class group are assembled here")
    with mp.workprec(prec_bits + 32):
        w = ok_omega(char.d)
        f = char.conductor
        om = mp.mpc(omega)
        w1 = f.to_mpc(prec_bits + 32) * om
        w2 = (f * w).to_mpc(prec_bits + 32) * om
        if mp.im(w2 / w1) < 0:
            w2 = -w2
        delta_conj = m > n
        if delta_conj:
            w1, w2 = mp.conj(w1), mp.conj(w2)
            if mp.im(w2 / w1) < 0:
                w2 = -w2
        lat = LatticeData(
            BigComplex(w1.real, w1.imag, prec_bits + 32),
            BigComplex(w2.real, w2.imag, prec_bits + 32),
            BigComplex(mp.im(w2 * mp.conj(w1)) / mp.pi, mp.mpf(0), prec_bits + 32),
        )
        alpha0 = mp.conj(om) if delta_conj else om  # image of alpha0 = 1 scaled
        val = eisenstein_kronecker_lerch(
            abs(m - n), alpha0, 0, mp.mpc(s) - min(m, n), lat, target_error,
            w0_in_lattice=True)
        out = val.to_mpc() / wf
        return BigComplex(out.real, out.imag, prec_bits)


def e2star_estimate(lattice: LatticeData, target_error=1e-20,
                    max_den: int = 10 ** 4):
    """Numeric e2* with attempted continued-fraction rational reconstruction.

    Returns (value, reconstructed, verified): `reconstructed` is a Fraction
    or None; `verified` is True only when the reconstruction matches a
    catalog row's e2* for the lattice's curve, else the value is reported as
    unverified heuristics.
    """
    from .curves import catalog
    val = e2star_numeric(lattice, target_error)
    with mp.workprec(val.prec_bits):
        if abs(val.im) > mp.mpf(target_error) * 100:
            return val, None, False
        rec = rational_reconstruct(val.re, max_den, tol=mp.mpf(target_error) * 100)
    verified = False
    curve = lattice.curve
    if rec is not None and curve is not None:
        for row in catalog():
            try:
                cand = row.curve(curve.u if curve.u else 1)
            except ValueError:
                continue
            if cand.g2 == curve.g2 and cand.g3 == curve.g3 and \
                    cand.e2_star == ExactScalar(rec):
                verified = True
                break
    return val, rec, verified
