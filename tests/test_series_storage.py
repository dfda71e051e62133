"""UniSeries's int row against the dict storage it replaced
(series_oracle.DictSeries): every operation, entry for entry, on Q, on
Q(sqrt(-d)) for d = 1, 3, 7 and on ScaledIntRing(13, 6), over random
sparse series and over the generators' polar series."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ektheta.curves import catalog_row, formal_log, sigma_series, wp_series
from ektheta.scalars import ExactScalar
from ektheta.series import ExactRing, ScaledIntRing, UniSeries, _scalar_json
from tests.series_oracle import DictSeries

SCALED = ScaledIntRing(13, 6)
RINGS = {"Q": ExactRing(0), "d1": ExactRing(1), "d3": ExactRing(3), "d7": ExactRing(7),
         "scaled13": SCALED}


def assert_same(new: UniSeries, old: DictSeries) -> None:
    ring = new.ring
    assert new.order == old.order
    assert dict(new.items()) == old.coeffs
    assert new.valuation() == old.valuation()
    lo = min(old.coeffs, default=0)
    assert [new.coeff(k) for k in range(lo - 2, new.order + 3)] == \
        [old.coeff(k) for k in range(lo - 2, old.order + 3)]
    if ring is SCALED:
        assert new.to_json(str) == old.to_json(str)
    else:
        assert new.to_json() == old.to_json(_scalar_json)
    assert new == UniSeries(ring, old.coeffs, old.order)


def scalars(ring):
    small = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    if ring is SCALED:      # and two unreduced entries: m is 0, -1 is m - 1
        return st.integers(0, SCALED.modulus - 1) | st.sampled_from([SCALED.modulus, -1])
    if ring.d == 0:
        return small
    return st.builds(lambda a, b: ring.coerce(ExactScalar(a, b, ring.d)), small, small)


@st.composite
def sparse(draw, ring, lead=None, starts=(-3, 3)):
    """(coeffs, order) of a random sparse series; `lead` is put at its
    lowest index when given (a unit, so that the series inverts)."""
    start = draw(st.integers(*starts))
    order = draw(st.integers(start, start + 30))
    coeffs = draw(st.dictionaries(st.integers(start, order + 2), scalars(ring),
                                  max_size=10))
    if lead is not None:
        coeffs[start] = lead
    return coeffs, order


def both(ring, drawn):
    coeffs, order = drawn
    return UniSeries(ring, coeffs, order), DictSeries(ring, coeffs, order)


def unit(ring):
    return st.just(ring.one) if ring is SCALED else scalars(ring).filter(bool)


@pytest.mark.parametrize("name", list(RINGS))
class TestRowAgainstDictStorage:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_storage_sum_product_scale_truncate(self, name, data):
        ring = RINGS[name]
        (f, of), (g, og) = (both(ring, data.draw(sparse(ring))) for _ in range(2))
        assert_same(f, of)
        assert_same(f + g, of + og)
        assert_same(f * g, of * og)
        c = data.draw(scalars(ring))
        assert_same(f * c, of * c)
        k = data.draw(st.integers(f.order - 14, f.order + 1))
        assert_same(f.truncate(k), of.truncate(k))
        assert_same(f.derivative(), of.derivative())

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_product_after_a_cancelled_lowest_entry(self, name, data):
        # f minus its lowest term: the row starts below the valuation
        ring = RINGS[name]
        (f, of), (g, og) = (both(ring, data.draw(sparse(ring))) for _ in range(2))
        lead = {of.valuation(): -of.coeff(of.valuation())}
        h, oh = f + UniSeries(ring, lead, f.order), of + DictSeries(ring, lead, of.order)
        assert_same(h, oh)
        assert_same(h * g, oh * og)
        assert_same(g * h, og * oh)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_inverse_and_compose(self, name, data):
        ring = RINGS[name]
        f, of = both(ring, data.draw(sparse(ring, lead=data.draw(unit(ring)))))
        assert_same(f.inverse(), of.inverse())
        assert_same(f * f.inverse(), of * of.inverse())
        inner, oinner = both(ring, data.draw(sparse(ring, lead=data.draw(unit(ring)),
                                                    starts=(1, 1))))
        assert_same(f.compose(inner), of.compose(oinner))


def _curve(name):
    # Z[i] at u = 4 (over Q, and 13-integral), or a lattice (2 + sqrt(-d)) O_K
    # whose coefficients are irrational in Q(sqrt(-d))
    if name in ("Q", "scaled13"):
        return catalog_row("Z[sqrt(-1)]").curve(4)
    d = RINGS[name].d
    label = {1: "Z[sqrt(-1)]", 3: "Z[(1+sqrt(-3))/2]", 7: "Z[(1+sqrt(-7))/2]"}[d]
    return catalog_row(label).curve(1).scaled(ExactScalar(2, 1, d))


def _dict(f: UniSeries) -> DictSeries:
    return DictSeries(f.ring, dict(f.items()), f.order)


@pytest.mark.parametrize("name", list(RINGS))
def test_generators_polar_series(name):
    # wp to order 14 (exact rings: its coefficients are not varpi-scaled),
    # lambda and sigma, their reciprocals (polar) and the compositions; on
    # ScaledIntRing(13, 6) to order 3p, across three carry periods
    ring = RINGS[name]
    order = 39 if ring is SCALED else 14
    curve = _curve(name)
    assert curve.ring().d == ring.d or ring is SCALED
    lam = formal_log(curve, order, ring).series
    sig = sigma_series(curve, order, ring)
    olam, osig = _dict(lam), _dict(sig)
    assert_same(lam.inverse(), olam.inverse())
    assert lam.inverse().coeff(-1) == ring.one
    assert_same(sig.inverse(), osig.inverse())
    assert_same(lam * sig, olam * osig)
    assert_same(lam.compose(lam), olam.compose(olam))
    assert_same(lam.inverse().compose(lam), olam.inverse().compose(olam))
    assert_same(lam.derivative().inverse(), olam.derivative().inverse())
    # lambda less its lowest term: the row starts below the valuation
    lead = {1: -lam.coeff(1)}
    tail, otail = lam + UniSeries(ring, lead, order), olam + DictSeries(ring, lead, order)
    assert tail.start == 1 < tail.valuation() < 8
    assert_same(tail * sig, otail * osig)
    assert_same(sig * tail * tail, osig * otail * otail)
    if ring is not SCALED:
        wp = wp_series(curve, order, ring)
        owp = _dict(wp)
        assert wp.valuation() == -2 and wp.coeff(-2) == ring.one
        assert_same(wp * wp, owp * owp)
        assert_same(wp.derivative() * wp.derivative(), owp.derivative() * owp.derivative())
        assert_same(wp.inverse(), owp.inverse())
        assert_same(wp.compose(lam), owp.compose(olam))
        assert_same(wp + lam.inverse() * Fraction(1, 3), owp + olam.inverse() * Fraction(1, 3))
