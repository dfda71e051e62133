"""Eisenstein-Kronecker numbers and Kronecker theta expansions for CM curves.

Three arithmetic engines over one set of curve data:

* exact -- truncated power-series arithmetic over Q and Q(sqrt(-d)):
  Weierstrass expansions, the Kronecker theta expansion at the origin, and
  its composition with the formal logarithm;
* analytic -- arbitrary-precision complex evaluation of the
  Eisenstein-Kronecker-Lerch sums, theta functions, translations, and the
  identity/distribution verification suites;
* p-adic -- the ordinary-prime measure machinery on ints mod p^k (one
  absolute precision per series), unit restriction by formal-torsion
  traces, and the interpolation/congruence checks.
"""

__version__ = "0.1.0"

from .scalars import BigComplex, ExactScalar, PadicScalar, embed_padic
from .series import BiSeries, ExactRing, KroneckerExpansion, UniSeries
from .curves import CurveData, FormalLog, LatticeData, catalog, catalog_row, \
    compute_periods, formal_log, sigma_series, theta_series, wp_series
from .eklerch import check_functional_equation, direct_hecke_sum, \
    e2star_numeric, eisenstein_kronecker_lerch, ek_number, hecke_L_partial, \
    HeckeCharacter
from .kronecker import compose_formal, ek_from_expansion, kronecker_exact, \
    valuation_heatmap, verify_distribution, verify_generating_function
from .padic import MeasureSeries, kummer_congruences, measure_from_theta, \
    moment_table, period_note, restrict_to_units, verify_interpolation_origin

__all__ = [name for name in dir() if not name.startswith("_")]
