"""Command-line interface: machine-readable outputs, reproducible metadata.

Every run emits a metadata header (library version, echoed configuration,
seed) so identical configurations produce byte-identical artifacts.  JSON is
used everywhere except the valuation heatmaps, which are CSV with columns
m, n, denom_exponent.  Exit codes: 0 success, 1 verification failure,
2 usage error.

Torsion points are given in period-basis rational coordinates "a/n,b/n"
meaning (a w1 + b w2)/n.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

import mpmath as mp

from . import __version__
from .curves import CurveData, PeriodPrecisionError, catalog, catalog_row, \
    compute_periods, formal_log
from .eklerch import HeckeCharacter, direct_hecke_sum, ek_number, \
    hecke_L_partial
from .kronecker import compose_formal, kronecker_exact, valuation_heatmap, \
    verify_distribution, verify_generating_function
from .padic import IntegralityError, kummer_congruences, measure_from_theta, \
    moment_table, restrict_to_units, verify_interpolation_origin
from .scalars import ExactScalar


def _meta(args, seed=None):
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "out", "csv") and v is not None}
    for k, v in cfg.items():
        if isinstance(v, Fraction):
            cfg[k] = str(v)
    return {"version": __version__, "config": cfg,
            **({"seed": seed} if seed is not None else {})}


def _emit(args, payload, exit_code=0):
    doc = {"meta": _meta(args, getattr(args, "seed", None)), **payload}
    text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


def _curve_from(args) -> CurveData:
    if getattr(args, "catalog", None):
        return catalog_row(args.catalog).curve(Fraction(args.u))
    if getattr(args, "g2", None) is None or getattr(args, "g3", None) is None:
        raise ValueError("give --catalog or --g2/--g3")
    e2 = None if getattr(args, "e2star", None) is None else \
        ExactScalar(Fraction(args.e2star))
    return CurveData(g2=ExactScalar(Fraction(args.g2)),
                     g3=ExactScalar(Fraction(args.g3)), e2_star=e2)


def _parse_coords(text: str):
    a, b = text.split(",")
    return (Fraction(a), Fraction(b))


def _parse_gaussian(text: str) -> ExactScalar:
    """Parse a Gaussian integer like '2', '1+i', '3-2i'."""
    t = text.replace(" ", "").replace("*", "")
    if t in ("i", "+i"):
        return ExactScalar(0, 1, 1)
    if t == "-i":
        return ExactScalar(0, -1, 1)
    if "i" not in t:
        return ExactScalar(Fraction(t))
    body = t[:-1]
    for k in range(1, len(body)):
        if body[k] in "+-":
            re_part, im_part = body[:k], body[k:]
            if im_part in ("+", "-"):
                im_part += "1"
            return ExactScalar(Fraction(re_part), Fraction(im_part), 1)
    if body in ("", "+", "-"):
        body += "1"
    return ExactScalar(0, Fraction(body), 1)


# -- subcommands --------------------------------------------------------------

def cmd_catalog(args):
    rows = [row.to_json() for row in catalog()]
    if args.u is not None:
        for row, obj in zip(catalog(), rows):
            obj["at_u"] = row.curve(Fraction(args.u)).to_json()
    return _emit(args, {"rows": rows})


def cmd_expand(args):
    curve = _curve_from(args)
    exp = kronecker_exact(curve, args.order)
    return _emit(args, {"kind": "kronecker-origin-expansion",
                        "expansion": exp.expansion.to_json()})


def cmd_formal_log(args):
    curve = _curve_from(args)
    lam = formal_log(curve, args.order)
    return _emit(args, {"kind": "formal-log", "series": lam.series.to_json()})


def cmd_compose(args):
    curve = _curve_from(args)
    exp = kronecker_exact(curve, args.order)
    hat = compose_formal(exp, curve, args.order, starred=args.starred)
    return _emit(args, {"kind": "composed-expansion", "starred": args.starred,
                        "expansion": hat.expansion.to_json()})


def cmd_valuations(args):
    curve = _curve_from(args)
    exp = kronecker_exact(curve, args.order)
    hat = compose_formal(exp, curve, args.order, starred=True,
                         prime_context=args.prime)
    hm = valuation_heatmap(hat, args.prime, fit_window=(10, args.order))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["m", "n", "denom_exponent"])
    for row in hm.csv_rows():
        writer.writerow(row)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(buf.getvalue())
    payload = {"kind": "valuation-heatmap", "prime": args.prime,
               "csv_path": args.csv,
               "max_exponent": max(hm.entries.values(), default=0)}
    if args.fit_diagonal:
        payload["ridge"] = {str(k): v for k, v in sorted(hm.ridge.items())}
        payload["diagonal_slope"] = hm.diagonal_slope
        payload["slope_target_p_over_p2_minus_1"] = args.prime / (args.prime ** 2 - 1)
    return _emit(args, payload)


def cmd_ek(args):
    curve = _curve_from(args)
    lat = compute_periods(curve, args.prec_bits)
    with mp.workprec(args.prec_bits + 24):
        w1, w2 = lat.pair_mpc()

        def point(text):
            if text is None:
                return mp.mpc(0), True
            c1, c2 = _parse_coords(text)
            integral = c1.denominator == 1 and c2.denominator == 1
            val = (mp.mpf(c1.numerator) / c1.denominator) * w1 \
                + (mp.mpf(c2.numerator) / c2.denominator) * w2
            return val, integral

        z0, dz = point(args.z0)
        w0, dw = point(args.w0)
        val = ek_number(args.a, args.b, z0, w0, lat, args.err,
                        z0_in_lattice=dz, w0_in_lattice=dw)
        from .eklerch import _radius_for
        A = lat.A()
        radius = _radius_for(args.a + args.b, args.b, A,
                             mp.mpf(args.err) / (4 * (1 + A ** (args.a + args.b + 1))),
                             mp.pi * A)
    return _emit(args, {"kind": "eisenstein-kronecker-number",
                        "a": args.a, "b": args.b,
                        "value": val.to_json(), "error_bound": args.err,
                        "truncation_radius": mp.nstr(radius, 8)})


def _zi_conductor_character() -> HeckeCharacter:
    i = ExactScalar(0, 1, 1)
    one = ExactScalar(1)
    table = {one: one, i: -i, -one: -one, -i: i}
    return HeckeCharacter(d=1, conductor=ExactScalar(2, 2, 1),
                          infinity_type=(1, 0), table=table)


def cmd_hecke_l(args):
    if args.character != "zi-conductor-2-2i":
        raise ValueError(f"unknown --character {args.character!r}")
    char = _zi_conductor_character()
    with mp.workprec(args.prec_bits):
        assembled = hecke_L_partial(char, args.s, target_error=args.err,
                                    prec_bits=args.prec_bits)
        direct = direct_hecke_sum(char, args.s, args.norm_bound,
                                  prec_bits=args.prec_bits)
        diff = abs(assembled.to_mpc() - direct.to_mpc())
    ok = diff < args.tol
    return _emit(args, {"kind": "hecke-l-partial", "s": args.s,
                        "assembled": assembled.to_json(),
                        "direct_truncated": direct.to_json(),
                        "difference": mp.nstr(diff, 8),
                        "tolerance": args.tol, "passed": bool(ok)},
                 0 if ok else 1)


def cmd_verify(args):
    curve = _curve_from(args)
    lat = compute_periods(curve, args.prec_bits)
    if args.target == "kronecker":
        import random
        from .eklerch import eisenstein_kronecker_lerch
        from .kronecker import ThetaEvaluator
        ev = ThetaEvaluator(lat)
        rng = random.Random(args.seed)
        worst = mp.mpf(0)
        with mp.workprec(args.prec_bits + 24):
            w1, w2 = ev.w1, ev.w2
            for _ in range(args.points):
                z = rng.uniform(0.05, 0.45) * w1 + rng.uniform(0.05, 0.45) * w2
                w = -rng.uniform(0.05, 0.45) * w1 + rng.uniform(0.05, 0.45) * w2
                lhs = ev.kronecker(z, w)
                k1 = eisenstein_kronecker_lerch(
                    1, z, w, 1, lat, args.tol / 100,
                    z0_in_lattice=False, w0_in_lattice=False).to_mpc()
                worst = max(worst, abs(lhs - mp.exp(z * mp.conj(w) / ev.A) * k1))
        ok = worst <= args.tol
        return _emit(args, {"kind": "verify-kronecker-identity",
                            "points": args.points,
                            "max_residual": mp.nstr(worst, 8),
                            "tolerance": args.tol, "passed": bool(ok)},
                     0 if ok else 1)
    if args.target == "generating-function":
        rep = verify_generating_function(
            _parse_coords(args.z0 or "0,0"), _parse_coords(args.w0 or "0,0"),
            args.amax, args.bmax, lat, tol=args.tol)
        return _emit(args, {
            "kind": "verify-generating-function",
            "max_abs_deviation": mp.nstr(rep.max_abs_deviation, 8),
            "polar_z": [mp.nstr(x, 8) for x in rep.polar_z],
            "polar_w": [mp.nstr(x, 8) for x in rep.polar_w],
            "e01_slot_recorded": mp.nstr(rep.e01_recorded, 8),
            "tolerance": args.tol, "passed": rep.passed,
        }, 0 if rep.passed else 1)
    if args.target == "functional-equation":
        from .eklerch import check_functional_equation
        with mp.workprec(args.prec_bits + 24):
            w1, w2 = lat.pair_mpc()
            worst = mp.mpf(0)
            for a in range(0, args.amax + 1):
                for s in (Fraction(1), Fraction(2), Fraction(a + 1, 2)):
                    if a == 0 and s in (0, 1):
                        continue
                    sval = mp.mpf(s.numerator) / s.denominator
                    worst = max(worst, check_functional_equation(
                        a, w1 / 3, (w1 + w2) / 3, sval, lat, args.tol / 100))
        ok = worst <= args.tol
        return _emit(args, {"kind": "verify-functional-equation",
                            "max_residual": mp.nstr(worst, 8),
                            "tolerance": args.tol, "passed": bool(ok)},
                     0 if ok else 1)
    if args.target == "distribution":
        rep = verify_distribution(_parse_gaussian(args.ideal_a),
                                  _parse_gaussian(args.ideal_b), lat,
                                  n_points=args.points, tol=args.tol,
                                  seed=args.seed)
        return _emit(args, {"kind": "verify-distribution",
                            "ideal_a": args.ideal_a, "ideal_b": args.ideal_b,
                            "max_residual": mp.nstr(rep.max_residual, 8),
                            "epsilon": str(rep.epsilon),
                            "relaxed_epsilon": rep.relaxed_epsilon,
                            "tolerance": args.tol, "passed": rep.passed},
                     0 if rep.passed else 1)
    raise SystemExit(2)


def cmd_measure(args):
    curve = _curve_from(args)
    mu = measure_from_theta(curve, args.prime, args.prec, args.order)
    payload = {"kind": "measure-series", "prime": args.prime, "prec": args.prec,
               "coords": mu.coords, "provenance": mu.provenance,
               "multiplicative_available": mu.mult_series is not None,
               "period_note": mu.period_note,
               "series": mu.series.to_json()}
    if args.restrict:
        mom_order = 8
        if args.moments:
            mom_order = sum(int(x) for x in args.moments.split(","))
        mu = restrict_to_units(mu, out_order=min(args.order, mom_order + 2))
        payload["restricted_series"] = mu.series.to_json()
        payload["provenance"] = mu.provenance
    if args.moments:
        amax, bmax = (int(x) for x in args.moments.split(","))
        table = moment_table(mu, amax, bmax)
        payload["moments_period_normalized"] = {
            f"{a},{b}": v.to_json() for (a, b), v in sorted(table.items())}
    return _emit(args, payload)


def cmd_verify_interpolation(args):
    curve = _curve_from(args)
    rep = verify_interpolation_origin(curve, args.prime, args.prec,
                                      args.amax, args.bmax)
    payload = {"kind": "verify-interpolation-origin", "prime": args.prime,
               "prec": args.prec, "pi": str(rep.pi),
               "rows": [{"a": r.a, "b": r.b, "exact_equal": r.exact_equal,
                         "padic_digits": r.padic_digits_checked,
                         "padic_equal": r.padic_equal} for r in rep.rows],
               "passed": rep.passed}
    ok = rep.passed
    if args.kummer_max:
        krep = kummer_congruences(curve, args.prime, args.kummer_max)
        payload["kummer"] = {
            "a_p_mod_p": krep.a_p_mod_p,
            "pairs_checked": len(krep.rows),
            "passed": krep.passed,
        }
        ok = ok and krep.passed
    return _emit(args, payload, 0 if ok else 1)


DEFAULT_PREC = int(os.environ.get("EKTHETA_PREC_BITS", "256"))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ektheta",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def curve_opts(sp):
        sp.add_argument("--catalog", help="catalog row label, e.g. 'Z[sqrt(-1)]'")
        sp.add_argument("--u", default="1", help="catalog scaling u (rational)")
        sp.add_argument("--g2", help="rational g2 for a raw curve")
        sp.add_argument("--g3", help="rational g3 for a raw curve")
        sp.add_argument("--e2star", help="rational e2* for a raw curve")
        sp.add_argument("--out", help="write JSON artifact to this path")

    sp = sub.add_parser("catalog", help="the thirteen CM curves over Q")
    sp.add_argument("--u", default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("expand", help="exact origin expansion")
    sp.add_argument("what", choices=["kronecker"])
    curve_opts(sp)
    sp.add_argument("--order", type=int, default=10)
    sp.add_argument("--format", choices=["json"], default="json")
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("formal-log", help="formal logarithm series")
    curve_opts(sp)
    sp.add_argument("--order", type=int, default=20)
    sp.set_defaults(func=cmd_formal_log)

    sp = sub.add_parser("compose", help="formal-parameter composition")
    curve_opts(sp)
    sp.add_argument("--order", type=int, default=20)
    sp.add_argument("--starred", action=argparse.BooleanOptionalAction,
                    default=True)
    sp.set_defaults(func=cmd_compose)

    sp = sub.add_parser("valuations", help="denominator-exponent heatmap CSV")
    curve_opts(sp)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--order", type=int, default=40)
    sp.add_argument("--csv", help="CSV output path")
    sp.add_argument("--fit-diagonal", action="store_true")
    sp.set_defaults(func=cmd_valuations)

    sp = sub.add_parser("ek", help="Eisenstein-Kronecker number")
    curve_opts(sp)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--z0", help="'a/n,b/n' in the period basis")
    sp.add_argument("--w0", help="'a/n,b/n' in the period basis")
    sp.add_argument("--err", type=float, default=1e-20)
    sp.add_argument("--prec-bits", type=int, default=DEFAULT_PREC)
    sp.set_defaults(func=cmd_ek)

    sp = sub.add_parser("hecke-l", help="Hecke L partial sum, two routes")
    sp.add_argument("--character", default="zi-conductor-2-2i")
    sp.add_argument("--s", type=int, default=6)
    sp.add_argument("--norm-bound", type=int, default=400)
    sp.add_argument("--err", type=float, default=1e-16)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--prec-bits", type=int, default=DEFAULT_PREC)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_hecke_l)

    sp = sub.add_parser("verify", help="identity verification suites")
    sp.add_argument("target", choices=["kronecker", "generating-function",
                                       "functional-equation", "distribution"])
    curve_opts(sp)
    sp.add_argument("--points", type=int, default=10)
    sp.add_argument("--tol", type=float, default=1e-15)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--prec-bits", type=int, default=DEFAULT_PREC)
    sp.add_argument("--z0")
    sp.add_argument("--w0")
    sp.add_argument("--amax", type=int, default=4)
    sp.add_argument("--bmax", type=int, default=4)
    sp.add_argument("--ideal-a", default="1")
    sp.add_argument("--ideal-b", default="1")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("measure", help="p-adic measure series and moments")
    curve_opts(sp)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--prec", type=int, default=8)
    sp.add_argument("--order", type=int, default=12)
    sp.add_argument("--restrict", action="store_true")
    sp.add_argument("--moments", help="a_max,b_max")
    sp.add_argument("--json", action="store_true", help="JSON output (default)")
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("verify-interpolation",
                        help="origin interpolation + Kummer congruences")
    curve_opts(sp)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--prec", type=int, default=8)
    sp.add_argument("--amax", type=int, default=4)
    sp.add_argument("--bmax", type=int, default=4)
    sp.add_argument("--kummer-max", type=int, default=0)
    sp.set_defaults(func=cmd_verify_interpolation)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IntegralityError, PeriodPrecisionError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
