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
import atexit
import gc
import io
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .curves import CurveData, PeriodPrecisionError, catalog, catalog_row, \
    compute_periods, formal_log
from .eklerch import HeckeCharacter, direct_hecke_sum, ek_number, \
    hecke_L_partial, truncation_radius
from .kronecker import compose_formal, kronecker_exact, require_maximal_order, \
    torsion_point, valuation_heatmap, verify_distribution, verify_generating_function
from .padic import IntegralityError, kummer_congruences, measure_from_theta, \
    moment_table, restrict_to_units, verify_interpolation_origin
from .scalars import ExactScalar, PadicScalar, mp


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


def prime(text: str) -> int:
    """The type of --prime: an int that is prime.  Miller-Rabin to the
    prime bases up to 37 decides every p below 3.18e23."""
    p = int(text)
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    d, s = p - 1, 0
    while d > 0 and d % 2 == 0:
        d, s = d // 2, s + 1

    def strong_probable_prime(a: int) -> bool:
        x = pow(a, d, p)
        return x in (1, p - 1) or any((x := x * x % p) == p - 1 for _ in range(s - 1))

    if p < 2 or not (p in bases or all(p % a and strong_probable_prime(a) for a in bases)):
        raise argparse.ArgumentTypeError(f"{p} is not a prime")
    return p


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
        u = ExactScalar(Fraction(args.u))
        for row, obj in zip(catalog(), rows):
            obj["at_u"] = {**row.curve(u).to_json(), "cm_order": row.label,
                           "d": row.d, "u": u.to_json()}
    return _emit(args, {"rows": rows})


def cmd_expand(args):
    curve = _curve_from(args)
    exp = kronecker_exact(curve, args.order)
    return _emit(args, {"kind": "kronecker-origin-expansion",
                        "expansion": exp.to_json()})


def cmd_formal_log(args):
    curve = _curve_from(args)
    lam = formal_log(curve, args.order)
    return _emit(args, {"kind": "formal-log", "series": lam.series.to_json()})


def cmd_compose(args):
    curve = _curve_from(args)
    exp = kronecker_exact(curve, args.order)
    hat = compose_formal(exp, curve, args.order, starred=args.starred)
    return _emit(args, {"kind": "composed-expansion", "starred": args.starred,
                        "expansion": hat.to_json()})


def cmd_valuations(args):
    import csv
    curve = _curve_from(args)
    exp = kronecker_exact(curve, args.order)
    hat = compose_formal(exp, curve, args.order, starred=True)
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
        z0, dz = torsion_point(_parse_coords(args.z0 or "0,0"), w1, w2)
        w0, dw = torsion_point(_parse_coords(args.w0 or "0,0"), w1, w2)
        val = ek_number(args.a, args.b, z0, w0, lat, args.err,
                        z0_in_lattice=dz, w0_in_lattice=dw)
        radius = truncation_radius(args.a + args.b, args.b, lat, args.err)
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
    if args.target == "distribution":
        require_maximal_order(curve)        # before the lattice is computed
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

    def series_json(mu):
        # ints mod p^abs_prec, written as p-adic values (val, digits, prec)
        return mu.series.to_json(
            lambda c: PadicScalar.from_int(c, mu.p, mu.abs_prec).to_json())

    payload = {"kind": "measure-series", "prime": args.prime, "prec": args.prec,
               "coords": "formal", "provenance": mu.provenance,
               "multiplicative_available": False,
               "period_note": mu.period_note,
               "series": series_json(mu)}
    if args.restrict:
        mom_order = 8
        if args.moments:
            mom_order = sum(int(x) for x in args.moments.split(","))
        mu = restrict_to_units(mu, out_order=min(args.order, mom_order + 2))
        payload["restricted_series"] = series_json(mu)
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


def _arg(*flags, **kwargs):
    return flags, kwargs


CURVE_OPTS = [
    _arg("--catalog", help="catalog row label, e.g. 'Z[sqrt(-1)]'"),
    _arg("--u", default="1", help="catalog scaling u (rational)"),
    _arg("--g2", help="rational g2 for a raw curve"),
    _arg("--g3", help="rational g3 for a raw curve"),
    _arg("--e2star", help="rational e2* for a raw curve"),
    _arg("--out", help="write JSON artifact to this path"),
]

# Each subcommand once: name -> (help, handler, arguments in help order).
COMMANDS = {
    "catalog": ("the thirteen CM curves over Q", cmd_catalog, [
        _arg("--u", default=None),
        _arg("--out"),
    ]),
    "expand": ("exact origin expansion", cmd_expand, [
        _arg("what", choices=["kronecker"]),
        *CURVE_OPTS,
        _arg("--order", type=int, default=10),
        _arg("--format", choices=["json"], default="json"),
    ]),
    "formal-log": ("formal logarithm series", cmd_formal_log, [
        *CURVE_OPTS,
        _arg("--order", type=int, default=20),
    ]),
    "compose": ("formal-parameter composition", cmd_compose, [
        *CURVE_OPTS,
        _arg("--order", type=int, default=20),
        _arg("--starred", action=argparse.BooleanOptionalAction, default=True),
    ]),
    "valuations": ("denominator-exponent heatmap CSV", cmd_valuations, [
        *CURVE_OPTS,
        _arg("--prime", type=prime, required=True),
        _arg("--order", type=int, default=40),
        _arg("--csv", help="CSV output path"),
        _arg("--fit-diagonal", action="store_true"),
    ]),
    "ek": ("Eisenstein-Kronecker number", cmd_ek, [
        *CURVE_OPTS,
        _arg("--a", type=int, required=True),
        _arg("--b", type=int, required=True),
        _arg("--z0", help="'a/n,b/n' in the period basis"),
        _arg("--w0", help="'a/n,b/n' in the period basis"),
        _arg("--err", type=float, default=1e-20),
        _arg("--prec-bits", type=int, default=DEFAULT_PREC),
    ]),
    "hecke-l": ("Hecke L partial sum, two routes", cmd_hecke_l, [
        _arg("--character", default="zi-conductor-2-2i"),
        _arg("--s", type=int, default=6),
        _arg("--norm-bound", type=int, default=400),
        _arg("--err", type=float, default=1e-16),
        _arg("--tol", type=float, default=1e-10),
        _arg("--prec-bits", type=int, default=DEFAULT_PREC),
        _arg("--out"),
    ]),
    "verify": ("identity verification suites", cmd_verify, [
        _arg("target", choices=["kronecker", "generating-function",
                                "functional-equation", "distribution"]),
        *CURVE_OPTS,
        _arg("--points", type=int, default=10),
        _arg("--tol", type=float, default=1e-15),
        _arg("--seed", type=int, default=0),
        _arg("--prec-bits", type=int, default=DEFAULT_PREC),
        _arg("--z0"),
        _arg("--w0"),
        _arg("--amax", type=int, default=4),
        _arg("--bmax", type=int, default=4),
        _arg("--ideal-a", default="1"),
        _arg("--ideal-b", default="1"),
    ]),
    "measure": ("p-adic measure series and moments", cmd_measure, [
        *CURVE_OPTS,
        _arg("--prime", type=prime, required=True),
        _arg("--prec", type=int, default=8),
        _arg("--order", type=int, default=12),
        _arg("--restrict", action="store_true"),
        _arg("--moments", help="a_max,b_max"),
        _arg("--json", action="store_true", help="JSON output (default)"),
    ]),
    "verify-interpolation": ("origin interpolation + Kummer congruences",
                             cmd_verify_interpolation, [
        *CURVE_OPTS,
        _arg("--prime", type=prime, required=True),
        _arg("--prec", type=int, default=8),
        _arg("--amax", type=int, default=4),
        _arg("--bmax", type=int, default=4),
        _arg("--kummer-max", type=int, default=0),
    ]),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser; when argv[0] names a subcommand, with that one alone
    (its arguments and Namespace are the same).  Help, a missing or an
    unknown command get every subcommand, and so the usual messages."""
    ap = argparse.ArgumentParser(prog="ektheta",
                                 description=__doc__.splitlines()[0])
    names = list(COMMANDS)
    if argv and argv[0] in COMMANDS:
        names = [argv[0]]
    # the full parser's usage line names every command, so does this one's
    metavar = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, func, arguments = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    # At exit, freeze every object the run made, so that the interpreter's
    # final collection skips them.  stdout is flushed before that
    # collection, and the --csv/--out files are closed by their with
    # blocks.  Registered here, not at import, so that a library importing
    # this module keeps the normal shutdown; unregister first, so that
    # repeated calls register it once.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
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
