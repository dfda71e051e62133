"""CLI surface: artifacts, determinism, exit codes."""
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest


def run_cli(*argv, check=True, env=None):
    cp = subprocess.run([sys.executable, "-m", "ektheta.cli", *argv],
                        capture_output=True, text=True,
                        env=None if env is None else {**os.environ, **env})
    if check and cp.returncode != 0:
        raise AssertionError(f"exit {cp.returncode}: {cp.stderr        }")
    return cp


class TestCatalog:
    def test_thirteen_rows_json(self):
        cp = run_cli("catalog")
        doc = json.loads(cp.stdout)
        assert len(doc["rows"]) == 13
        zi = [r for r in doc["rows"] if r["cm_order"] == "Z[sqrt(-1)]"][0]
        assert zi["g2"] == {"coeff": "1", "u_pow": 1}
        assert zi["g3"]["coeff"] == "0"

    def test_metadata_header(self):
        doc = json.loads(run_cli("catalog").stdout)
        assert "version" in doc["meta"] and "config" in doc["meta"]

    def test_byte_identical_reruns(self):
        a = run_cli("catalog", "--u", "2").stdout
        b = run_cli("catalog", "--u", "2").stdout
        assert a == b


class TestExpandCompose:
    def test_expand_kronecker(self, tmp_path):
        out = tmp_path / "exp.json"
        run_cli("expand", "kronecker", "--catalog", "Z[sqrt(-1)]", "--u", "4",
                "--order", "6", "--out", str(out))
        doc = json.loads(out.read_text())
        terms = {(t["m"], t["n"]): t["c"]
                 for t in doc["expansion"]["regular"]["terms"]}
        assert terms[(3, 0)] == "-1/15"

    def test_formal_log(self):
        doc = json.loads(run_cli("formal-log", "--catalog", "Z[sqrt(-1)]",
                                 "--u", "4", "--order", "6").stdout)
        terms = {t["k"]: t["c"] for t in doc["series"]["terms"]}
        assert terms[1] == "1/1" and terms[5] == "-2/5"

    def test_compose_and_valuations_csv(self, tmp_path):
        csvp = tmp_path / "h.csv"
        cp = run_cli("valuations", "--catalog", "Z[sqrt(-1)]", "--u", "4",
                     "--prime", "7", "--order", "24", "--csv", str(csvp),
                     "--fit-diagonal")
        doc = json.loads(cp.stdout)
        lines = csvp.read_text().strip().splitlines()
        assert lines[0] == "m,n,denom_exponent"
        assert doc["max_exponent"] > 0
        assert doc["diagonal_slope"] is not None

    def test_determinism_of_artifacts(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            p = tmp_path / f"{tag}.json"
            run_cli("compose", "--catalog", "Z[sqrt(-1)]", "--u", "4",
                    "--order", "8", "--out", str(p))
            outs.append(p.read_text())
        assert outs[0] == outs[1]


class TestVerifyCommands:
    def test_ek_value(self):
        doc = json.loads(run_cli("ek", "--catalog", "Z[sqrt(-1)]", "--u", "4",
                                 "--a", "0", "--b", "4", "--err", "1e-18",
                                 "--prec-bits", "128").stdout)
        assert doc["value"]["re"].startswith("0.0666666666666666")

    @pytest.mark.parametrize("argv,want", [
        (["--a", "0", "--b", "4", "--err", "1e-20"],
         "15b3a16ea0d39cad82a21b574300e417a19fd558ea5c8ea09d43f793ab85aea8"),
        (["--a", "1", "--b", "3", "--z0", "1/3,0", "--err", "1e-18"],
         "82aaf38eabb174c5673b770764d6a4e3dbd50bb06bb15376325c7015829dad6a"),
    ], ids=["a0-b4", "a1-b3-z0-third"])
    def test_readme_ek_artifacts_pinned(self, argv, want):
        # sha256 of the payload (meta dropped), re-pinned when each lattice
        # sum came to keep exactly the disc its tail bound certifies: the
        # value moved by 1e-33 (a0-b4) and 2e-27 (a1-b3), the radius not at all
        cp = run_cli("ek", "--catalog", "Z[sqrt(-1)]", "--u", "4", *argv,
                     env={"EKTHETA_PREC_BITS": "256", "PYTHONHASHSEED": "0"})
        doc = json.loads(cp.stdout)
        del doc["meta"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == want

    def test_ek_at_small_scale(self):
        # e*_{0,2} = e2* = u on this row; at u = 10^-6 the lattice has
        # A = 1.1e6, where a radius search in absolute units passed its cap
        cp = run_cli("ek", "--catalog", "Z[2*sqrt(-1)]", "--u", "1/1000000",
                     "--a", "0", "--b", "2", "--err", "1e-20")
        value = json.loads(cp.stdout)["value"]
        assert abs(Fraction(value["re"]) - Fraction(1, 10 ** 6)) < Fraction(1e-20)
        assert abs(Fraction(value["im"])) < Fraction(1e-20)

    @pytest.mark.parametrize("u", ["1/1000000", "1000000"])
    def test_functional_equation_at_extreme_scales(self, u):
        cp = run_cli("verify", "functional-equation", "--catalog",
                     "Z[2*sqrt(-1)]", "--u", u, "--amax", "1", "--tol", "1e-15")
        assert json.loads(cp.stdout)["passed"] is True

    def test_verify_kronecker_exit_zero(self):
        cp = run_cli("verify", "kronecker", "--catalog", "Z[sqrt(-1)]",
                     "--u", "4", "--points", "2", "--tol", "1e-18",
                     "--prec-bits", "192")
        assert json.loads(cp.stdout)["passed"] is True

    def test_verify_failure_exit_code(self):
        # tolerance below the working-precision floor: honest residual exceeds
        cp = run_cli("verify", "distribution", "--catalog", "Z[sqrt(-1)]",
                     "--u", "4", "--ideal-a", "2", "--ideal-b", "1",
                     "--points", "1", "--tol", "1e-70",
                     "--prec-bits", "192", check=False)
        assert cp.returncode == 1

    def test_unachievable_target_is_a_usage_error(self):
        cp = run_cli("verify", "kronecker", "--catalog", "Z[sqrt(-1)]",
                     "--u", "4", "--points", "1", "--tol", "1e-80",
                     "--prec-bits", "128", check=False)
        assert cp.returncode == 2

    def test_usage_error_exit_two(self):
        cp = run_cli("expand", "nonsense", check=False)
        assert cp.returncode == 2

    @pytest.mark.parametrize("argv,reason", [
        (["measure", "--prime", "13", "--prec", "4", "--order", "8"],
         "--catalog"),
        (["hecke-l", "--character", "nonsense"], "--character"),
        (["verify-interpolation", "--g2", "2", "--g3", "1", "--prime", "13"],
         "not the j-invariant of a catalog curve"),
        (["measure", "--g2", "2", "--g3", "1", "--e2star", "1/2", "--prime", "13",
          "--prec", "4", "--order", "8"],
         "not the j-invariant of a catalog curve"),
    ], ids=["missing-curve", "unknown-character", "j-outside-catalog",
            "measure-j-outside-catalog"])
    def test_usage_error_says_why(self, argv, reason):
        cp = run_cli(*argv, check=False)
        assert cp.returncode == 2
        assert reason in cp.stderr

    def test_interpolation_artifact_pinned(self):
        # sha256 of the payload (meta dropped) from when the composed
        # expansion was built in exact Fractions: the integral route moves
        # no bit of the rows or the Kummer block
        cp = run_cli("verify-interpolation", "--catalog", "Z[sqrt(-1)]", "--u", "4",
                     "--prime", "13", "--prec", "4", "--amax", "4", "--bmax", "4",
                     "--kummer-max", "20",
                     env={"EKTHETA_PREC_BITS": "256", "PYTHONHASHSEED": "0"})
        doc = json.loads(cp.stdout)
        del doc["meta"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == \
            "b8bd3d537048ef365b602e1266eb22c6f5c76015e51f712ee523f475858c3efc"

    def test_kummer_block_without_pairs_fails(self):
        # exponents <= 5 pair nothing mod 12: a block that compared no pair
        # has shown nothing, so the run fails
        cp = run_cli("verify-interpolation", "--catalog", "Z[sqrt(-1)]", "--u", "4",
                     "--prime", "13", "--prec", "6", "--kummer-max", "5",
                     check=False)
        assert cp.returncode == 1
        doc = json.loads(cp.stdout)
        assert doc["kummer"]["pairs_checked"] == 0
        assert doc["kummer"]["passed"] is False

    def test_integrality_failure_exit_one(self):
        # u = 1/13 puts 13 in the denominators of the composed expansion
        cp = run_cli("measure", "--catalog", "Z[sqrt(-1)]", "--u", "1/13",
                     "--prime", "13", "--prec", "4", "--order", "8",
                     check=False)
        assert cp.returncode == 1
        assert "v_p" in cp.stderr

    def test_generating_function_artifact_pinned(self):
        # sha256 of the payload (meta dropped), re-pinned when the three
        # one-variable series came to be built from theta's Taylor series in
        # place of circle extractions: the polar slots of the two centres off
        # the lattice are now exactly 0, max_abs_deviation is now that of the
        # 4x4 check (the 2x2 figure carried extraction noise), and the real
        # part of e01 (rounding noise) moved
        cp = run_cli("verify", "generating-function", "--catalog",
                     "Z[sqrt(-1)]", "--u", "4", "--z0", "1/2,0", "--w0", "0,1/2",
                     "--amax", "2", "--bmax", "2", "--tol", "1e-12",
                     env={"EKTHETA_PREC_BITS": "256", "PYTHONHASHSEED": "0"})
        doc = json.loads(cp.stdout)
        del doc["meta"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == \
            "0172b72d3dc68b8b6ffff06f498a5f289314af8ba62c98dafac0702ad790cd44"

    @pytest.mark.parametrize("argv,want", [
        (["hecke-l", "--s", "6", "--norm-bound", "300", "--tol", "1e-10"],
         "05ad9b2317305685a82432adab835650fdd8ced93da1c654418714e2bda93b7b"),
        (["verify", "distribution", "--catalog", "Z[sqrt(-1)]", "--u", "4",
          "--ideal-a", "2", "--ideal-b", "1", "--points", "2", "--tol", "1e-12"],
         "8830a1d1cac9d508bf5e1e7c0a24fd0247fa19697836504fcb03e2cb43748c72"),
    ], ids=["hecke-l", "distribution"])
    def test_ideal_sum_artifacts_pinned(self, argv, want):
        # sha256 of the payload (meta dropped): sums over ideals and residue
        # classes keep their terms, their order and so every bit.  hecke-l
        # was re-pinned when its K* sum came to keep exactly the certified
        # disc (the value moved by 5e-30)
        cp = run_cli(*argv, env={"EKTHETA_PREC_BITS": "256", "PYTHONHASHSEED": "0"})
        doc = json.loads(cp.stdout)
        del doc["meta"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == want

    def test_distribution_cli(self):
        cp = run_cli("verify", "distribution", "--catalog", "Z[sqrt(-1)]",
                     "--u", "4", "--ideal-a", "1", "--ideal-b", "1+i",
                     "--points", "2", "--tol", "1e-12", "--prec-bits", "192")
        doc = json.loads(cp.stdout)
        assert doc["passed"] and doc["relaxed_epsilon"] is True


class TestMeasureCommands:
    def test_measure_artifact_pinned(self):
        # sha256 of the payload (meta dropped) from when the period note came
        # from a search over residue degrees f <= 4: the closed form moves
        # no bit of the note, the series or the moments
        cp = run_cli("measure", "--catalog", "Z[sqrt(-1)]", "--u", "4",
                     "--prime", "13", "--prec", "5", "--order", "8",
                     "--restrict", "--moments", "2,2",
                     env={"EKTHETA_PREC_BITS": "256", "PYTHONHASHSEED": "0"})
        doc = json.loads(cp.stdout)
        del doc["meta"]
        assert doc["coords"] == "formal" and doc["multiplicative_available"] is False
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == \
            "77f08e44f21db664e5d187ff557baa1d95435cb836dc7457279ab1c033fe48f6"

    def test_readme_measure_artifact_pinned(self):
        # sha256 of the payload (meta dropped) of the README command, from
        # when the measure, its restriction and its moments ran on p-adic
        # scalars with per-value precision: ints mod p^k move no bit
        cp = run_cli("measure", "--catalog", "Z[sqrt(-1)]", "--u", "4",
                     "--prime", "13", "--prec", "8", "--order", "12",
                     "--restrict", "--moments", "4,4",
                     env={"EKTHETA_PREC_BITS": "256", "PYTHONHASHSEED": "0"})
        doc = json.loads(cp.stdout)
        del doc["meta"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == \
            "ec840873c1156d7d9ec07ca2e29b9e15d0fd4854d50a4b1d36023b742b390ca9"

    def test_measure_raw_curve_takes_its_field_from_j(self):
        # g2 = 30, g3 = 28 is the Z[sqrt(-2)] curve at u = 1; 11 splits in
        # Q(sqrt(-2)) though not in Q(i)
        raw, cat = (json.loads(run_cli("measure", *curve, "--prime", "11",
                                       "--prec", "4", "--order", "8", "--restrict",
                                       "--moments", "2,2").stdout)
                    for curve in (["--g2", "30", "--g3", "28", "--e2star", "1/2"],
                                  ["--catalog", "Z[sqrt(-2)]", "--u", "1"]))
        del raw["meta"], cat["meta"]
        assert raw["series"]["terms"] and raw["moments_period_normalized"]
        assert raw == cat

    def test_measure_json(self):
        doc = json.loads(run_cli("measure", "--catalog", "Z[sqrt(-1)]",
                                 "--u", "4", "--prime", "13", "--prec", "5",
                                 "--order", "8").stdout)
        assert doc["multiplicative_available"] is False
        assert "no f <= 4" in doc["period_note"]

    def test_hecke_l(self):
        doc = json.loads(run_cli("hecke-l", "--s", "6", "--norm-bound", "300",
                                 "--tol", "1e-10").stdout)
        assert doc["passed"] is True


def _tracer():
    """perfbench/tracer.py, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


class TestBenchmarkHooks:
    def test_every_hooked_name_is_defined_where_the_tracer_looks(self):
        # perfbench/tracer.py replaces these names in place, by vars(owner)
        tracer = _tracer()
        for table in (tracer.SPANNED, tracer.COUNTED):
            for mod_name, attrs in table.items():
                owner_mod = importlib.import_module(f"ektheta.{mod_name}")
                for dotted in attrs:
                    owner = owner_mod
                    *cls, attr = dotted.split(".")
                    for c in cls:
                        owner = getattr(owner, c)
                    assert callable(vars(owner).get(attr)), f"{mod_name}.{dotted}"

    def test_traced_generating_function_job(self, tmp_path):
        # the hooked taylor_coefficients_2d and theta run under the tracer:
        # one span for the Cauchy product, and no theta value (the series
        # come from ThetaEvaluator.taylor)
        tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        out = tmp_path / "spans.json"
        cp = subprocess.run(
            [sys.executable, str(tracer), str(out), "verify", "generating-function",
             "--catalog", "Z[sqrt(-1)]", "--u", "4", "--z0", "1/2,0", "--w0", "0,1/2",
             "--amax", "2", "--bmax", "2", "--tol", "1e-12"],
            capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert json.loads(cp.stdout)["passed"] is True
        names = [s[0] for s in json.loads(out.read_text())["spans"]]
        assert names.count("kronecker.taylor_coefficients_2d") == 1
        assert names.count("kronecker.ThetaEvaluator.theta") == 0

    def test_every_order_noted_span_takes_an_order_argument(self):
        # the tracer binds each call's arguments and reads "order" from them
        tracer = _tracer()
        assert tracer.ORDER_ARG
        for name in tracer.ORDER_ARG:
            mod_name, *dotted = name.split(".")
            owner = importlib.import_module(f"ektheta.{mod_name}")
            for attr in dotted:
                owner = getattr(owner, attr)
            assert "order" in inspect.signature(owner).parameters, name
