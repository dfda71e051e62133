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


def run_cli(*argv, check=True, env=None, timeout=None):
    cp = subprocess.run([sys.executable, "-m", "ektheta.cli", *argv],
                        capture_output=True, text=True, timeout=timeout,
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

    def test_catalog_echoes_u(self):
        doc = json.loads(run_cli("catalog", "--u", "4").stdout)
        assert [r["at_u"]["u"] for r in doc["rows"]] == ["4/1"] * 13
        zi = [r["at_u"] for r in doc["rows"] if r["cm_order"] == "Z[sqrt(-1)]"][0]
        assert (zi["g2"], zi["g3"], zi["cm_order"], zi["d"]) == \
            ("4/1", "0/1", "Z[sqrt(-1)]", 1)


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

    @pytest.mark.parametrize("argv,want", [
        (["expand", "kronecker", "--catalog", "Z[sqrt(-1)]", "--u", "4",
          "--order", "10"],
         "7e305e5485574e8d63f73de4e496dc95211c9ac2cd64c0e208fc6d1565dc8159"),
        (["compose", "--catalog", "Z[sqrt(-1)]", "--u", "4", "--order", "30",
          "--starred"],
         "a8c61ed768497e948bd66677fbca640c304e92bcb4e83e037f915b591d91fd24"),
        (["compose", "--catalog", "Z[sqrt(-1)]", "--u", "4", "--order", "30",
          "--no-starred"],
         "af51a7bb95ce93d0dcc451450bd57b3a418c7c87985648f49d302ac9b444fed4"),
        (["formal-log", "--catalog", "Z[2*sqrt(-1)]", "--order", "20"],
         "e9321e12c854e856728660e70f9ef6bcfa788474dcf4995c88c8c5b117becbe0"),
        (["valuations", "--catalog", "Z[sqrt(-1)]", "--u", "4", "--prime", "7",
          "--order", "80", "--csv", "heat.csv", "--fit-diagonal"],
         "3f693a2375171abf672285e7b9f47c2af548400c354ad4b0eb3ff86e2020944a"),
    ], ids=["expand", "compose-starred", "compose-no-starred", "formal-log",
            "valuations"])
    def test_readme_exact_artifacts_pinned(self, argv, want, tmp_path):
        # sha256 of the payload (meta and the echoed CSV path dropped) of the
        # exact engine's README commands; the heat map's CSV bytes as well
        argv = [str(tmp_path / a) if a == "heat.csv" else a for a in argv]
        cp = run_cli(*argv, env={"EKTHETA_PREC_BITS": "256", "PYTHONHASHSEED": "0"})
        doc = json.loads(cp.stdout)
        del doc["meta"]
        doc.pop("csv_path", None)
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == want
        if "--csv" in argv:
            assert hashlib.sha256((tmp_path / "heat.csv").read_bytes()).hexdigest() \
                == "64dc027c127b52a14e29a169323aee62238256e33dae09fd11ec302467b34cf3"


class TestVerifyCommands:
    def test_ek_value(self):
        doc = json.loads(run_cli("ek", "--catalog", "Z[sqrt(-1)]", "--u", "4",
                                 "--a", "0", "--b", "4", "--err", "1e-18",
                                 "--prec-bits", "128").stdout)
        assert doc["value"]["re"].startswith("0.0666666666666666")

    @pytest.mark.parametrize("argv,want", [
        (["--a", "0", "--b", "4", "--err", "1e-20"],
         "550c16f23569429f64e1b8848062a24359503ce08afa063e6faa8dd6a09700e7"),
        (["--a", "1", "--b", "3", "--z0", "1/3,0", "--err", "1e-18"],
         "3600330aa36fc2554b828c50b648a8493882b051e0775bc5f7ce011498a91901"),
    ], ids=["a0-b4", "a1-b3-z0-third"])
    def test_readme_ek_artifacts_pinned(self, argv, want):
        # sha256 of the payload (meta dropped), re-pinned when each lattice
        # sum came to keep exactly the disc its tail bound certifies (the
        # value moved by 1e-33 (a0-b4) and 2e-27 (a1-b3)), and again when the
        # sums came to be added on integers in fixed point: the real part
        # moved by 1.2e-35 (a0-b4) and 1.1e-31 (a1-b3), the imaginary part
        # (7e-49 and 5e-38 of rounding noise) is now exactly 0; the radius
        # never moved
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

    def test_readme_verify_kronecker_artifact_pinned(self):
        # sha256 of the payload (meta dropped) of the README command, taken
        # before theta's Taylor loops moved from the series module to mpc
        # lists: the residual's rounding stays put
        cp = run_cli("verify", "kronecker", "--catalog", "Z[sqrt(-1)]", "--u", "4",
                     "--points", "10", "--tol", "1e-18",
                     env={"EKTHETA_PREC_BITS": "256", "PYTHONHASHSEED": "0"})
        doc = json.loads(cp.stdout)
        del doc["meta"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == \
            "25a866ca7b8938bfd5aea46cbb8c458b98fee4183e020b194d56a9a6fe39f2d6"

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
        (["verify", "distribution", "--g2", "2", "--g3", "1", "--e2star", "1/2",
          "--ideal-a", "2", "--ideal-b", "1", "--points", "1"],
         "not the j-invariant of a catalog curve"),
        (["valuations", "--catalog", "Z[sqrt(-1)]", "--u", "4", "--prime", "1",
          "--order", "10"], "--prime: 1 is not a prime"),
        (["measure", "--catalog", "Z[sqrt(-1)]", "--u", "4", "--prime", "4"],
         "--prime: 4 is not a prime"),
        (["verify", "distribution", "--catalog", "Z[sqrt(-7)]", "--ideal-a", "2",
          "--ideal-b", "1", "--points", "1"], "Z[sqrt(-7)] has conductor 2"),
    ], ids=["missing-curve", "unknown-character", "j-outside-catalog",
            "measure-j-outside-catalog", "distribution-j-outside-catalog",
            "prime-one", "prime-four", "distribution-non-maximal-order"])
    def test_usage_error_says_why(self, argv, reason):
        # a timeout, since --prime 1 once made v_p loop forever
        cp = run_cli(*argv, check=False, timeout=120)
        assert cp.returncode == 2
        assert reason in cp.stderr

    def test_interpolation_artifact_pinned(self):
        # sha256 of the payload (meta dropped) from when the composed
        # expansion was built in exact Fractions: the integral route moves
        # no bit of the rows or the Kummer block.  Re-pinned when each row
        # came to compare every digit both sides claim (padic_digits 1 or 0
        # became 8 on all 20 rows; b8bd3d53... before)
        cp = run_cli("verify-interpolation", "--catalog", "Z[sqrt(-1)]", "--u", "4",
                     "--prime", "13", "--prec", "4", "--amax", "4", "--bmax", "4",
                     "--kummer-max", "20",
                     env={"EKTHETA_PREC_BITS": "256", "PYTHONHASHSEED": "0"})
        doc = json.loads(cp.stdout)
        del doc["meta"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == \
            "1f23d100d512d38635a2f0f79ae62d1ae21f96227fccbedd4ac70bfa1bef6af5"

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
        # part of e01 (rounding noise) moved.  Re-pinned again when the
        # lattice sums came to be added on integers and theta's derivatives
        # to come from one q-series pass: max_abs_deviation moved by 4.9e-32
        cp = run_cli("verify", "generating-function", "--catalog",
                     "Z[sqrt(-1)]", "--u", "4", "--z0", "1/2,0", "--w0", "0,1/2",
                     "--amax", "2", "--bmax", "2", "--tol", "1e-12",
                     env={"EKTHETA_PREC_BITS": "256", "PYTHONHASHSEED": "0"})
        doc = json.loads(cp.stdout)
        del doc["meta"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == \
            "e38345bb5ef35874b6b8e4b9c1e8b739c4ddd6d994e078f0ceead8252e9ccc20"

    @pytest.mark.parametrize("argv,want", [
        (["hecke-l", "--s", "6", "--norm-bound", "300", "--tol", "1e-10"],
         "062837d3339091d90adc94fb07ab365621c3f269df60fc967313ae636041412b"),
        (["verify", "distribution", "--catalog", "Z[sqrt(-1)]", "--u", "4",
          "--ideal-a", "2", "--ideal-b", "1", "--points", "2", "--tol", "1e-12"],
         "8830a1d1cac9d508bf5e1e7c0a24fd0247fa19697836504fcb03e2cb43748c72"),
    ], ids=["hecke-l", "distribution"])
    def test_ideal_sum_artifacts_pinned(self, argv, want):
        # sha256 of the payload (meta dropped): sums over ideals and residue
        # classes keep their terms, their order and so every bit.  hecke-l
        # was re-pinned when its K* sum came to keep exactly the certified
        # disc (the value moved by 5e-30), and again when the lattice sums
        # came to be added on integers (the real part moved by 7.9e-31; the
        # imaginary part, 7e-36 of rounding noise, is now exactly 0)
        cp = run_cli(*argv, env={"EKTHETA_PREC_BITS": "256", "PYTHONHASHSEED": "0"})
        doc = json.loads(cp.stdout)
        del doc["meta"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == want

    def test_distribution_raw_curve_takes_its_field_from_j(self):
        # g2 = 4, g3 = 0, e2* = 0 is the Z[sqrt(-1)] curve at u = 4
        raw, cat = (json.loads(run_cli("verify", "distribution", *curve,
                                       "--ideal-a", "2", "--ideal-b", "1",
                                       "--points", "2", "--tol", "1e-12").stdout)
                    for curve in (["--g2", "4", "--g3", "0", "--e2star", "0"],
                                  ["--catalog", "Z[sqrt(-1)]", "--u", "4"]))
        del raw["meta"], cat["meta"]
        assert raw["passed"] and not raw["relaxed_epsilon"]
        assert raw == cat

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
        # scalars with per-value precision: ints mod p^k move no bit.
        # Re-pinned when formal_moments came to keep every moment whose
        # series still has a constant term: 17 moments became 20, the 17
        # unchanged (ec840873... before)
        cp = run_cli("measure", "--catalog", "Z[sqrt(-1)]", "--u", "4",
                     "--prime", "13", "--prec", "8", "--order", "12",
                     "--restrict", "--moments", "4,4",
                     env={"EKTHETA_PREC_BITS": "256", "PYTHONHASHSEED": "0"})
        doc = json.loads(cp.stdout)
        del doc["meta"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == \
            "4979e85d771cdb7234f3fb04908d187b4849012d8275b6a16ad3fa92bc69c908"

    @pytest.mark.parametrize("label,want", [
        ("Z[(1+sqrt(-7))/2]",
         "c6720f221d879f4e5cd1234d25a34377c9e01cd4aa2d6668f35a51e37a3d2bc7"),
        ("Z[sqrt(-2)]",
         "85cfcac7a1ffe1d2c0c2eae8eb6b891e1e866a3b3e77fb01fe1500bacaa4f769"),
    ], ids=["d7", "d2"])
    def test_restricted_measure_off_zi_pinned(self, label, want):
        # sha256 of the payload (meta dropped) of a restricted measure on a
        # field other than Q(i), from the four-term trace loop: the factored
        # restriction moves no bit.  Re-pinned when formal_moments came to
        # keep every moment whose series still has a constant term (d7
        # ff919593..., d2 5f16890e... before)
        cp = run_cli("measure", "--catalog", label, "--u", "1", "--prime", "11",
                     "--prec", "6", "--order", "10", "--restrict", "--moments", "3,3",
                     env={"EKTHETA_PREC_BITS": "256", "PYTHONHASHSEED": "0"})
        doc = json.loads(cp.stdout)
        del doc["meta"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == want

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


_COLD_START = """
import sys
import ektheta.cli
stages = [sorted(sys.modules)]
import contextlib, io, json
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if ektheta.cli.main(argv) != 0:
            raise SystemExit(f"exit code not 0: {argv}")
    stages.append(sorted(sys.modules))
print(json.dumps(stages))
"""


def _modules_after(*argvs):
    """The set of imported module names in a fresh interpreter after
    `import ektheta.cli`, then after main() runs each argv in turn."""
    cp = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(argvs)],
                        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    return [set(names) for names in json.loads(cp.stdout)]


class TestColdStart:
    """`import ektheta.cli` executes neither mpmath nor the dataclass
    machinery; mpmath runs at a command's first numeric call."""

    ZI4 = ["--catalog", "Z[sqrt(-1)]", "--u", "4"]

    def test_import_loads_every_module_but_not_mpmath(self):
        # perfbench/tracer.py reads the seven modules from sys.modules
        loaded, = _modules_after()
        assert {f"ektheta.{m}" for m in ("scalars", "series", "curves", "eklerch",
                                         "kronecker", "padic", "cli")} <= loaded
        assert not {"mpmath.libmp", "dataclasses", "inspect", "csv"} & loaded

    def test_exact_and_padic_commands_never_execute_mpmath(self):
        stages = _modules_after(
            ["catalog", "--u", "4"],
            ["valuations", *self.ZI4, "--prime", "7", "--order", "20"],
            ["verify-interpolation", *self.ZI4, "--prime", "13", "--prec", "4",
             "--kummer-max", "20"])
        assert ["mpmath.libmp" in s for s in stages] == [False] * 4

    def test_a_refused_distribution_run_never_executes_mpmath(self):
        # the conductor check runs before the period lattice is computed
        probe = ("import sys, ektheta.cli\n"
                 "code = ektheta.cli.main(sys.argv[1:])\n"
                 "print('mpmath.libmp' in sys.modules)\n"
                 "sys.exit(code)\n")
        cp = subprocess.run([sys.executable, "-c", probe, "verify", "distribution",
                             "--catalog", "Z[sqrt(-7)]", "--ideal-a", "2",
                             "--ideal-b", "1"], capture_output=True, text=True)
        assert cp.returncode == 2
        assert cp.stderr == ("error: the distribution relation needs Gamma = O_K w1: "
                             "Z[sqrt(-7)] has conductor 2\n")
        assert cp.stdout == "False\n"

    def test_a_numeric_command_executes_mpmath(self):
        stages = _modules_after(["ek", *self.ZI4, "--a", "0", "--b", "2"])
        assert ["mpmath.libmp" in s for s in stages] == [False, True]

    @pytest.mark.parametrize("argv", [
        ["ek", "--a", "1", "--b", "3", "--z0", "1/3,0", "--err", "1e-18"],
        ["verify", "generating-function", "--z0", "1/2,0", "--w0", "0,1/2",
         "--amax", "2", "--bmax", "2", "--tol", "1e-12"],
    ], ids=["ek-z0-third", "generating-function"])
    def test_artifact_does_not_depend_on_a_prior_mpmath_import(self, argv):
        # in-process callers (the tests) import mpmath first and get it
        # eagerly; a CLI run gets the lazily executed module
        launch = "import sys; from ektheta.cli import main; sys.exit(main(sys.argv[1:]))"
        outs = []
        for prelude in ("", "import mpmath; "):
            cp = subprocess.run([sys.executable, "-c", prelude + launch,
                                 *argv, *self.ZI4], capture_output=True, text=True)
            assert cp.returncode == 0, cp.stderr
            outs.append(cp.stdout)
        assert outs[0] == outs[1]


_REFUSAL_PROBE = ("import sys, ektheta.cli\n"
                  "try:\n"
                  "    ektheta.cli.main(sys.argv[1:])\n"
                  "finally:\n"
                  "    print('mpmath.libmp' in sys.modules)\n")

_ZI4_P13 = ["--catalog", "Z[sqrt(-1)]", "--u", "4", "--prime", "13"]


class TestOptionRanges:
    """Count options refuse out-of-range values, and "x,y" options a value
    of another shape, in argparse (exit 2), before any command runs."""

    @pytest.mark.parametrize("argv,option", [
        (["valuations", "--catalog", "Z[i]", "--prime", "7", "--order", "-2"],
         "--order"),
        (["measure", *_ZI4_P13, "--order", "-2"], "--order"),
        (["verify-interpolation", *_ZI4_P13, "--kummer-max", "-1"], "--kummer-max"),
        (["verify", "kronecker", "--catalog", "Z[i]", "--points", "0"], "--points"),
        (["verify", "kronecker", "--catalog", "Z[i]", "--points", "-3"], "--points"),
        (["verify", "functional-equation", "--catalog", "Z[i]", "--amax", "-1"],
         "--amax"),
        (["verify", "distribution", "--catalog", "Z[i]", "--points", "0"],
         "--points"),
        (["verify", "generating-function", "--catalog", "Z[i]", "--bmax", "0"],
         "--bmax"),
        (["measure", *_ZI4_P13, "--restrict", "--moments", "2"], "--moments"),
        (["ek", "--catalog", "Z[i]", "--a", "1", "--b", "3", "--z0", "1/2"], "--z0"),
        (["ek", "--catalog", "Z[i]", "--a", "1", "--b", "3", "--w0", "1/0,1"],
         "--w0"),
        (["hecke-l", "--norm-bound", "-1"], "--norm-bound"),
        (["hecke-l", "--prec-bits", "0"], "--prec-bits"),
        (["verify-interpolation", *_ZI4_P13, "--prec", "-3"], "--prec"),
        (["measure", *_ZI4_P13, "--prec", "0"], "--prec"),
    ], ids=["valuations-order", "measure-order", "kummer-max", "points-0",
            "points-neg", "amax", "distribution-points", "bmax", "moments",
            "z0", "w0", "norm-bound", "prec-bits", "interpolation-prec",
            "measure-prec"])
    def test_refused_in_argparse(self, argv, option):
        cp = subprocess.run([sys.executable, "-c", _REFUSAL_PROBE, *argv],
                            capture_output=True, text=True, timeout=60)
        assert cp.returncode == 2
        assert f"error: argument {option}: " in cp.stderr
        assert "Traceback" not in cp.stderr
        assert cp.stdout == "False\n"      # no artifact, mpmath never executed

    def test_every_int_option_has_a_bound(self):
        # --a, --b and --s take any int (the library checks them); --seed too
        from ektheta.cli import COMMANDS
        unbounded = {flags[0] for _, _, arguments in COMMANDS.values()
                     for flags, kwargs in arguments if kwargs.get("type") is int}
        assert unbounded <= {"--a", "--b", "--s", "--seed"}

    def test_values_in_range_echo_unchanged(self):
        from ektheta.cli import build_parser
        argv = ["measure", *_ZI4_P13, "--prec", "1", "--order", "0",
                "--moments", "0,1"]
        args = build_parser(argv).parse_args(argv)
        assert (args.prec, args.order, args.moments) == (1, 0, "0,1")


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

    @pytest.mark.parametrize("argv,order", [
        (["compose", "--catalog", "Z[sqrt(-1)]", "--u", "4", "--order", "30",
          "--starred"], None),
        (["verify-interpolation", "--catalog", "Z[sqrt(-1)]", "--u", "4",
          "--prime", "13", "--prec", "4", "--amax", "4", "--bmax", "4",
          "--kummer-max", "20"], 117),
    ], ids=["compose", "verify-interpolation"])
    def test_traced_series_jobs(self, argv, order, tmp_path):
        # the README compose job and the padic-interp workload's job run
        # under the hooks on the series storage: one bivariate composition
        # each, and the composed expansion notes its order; the runtime
        # products and inverses of one-variable series go through the
        # hooked methods, so the per-layer metrics see them
        tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        out = tmp_path / "spans.json"
        cp = subprocess.run([sys.executable, str(tracer), str(out), *argv],
                            capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        spans = json.loads(out.read_text())["spans"]
        names = [s[0] for s in spans]
        assert names.count("series.BiSeries.compose") == 1
        if order is not None:
            assert [s[4] for s in spans if s[0] == "padic._exact_composed"] == [order]
            assert names.count("series.UniSeries.__mul__") == 5
            assert names.count("series.UniSeries.inverse") == 2
            assert names.count("kronecker.kronecker_exact") == 5

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


# One representative command line per subcommand, in the table's order.
REPRESENTATIVE_ARGV = {
    "catalog": ["catalog", "--u", "4"],
    "expand": ["expand", "kronecker", "--catalog", "Z[sqrt(-1)]", "--u", "4",
               "--order", "10"],
    "formal-log": ["formal-log", "--g2", "4", "--g3", "0", "--order", "12"],
    "compose": ["compose", "--catalog", "Z[sqrt(-2)]", "--no-starred"],
    "valuations": ["valuations", "--catalog", "Z[sqrt(-1)]", "--prime", "7",
                   "--csv", "heat.csv", "--fit-diagonal"],
    "ek": ["ek", "--a", "1", "--b", "3", "--z0", "1/3,0", "--prec-bits", "128"],
    "hecke-l": ["hecke-l", "--s", "5", "--norm-bound", "200", "--out", "h.json"],
    "verify": ["verify", "distribution", "--ideal-a", "2", "--ideal-b", "1+i",
               "--points", "3", "--seed", "7"],
    "measure": ["measure", "--catalog", "Z[sqrt(-1)]", "--prime", "13",
                "--restrict", "--moments", "3,3", "--json"],
    "verify-interpolation": ["verify-interpolation", "--e2star", "1/2",
                             "--prime", "11", "--kummer-max", "5"],
}

UNKNOWN_COMMAND_STDERR = """\
usage: ektheta [-h]
               {catalog,expand,formal-log,compose,valuations,ek,hecke-l,verify,measure,verify-interpolation}
               ...
ektheta: error: argument command: invalid choice: 'frobnicate' (choose from \
'catalog', 'expand', 'formal-log', 'compose', 'valuations', 'ek', 'hecke-l', \
'verify', 'measure', 'verify-interpolation')
"""


class TestOneCommandParser:
    """build_parser(argv) adds only the subcommand argv[0] names; the
    Namespace, the usage line and every message stay those of the full
    parser."""

    def test_every_subcommand_has_a_representative(self):
        from ektheta.cli import COMMANDS
        assert list(REPRESENTATIVE_ARGV) == list(COMMANDS)

    @pytest.mark.parametrize("name", list(REPRESENTATIVE_ARGV))
    def test_same_namespace_as_the_full_parser(self, name):
        from ektheta.cli import build_parser
        argv = REPRESENTATIVE_ARGV[name]
        one = build_parser(argv)
        assert vars(one.parse_args(argv)) == vars(build_parser().parse_args(argv))
        # and it knows no other subcommand
        other = next(n for n in REPRESENTATIVE_ARGV if n != name)
        with pytest.raises(SystemExit):
            one.parse_args(REPRESENTATIVE_ARGV[other])

    def test_help_lists_all_ten_subcommands(self):
        from ektheta.cli import COMMANDS
        cp = run_cli("--help", env={"COLUMNS": "80"})
        assert len(COMMANDS) == 10
        for name, (help_text, _, _) in COMMANDS.items():
            assert f"    {name}" in cp.stdout and help_text in cp.stdout

    def test_unknown_command_exits_two_with_the_usual_message(self):
        cp = run_cli("frobnicate", check=False, env={"COLUMNS": "80"})
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr == UNKNOWN_COMMAND_STDERR

    def test_bad_argument_keeps_the_full_usage_line(self):
        # the top-level parser reports it, with every command in its usage
        cp = run_cli("catalog", "--bogus", check=False, env={"COLUMNS": "80"})
        assert cp.returncode == 2
        assert cp.stderr == UNKNOWN_COMMAND_STDERR.split("ektheta: error")[0] \
            + "ektheta: error: unrecognized arguments: --bogus\n"


_FREEZE_PROBE = """
import atexit, gc, sys
# registered first, so it runs last: after any handler main() registered
atexit.register(lambda: print("frozen" if gc.get_freeze_count() else "not frozen"))
import ektheta.cli
if sys.argv[1:]:
    ektheta.cli.main(sys.argv[1:])
    ektheta.cli.main(sys.argv[1:])
"""


class TestExitHook:
    """main() freezes the run's objects at exit, so that the interpreter's
    final collection skips them; files and stdout are complete first."""

    def test_main_freezes_at_exit_but_import_does_not(self, tmp_path):
        outs = []
        for argv in ([], ["catalog", "--u", "4", "--out", str(tmp_path / "c.json")]):
            cp = subprocess.run([sys.executable, "-c", _FREEZE_PROBE, *argv],
                                capture_output=True, text=True)
            assert cp.returncode == 0, cp.stderr
            outs.append(cp.stdout.splitlines()[-1])
        assert outs == ["not frozen", "frozen"]

    def test_written_files_match_their_pinned_digests(self, tmp_path):
        # the valuations CSV digest is perfbench's reference; the measure
        # artifact's was taken before the exit hook and the int rows
        run_cli("valuations", "--catalog", "Z[sqrt(-1)]", "--u", "4", "--prime", "7",
                "--order", "80", "--csv", str(tmp_path / "heat.csv"), "--fit-diagonal")
        run_cli("measure", "--catalog", "Z[sqrt(-1)]", "--u", "4", "--prime", "13",
                "--prec", "6", "--order", "12", "--restrict", "--moments", "3,3",
                "--out", str(tmp_path / "m.json"))
        digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest("heat.csv") == \
            "64dc027c127b52a14e29a169323aee62238256e33dae09fd11ec302467b34cf3"
        assert digest("m.json") == \
            "185ecd17235f3ebcab7bab1df58bd5e4856e864fe6f6209555624a2e7dc63fcf"
