"""CLI surface: artifacts, determinism, exit codes."""
import json
import subprocess
import sys

import pytest


def run_cli(*argv, check=True):
    cp = subprocess.run([sys.executable, "-m", "ektheta.cli", *argv],
                        capture_output=True, text=True)
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
    ], ids=["missing-curve", "unknown-character"])
    def test_usage_error_says_why(self, argv, reason):
        cp = run_cli(*argv, check=False)
        assert cp.returncode == 2
        assert reason in cp.stderr

    def test_integrality_failure_exit_one(self):
        # u = 1/13 puts 13 in the denominators of the composed expansion
        cp = run_cli("measure", "--catalog", "Z[sqrt(-1)]", "--u", "1/13",
                     "--prime", "13", "--prec", "4", "--order", "8",
                     check=False)
        assert cp.returncode == 1
        assert "v_p" in cp.stderr

    def test_distribution_cli(self):
        cp = run_cli("verify", "distribution", "--catalog", "Z[sqrt(-1)]",
                     "--u", "4", "--ideal-a", "1", "--ideal-b", "1+i",
                     "--points", "2", "--tol", "1e-12", "--prec-bits", "192")
        doc = json.loads(cp.stdout)
        assert doc["passed"] and doc["relaxed_epsilon"] is True


class TestMeasureCommands:
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
