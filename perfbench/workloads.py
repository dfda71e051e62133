"""The benchmark's workloads: README CLI jobs and the check of each job's output.

Each job is one ``ektheta`` command line.  Its check returns ``None`` when the
output is right and a one-line reason otherwise.  Every check also needs exit
code 0, which the harness tests first.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

Z_I = "Z[sqrt(-1)]"
Z_2I = "Z[2*sqrt(-1)]"


@dataclass
class Job:
    name: str
    args: list
    check: Callable[[str, Path], Optional[str]]


def payload_digest(stdout: str) -> str:
    """sha256 of a job's JSON payload without its metadata header and without
    the CSV path it echoes, which differs between runs."""
    doc = json.loads(stdout)
    doc.pop("meta", None)
    doc.pop("csv_path", None)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(name: str, csv: Optional[Path] = None):
    def check(stdout, workdir):
        if payload_digest(stdout) != REFERENCE["payload_sha256"][name]:
            return f"{name}: payload differs from the stored reference"
        if csv is not None:
            data = (workdir / csv).read_bytes()
            if hashlib.sha256(data).hexdigest() != \
                    REFERENCE["payload_sha256"][name + ".csv"]:
                return f"{name}: CSV differs from the stored reference"
        return None
    return check


def check_passed(stdout, workdir):
    doc = json.loads(stdout)
    if doc.get("passed") is not True:
        return f"{doc.get('kind')}: passed flag is {doc.get('passed')!r}"
    return None


def check_interpolation(stdout, workdir):
    doc = json.loads(stdout)
    bad = [f"{r['a']},{r['b']}" for r in doc["rows"]
           if not (r["exact_equal"] and r["padic_equal"])]
    if doc["passed"] is not True or bad or not doc["kummer"]["passed"] \
            or doc["kummer"]["pairs_checked"] < 1:
        return f"verify-interpolation: passed={doc['passed']} rows failing {bad}"
    return None


def check_ek(expected_re: Fraction, expected_im: Fraction, err: float):
    """The returned value must lie within --err of an exact reference."""
    def check(stdout, workdir):
        value = json.loads(stdout)["value"]
        dev = max(abs(Fraction(value["re"]) - expected_re),
                  abs(Fraction(value["im"]) - expected_im))
        if dev > Fraction(err):
            return f"ek: value {value['re']} is {float(dev):.3g} from the reference"
        return None
    return check


def cli_mix(seed: int) -> list:
    """The ten light README commands, catalog through hecke-l, in README
    order.  The seed picks --seed of the two randomised verifiers."""
    rng = random.Random(seed)
    kron_seed, dist_seed = rng.randrange(2 ** 31), rng.randrange(2 ** 31)
    ek13 = REFERENCE["ek_z0_third_a1_b3"]
    curve = ["--catalog", Z_I, "--u", "4"]
    return [
        Job("catalog", ["catalog", "--u", "1"], check_digest("catalog")),
        Job("expand", ["expand", "kronecker", *curve, "--order", "10"],
            check_digest("expand")),
        Job("formal-log", ["formal-log", "--catalog", Z_2I, "--order", "20"],
            check_digest("formal-log")),
        Job("compose", ["compose", *curve, "--order", "30", "--starred"],
            check_digest("compose")),
        Job("valuations", ["valuations", *curve, "--prime", "7", "--order",
                           "80", "--csv", "heat.csv", "--fit-diagonal"],
            check_digest("valuations", csv=Path("heat.csv"))),
        # e*_{0,4} is the Eisenstein sum G_4 = g2/60, and g2 = 4 on this row.
        Job("ek-a0-b4", ["ek", *curve, "--a", "0", "--b", "4", "--err", "1e-20"],
            check_ek(Fraction(1, 15), Fraction(0), 1e-20)),
        Job("ek-a1-b3", ["ek", *curve, "--a", "1", "--b", "3", "--z0", "1/3,0",
                         "--err", "1e-18"],
            check_ek(Fraction(ek13["re"]), Fraction(ek13["im"]), 1e-18)),
        Job("verify-kronecker", ["verify", "kronecker", *curve, "--points",
                                 "10", "--tol", "1e-18", "--seed",
                                 str(kron_seed)], check_passed),
        Job("verify-distribution", ["verify", "distribution", *curve,
                                    "--ideal-a", "2", "--ideal-b", "1",
                                    "--points", "10", "--tol", "1e-12",
                                    "--seed", str(dist_seed)], check_passed),
        Job("hecke-l", ["hecke-l", "--s", "6", "--norm-bound", "400", "--tol",
                        "1e-10"], check_passed),
    ]


def scale_job(u: str) -> Job:
    # On the Z[2*sqrt(-1)] row e2* = u exactly, and e*_{0,2} = e2*.
    return Job(f"ek-u={u}", ["ek", "--catalog", Z_2I, "--u", u, "--a", "0",
                             "--b", "2", "--err", "1e-20"],
               check_ek(Fraction(u), Fraction(0), 1e-20))


# u = 1/1000000 is left out of numeric-scale: when this was written it
# exited 2 with TailBoundError, and a workload must not fail.
# `run.py --selftest` runs the sweep with it and reports its fail_frac.
SCALES = ["1/1000", "1", "1000"]
DEFECT_SCALES = ["1/1000000", *SCALES]


def numeric_scale(seed: int) -> list:
    return [scale_job(u) for u in SCALES]


def numeric_genfun(seed: int) -> list:
    return [Job("verify-genfun", ["verify", "generating-function", "--catalog",
                                  Z_I, "--u", "4", "--z0", "1/2,0", "--w0",
                                  "0,1/2", "--amax", "4", "--bmax", "4",
                                  "--tol", "1e-12"], check_passed)]


def padic_interp(seed: int) -> list:
    # The README job at --prec 4 in place of 12, so that one pass fits a run.
    return [Job("verify-interpolation",
                ["verify-interpolation", "--catalog", Z_I, "--u", "4",
                 "--prime", "13", "--prec", "4", "--amax", "4", "--bmax", "4",
                 "--kummer-max", "20"], check_interpolation)]


WORKLOADS = {
    "padic-interp": padic_interp,
    "numeric-genfun": numeric_genfun,
    "cli-mix": cli_mix,
    "numeric-scale": numeric_scale,
}
