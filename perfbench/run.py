"""ektheta benchmark: README CLI jobs, each timed in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from anywhere; the program under test is ``src/`` beside this directory.
One harness process runs the jobs one at a time (a closed loop with one
client).  Each job is a fresh interpreter, because the module-level
``lru_cache``s would otherwise turn a repeat into a cache hit, and a CLI user
pays the cold cost on every run.

--trace 0 prints the end-to-end metrics: the median over the run's passes of
one pass's wall time, CPU time and peak RSS, the median job time, the share of
jobs that pass their check, and the interpreter-to-import time.

--trace 1 runs one untraced pass, then one pass with each job under
``perfbench/tracer.py``, and prints the per-layer metrics of the traced pass.

The last line of stdout is the result JSON; the lines before it print every
metric with its unit, the environment, and each failure's first stderr line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from tracer import NOTED_ERROR, RESULT_NOTE
from workloads import DEFECT_SCALES, WORKLOADS, Job, cli_mix, scale_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
TRACER = HERE / "tracer.py"

# Import probes before each pass and after the last: spread over the run,
# their median is less at the mercy of one busy second on a shared host.
SETUP_PROBES = 3
JOB_TIMEOUT_S = 150
LAUNCH = "import sys; from ektheta.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_PROBE = "import time, ektheta.cli; print(time.monotonic()); print(ektheta.cli.__file__)"

# Per-layer metrics: (name, unit, better).  Totals over one traced pass,
# except *_max (largest value seen) and trace.* (the pass as a whole).
PER_LAYER = [
    *[(f"padic.{f}.self_s", "s", "lower") for f in (
        "_xy_parameter_series", "_exact_composed", "formal_torsion_algebra",
        "formal_group_translate", "_trace_coefficient_table",
        "restricted_formal_series", "formal_moments", "four_term_expansions",
        "kummer_congruences", "measure_from_theta")],
    # Inclusive times: the series arithmetic under these spans is the series
    # layer's self time, so their own self time is small.
    ("padic._xy_parameter_series.total_s", "s", "lower"),
    ("padic._exact_composed.total_s", "s", "lower"),
    ("padic._xy_parameter_series.order_max", "count", "lower"),
    ("padic._exact_composed.order_max", "count", "lower"),
    *[(f"padic.{f}.cache_hits", "count", "higher") for f in (
        "_xy_parameter_series", "_exact_composed", "four_term_expansions",
        "_division_polynomials")],
    *[(f"padic.{f}.cache_misses", "count", "lower") for f in (
        "_xy_parameter_series", "_exact_composed", "four_term_expansions",
        "_division_polynomials")],
    *[(f"series.{m}.{s}", u, "lower")
      for m in ("UniSeries.__mul__", "UniSeries.compose", "UniSeries.inverse",
                "BiSeries.__mul__", "BiSeries.compose")
      for s, u in (("calls", "count"), ("self_s", "s"))],
    ("kronecker.kronecker_exact.calls", "count", "lower"),
    ("kronecker.kronecker_exact.self_s", "s", "lower"),
    ("kronecker.kronecker_exact.order_max", "count", "lower"),
    ("kronecker.compose_formal.self_s", "s", "lower"),
    ("kronecker.compose_formal.order_max", "count", "lower"),
    ("kronecker.ThetaEvaluator.theta.calls", "count", "lower"),
    ("kronecker.ThetaEvaluator.theta.self_s", "s", "lower"),
    ("kronecker.ThetaEvaluator._pole_guard.self_s", "s", "lower"),
    ("kronecker.taylor_coefficients_2d.self_s", "s", "lower"),
    ("eklerch._I_a.calls", "count", "lower"),
    ("eklerch._I_a.self_s", "s", "lower"),
    ("eklerch._radius_for.radius_max", "length", "lower"),
    ("eklerch.TailBoundError.count", "count", "lower"),
    ("eklerch.hecke_L_partial.self_s", "s", "lower"),
    ("eklerch.direct_hecke_sum.self_s", "s", "lower"),
    ("curves.compute_periods.calls", "count", "lower"),
    ("curves.compute_periods.self_s", "s", "lower"),
    ("curves.wp_series.self_s", "s", "lower"),
    ("curves.formal_log.self_s", "s", "lower"),
    ("scalars.PadicScalar.__mul__.calls", "count", "lower"),
    ("scalars.embed_padic.calls", "count", "lower"),
    ("scalars.embed_padic.self_s", "s", "lower"),
    *[(f"scalars.{f}.{s}", "count", b) for f in (
        "_lex_min_irreducible", "_sqrt_minus_d_mod")
      for s, b in (("cache_hits", "higher"), ("cache_misses", "lower"))],
    ("cli.import_s", "s", "lower"),
    ("cli.main.total_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.coverage", "frac", "higher"),
]

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("job_s_p50", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("ok_frac", "frac"),
]


def child_env() -> dict:
    """The caller's environment without its PYTHON* settings, plus pinned
    ones.  Bytecode caching stays on, as for an installed CLI."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), EKTHETA_PREC_BITS="256",
               PYTHONHASHSEED="0")
    return env


@dataclass
class Outcome:
    job: Job
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: Optional[str] = None     # first stderr line or check failure
    trace: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def spawn(argv: list, workdir: Path) -> tuple:
    """Run argv to completion; return (exit code, wall s, cpu s, maxrss MB,
    stdout, stderr).  The child's own rusage comes from wait4."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024, out_path.read_text(), err_path.read_text())


def run_job(job: Job, workdir: Path, traced: bool) -> Outcome:
    for stale in workdir.iterdir():
        stale.unlink()
    spans = workdir / "spans.json"
    if traced:
        argv = [sys.executable, str(TRACER), str(spans), *job.args]
    else:
        argv = [sys.executable, "-c", LAUNCH, *job.args]
    code, wall, cpu, rss, stdout, stderr = spawn(argv, workdir)
    res = Outcome(job, code, wall, cpu, rss)
    if code != 0:
        lines = stderr.strip().splitlines()
        res.error = f"exit {code}: " + (lines[0] if lines else "(no stderr)")
    else:
        try:
            res.error = job.check(stdout, workdir)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            res.error = f"{job.name}: unreadable output ({exc!r})"
    if traced:
        if spans.is_file():
            res.trace = json.loads(spans.read_text())
        else:
            res.trace = {"import_s": 0.0, "spans": [], "counts": {}, "caches": {}}
            res.error = res.error or f"{job.name}: the tracer wrote no spans"
    return res


def run_pass(jobs: list, workdir: Path, traced: bool = False) -> list:
    return [run_job(job, workdir, traced) for job in jobs]


def import_probe(workdir: Path) -> tuple:
    """(seconds from interpreter start to `import ektheta.cli` done, the
    imported file) in a fresh interpreter."""
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=workdir,
                       env=child_env(), capture_output=True, text=True,
                       timeout=JOB_TIMEOUT_S)
    if p.returncode != 0:
        raise SystemExit(f"import ektheta.cli failed: {p.stderr.strip()}")
    done, path = p.stdout.splitlines()
    return float(done) - t0, Path(path)


def warm_up(workdir: Path) -> None:
    """One untimed import: writes the bytecode cache and checks that the
    package comes from this checkout's src/."""
    _, path = import_probe(workdir)
    if not path.resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"ektheta imported from {path}, not {SRC}")


def layer_stats(outcomes: list) -> dict:
    """Per-layer totals of one traced pass, keyed by metric name."""
    stats: dict = {}

    def add(key, v):
        stats[key] = stats.get(key, 0) + v

    def peak(key, v):
        stats[key] = max(stats.get(key, v), v)

    for res in outcomes:
        tr = res.trace
        spans = tr["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, note in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, note) in enumerate(spans):
            dur = end - start
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", dur - child[i])
            add(f"{name}.total_s", dur)
            if note == NOTED_ERROR:
                add(f"eklerch.{NOTED_ERROR}.count", 1)
            elif note is not None:
                stat = "radius_max" if name in RESULT_NOTE else "order_max"
                peak(f"{name}.{stat}", note)
        for name, n in tr["counts"].items():
            add(f"{name}.calls", n)
        for name, info in tr["caches"].items():
            add(f"{name}.cache_hits", info["hits"])
            add(f"{name}.cache_misses", info["misses"])
        add("cli.import_s", tr["import_s"])
    wall = sum(r.wall_s for r in outcomes)
    stats["trace.traced_wall_s"] = wall
    stats["trace.coverage"] = sum(map(covered_s, outcomes)) / wall
    return stats


def covered_s(res: Outcome) -> float:
    """Time a job spent in spans called directly from cli.main."""
    spans = res.trace["spans"]
    return sum(e - s for _, s, e, p, _ in spans
               if p >= 0 and spans[p][0] == "cli.main")


def environment(seed: int) -> str:
    import mpmath
    import mpmath.libmp
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() \
            else ref
    return (f"# env python={platform.python_version()} "
            f"mpmath={mpmath.__version__} backend={mpmath.libmp.BACKEND} "
            f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} "
            f"commit={commit} seed={seed}")


def report_failures(outcomes: list) -> None:
    for res in outcomes:
        if not res.ok:
            print(f"# FAIL {res.job.name}: {res.error}")


def fail_frac(outcomes: list) -> float:
    return sum(not r.ok for r in outcomes) / len(outcomes)


def measure(jobs: list, seconds: float, workdir: Path) -> tuple:
    """Passes over the jobs until the next would end after `seconds`, with
    import probes before each pass and after the last."""
    t0 = time.perf_counter()
    passes, setup = [], []
    while True:
        setup += [import_probe(workdir)[0] for _ in range(SETUP_PROBES)]
        passes.append(run_pass(jobs, workdir))
        walls = [sum(r.wall_s for r in p) for p in passes]
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            setup += [import_probe(workdir)[0] for _ in range(SETUP_PROBES)]
            return passes, walls, setup


def end_to_end(jobs, seconds, workdir) -> tuple:
    passes, walls, setup = measure(jobs, seconds, workdir)
    flat = [r for p in passes for r in p]
    per_job = [statistics.median(p[i].wall_s for p in passes)
               for i in range(len(jobs))]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "job_s_p50": statistics.median(per_job),
        "cpu_s": statistics.median(sum(r.cpu_s for r in p) for p in passes),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p)
                                         for p in passes),
        "ok_frac": 1 - fail_frac(flat),
    }
    print(f"# passes={len(passes)} jobs/pass={len(jobs)} "
          f"setup_samples={len(setup)} fail_frac={fail_frac(flat)}")
    samples = {"setup_s": setup, "pass_wall_s": walls,
               "job_wall_s": {j.name: [p[i].wall_s for p in passes]
                              for i, j in enumerate(jobs)}}
    print(f"# samples {json.dumps(samples)}")
    return flat, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}


def per_layer(jobs, workdir) -> tuple:
    untraced = run_pass(jobs, workdir)
    traced = run_pass(jobs, workdir, traced=True)
    stats = layer_stats(traced)
    stats["trace.untraced_wall_s"] = sum(r.wall_s for r in untraced)
    overhead = stats["trace.traced_wall_s"] - stats["trace.untraced_wall_s"]
    print(f"# tracing overhead {overhead:.4f} s "
          f"({overhead / stats['trace.untraced_wall_s']:.2%} of untraced wall)")
    for res in traced:
        print(f"# coverage {res.job.name}: "
              f"{covered_s(res) / res.wall_s:.2%} of {res.wall_s:.3f} s "
              f"under layer spans")
    for key in sorted(k[:-7] for k in stats if k.endswith(".self_s")):
        print(f"# layer {key}: calls={stats[key + '.calls']} "
              f"self_s={stats[key + '.self_s']:.4f} "
              f"total_s={stats[key + '.total_s']:.4f}")
    return untraced + traced, {name: {"value": stats.get(name, 0), "unit": u}
                               for name, u, _ in PER_LAYER}


def selftest(workdir: Path) -> int:
    """The checker must count a corrupted artifact and a nonzero exit as
    failures.  Also reports the fail_frac of the full numeric-scale sweep,
    u = 1e-6 included (1/4 while that job exits 2 with TailBoundError)."""
    jobs = {j.name: j for j in cli_mix(0)}
    good = [run_job(jobs["catalog"], workdir, False),
            run_job(jobs["expand"], workdir, False)]
    doc = json.loads((workdir / "stdout").read_text())
    term = doc["expansion"]["regular"]["terms"][0]
    term["c"] = str(Fraction(term["c"]) + 1)
    corrupt = json.dumps(doc)
    bad_artifact = Outcome(jobs["expand"], 0, 0.0, 0.0, 0.0,
                           jobs["expand"].check(corrupt, workdir))
    bad_exit = run_job(Job("bad-exit", ["verify-interpolation", "--catalog",
                                      "no-such-row", "--prime", "13"],
                           jobs["catalog"].check), workdir, False)
    checked = good + [bad_artifact, bad_exit]
    report_failures(checked)
    ff = fail_frac(checked)
    print(f"# checker: fail_frac={ff} over {len(checked)} jobs (expect 0.5)")
    sweep = run_pass([scale_job(u) for u in DEFECT_SCALES], workdir)
    report_failures(sweep)
    print(f"# numeric-scale with u=1/1000000: fail_frac={fail_frac(sweep)}")
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    same = [[m["name"], m["unit"], m["better"]] for m in listed["per_layer"]] \
        == [list(m) for m in PER_LAYER] \
        and [m["name"] for m in listed["end_to_end"]] == [m[0] for m in END_TO_END] \
        and [w["name"] for w in listed["workloads"]] == list(WORKLOADS)
    print(f"# BENCHMARK.json matches run.py: {same}")
    ok = ff == 0.5 and all(r.ok for r in good) and not bad_artifact.ok \
        and bad_exit.code != 0 and same
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (SRC / "ektheta" / "cli.py").is_file():
        print(f"error: no ektheta source under {SRC}", file=sys.stderr)
        return 2
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        warm_up(workdir)
        if args.selftest:
            return selftest(workdir)
        print(environment(args.seed))
        jobs = WORKLOADS[args.workload](args.seed)
        if args.trace:
            outcomes, metrics = per_layer(jobs, workdir)
        else:
            outcomes, metrics = end_to_end(jobs, args.seconds, workdir)
        report_failures(outcomes)
        for name, m in metrics.items():
            print(f"{name} {m['value']!r} {m['unit']}")
        failed = sum(not r.ok for r in outcomes)
        print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
