"""Run one ``ektheta`` CLI job with spans around each module's entry points.

    python3 perfbench/tracer.py SPANS.json ARG...

ARG... are the arguments of the ``ektheta`` command.  The job's stdout,
stderr and exit code are those of the plain command.  When the job ends,
SPANS.json receives every span (name, start, end, parent, note), the call
counts of the count-only hooks and ``cache_info()`` of every ``lru_cache`` in
``scalars`` and ``padic``.  Nothing under ``src/`` is changed: the hooks are
installed from here, after import.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

_clock = time.perf_counter

MODULES = ("scalars", "series", "curves", "eklerch", "kronecker", "padic", "cli")

# Functions and methods timed with a span, per module.  Beyond the layers the
# benchmark reports, this includes the entry points the CLI calls, so that a
# reported self time does not absorb an unhooked caller's work.
SPANNED = {
    "scalars": ["embed_padic"],
    "series": ["UniSeries.__mul__", "UniSeries.compose", "UniSeries.inverse",
               "BiSeries.__mul__", "BiSeries.compose"],
    "curves": ["compute_periods", "wp_series", "formal_log"],
    "eklerch": ["ek_number", "eisenstein_kronecker_lerch", "_I_a",
                "_radius_for", "hecke_L_partial", "direct_hecke_sum"],
    "kronecker": ["kronecker_exact", "compose_formal", "valuation_heatmap",
                  "verify_generating_function", "verify_distribution",
                  "taylor_coefficients_2d", "ThetaEvaluator.theta",
                  "ThetaEvaluator._pole_guard"],
    "padic": ["_xy_parameter_series", "_exact_composed",
              "formal_torsion_algebra", "formal_group_translate",
              "_trace_coefficient_table", "restricted_formal_series",
              "formal_moments", "four_term_expansions", "kummer_congruences",
              "measure_from_theta", "restrict_to_units", "moment_table",
              "verify_interpolation_origin"],
    "cli": ["main"],
}

# Called too often for a span each: only counted.
COUNTED = {"scalars": ["PadicScalar.__mul__"]}

# Spans that note their series order argument.
ORDER_ARG = {"padic._xy_parameter_series", "padic._exact_composed",
             "kronecker.kronecker_exact", "kronecker.compose_formal"}
# Spans that note their (numeric) return value.
RESULT_NOTE = {"eklerch._radius_for"}
# An exception of this type is noted on the innermost span it leaves.
NOTED_ERROR = "TailBoundError"


class Recorder:
    """Spans kept in memory: [name, start, end, parent index, note]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}

    def span(self, name: str, fn):
        order_sig = inspect.signature(fn) if name in ORDER_ARG else None
        note_result = name in RESULT_NOTE
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if order_sig is not None:
                rec[4] = order_sig.bind(*args, **kwargs).arguments["order"]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == NOTED_ERROR and \
                        not getattr(exc, "_bench_noted", False):
                    exc._bench_noted = True
                    rec[4] = NOTED_ERROR
                raise
            finally:
                rec[2] = _clock()
                stack.pop()
            if note_result:
                rec[4] = float(out)
            return out

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(rec: Recorder, mods: dict) -> None:
    """Replace each hooked name where it is defined and in every ektheta
    module that imported it by name (``from .kronecker import ...``)."""
    everywhere = list(mods.values()) + [sys.modules["ektheta"]]
    for table, make in ((SPANNED, rec.span), (COUNTED, rec.counter)):
        for mod_name, attrs in table.items():
            for path in attrs:
                owner = mods[mod_name]
                *cls, attr = path.split(".")
                for c in cls:
                    owner = getattr(owner, c)
                orig = vars(owner)[attr]
                hooked = make(f"{mod_name}.{path}", orig)
                setattr(owner, attr, hooked)
                if not cls:
                    for m in everywhere:
                        for k, v in list(vars(m).items()):
                            if v is orig:
                                setattr(m, k, hooked)


def main(argv) -> int:
    out_path, args = argv[0], argv[1:]
    t0 = _clock()
    importlib.import_module("ektheta.cli")
    import_s = _clock() - t0
    mods = {n: sys.modules[f"ektheta.{n}"] for n in MODULES}
    caches = {f"{n}.{k}": v for n in ("scalars", "padic")
              for k, v in vars(mods[n]).items()
              if hasattr(v, "cache_info") and
              getattr(v, "__module__", None) == mods[n].__name__}
    rec = Recorder()
    install(rec, mods)
    code = 1
    try:
        code = mods["cli"].main(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        info = {k: c.cache_info() for k, c in caches.items()}
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": rec.spans,
                       "counts": rec.counts,
                       "caches": {k: {"hits": i.hits, "misses": i.misses}
                                  for k, i in info.items()}}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
