"""One benchmark process: a traced CLI call, or a Python API worker.

    python bench/child.py cli SPANS -- ARGV...
        Imports binsa.cli inside an "import" span, wraps binsa's public
        functions, runs binsa.cli.main(ARGV) inside a "main" span and writes
        the spans to SPANS. Exits with main's return code.

    python bench/child.py api DATA.npy SECONDS [SPANS]
        Imports binsa, builds a Dataset from DATA.npy (last column is the
        output) and calls binsa.analyze on it until SECONDS have passed (at
        least once). With SPANS, the calls are traced as above. Prints one
        JSON line with call times, the report and its digest.

A span is [id, parent id, call id, name, start, end, ru_maxrss at start
(KiB), ru_maxrss at end (KiB), counts]. One process makes one call; its call
id is the SPANS file name without ".spans.json". Spans stay in memory until
the process ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time

# Public functions timed in the traced run, by the binsa module (the layer)
# that defines them. Each is replaced wherever one of PATCHED_MODULES binds
# it, so calls between binsa modules are traced as well as calls from the
# CLI. Functions left out (config parsing, number formatting) count as the
# caller's own time.
TRACED = {
    "io": ("write_dataset_csv", "read_dataset_csv", "report_to_dict", "report_tables_csv",
           "scenario_table_csv"),
    "sampling": ("sample_inputs", "sobol_points", "transform_marginals", "apply_dependence"),
    "benchmarks": ("evaluate",),
    "core": ("Dataset", "pearson", "spearman"),
    "binning": ("analyze",),
    "oracle": ("estimate_sobol",),
    "simdec": ("select_inputs", "default_states", "decompose"),
    "svg": ("bar_chart", "stacked_histogram"),
}
PATCHED_MODULES = ("binsa", "binsa.cli", "binsa.io", "binsa.sampling", "binsa.oracle")


def _analyze_counts(args, kwargs, out):
    k = out.first_order.shape[0]
    # computed from the estimator's structure, not counted inside binsa:
    # K first-order ratios, K pair-resolution marginals, K(K-1)/2 pairs
    return {"rows": args[0].n_rows, "ratio_evals": 2 * k + k * (k - 1) // 2}


COUNTS = {
    "benchmarks.evaluate": lambda a, k, out: {"rows": len(out)},
    "oracle.estimate_sobol": lambda a, k, out: {"evaluations": out.n_evaluations},
    "binning.analyze": _analyze_counts,
    "simdec.decompose": lambda a, k, out: {"scenarios": len(out.scenarios)},
    "io.read_dataset_csv": lambda a, k, out: {"bytes": os.path.getsize(a[0])},
    "io.write_dataset_csv": lambda a, k, out: {"bytes": os.path.getsize(a[0])},
    "svg.bar_chart": lambda a, k, out: {"bytes": len(out.encode())},
    "svg.stacked_histogram": lambda a, k, out: {"bytes": len(out.encode())},
}


def _maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, spans_path):
        self.path = spans_path
        self.call = os.path.basename(spans_path).removesuffix(".spans.json")
        self.spans = []
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, self.call, name,
               0.0, 0.0, _maxrss(), 0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[4] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[5] = time.perf_counter()
            rec[7] = _maxrss()
            self._stack.pop()
        counts = COUNTS.get(name)
        if counts is not None:
            rec[8] = counts(args, kwargs, out)
        return out

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        modules = [sys.modules[m] for m in PATCHED_MODULES if m in sys.modules]
        for layer, names in TRACED.items():
            defining = sys.modules[f"binsa.{layer}"]
            for fname in names:
                orig = getattr(defining, fname)
                traced = self.wrap(orig, f"{layer}.{fname}")
                for mod in modules:
                    if getattr(mod, fname, None) is orig:
                        setattr(mod, fname, traced)

    def dump(self, scipy_stats_loaded):
        payload = {"spans": self.spans, "scipy_stats_loaded": scipy_stats_loaded}
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _import_cli():
    import binsa.cli

    return binsa.cli


def run_cli(spans_path, argv):
    tracer = Tracer(spans_path)
    cli = tracer.span("import", _import_cli)
    # what import alone loaded, not what the command loads later
    scipy_loaded = int("scipy.stats" in sys.modules)
    tracer.install()
    try:
        return tracer.span("main", cli.main, argv)
    finally:
        tracer.dump(scipy_loaded)


def _import_binsa():
    import binsa

    return binsa


def run_api(data_path, seconds, spans_path=None):
    tracer = Tracer(spans_path) if spans_path else None
    span = tracer.span if tracer else lambda name, fn: fn()
    binsa = span("import", _import_binsa)
    scipy_loaded = int("scipy.stats" in sys.modules)
    import numpy as np

    data = np.load(data_path)
    uniform = binsa.MarginalDistribution.uniform(0.0, 1.0)
    specs = tuple(binsa.InputSpec(name=f"x{j + 1}", distribution=uniform)
                  for j in range(data.shape[1] - 1))
    if tracer:
        tracer.install()

    def body():
        t = time.perf_counter()
        ds = binsa.Dataset(inputs=data[:, :-1], output=data[:, -1], specs=specs)
        dataset_s = time.perf_counter() - t
        calls = []
        digests = set()
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            report = binsa.analyze(ds)
            calls.append(time.perf_counter() - t)
            digests.add(hashlib.sha256(
                report.first_order.tobytes() + report.second_order.tobytes()).hexdigest())
            # same rule as run.time_loop: no call that would end past the budget
            if time.perf_counter() - start + statistics.median(calls) > seconds:
                return ds, report, dataset_s, calls, digests

    try:
        ds, report, dataset_s, calls, digests = span("main", body)
    finally:
        if tracer:
            tracer.dump(scipy_loaded)
    print(json.dumps({
        "dataset_s": dataset_s,
        "calls": calls,
        "rows": ds.n_rows,
        "first_order": report.first_order.tolist(),
        "second_order": report.second_order.tolist(),
        "conservation_sum": binsa.conservation_check(report),
        "digests": sorted(digests),
    }))
    return 0


def main(argv):
    if argv[:1] == ["cli"] and len(argv) >= 3 and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    if argv[:1] == ["api"] and len(argv) in (3, 4):
        return run_api(argv[1], float(argv[2]), argv[3] if len(argv) == 4 else None)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
