"""binsa benchmark: end-to-end timings of the CLI and the Python API, and a
traced run that splits them by layer (binsa module).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a binsa checkout; binsa is imported from ./src. With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
ones, as named in BENCHMARK.json. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; a detailed record (provenance,
output digests, checks, per-iteration numbers) goes to
.bench_data/results/. --workload all runs every workload in turn. --smoke
shrinks every input so that a run takes seconds; its timings mean nothing.

Exit status: 0 when every correctness check passed, 1 when one failed (the
result line is still printed), 2 when the benchmark could not run.

All work is closed-loop with one client: one program call at a time, each
started from this process, with BLAS/OpenMP threads capped at nproc.
Set-up and CLI times are scaled to a reference host speed (HostProbe).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from statistics import median

import models

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, ".bench_data")
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")
# Median wall time of reference.py on the host that recorded baseline.json:
# end-to-end times are reported as if every run had that host speed.
REF_S = 0.33
SETUP_REPEATS = 5
IMPORT_CODE = "import binsa; print(binsa.__file__)"
PROCESS_LIMIT_S = 120.0

# Self time of each traced span goes to one per-layer metric. "import" is
# `import binsa` in a fresh interpreter; "main" is the CLI call (or the API
# worker loop) minus every traced function below it.
SELF_METRIC = {
    "import": "cli.import_s",
    "main": "cli.unattributed_s",
    "io.write_dataset_csv": "io.write_dataset_s",
    "io.read_dataset_csv": "io.read_dataset_s",
    "io.report_to_dict": "io.report_s",
    "io.report_tables_csv": "io.report_s",
    "io.scenario_table_csv": "io.report_s",
    "sampling.sample_inputs": "sampling.sample_inputs_s",
    "sampling.sobol_points": "sampling.sobol_points_s",
    "sampling.transform_marginals": "sampling.transform_marginals_s",
    "sampling.apply_dependence": "sampling.apply_dependence_s",
    "benchmarks.evaluate": "benchmarks.evaluate_s",
    "core.Dataset": "core.dataset_s",
    "core.pearson": "core.correlation_s",
    "core.spearman": "core.correlation_s",
    "binning.analyze": "binning.analyze_s",
    "oracle.estimate_sobol": "oracle.estimate_sobol_s",
    "simdec.decompose": "simdec.decompose_s",
    "simdec.select_inputs": "simdec.select_s",
    "simdec.default_states": "simdec.select_s",
    "svg.bar_chart": "svg.render_s",
    "svg.stacked_histogram": "svg.render_s",
}
# Per-layer metrics that layer_metrics() derives from span counts.
COUNT_METRICS = (
    "cli.scipy_stats_loaded", "io.write_mb_per_s", "io.read_mb_per_s", "io.read_rss_delta_mb",
    "io.bytes_written", "binning.analyze_calls", "binning.ratio_evals", "binning.row_evals_per_s",
    "benchmarks.evaluations", "oracle.evaluations", "simdec.scenarios", "svg.bytes",
)
COMMANDS = ("sample", "analyze", "simdec", "compare", "sweep")
MIB = 1024.0 * 1024.0


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, broken trace)."""


def child_env():
    threads = str(os.cpu_count() or 1)
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def run_process(argv, log_dir, tag):
    """Run argv to completion; return (wall seconds, peak RSS KiB, exit code, stdout).

    A process still running after PROCESS_LIMIT_S is killed, so that a hung
    call cannot hold the benchmark past its time limit."""
    out_path = os.path.join(log_dir, tag + ".out")
    err_path = os.path.join(log_dir, tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return wall, usage.ru_maxrss, proc.returncode, stdout


def digest_dir(path):
    digests = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class HostProbe:
    """Wall times of reference.py, a fixed task that does not use binsa,
    run in fresh processes between the program's processes.

    On a shared host the speed of whole runs drifts by tens of percent from
    one minute to the next, most of all for process start and imports, for
    the program and the probe alike. Scaling those times by REF_S / (median
    probe wall of the same run) cancels much of that drift; a change to
    binsa cannot move the probe."""

    def __init__(self, log_dir, tag):
        self.log_dir = log_dir
        self.tag = tag
        self.walls = []

    def run(self):
        wall, _, rc, _ = run_process([sys.executable, REFERENCE], self.log_dir,
                                     f"{self.tag}{len(self.walls)}")
        if rc != 0:
            raise BenchError(f"reference.py exited {rc}, see {self.log_dir}")
        self.walls.append(wall)

    @property
    def scale(self):
        return REF_S / median(self.walls)


def time_loop(step, seconds, min_calls=1):
    """Call step() until `seconds` are used up; never start a call that the
    median call so far says would end past the budget. At least min_calls."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        walls.append(time.perf_counter() - t0)
        if (len(results) >= min_calls
                and time.perf_counter() - start + median(walls) > seconds):
            return results


# ---------------------------------------------------------------- workloads
#
# A workload's iterate(work, log_dir, tag, modes, seconds, probe) runs its
# timed part in fresh processes once per mode (False: plain, True: traced),
# running the HostProbe `probe` (if given) before each plain process, and
# returns one iteration record per mode:
#   wall_s        wall time of all its processes, interpreter starts included
#   samples       {part: [wall times]}; end-to-end wall_s is the sum over
#                 parts of each part's median over the run
#   setup_extra_s set-up done inside the timed processes (0 for the CLI)
#   peak_rss_kib  largest peak RSS of its processes
#   calls         [{cmd, wall_s, rc, spans}] one per process
#   ops, failed   operations attempted and failed (non-zero exit, failed check)
#   digests       {output name: sha256}
#   bytes_written total size of the files it wrote
#   checks        models.Checks; quality: {conservation_err, max_index_err}


class Workload:
    name = ""

    def __init__(self, seed, smoke):
        self.seed = seed
        self.smoke = smoke

    def prepare(self):
        """Generate and cache the inputs (set-up, never timed)."""


class CliWorkload(Workload):
    """A fixed sequence of CLI calls, each in a fresh `python -m binsa.cli`."""

    # so that no command's median rests on one sample
    min_iterations = 2
    # wall_s is scaled by a probe run before each CLI process
    probe_loop = True

    def commands(self, out):
        """[(command name, argv after `binsa`)] for one iteration."""
        raise NotImplementedError

    def check(self, out, checks):
        """Check the files in out; return {"conservation_err", "max_index_err"}."""
        raise NotImplementedError

    def iterate(self, work, log_dir, tag, modes, seconds, probe=None):
        """One iteration per mode (False: plain CLI, True: traced), run command
        by command so that a plain call and its traced twin are back to back;
        which of the two goes first alternates from command to command."""
        outs = {m: fresh_dir(os.path.join(work, "traced" if m else "plain")) for m in modes}
        todo = {m: self.commands(outs[m]) for m in modes}
        calls = {m: [] for m in modes}
        rss = dict.fromkeys(modes, 0)
        for k in range(len(todo[modes[0]])):
            for traced in modes if k % 2 == 0 else modes[::-1]:
                cmd, argv = todo[traced][k]
                name = f"{tag}-{'traced' if traced else 'plain'}-{cmd}"
                if traced:
                    spans = os.path.join(log_dir, name + ".spans.json")
                    prog = [sys.executable, CHILD, "cli", spans, "--"]
                else:
                    spans = None
                    prog = [sys.executable, "-m", "binsa.cli"]
                    if probe:
                        probe.run()
                wall, call_rss, rc, _ = run_process(prog + argv, log_dir, name)
                calls[traced].append({"cmd": cmd, "wall_s": wall, "rc": rc, "spans": spans})
                rss[traced] = max(rss[traced], call_rss)
        return [self.record(outs[m], calls[m], rss[m]) for m in modes]

    def record(self, out, calls, rss):
        checks = models.Checks()
        bad = [f"{c['cmd']} exit {c['rc']}" for c in calls if c["rc"] != 0]
        checks.record("exit_codes", not bad, ", ".join(bad) or "all 0")
        quality = None if bad else self.check(out, checks)
        wall = sum(c["wall_s"] for c in calls)
        return {
            "wall_s": wall, "samples": {c["cmd"]: [c["wall_s"]] for c in calls},
            "setup_extra_s": 0.0, "peak_rss_kib": rss,
            "calls": calls, "ops": len(calls), "failed": 0 if checks.ok else len(calls),
            "digests": digest_dir(out),
            "bytes_written": sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)),
            "checks": checks, "quality": quality,
        }


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        # scenario colors start with '#', so skip only the metadata line
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("# meta ")))


def check_report(path, first, checks, name):
    report = read_json(path)
    err = checks.near(name, report["first_order"], first, models.index_tolerance(
        report["metadata"]["rows"]))
    return err, abs(report["conservation_sum"] - 1.0)


def check_scenarios(path, checks, name):
    rows = read_csv_rows(path)
    total = sum(float(r["probability"]) for r in rows)
    checks.record(name, abs(total - 1.0) <= 1e-9 and len(rows) >= 2,
                  f"{len(rows)} scenarios, probabilities sum to {total!r}")


class CliTour(CliWorkload):
    """The README CLI flow on built-in models, at 1e5 rows."""

    name = "cli_tour_1e5"

    @property
    def n(self):
        return 3000 if self.smoke else 100_000

    def commands(self, out):
        common = ["--n", str(self.n), "--seed", str(self.seed), "--out", out]
        data = os.path.join(out, "dataset.csv")
        return [
            ("sample", ["sample", "--model", "toy_portfolio"] + common),
            ("analyze", ["analyze", data, "--out", out]),
            ("simdec", ["simdec", data, "--out", out]),
            ("compare", ["compare", "--model", "ishigami"] + common),
            ("sweep", ["sweep-dependence", "--model", "two_factor_multiplicative"] + common),
        ]

    def check(self, out, checks):
        tol = models.index_tolerance(self.n)
        with open(os.path.join(out, "dataset.csv"), "rb") as fh:
            lines = fh.read().count(b"\n")
        checks.record("sample.rows", lines == self.n + 2, f"{lines} lines for {self.n} rows")
        toy_first, _, _ = models.toy_indices()
        toy_err, conservation = check_report(
            os.path.join(out, "report.json"), toy_first, checks, "analyze.first_order")
        check_scenarios(os.path.join(out, "scenarios.csv"), checks, "simdec.probabilities")
        compare = read_json(os.path.join(out, "compare.json"))
        ishigami = models.ishigami_indices()
        binning = {k: v["binning"] for k, v in compare["first_order"].items()}
        oracle = {k: v["oracle"] for k, v in compare["first_order"].items()}
        ish_err = checks.near("compare.binning_first_order", binning, ishigami, tol)
        # pick-freeze with the CLI's default 1500-point base sample
        checks.near("compare.oracle_first_order", oracle, ishigami, 0.1)
        rows = read_csv_rows(os.path.join(out, "sweep.csv"))
        checks.record("sweep.rows", len(rows) == 14 and all(r["status"] == "ok" for r in rows),
                      f"{len(rows)} rows")
        want = models.product_indices()
        sweep_err = 0.0
        for r in rows:
            if float(r["parameter"]) == 0.0:
                got = {k: float(r[k]) for k in want}
                sweep_err = max(sweep_err, checks.near(
                    f"sweep.independent_{r['dependence']}", got, want, tol))
        return {"conservation_err": conservation,
                "max_index_err": max(toy_err, ish_err, sweep_err)}


class WideApi(Workload):
    """binsa.analyze through the Python API on 12 inputs, no I/O.

    One worker process imports binsa, builds the Dataset and calls analyze
    until `seconds` are used (at least once); each call is one sample."""

    name = "wide_api_2e5"
    # one iteration is a worker that calls analyze until the budget is used
    min_iterations = 1
    # The probe follows process start and imports, not numpy work in a warm
    # process: scaling analyze calls by it widened their spread over ten
    # seeds on a 2-core shared Xeon VM (IQR/median 0.05 raw, 0.09 scaled).
    # wall_s here is not scaled.
    probe_loop = False

    @property
    def rows(self):
        return 5000 if self.smoke else 200_000

    def prepare(self):
        import numpy as np

        def make(tmp):
            with open(tmp, "wb") as fh:
                np.save(fh, models.wide_matrix(self.seed, self.rows))

        self.data = models.cached(
            os.path.join(DATA, "cache", self.name, f"seed{self.seed}-rows{self.rows}.npy"), make)

    def iterate(self, work, log_dir, tag, modes, seconds, probe=None):
        return [self.run_worker(log_dir, tag, traced, seconds) for traced in modes]

    def run_worker(self, log_dir, tag, traced, seconds):
        name = f"{tag}-{'traced' if traced else 'plain'}-api"
        spans = os.path.join(log_dir, name + ".spans.json") if traced else None
        argv = [sys.executable, CHILD, "api", self.data, repr(seconds)] + ([spans] if spans else [])
        wall, rss, rc, stdout = run_process(argv, log_dir, name)
        if rc != 0:
            raise BenchError(f"API worker exited {rc}, see {log_dir}")
        result = json.loads(stdout.strip().splitlines()[-1])
        checks = models.Checks()
        quality = self.check(result, checks)
        return {
            "wall_s": wall, "samples": {"analyze": result["calls"]},
            "setup_extra_s": result["dataset_s"],
            "peak_rss_kib": rss, "calls": [{"cmd": "api", "wall_s": wall, "rc": rc, "spans": spans}],
            "ops": len(result["calls"]), "failed": 0 if checks.ok else len(result["calls"]),
            "digests": {"report_arrays": result["digests"][0]}, "bytes_written": 0,
            "checks": checks, "quality": quality,
        }

    def check(self, result, checks):
        first, pairs = models.wide_indices()
        tol = models.index_tolerance(result["rows"])
        got = dict(enumerate(result["first_order"]))
        err = checks.near("analyze.first_order", got, dict(enumerate(first)), tol)
        got_pairs = {p: result["second_order"][p[0]][p[1]] for p in pairs}
        checks.near("analyze.true_pairs", got_pairs, pairs, tol + models.PAIR_BIAS_ALLOWANCE)
        checks.record("analyze.deterministic", len(result["digests"]) == 1,
                      f"{len(result['digests'])} distinct reports over {len(result['calls'])} calls")
        return {"conservation_err": abs(result["conservation_sum"] - 1.0), "max_index_err": err}


WORKLOADS = {w.name: w for w in (CliTour, WideApi)}


# ---------------------------------------------------------------- tracing


def layer_metrics(span_files):
    """Sum self times and counts over the processes of one traced iteration.

    Stops the benchmark if spans do not nest or if, per process, the self
    times do not add up to the traced wall time (import + main)."""
    m = defaultdict(float)
    for path in span_files:
        payload = read_json(path)
        spans = payload["spans"]
        m["cli.scipy_stats_loaded"] = max(m["cli.scipy_stats_loaded"], payload["scipy_stats_loaded"])
        below = defaultdict(float)
        for sid, parent, _, name, t0, t1, *_ in spans:
            if parent is not None:
                below[parent] += t1 - t0
        total_self = 0.0
        for sid, parent, _, name, t0, t1, rss0, rss1, counts in spans:
            self_s = (t1 - t0) - below[sid]
            if self_s < -1e-6:
                raise BenchError(f"{path}: spans under {name} outlast it")
            total_self += self_s
            m[SELF_METRIC[name]] += self_s
            counts = counts or {}
            if name == "io.read_dataset_csv":
                m["read_bytes"] += counts["bytes"]
                m["io.read_rss_delta_mb"] = max(m["io.read_rss_delta_mb"], (rss1 - rss0) / 1024)
            elif name == "io.write_dataset_csv":
                m["write_bytes"] += counts["bytes"]
            elif name == "binning.analyze":
                m["binning.analyze_calls"] += 1
                m["binning.ratio_evals"] += counts["ratio_evals"]
                m["row_evals"] += counts["rows"] * counts["ratio_evals"]
            elif name == "benchmarks.evaluate":
                m["benchmarks.evaluations"] += counts["rows"]
            elif name == "oracle.estimate_sobol":
                m["oracle.evaluations"] += counts["evaluations"]
            elif name == "simdec.decompose":
                m["simdec.scenarios"] += counts["scenarios"]
            elif name.startswith("svg."):
                m["svg.bytes"] += counts["bytes"]
        wall = sum(t1 - t0 for _, parent, _, _, t0, t1, *_ in spans if parent is None)
        if abs(total_self - wall) > 1e-6 * max(1.0, wall):
            raise BenchError(f"{path}: self times add to {total_self}, traced wall is {wall}")

    def rate(num, den):
        return num / den if den else 0.0

    m["io.write_mb_per_s"] = rate(m.pop("write_bytes", 0.0) / MIB, m["io.write_dataset_s"])
    m["io.read_mb_per_s"] = rate(m.pop("read_bytes", 0.0) / MIB, m["io.read_dataset_s"])
    m["binning.row_evals_per_s"] = rate(m.pop("row_evals", 0.0), m["binning.analyze_s"])
    return m


# ---------------------------------------------------------------- runs


def median_process_wall(code, log_dir, tag, repeats=SETUP_REPEATS, probe=None):
    """Median wall time of fresh `python -c code` processes, each after a
    run of `probe` if given. For IMPORT_CODE, also checks that binsa is
    imported from this checkout's src/."""
    walls = []
    for i in range(repeats):
        if probe:
            probe.run()
        wall, _, rc, stdout = run_process([sys.executable, "-c", code], log_dir, f"{tag}{i}")
        if rc != 0 or (code == IMPORT_CODE
                       and not stdout.strip().startswith(os.path.join(SRC, "binsa"))):
            raise BenchError(f"`python -c {code!r}` failed: exit {rc}, output {stdout!r}")
        walls.append(wall)
    return median(walls)


def merge_checks(iterations):
    checks = models.Checks()
    for it in iterations:
        for name, r in it["checks"].results.items():
            checks.record(name, r["ok"], r["detail"])
    return checks


def last_quality(iterations):
    done = [it["quality"] for it in iterations if it["quality"] is not None]
    if not done:
        raise BenchError(f"no iteration succeeded: {iterations[-1]['checks'].results}")
    return done[-1]


def run_untraced(wl, seconds, log_dir, work):
    """End-to-end metrics, tracing off. Times are scaled to the reference
    host speed by the probes run around them (HostProbe): set-up by the
    probes run before each set-up import, wall_s by those run before each
    CLI process (not on the API, see WideApi.probe_loop). The raw times go
    to the detailed record."""
    setup_probe = HostProbe(log_dir, "setup-probe")
    import_s = median_process_wall(IMPORT_CODE, log_dir, "setup", probe=setup_probe)
    probe = HostProbe(log_dir, "probe") if wl.probe_loop else None
    its = time_loop(lambda i: wl.iterate(work, log_dir, f"it{i}", (False,), seconds, probe)[0],
                    seconds, wl.min_iterations)
    checks = merge_checks(its)
    checks.record("deterministic", all(it["digests"] == its[0]["digests"] for it in its),
                  f"{len(its)} iterations wrote identical files")
    quality = last_quality(its)
    ops = sum(it["ops"] for it in its)
    failed = sum(it["failed"] for it in its)
    parts = {part: [w for it in its for w in it["samples"][part]] for part in its[0]["samples"]}
    raw = {"wall_s": sum(median(walls) for walls in parts.values()),
           "setup_s": import_s + median(it["setup_extra_s"] for it in its),
           "setup_probe_s": median(setup_probe.walls), "setup_scale": setup_probe.scale,
           "probe_s": median(probe.walls) if probe else None,
           "scale": probe.scale if probe else 1.0}
    return {
        "checks": checks, "attempted": ops, "failed": failed,
        "digests": its[0]["digests"], "raw": raw,
        "iterations": [{"wall_s": it["wall_s"], "samples": it["samples"]} for it in its],
        "probe_walls": {"setup": setup_probe.walls, "loop": probe.walls if probe else []},
        "metrics": {
            "wall_s": raw["wall_s"] * raw["scale"],
            "setup_s": raw["setup_s"] * raw["setup_scale"],
            "peak_rss_mb": median(it["peak_rss_kib"] for it in its) / 1024,
            "conservation_err": quality["conservation_err"],
            "success_rate": 1.0 - failed / ops,
        },
    }


def run_traced(wl, seconds, log_dir, work):
    """Per-layer metrics: run each iteration plain and traced, in fresh
    processes, and split the traced one by span."""
    median_process_wall(IMPORT_CODE, log_dir, "import", 1)
    interp = median_process_wall("pass", log_dir, "pass")
    pairs = time_loop(lambda i: wl.iterate(work, log_dir, f"pair{i}", (False, True), 0), seconds)
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    checks = merge_checks(plain + traced)
    checks.record("traced_digests_match",
                  all(p["digests"] == t["digests"] for p, t in pairs),
                  "traced and untraced runs wrote identical files")
    per_iter = []
    for it in traced:
        m = layer_metrics([c["spans"] for c in it["calls"]])
        m["io.bytes_written"] = it["bytes_written"]
        per_iter.append(m)
    metrics = {name: median(m[name] for m in per_iter)
               for name in set(SELF_METRIC.values()) | set(COUNT_METRICS)}
    metrics["cli.interp_start_s"] = interp
    metrics["cli.trace_overhead_s"] = (median(it["wall_s"] for it in traced)
                                       - median(it["wall_s"] for it in plain))
    for cmd in COMMANDS:
        walls = [c["wall_s"] for it in plain for c in it["calls"] if c["cmd"] == cmd]
        metrics[f"cmd.{cmd}_s"] = median(walls) if walls else 0.0
    metrics["binning.max_index_err"] = last_quality(plain)["max_index_err"]
    ops = sum(it["ops"] for it in plain + traced)
    return {
        "checks": checks, "attempted": ops, "failed": sum(it["failed"] for it in plain + traced),
        "digests": plain[0]["digests"],
        "iterations": [{"plain_wall_s": p["wall_s"], "traced_wall_s": t["wall_s"]}
                       for p, t in pairs],
        "metrics": metrics,
    }


def provenance():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def declared_metrics(trace):
    spec = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(name, seed, seconds, trace, smoke):
    wl = WORKLOADS[name](seed, smoke)
    tag = f"{name}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    log_dir = fresh_dir(os.path.join(DATA, "logs", tag))
    work = os.path.join(DATA, "work", name)
    wl.prepare()
    load_before = os.getloadavg()[0]
    rec = (run_traced if trace else run_untraced)(wl, seconds, log_dir, work)
    load_after = os.getloadavg()[0]
    units = declared_metrics(trace)
    if set(rec["metrics"]) != set(units):
        raise BenchError(f"metrics {sorted(set(rec['metrics']) ^ set(units))} "
                         "differ from BENCHMARK.json")
    checks = rec["checks"]
    correct = checks.ok and rec["failed"] == 0
    metrics = {k: {"value": rec["metrics"][k], "unit": u} for k, u in units.items()}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "provenance": provenance() | {"load1_before": load_before, "load1_after": load_after},
        "checks": checks.results, "digests": rec["digests"],
        "iterations": rec["iterations"], "metrics": metrics,
        "raw": rec.get("raw"), "probe_walls": rec.get("probe_walls"),
    }
    os.makedirs(os.path.join(DATA, "results"), exist_ok=True)
    with open(os.path.join(DATA, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(f"# {name} seed={seed} trace={trace} load1 {load_before:.2f} -> {load_after:.2f}")
    print("# provenance " + json.dumps(detail["provenance"], sort_keys=True))
    for check, r in checks.results.items():
        print(f"# check {check}: {'ok' if r['ok'] else 'FAILED'} {r['detail']}")
    if "raw" in rec:
        raw = rec["raw"]
        loop = "none" if raw["probe_s"] is None else f"{raw['probe_s']:.4f} s"
        print(f"# host probe: median {raw['setup_probe_s']:.4f} s in set-up, {loop} in the "
              f"loop; scale setup_s by {raw['setup_scale']:.4f}, wall_s by {raw['scale']:.4f}; "
              f"raw setup_s {raw['setup_s']:.4f}, raw wall_s {raw['wall_s']:.4f}")
    for fname, sha in rec["digests"].items():
        print(f"# sha256 {fname} {sha}")
    for k, v in metrics.items():
        print(f"{name} {k} {v['value']:.6g} {v['unit']}")
    return {"correct": correct, "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=46.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs; checks only, no timing meaning")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "binsa", "__init__.py")):
        print(f"error: no binsa sources under {SRC}; run from a binsa checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_one(n, args.seed, args.seconds, args.trace, args.smoke) for n in names]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[0]
    else:
        result = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results),
                  "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
