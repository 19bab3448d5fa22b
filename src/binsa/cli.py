"""Command-line entry points: sample, analyze, simdec, compare, sweep-dependence.

Exit codes: 0 success, 1 internal/numeric failure, 2 user-input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import __version__
from .benchmarks import evaluate
from .binning import analyze, conservation_check
from .core import Dataset
from .io import (
    SCHEMA_VERSION,
    UserInputError,
    config_from_dict,
    fmt_number,
    load_config,
    load_states_file,
    named_indices,
    read_dataset_csv,
    report_tables_csv,
    report_to_dict,
    scenario_table_csv,
    table_csv,
    write_dataset_csv,
)
from .oracle import estimate_sobol
from .sampling import sample_inputs, sweep_dependence
from .simdec import decompose, default_states, select_inputs
from .svg import bar_chart, stacked_histogram

_EXIT_FAILURE = 1
_EXIT_USER = 2


def _metadata(config, extra=None):
    """The outputs' metadata; the sampling keys only for data sampled here."""
    meta = {"tool": "binsa", "version": __version__}
    if config.dataset_path is None:
        meta.update(seed=config.sampling.seed, n=config.sampling.n, sampler=config.sampling.method)
    meta.update(extra or {})
    return meta


@contextlib.contextmanager
def _allocating(key, n):
    """A MemoryError of a draw of n, which key sets, as a user-input error
    naming key."""
    try:
        yield
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        raise UserInputError(f"{key} is {n}, more than this host can allocate{detail}") from None


def _load_or_build(config, args):
    if config.dataset_path is not None:
        return read_dataset_csv(config.dataset_path)
    with _allocating("sampling.n" if args.n is None else "--n", config.sampling.n):
        matrix = sample_inputs(config.sampling, config.specs, dependence=config.dependence)
        return Dataset(inputs=matrix, output=evaluate(config.model, matrix), specs=config.specs)


@contextlib.contextmanager
def _analysis(config, n_rows, command):
    """Every command's one way to analyze: fewer than 100 rows, and a
    ValueError of the data or of the bin counts, or a MemoryError of a bin
    count the host cannot allocate, are user-input errors. A UserInputError,
    which names its own location, passes as it is."""
    if n_rows < 100:
        raise UserInputError(f"{command} requires at least 100 rows")
    try:
        yield
    except UserInputError:
        raise
    except (ValueError, MemoryError) as exc:
        where = "" if config.dataset_path is None else f"{config.dataset_path}: "
        raise UserInputError(f"{where}{exc}") from None


def _report(config, dataset, command):
    with _analysis(config, dataset.n_rows, command):
        return analyze(dataset, config.binning)


def _json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _out_dir(config, args):
    """The output directory, made if it is not there. A directory that
    cannot be made is a user-input error naming --out, or the config's out
    key."""
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        key = "out" if args.out is None else "--out"
        raise UserInputError(
            f"{key} must name a directory, got {config.out_dir!r}: {exc.strerror}"
        ) from None
    return config.out_dir


def _save(config, args, files):
    """Write a command's files, {name: text or Dataset}, each built before
    any is written, into the output directory; the path of the first. All or
    nothing: if a write fails or is interrupted, each file this call opened
    is removed and the error raised as it came. A path that could not be
    opened, such as a directory in the way, is left alone."""
    out = _out_dir(config, args)
    opened = []
    try:
        for name, value in files.items():
            path = os.path.join(out, name)
            # opened here even for a dataset: only an opened path is removed
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                opened.append(path)
                # str, not Dataset: bench/child.py's tracer replaces
                # binsa.cli.Dataset with a function
                if isinstance(value, str):
                    fh.write(value)
                else:
                    write_dataset_csv(path, value, metadata=_metadata(config))
    except BaseException:
        for path in opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    return opened[0]


def cmd_sample(config, args):
    if config.model is None:
        raise UserInputError("sample requires a model")
    # before the draw: an --out that cannot be a directory costs no sample
    _out_dir(config, args)
    return {"dataset.csv": _load_or_build(config, args)}


def cmd_analyze(config, args):
    dataset = _load_or_build(config, args)
    report = _report(config, dataset, "analyze")
    meta = _metadata(config, {"rows": dataset.n_rows})
    return {
        "report.json": _json(report_to_dict(report, metadata=meta)),
        "report_tables.csv": report_tables_csv(report, meta),
        "combined_indices.svg": bar_chart(list(report.names), report.combined.tolist(),
                                          title="combined sensitivity indices",
                                          metadata=json.dumps(meta, sort_keys=True)),
    }


def cmd_simdec(config, args):
    dataset = _load_or_build(config, args)
    with _analysis(config, dataset.n_rows, "simdec"):
        report = analyze(dataset, config.binning)
        if args.states is not None:
            states = load_states_file(args.states, dataset)
        else:
            selected = select_inputs(report, config.simdec_max_inputs,
                                     config.simdec_cum_threshold)
            states = default_states(dataset, selected)
        deco = decompose(dataset, states, n_output_bins=config.n_output_bins)
    meta = _metadata(config, {"rows": dataset.n_rows})
    legend = [f"{sc.scenario_id} " + "/".join(sc.state_labels) for sc in deco.scenarios]
    return {
        "scenarios.csv": scenario_table_csv(deco, dataset.names, metadata=meta),
        "simdec.svg": stacked_histogram(deco.histogram_edges.tolist(), deco.stacked_counts.tolist(),
                                        [sc.color for sc in deco.scenarios], legend,
                                        title="simulation decomposition",
                                        metadata=json.dumps(meta, sort_keys=True)),
    }


def cmd_compare(config, args):
    if config.model is None:
        raise UserInputError("compare requires a model-based config")
    if config.dependence:
        raise UserInputError("oracle requires independent inputs")
    dataset = _load_or_build(config, args)
    report = _report(config, dataset, "compare")
    with _allocating("oracle.n", config.oracle_n):
        oracle = estimate_sobol(config.model, config.specs, config.oracle_n,
                                seed=config.sampling.seed, sampler=config.oracle_sampler)
    first, second = (
        {key: {"binning": b, "oracle": theirs[key], "delta": b - theirs[key]} for key, b in ours.items()}
        for ours, theirs in zip(named_indices(report), named_indices(oracle))
    )
    return {"compare.json": _json({
        "schema_version": SCHEMA_VERSION,
        "first_order": first,
        "second_order": second,
        "binning_evaluations": dataset.n_rows,
        "oracle_evaluations": oracle.n_evaluations,
        "metadata": _metadata(config),
    })}


def cmd_sweep_dependence(config, args):
    if config.model is None or config.model.name not in ("two_factor_additive",
                                                          "two_factor_multiplicative"):
        raise UserInputError("sweep-dependence requires a two-factor model")
    if config.dependence:
        raise UserInputError(
            "sweep-dependence builds its own dependence plans over sweep_grid; "
            "remove the config's dependence list"
        )
    # FFD on two inputs draws floor(sqrt(n))**2 rows, at least 100 exactly
    # when n is
    with _analysis(config, config.sampling.n, "sweep-dependence"):
        sweep = sweep_dependence(config.model, config.specs, config.sampling, config.sweep_grid,
                                 config.binning)
    rows = [["model", "dependence", "parameter", "pearson", "spearman", "S_A", "S_B", "S_AB",
             "sum", "status"]]
    for kind, value, r_pearson, r_spearman, report in sweep:
        row = [config.model.name, kind, fmt_number(value)]
        if report is None:
            rows.append(row + [""] * 6 + ["degenerate"])
        else:
            values = (r_pearson, r_spearman, report.first_order[0], report.first_order[1],
                      report.second_order[0, 1], conservation_check(report))
            rows.append(row + [fmt_number(v) for v in values] + ["ok"])
    return {"sweep.csv": table_csv(rows, _metadata(config))}


_COMMANDS = {
    "sample": cmd_sample,
    "analyze": cmd_analyze,
    "simdec": cmd_simdec,
    "compare": cmd_compare,
    "sweep-dependence": cmd_sweep_dependence,
}


def _parser():
    p = argparse.ArgumentParser(prog="binsa", description=__doc__)
    p.add_argument("--json-errors", action="store_true", help="emit errors as JSON on stderr")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, dataset_arg=False):
        if dataset_arg:
            sp.add_argument("dataset", nargs="?", help="dataset CSV path")
        sp.add_argument("--config", help="study config JSON path")
        sp.add_argument("--model", help="built-in model name")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--n", type=int)
        sp.add_argument("--sampler", choices=["mc", "qmc", "ffd"])
        sp.add_argument("--bins", type=int)
        sp.add_argument("--out", default=None, help="output directory")

    common(sub.add_parser("sample", help="generate a dataset CSV from a model"))
    common(sub.add_parser("analyze", help="sensitivity report from a dataset"), dataset_arg=True)
    sp = sub.add_parser("simdec", help="scenario decomposition of a dataset")
    common(sp, dataset_arg=True)
    sp.add_argument("--states", help="states JSON file")
    common(sub.add_parser("compare", help="binning vs pick-freeze oracle"))
    common(sub.add_parser("sweep-dependence", help="index behavior across a correlation grid"))
    return p


def _config_from_args(args):
    # config_from_dict reads the flags that override config keys from these
    overrides = vars(args)
    if not any(overrides.get(key) for key in ("config", "dataset", "model")):
        raise UserInputError("provide a dataset path, --model, or --config")
    return load_config(args.config, overrides) if args.config else config_from_dict({}, overrides)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        print(_save(config, args, _COMMANDS[args.command](config, args)))
        return 0
    except UserInputError as exc:
        _report_error(exc, args.json_errors, _EXIT_USER)
        return _EXIT_USER
    except Exception as exc:  # numeric/internal failures
        _report_error(exc, args.json_errors, _EXIT_FAILURE)
        return _EXIT_FAILURE


def _report_error(exc, as_json, code):
    """The error's one line on stderr, if stderr can take it: sys.stderr is
    None when its descriptor was closed at start-up, and a write raises
    OSError where the descriptor is not open for writing. Either way the
    exit code stays the error's, and nothing goes to stdout."""
    line = json.dumps({"error": str(exc), "exit_code": code}) if as_json else f"error: {exc}"
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)


def run():
    """The `binsa` script: main on sys.argv, then the end of the process.

    main has closed every file it wrote and joined every thread it started
    when it returns, so once stdout and stderr are flushed the process ends
    with os._exit and main's code, skipping the interpreter's teardown
    (unloading some 230 modules, numpy's and OpenBLAS's finalizers). atexit
    handlers do not run. argparse's exit (a usage error, --help) keeps its
    code. A flush that fails, as on a closed pipe, is an internal failure.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse exits with an int
        code = exc.code
    # a stream is None when its file descriptor was closed at start-up
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = _EXIT_FAILURE
        _report_error(exc, False, code)
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
