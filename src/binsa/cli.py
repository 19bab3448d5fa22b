"""Command-line entry points: sample, analyze, simdec, compare, sweep-dependence.

Exit codes: 0 success, 1 internal/numeric failure, 2 user-input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .benchmarks import default_specs, evaluate, get_model
from .binning import analyze, conservation_check
from .core import Dataset, _centred, _correlation, _mid_ranks
from .io import (
    SCHEMA_VERSION,
    UserInputError,
    config_from_dict,
    fmt_number,
    load_config,
    load_states_file,
    read_dataset_csv,
    report_tables_csv,
    report_to_dict,
    scenario_table_csv,
    table_csv,
    write_dataset_csv,
)
from .oracle import estimate_sobol
from .sampling import (
    DependencePlan,
    _apply_dependence,
    _copula_score,
    dependence_seed,
    sample_inputs,
)
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


def _model(name, params):
    """get_model, with an unknown name or bad parameter as a user-input error."""
    try:
        return get_model(name, **params)
    except ValueError as exc:
        raise UserInputError(str(exc)) from None


def _sample(config, specs, dependence):
    """sample_inputs, with a dependence pair that the inputs cannot take as
    a user-input error."""
    k = len(specs)
    for i, dep in enumerate(dependence):
        for j in dep.pair:
            if not 0 <= j < k:
                raise UserInputError(
                    f"dependence[{i}].pair names input {j}; the inputs are 0..{k - 1}"
                )
            if specs[j].distribution.kind != "uniform":
                raise UserInputError(
                    f"dependence[{i}].pair names input {j} ({specs[j].name!r}), which is not "
                    "uniform; dependence needs uniform marginals"
                )
    return sample_inputs(config.sampling, specs, dependence=dependence)


def _build_dataset(config):
    model = _model(config.model, config.model_params)
    specs = default_specs(model, law=config.law)
    matrix = _sample(config, specs, config.dependence)
    output = evaluate(model, matrix)
    return Dataset(inputs=matrix, output=output, specs=specs), model


def _load_or_build(config):
    if config.dataset_path is not None:
        return read_dataset_csv(config.dataset_path)
    return _build_dataset(config)[0]


def _report(config, dataset, command):
    """The sensitivity report of a dataset: every command's one way to analyze."""
    if dataset.n_rows < 100:
        raise UserInputError(f"{command} requires at least 100 rows")
    try:
        return analyze(dataset, config.binning)
    except ValueError as exc:  # a fault of the data or of the bin counts
        where = "" if config.dataset_path is None else f"{config.dataset_path}: "
        raise UserInputError(f"{where}{exc}") from None


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_sample(config):
    if config.model is None:
        raise UserInputError("sample requires a model")
    dataset, _ = _build_dataset(config)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "dataset.csv")
    write_dataset_csv(path, dataset, metadata=_metadata(config))
    print(path)
    return 0


def cmd_analyze(config):
    dataset = _load_or_build(config)
    report = _report(config, dataset, "analyze")
    os.makedirs(config.out_dir, exist_ok=True)
    meta = _metadata(config, {"rows": dataset.n_rows})
    report_dict = report_to_dict(report, metadata=meta)
    _write(
        os.path.join(config.out_dir, "report.json"),
        json.dumps(report_dict, indent=2, sort_keys=True) + "\n",
    )
    _write(os.path.join(config.out_dir, "report_tables.csv"), report_tables_csv(report, meta))
    chart = bar_chart(
        list(report.names),
        report.combined.tolist(),
        title="combined sensitivity indices",
        metadata=json.dumps(meta, sort_keys=True),
    )
    _write(os.path.join(config.out_dir, "combined_indices.svg"), chart)
    print(os.path.join(config.out_dir, "report.json"))
    return 0


def cmd_simdec(config, states_path=None):
    dataset = _load_or_build(config)
    report = _report(config, dataset, "simdec")
    if states_path is not None:
        states = load_states_file(states_path, dataset)
    else:
        selected = select_inputs(
            report,
            max_inputs=config.simdec_max_inputs,
            cum_threshold=config.simdec_cum_threshold,
        )
        states = default_states(dataset, selected)
    deco = decompose(dataset, states, n_output_bins=config.n_output_bins)
    os.makedirs(config.out_dir, exist_ok=True)
    meta = _metadata(config, {"rows": dataset.n_rows})
    _write(
        os.path.join(config.out_dir, "scenarios.csv"),
        scenario_table_csv(deco, dataset.names, metadata=meta),
    )
    legend = [f"{sc.scenario_id} " + "/".join(sc.state_labels) for sc in deco.scenarios]
    chart = stacked_histogram(
        deco.histogram_edges.tolist(),
        deco.stacked_counts.tolist(),
        [sc.color for sc in deco.scenarios],
        legend,
        title="simulation decomposition",
        metadata=json.dumps(meta, sort_keys=True),
    )
    _write(os.path.join(config.out_dir, "simdec.svg"), chart)
    print(os.path.join(config.out_dir, "scenarios.csv"))
    return 0


def cmd_compare(config):
    if config.model is None:
        raise UserInputError("compare requires a model-based config")
    if config.dependence:
        raise UserInputError("oracle requires independent inputs")
    dataset, model = _build_dataset(config)
    report = _report(config, dataset, "compare")
    oracle = estimate_sobol(model, dataset.specs, config.oracle_n, seed=config.sampling.seed,
                            sampler=config.oracle_sampler)
    names = list(report.names)
    first = {}
    for i, name in enumerate(names):
        b = float(report.first_order[i])
        o = float(oracle.first_order[i])
        first[name] = {"binning": b, "oracle": o, "delta": b - o}
    second = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            b = float(report.second_order[i, j])
            o = float(oracle.second_order[i, j])
            second[f"{names[i]}*{names[j]}"] = {"binning": b, "oracle": o, "delta": b - o}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "first_order": first,
        "second_order": second,
        "binning_evaluations": dataset.n_rows,
        "oracle_evaluations": oracle.n_evaluations,
        "metadata": _metadata(config),
    }
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "compare.json")
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


def cmd_sweep_dependence(config):
    if config.model not in ("two_factor_additive", "two_factor_multiplicative"):
        raise UserInputError("sweep-dependence requires a two-factor model")
    if config.dependence:
        raise UserInputError(
            "sweep-dependence builds its own dependence plans over sweep_grid; "
            "remove the config's dependence list"
        )
    rows = [
        [
            "model",
            "dependence",
            "parameter",
            "pearson",
            "spearman",
            "S_A",
            "S_B",
            "S_AB",
            "sum",
            "status",
        ]
    ]
    model = _model(config.model, config.model_params)
    specs = default_specs(model)
    # every grid value perturbs the same design, as sample_inputs would
    # with that value's plan as its only dependence; so column a, and all
    # that pearson, spearman and the copula compute of it, is the same for
    # every value and is computed once
    design = _sample(config, specs, ())
    seed = dependence_seed(config.sampling.seed, 0)
    a = design[:, 0]
    a_centred = _centred(a)
    a_ranks = _centred(_mid_ranks(a))
    a_score = _copula_score(a, specs[0].distribution)
    for kind in ("copula", "equal_portion"):
        for value in config.sweep_grid:
            if kind == "copula":
                plan = DependencePlan(kind="copula", pair=(0, 1), rho=value)
            else:
                plan = DependencePlan(
                    kind="equal_portion",
                    pair=(0, 1),
                    fraction=abs(value),
                    sign="negative" if value < 0 else "positive",
                )
            matrix = _apply_dependence(design, specs, plan, seed, a_score)
            output = evaluate(model, matrix)
            b = matrix[:, 1]
            if output.max() == output.min():
                rows.append([config.model, kind, fmt_number(value)] + [""] * 6 + ["degenerate"])
                continue
            dataset = Dataset(inputs=matrix, output=output, specs=specs)
            report = _report(config, dataset, "sweep-dependence")
            rows.append(
                [
                    config.model,
                    kind,
                    fmt_number(value),
                    fmt_number(_correlation(a_centred, _centred(b))),
                    fmt_number(_correlation(a_ranks, _centred(_mid_ranks(b)))),
                    fmt_number(report.first_order[0]),
                    fmt_number(report.first_order[1]),
                    fmt_number(report.second_order[0, 1]),
                    fmt_number(conservation_check(report)),
                    "ok",
                ]
            )
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "sweep.csv")
    _write(path, table_csv(rows, _metadata(config)))
    print(path)
    return 0


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
        if args.command == "sample":
            return cmd_sample(config)
        if args.command == "analyze":
            return cmd_analyze(config)
        if args.command == "simdec":
            return cmd_simdec(config, states_path=args.states)
        if args.command == "compare":
            return cmd_compare(config)
        return cmd_sweep_dependence(config)
    except UserInputError as exc:
        _report_error(exc, args.json_errors, _EXIT_USER)
        return _EXIT_USER
    except Exception as exc:  # numeric/internal failures
        _report_error(exc, args.json_errors, _EXIT_FAILURE)
        return _EXIT_FAILURE


def _report_error(exc, as_json, code):
    if as_json:
        print(json.dumps({"error": str(exc), "exit_code": code}), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
