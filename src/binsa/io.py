"""CSV/JSON ingestion and emission with canonical number formatting.

Floats are written with their shortest exact decimal representation, so a
write -> read -> write cycle is byte-stable. Lines starting with '#' carry
run metadata and are skipped on read.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .binning import conservation_check
from .core import Dataset, InputSpec, MarginalDistribution
from .sampling import DependencePlan, SamplingPlan
from .simdec import State, StateDefinition

__all__ = [
    "UserInputError",
    "StudyConfig",
    "fmt_number",
    "write_dataset_csv",
    "read_dataset_csv",
    "report_to_dict",
    "report_tables_csv",
    "scenario_table_csv",
    "load_config",
    "load_states_file",
]

SCHEMA_VERSION = 1


class UserInputError(ValueError):
    """Bad user input (file, config, CLI argument); exit code 2."""


def fmt_number(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _meta_line(metadata):
    return "# meta " + json.dumps(metadata, sort_keys=True) if metadata else None


def write_dataset_csv(path, dataset, metadata=None):
    """Write inputs plus a final 'output' column; categorical columns are
    written as level labels."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        meta = _meta_line(metadata)
        if meta:
            fh.write(meta + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(dataset.names) + ["output"])
        cats = {
            j: s.distribution.levels
            for j, s in enumerate(dataset.specs)
            if s.distribution.kind == "categorical"
        }
        for r in range(dataset.n_rows):
            row = []
            for j in range(dataset.n_inputs):
                v = dataset.inputs[r, j]
                row.append(cats[j][int(v)] if j in cats else fmt_number(v))
            row.append(fmt_number(dataset.output[r]))
            writer.writerow(row)


def read_dataset_csv(path, specs=None):
    """Read a dataset CSV; the last column is the output.

    Without specs, every input column is treated as uniform over its observed
    range (binning only needs the values themselves).
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("".join(lines)))
    try:
        header = next(reader)
    except StopIteration:
        raise UserInputError(f"{path}: empty file") from None
    if len(header) < 2:
        raise UserInputError(f"{path}: need at least one input column and one output column")
    names = header[:-1]
    level_maps = {}
    if specs is not None:
        if [s.name for s in specs] != names:
            raise UserInputError(f"{path}: header does not match the provided input specs")
        for j, s in enumerate(specs):
            if s.distribution.kind == "categorical":
                level_maps[j] = {lvl: float(i) for i, lvl in enumerate(s.distribution.levels)}
    rows = []
    for r, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise UserInputError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        vals = []
        for c, cell in enumerate(row):
            if c in level_maps:
                if cell not in level_maps[c]:
                    raise UserInputError(
                        f"{path}: row {r}, column {header[c]!r}: unknown level {cell!r}"
                    )
                vals.append(level_maps[c][cell])
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise UserInputError(
                    f"{path}: row {r}, column {header[c]!r}: non-numeric cell {cell!r}"
                ) from None
        rows.append(vals)
    if len(rows) < 2:
        raise UserInputError(f"{path}: need at least 2 data rows")
    data = np.asarray(rows, dtype=float)
    inputs, output = data[:, :-1], data[:, -1]
    if specs is None:
        specs = []
        for j, name in enumerate(names):
            lo, hi = float(inputs[:, j].min()), float(inputs[:, j].max())
            if lo == hi:
                hi = lo + 1.0
            specs.append(InputSpec(name=name, distribution=MarginalDistribution.uniform(lo, hi)))
        specs = tuple(specs)
    return Dataset(inputs=inputs, output=output, specs=specs)


def report_to_dict(report, metadata=None):
    names = list(report.names)
    upper = {}
    k = len(names)
    for i in range(k):
        for j in range(i + 1, k):
            upper[f"{names[i]}*{names[j]}"] = report.second_order[i, j]
    return {
        "schema_version": SCHEMA_VERSION,
        "first_order": dict(zip(names, report.first_order.tolist())),
        "second_order": upper,
        "combined": dict(zip(names, report.combined.tolist())),
        "var_y": report.var_y,
        "n_bins_first": report.n_bins_first,
        "n_bins_second_per_dim": report.n_bins_second_per_dim,
        "conservation_sum": conservation_check(report),
        "warnings": list(report.warnings),
        "metadata": metadata or {},
    }


def table_csv(rows, metadata=None):
    """CSV text of rows (lists of cells), after a '# meta' line if metadata."""
    out = io.StringIO()
    meta = _meta_line(metadata)
    if meta:
        out.write(meta + "\n")
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def report_tables_csv(report, metadata=None):
    """First-order row plus upper-triangle second-order matrix as CSV text."""
    names = list(report.names)
    rows = [
        [""] + names,
        ["first_order"] + [fmt_number(v) for v in report.first_order],
        [],
        ["second_order"] + names,
    ]
    for i, name in enumerate(names):
        row = [name]
        for j in range(len(names)):
            row.append(fmt_number(report.second_order[i, j]) if j > i else "")
        rows.append(row)
    rows += [[], ["combined"] + [fmt_number(v) for v in report.combined]]
    return table_csv(rows, metadata)


def scenario_table_csv(decomposition, input_names, metadata=None):
    """Scenario summary: color, states, min/mean/max and probability."""
    state_cols = [input_names[i] for i in decomposition.selected]
    rows = [["color", "scenario"] + state_cols + ["min", "mean", "max", "probability"]]
    for sc in decomposition.scenarios:
        stats = ["", "", ""] if sc.count == 0 else [
            fmt_number(sc.y_min),
            fmt_number(sc.y_mean),
            fmt_number(sc.y_max),
        ]
        rows.append(
            [sc.color, sc.scenario_id] + list(sc.state_labels) + stats + [fmt_number(sc.probability)]
        )
    return table_csv(rows, metadata)


@dataclass(frozen=True)
class StudyConfig:
    """A full study: either a built-in model or an external dataset."""

    model: str | None = None
    model_params: dict = field(default_factory=dict)
    law: str = "normal"
    dataset_path: str | None = None
    sampling: SamplingPlan = SamplingPlan(method="QMC", n=1000, seed=0)
    dependence: tuple = ()
    n_bins_first: int | None = None
    n_bins_second_per_dim: int | None = None
    simdec_max_inputs: int = 3
    simdec_cum_threshold: float = 0.8
    n_output_bins: int = 100
    oracle_n: int = 1500
    oracle_sampler: str = "QMC"
    sweep_grid: tuple = (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75)
    out_dir: str = "."

    def __post_init__(self):
        if (self.model is None) == (self.dataset_path is None):
            raise UserInputError("config must set exactly one of model or dataset")


def _parse_dependence(items):
    plans = []
    for d in items:
        kind = d.get("kind")
        pair = tuple(d.get("pair", ()))
        if kind == "copula":
            plans.append(DependencePlan(kind="copula", pair=pair, rho=float(d.get("rho", 0.0))))
        elif kind == "equal_portion":
            plans.append(
                DependencePlan(
                    kind="equal_portion",
                    pair=pair,
                    fraction=float(d.get("fraction", 0.0)),
                    sign=d.get("sign", "positive"),
                )
            )
        else:
            raise UserInputError(f"unknown dependence kind {kind!r}")
    return tuple(plans)


def load_config(path, overrides=None):
    """Read a study config JSON file and apply CLI flag overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UserInputError(f"cannot read config {path}: {exc}") from None
    return config_from_dict(raw, overrides)


def config_from_dict(raw, overrides=None):
    overrides = overrides or {}
    model = raw.get("model")
    model_params = {}
    if isinstance(model, dict):
        model_params = {k: v for k, v in model.items() if k != "name"}
        model = model.get("name")
    sampling_raw = dict(raw.get("sampling", {}))
    binning_raw = dict(raw.get("binning", {}))
    simdec_raw = dict(raw.get("simdec", {}))
    oracle_raw = dict(raw.get("oracle", {}))
    if "seed" in overrides and overrides["seed"] is not None:
        sampling_raw["seed"] = overrides["seed"]
    elif "seed" in raw:
        sampling_raw.setdefault("seed", raw["seed"])
    if overrides.get("n") is not None:
        sampling_raw["n"] = overrides["n"]
    if overrides.get("sampler") is not None:
        sampling_raw["method"] = overrides["sampler"].upper()
    if overrides.get("bins") is not None:
        binning_raw["n_bins_first"] = overrides["bins"]
    out_dir = overrides.get("out") or raw.get("out", ".")
    try:
        plan = SamplingPlan(
            method=sampling_raw.get("method", "QMC").upper(),
            n=int(sampling_raw.get("n", 1000)),
            seed=int(sampling_raw.get("seed", 0)),
            scramble=bool(sampling_raw.get("scramble", True)),
        )
        dependence = _parse_dependence(raw.get("dependence", []))
        return StudyConfig(
            model=model,
            model_params=model_params,
            law=raw.get("law", "normal"),
            dataset_path=raw.get("dataset"),
            sampling=plan,
            dependence=dependence,
            n_bins_first=binning_raw.get("n_bins_first"),
            n_bins_second_per_dim=binning_raw.get("n_bins_second_per_dim"),
            simdec_max_inputs=int(simdec_raw.get("max_inputs", 3)),
            simdec_cum_threshold=float(simdec_raw.get("cum_threshold", 0.8)),
            n_output_bins=int(simdec_raw.get("n_output_bins", 100)),
            oracle_n=int(oracle_raw.get("n", 1500)),
            oracle_sampler=oracle_raw.get("sampler", "QMC").upper(),
            sweep_grid=tuple(raw.get("sweep_grid", (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75))),
            out_dir=out_dir,
        )
    except UserInputError:
        raise
    except (TypeError, ValueError) as exc:
        raise UserInputError(f"invalid config: {exc}") from None


def load_states_file(path, dataset):
    """Parse a states JSON file into state definitions keyed to dataset columns.

    Format: [{"input": name, "states": [{"name": "Low", "min": a, "max": b},
    ...]}, ...]. Categorical states use {"name": ..., "levels": [...]}.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UserInputError(f"cannot read states file {path}: {exc}") from None
    names = list(dataset.names)
    defs = []
    for entry in raw:
        name = entry.get("input")
        if name not in names:
            raise UserInputError(f"states file references unknown column {name!r}")
        idx = names.index(name)
        spec = dataset.specs[idx]
        states = []
        for st in entry.get("states", []):
            if "levels" in st:
                levels = st["levels"]
                level_idx = []
                for lvl in levels:
                    if lvl not in spec.distribution.levels:
                        raise UserInputError(
                            f"states file: unknown level {lvl!r} for column {name!r}"
                        )
                    level_idx.append(spec.distribution.levels.index(lvl))
                states.append(State(label=st.get("name", ",".join(map(str, levels))),
                                    levels=tuple(level_idx)))
            else:
                states.append(
                    State(label=st.get("name", ""), lo=float(st["min"]), hi=float(st["max"]))
                )
        if len(states) < 2:
            raise UserInputError(f"states file: column {name!r} needs at least 2 states")
        defs.append(StateDefinition(input_index=idx, states=tuple(states)))
    if not defs:
        raise UserInputError("states file defines no inputs")
    return tuple(defs)
