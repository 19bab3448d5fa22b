"""CSV/JSON ingestion and emission with canonical number formatting.

Floats are written with their shortest exact decimal representation, so a
write -> read -> write cycle is byte-stable. Lines starting with '#' carry
run metadata and are skipped on read.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .binning import BinningConfig, conservation_check
from .core import Dataset, InputSpec, MarginalDistribution, column_major
from .sampling import MAX_SOBOL_POINTS, DependencePlan, SamplingPlan
from .simdec import _HUES, State, StateDefinition, _state_of

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
_ROWS_PER_WRITE = 2048
_SCAN_BYTES = 1 << 20


class UserInputError(ValueError):
    """Bad user input (file, config, CLI argument); exit code 2."""


def fmt_number(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _meta_line(metadata):
    return "# meta " + json.dumps(metadata, sort_keys=True) if metadata else None


def _csv_cell(text):
    """text as csv.writer writes it as one cell of a row of several."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text, ""])
    return out.getvalue()[:-2]


def _label_cells(levels):
    """The cells of a categorical column's level labels, as csv.writer
    writes them, as rows of a byte matrix and the mask of each row's bytes."""
    cells = [_csv_cell(lv).encode("utf-8") for lv in levels]
    lengths = np.array([len(cell) for cell in cells])
    chars = np.zeros((len(cells), lengths.max()), dtype=np.uint8)
    for i, cell in enumerate(cells):
        chars[i, :len(cell)] = np.frombuffer(cell, dtype=np.uint8)
    return chars, np.arange(lengths.max()) < lengths[:, None]


def write_dataset_csv(path, dataset, metadata=None):
    """Write inputs plus a final 'output' column; categorical columns are
    written as level labels.

    Numbers are written as repr(float), fmt_number's shortest round-trip
    form, which never needs quoting; each level label is quoted once, as
    csv.writer quotes it. Each block of _ROWS_PER_WRITE rows is laid out as
    one byte matrix, a fixed-width slot per cell and a separator after it:
    the numbers from _repr.repr_bytes, the labels from a per-column table.
    The bytes that each slot's mask keeps are written out, so no cell
    becomes a Python string.
    """
    # imported here, not with binsa: compiling the formatter is most of its
    # import time, and only a dataset write needs it
    from . import _repr

    labels = {
        j: _label_cells(s.distribution.levels)
        for j, s in enumerate(dataset.specs)
        if s.distribution.kind == "categorical"
    }
    k = len(dataset.specs) + 1
    slot = max([_repr.WIDTH] + [chars.shape[1] for chars, _ in labels.values()])
    separators = np.full(k, ord(","), dtype=np.uint8)
    separators[-1] = ord("\n")
    head = io.StringIO()
    meta = _meta_line(metadata)
    if meta:
        head.write(meta + "\n")
    csv.writer(head, lineterminator="\n").writerow(list(dataset.names) + ["output"])
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode("utf-8"))
        for start in range(0, dataset.n_rows, _ROWS_PER_WRITE):
            block = slice(start, start + _ROWS_PER_WRITE)
            values = np.column_stack([dataset.inputs[block], dataset.output[block]])
            rows = values.shape[0]
            chars, keep = _repr.repr_bytes(values, width=slot + 1)
            chars, keep = chars.reshape(rows, k, slot + 1), keep.reshape(rows, k, slot + 1)
            for j, (label_chars, label_keep) in labels.items():
                codes = values[:, j].astype(np.intp)
                width = label_chars.shape[1]
                chars[:, j, :width] = label_chars[codes]
                keep[:, j, :width] = label_keep[codes]
                keep[:, j, width:] = False
            chars[:, :, slot] = separators
            keep[:, :, slot] = True
            fh.write(np.compress(keep.ravel(), chars.ravel()))


# Whitespace that np.loadtxt strips around a number and float() does not.
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _plain_utf8(path):
    """Whether the file holds none of _LOADTXT_ONLY_SPACE and every '#' in
    it starts a line, so that np.loadtxt's comment stripping drops exactly
    the '#' lines.

    The file is read as bytes in _SCAN_BYTES chunks and decoded on the way,
    so a file that is not UTF-8 raises UnicodeDecodeError here, before any
    of it is parsed, as it did when the reader decoded the whole file first.
    A line starts after "\n" or "\r", as the reader opens the file with
    universal newlines; no byte of a multi-byte UTF-8 character is one of
    these three.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    plain = True
    last = b"\n"  # the file's first byte starts a line
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_BYTES):
            decoder.decode(chunk)
            plain = plain and _hashes_start_lines(chunk, last) and not any(
                c in chunk for c in _LOADTXT_ONLY_SPACE
            )
            last = chunk[-1:]
    decoder.decode(b"", final=True)
    return plain


def _hashes_start_lines(chunk, last):
    """Whether each '#' in the bytes chunk follows a line break, last being
    the byte before chunk. A dataset has few '#' bytes, so each is found
    with find, which skips the bytes between them in native code."""
    i = chunk.find(b"#")
    while i != -1:
        if (chunk[i - 1 : i] if i else last) not in (b"\n", b"\r"):
            return False
        i = chunk.find(b"#", i + 1)
    return True


def _data_lines(lines):
    """The lines that are not '#' lines, read as needed."""
    return (ln for ln in lines if not ln.startswith("#"))


def _bulk_rows(fh, n_cols):
    """Parse the rest of the open text file fh with np.loadtxt, or return
    None.

    np.loadtxt reads the lines itself and drops '#' comments; as every '#'
    starts a line (_plain_utf8), that drops the '#' lines and nothing else.
    It accepts a subset of what _checked_rows accepts, with the same
    values, except for the padding characters in _LOADTXT_ONLY_SPACE, which
    the caller rules out first. None (use _checked_rows) for anything
    loadtxt rejects or warns about (a file with no data rows), for fewer
    than 2 rows, a wrong column count or a non-finite value: _checked_rows
    alone decides what is accepted and words every error.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
    except (ValueError, UserWarning):
        return None
    if data.shape[0] < 2 or data.shape[1] != n_cols or not np.all(np.isfinite(data)):
        return None
    return data


def read_dataset_csv(path, specs=None):
    """Read a dataset CSV; the last column is the output.

    Without specs, every input column is treated as uniform over its observed
    range (binning only needs the values themselves). Repeated input names,
    a constant output and an input whose max - min overflows are bad input.
    """
    try:
        return _read_dataset_csv(path, specs)
    except (OSError, UnicodeDecodeError) as exc:
        raise UserInputError(f"cannot read dataset {path}: {exc}") from None


def _read_dataset_csv(path, specs):
    """read_dataset_csv, less the wording of an unreadable file.

    The '#' lines and the header are read a line at a time, and the rest of
    the open file goes to np.loadtxt; if the bulk parser declines it, the
    file is read again, from the top, by _checked_rows.
    """
    plain = _plain_utf8(path)
    with open(path, encoding="utf-8") as fh:
        # csv.reader takes only the lines of the header's record, so fh is
        # left at the first line after it
        reader = csv.reader(_data_lines(iter(fh.readline, "")))
        try:
            header = next(reader)
        except StopIteration:
            raise UserInputError(f"{path}: empty file") from None
        if len(header) < 2:
            raise UserInputError(f"{path}: need at least one input column and one output column")
        names = header[:-1]
        for j, name in enumerate(names):
            if name in names[:j]:
                raise UserInputError(f"{path}: header repeats the column name {name!r}")
        level_maps = {}
        if specs is not None:
            if [s.name for s in specs] != names:
                raise UserInputError(f"{path}: header does not match the provided input specs")
            for j, s in enumerate(specs):
                if s.distribution.kind == "categorical":
                    level_maps[j] = {lvl: float(i) for i, lvl in enumerate(s.distribution.levels)}
        data = _bulk_rows(fh, len(header)) if plain and not level_maps else None
    if data is None:
        with open(path, encoding="utf-8") as fh:
            reader = csv.reader(_data_lines(fh))
            next(reader)
            data = _checked_rows(path, reader, header, level_maps)
    inputs, output = data[:, :-1], data[:, -1]
    if output.min() == output.max():
        raise UserInputError(
            f"{path}: output column {header[-1]!r} is constant ({fmt_number(output[0])})"
        )
    # Dataset's column-major layout, made here so that each range is read
    # from one contiguous column; Dataset keeps this copy.
    inputs = column_major(inputs)
    ranges = [(name, float(inputs[:, j].min()), float(inputs[:, j].max()))
              for j, name in enumerate(names)]
    for name, lo, hi in ranges:
        if hi - lo == math.inf:
            raise UserInputError(
                f"{path}: column {name!r} spans [{lo!r}, {hi!r}], a range wider than the "
                "largest float, so it cannot be cut into equal-width bins"
            )
    if specs is None:
        specs = []
        for name, lo, hi in ranges:
            if lo == hi:
                hi = lo + 1.0
                if hi == lo:
                    # |lo| >= 2**53 swallows the 1: step one float toward 0
                    lo, hi = sorted((lo, math.nextafter(lo, 0.0)))
            specs.append(InputSpec(name=name, distribution=MarginalDistribution.uniform(lo, hi)))
        specs = tuple(specs)
    return Dataset(inputs=inputs, output=output, specs=specs)


def _file_line(path, k):
    """Line number in the file of its k-th line that is not a '#' line.

    Only an error message needs it, so the file is read again then rather
    than every read keeping the numbers of the lines it dropped.
    """
    with open(path, encoding="utf-8") as fh:
        kept = (number for number, ln in enumerate(fh, start=1) if not ln.startswith("#"))
        return next(itertools.islice(kept, k - 1, None))


def _checked_rows(path, reader, header, level_maps):
    """The data rows as a float matrix, each cell checked: the definition of
    what read_dataset_csv accepts. Errors name the row by its line number in
    the file (a quoted record over several lines by its last), and the
    column."""

    def bad(detail, c=None):
        where = "" if c is None else f", column {header[c]!r}:"
        return UserInputError(f"{path}: row {_file_line(path, reader.line_num)}{where}{detail}")

    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise bad(f" has {len(row)} cells, expected {len(header)}")
        vals = []
        for c, cell in enumerate(row):
            if c in level_maps:
                if cell not in level_maps[c]:
                    raise bad(f" unknown level {cell!r}", c)
                vals.append(level_maps[c][cell])
                continue
            try:
                v = float(cell)
            except ValueError:
                raise bad(f" non-numeric cell {cell!r}", c) from None
            if not math.isfinite(v):
                raise bad(f" non-finite cell {cell!r}", c)
            vals.append(v)
        rows.append(vals)
    if len(rows) < 2:
        raise UserInputError(f"{path}: need at least 2 data rows")
    return np.asarray(rows, dtype=float)


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
    binning: BinningConfig = BinningConfig()
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
    if not isinstance(items, list):
        raise UserInputError(f"dependence must be a JSON list of objects, got {items!r}")
    plans = []
    for k, d in enumerate(items):
        if not isinstance(d, dict):
            raise UserInputError(f"dependence[{k}] must be a JSON object, got {d!r}")
        kind = d.get("kind")
        pair = d.get("pair")
        if not isinstance(pair, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in pair
        ):
            raise UserInputError(f"dependence[{k}].pair must hold input indices, got {pair!r}")
        if len(pair) != 2 or pair[0] == pair[1]:
            raise UserInputError(
                f"dependence[{k}].pair must name two distinct inputs, got {pair!r}"
            )
        pair = tuple(pair)
        if kind == "copula":
            rho = _number_in(d.get("rho", 0.0), f"dependence[{k}].rho", -1, 1)
            plans.append(DependencePlan(kind="copula", pair=pair, rho=float(rho)))
        elif kind == "equal_portion":
            fraction = _number_in(d.get("fraction", 0.0), f"dependence[{k}].fraction", 0, 1)
            sign = d.get("sign", "positive")
            if sign not in ("positive", "negative"):
                raise UserInputError(
                    f"dependence[{k}].sign must be 'positive' or 'negative', got {sign!r}"
                )
            plans.append(DependencePlan(
                kind="equal_portion", pair=pair, fraction=float(fraction), sign=sign
            ))
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


def _bin_count(value, key):
    """A bin count as set in a config or flag: None (automatic) or a whole
    number >= 2, which a float with no fraction part (JSON 1e3) may give."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < 2):
        raise UserInputError(f"{key} must be an integer >= 2, got {value!r}")
    return value


def _whole_number(value, key, minimum):
    """A whole number from a config or flag, >= minimum: an integer, or a
    float with no fraction part (JSON 1e5), but not a bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise UserInputError(f"{key} must be a whole number >= {minimum}, got {value!r}")
    return value


def _number_in(value, key, lo, hi):
    """A number from a config in [lo, hi]: an int or a float, not a bool or
    a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not lo <= value <= hi:
        raise UserInputError(f"{key} must be a number in [{lo}, {hi}], got {value!r}")
    return value


def _method(value, key, choices):
    """A sampler name from a config, in any case: one of choices, upper-cased."""
    method = value.upper() if isinstance(value, str) else value
    if method not in choices:
        names = ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"
        raise UserInputError(f"{key} must be {names}, got {method!r}")
    return method


def _sampling_plan(section, n_key, seed_key):
    """The sampling section, with the flags already merged in, as a plan."""
    method = _method(section.get("method", "QMC"), "sampling.method", ("MC", "QMC", "FFD"))
    n = _whole_number(section.get("n", 1000), n_key, 2)
    if method == "QMC" and n > MAX_SOBOL_POINTS:
        raise UserInputError(f"{n_key} must be <= {MAX_SOBOL_POINTS} for QMC, got {n}")
    scramble = section.get("scramble", True)
    if not isinstance(scramble, bool):
        raise UserInputError(f"sampling.scramble must be true or false, got {scramble!r}")
    seed = _whole_number(section.get("seed", 0), seed_key, 0)
    return SamplingPlan(method=method, n=n, seed=seed, scramble=scramble)


def _fraction(value, key):
    """A number from a config in (0, 1], as a float: not a bool or a string.
    The range is checked first, as an integer too large for a float has no
    float to convert to."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if 0 < value <= 1:
            return float(value)
        if abs(value) <= sys.float_info.max:
            value = float(value)
    raise UserInputError(f"{key} must lie in (0, 1], got {value!r}")


def _section(raw, key):
    """A copy of the JSON object at raw[key] ({} when absent)."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise UserInputError(f"{key} must be a JSON object, got {section!r}")
    return dict(section)


def _sweep_grid(values):
    if not isinstance(values, (list, tuple)):
        raise UserInputError(f"sweep_grid must be a JSON list of numbers, got {values!r}")
    return tuple(_number_in(v, f"sweep_grid[{i}]", -1, 1) for i, v in enumerate(values))


def config_from_dict(raw, overrides=None):
    if not isinstance(raw, dict):
        raise UserInputError(f"config must be a JSON object, got {type(raw).__name__}")
    overrides = overrides or {}
    model = raw.get("model")
    model_params = {}
    if isinstance(model, dict):
        model_params = {k: v for k, v in model.items() if k != "name"}
        model = model.get("name")
    sampling_raw = _section(raw, "sampling")
    binning_raw = _section(raw, "binning")
    simdec_raw = _section(raw, "simdec")
    oracle_raw = _section(raw, "oracle")
    seed_key, n_key = "sampling.seed", "sampling.n"
    if overrides.get("seed") is not None:
        sampling_raw["seed"] = overrides["seed"]
        seed_key = "--seed"
    elif "seed" in raw and "seed" not in sampling_raw:
        sampling_raw["seed"] = raw["seed"]
        seed_key = "seed"
    if overrides.get("n") is not None:
        sampling_raw["n"] = overrides["n"]
        n_key = "--n"
    if overrides.get("sampler") is not None:
        sampling_raw["method"] = overrides["sampler"]
    first_key = "binning.n_bins_first"
    if overrides.get("bins") is not None:
        binning_raw["n_bins_first"] = overrides["bins"]
        first_key = "--bins"
    out_dir = overrides.get("out") or raw.get("out", ".")
    try:
        plan = _sampling_plan(sampling_raw, n_key, seed_key)
        dependence = _parse_dependence(raw.get("dependence", []))
        law = raw.get("law", "normal")
        if law not in ("normal", "uniform"):
            raise UserInputError(f"law must be 'normal' or 'uniform', got {law!r}")
        return StudyConfig(
            model=model,
            model_params=model_params,
            law=law,
            dataset_path=raw.get("dataset"),
            sampling=plan,
            dependence=dependence,
            binning=BinningConfig(
                n_bins_first=_bin_count(binning_raw.get("n_bins_first"), first_key),
                n_bins_second_per_dim=_bin_count(
                    binning_raw.get("n_bins_second_per_dim"), "binning.n_bins_second_per_dim"
                ),
            ),
            simdec_max_inputs=_whole_number(
                simdec_raw.get("max_inputs", 3), "simdec.max_inputs", 1
            ),
            simdec_cum_threshold=_fraction(
                simdec_raw.get("cum_threshold", 0.8), "simdec.cum_threshold"
            ),
            n_output_bins=_whole_number(
                simdec_raw.get("n_output_bins", 100), "simdec.n_output_bins", 1
            ),
            oracle_n=_whole_number(oracle_raw.get("n", 1500), "oracle.n", 128),
            oracle_sampler=_method(
                oracle_raw.get("sampler", "QMC"), "oracle.sampler", ("MC", "QMC")
            ),
            sweep_grid=_sweep_grid(
                raw.get("sweep_grid", (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75))
            ),
            out_dir=out_dir,
        )
    except UserInputError:
        raise
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise UserInputError(f"invalid config: {exc}") from None


def _state(st, where, column, levels):
    """One state of a states file: level labels for a categorical column, a
    numeric [min, max) range for any other."""
    if not isinstance(st, dict):
        raise UserInputError(f"{where} must be a JSON object, got {st!r}")
    if levels:
        chosen = st.get("levels")
        if not isinstance(chosen, list) or not chosen:
            raise UserInputError(
                f"{where} needs a list of 'levels', as column {column!r} is categorical"
            )
        for lvl in chosen:
            if lvl not in levels:
                raise UserInputError(f"{where}: unknown level {lvl!r} for column {column!r}")
        label = st.get("name", ",".join(map(str, chosen)))
        state = State(label=label, levels=tuple(levels.index(lvl) for lvl in chosen))
    else:
        lo, hi = st.get("min"), st.get("max")
        for key, v in (("min", lo), ("max", hi)):
            # abs(v) <= the largest float also rules out NaN and an int that
            # float() cannot convert
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            if not number or not abs(v) <= sys.float_info.max:
                raise UserInputError(f"{where} needs a finite number for {key!r}, got {v!r}")
        state = State(label=st.get("name", ""), lo=float(lo), hi=float(hi))
    if not isinstance(state.label, str):
        raise UserInputError(f"{where}: name must be a string, got {state.label!r}")
    return state


def load_states_file(path, dataset):
    """Parse a states JSON file into state definitions keyed to dataset columns.

    Format: [{"input": name, "states": [{"name": "Low", "min": a, "max": b},
    ...]}, ...]. Categorical states use {"name": ..., "levels": [...]}.
    Numeric states are ascending and contiguous (each max is the next min)
    and must cover the column; the first input has at most one state per
    scenario hue. Errors name the entry and the state, from 0.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UserInputError(f"cannot read states file {path}: {exc}") from None
    if not isinstance(raw, list):
        raise UserInputError(f"states file {path} must hold a JSON list, got {type(raw).__name__}")
    names = list(dataset.names)
    defs = []
    for i, entry in enumerate(raw):
        where = f"states file entry {i}"
        if not isinstance(entry, dict) or not isinstance(entry.get("states", []), list):
            raise UserInputError(f"{where} must be a JSON object with a list of states")
        name = entry.get("input")
        if name not in names:
            raise UserInputError(f"{where} references unknown column {name!r}")
        idx = names.index(name)
        levels = dataset.specs[idx].distribution.levels
        states = tuple(
            _state(st, f"{where}, state {j}", name, levels)
            for j, st in enumerate(entry.get("states", []))
        )
        if len(states) < 2:
            raise UserInputError(f"{where}: column {name!r} needs at least 2 states")
        if i == 0 and len(states) > len(_HUES):
            raise UserInputError(
                f"{where}: the first input has {len(states)} states; at most {len(_HUES)} "
                "have a color"
            )
        try:
            definition = StateDefinition(input_index=idx, states=states)
            _state_of(dataset.column(idx), dataset.specs[idx], definition)
        except ValueError as exc:
            raise UserInputError(f"{where}, {exc}") from None
        defs.append(definition)
    if not defs:
        raise UserInputError("states file defines no inputs")
    return tuple(defs)
