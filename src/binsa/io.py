"""CSV/JSON ingestion and emission with canonical number formatting.

Floats are written with their shortest exact decimal representation, so a
write -> read -> write cycle is byte-stable. Lines starting with '#' carry
run metadata and are skipped on read.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .benchmarks import Model, default_specs, get_model
from .binning import BinningConfig, _in_order, _workers, conservation_check
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
_SCAN_BYTES = 1 << 16  # the shortest chunk of the bulk parser
_BOM = b"\xef\xbb\xbf"


class UserInputError(ValueError):
    """Bad user input (file, config, CLI argument); exit code 2."""


def fmt_number(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _csv_cell(text):
    """text as csv.writer writes it as one cell of a row of several, and
    quoted as well where it starts with '#': the readers skip a line that
    starts with '#' as a comment."""
    cell = table_csv([[text, ""]])[:-2]
    # a cell that csv.writer left bare holds no quote to double
    return f'"{cell}"' if cell.startswith("#") else cell


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
    form, which never needs quoting; each input name and level label is
    quoted as csv.writer quotes it, and also where it starts with '#'. Each
    block of _ROWS_PER_WRITE rows is laid out as one byte matrix, a
    fixed-width slot per cell and a separator after it: the numbers from
    _repr.repr_bytes, the labels from a per-column table. One boolean
    subscript gathers the bytes that each slot's mask keeps, building no
    index, and they are written as one array, so no cell becomes a Python
    string.

    The blocks are formatted and written in order by binning._in_order, on
    binning._workers(blocks) workers, each with values and byte matrices
    allocated once per write. If a block fails, no block after it is
    written, and the first failed block's error surfaces.
    """
    # imported here, not with binsa: compiling the formatter is most of its
    # import time, and only a dataset write needs it
    from . import _repr

    labels = {
        j: _label_cells(s.distribution.levels)
        for j, s in enumerate(dataset.specs)
        if s.distribution.kind == "categorical"
    }
    n, k = dataset.n_rows, len(dataset.specs) + 1
    slot = max([_repr.WIDTH] + [chars.shape[1] for chars, _ in labels.values()])
    head = table_csv([], metadata) + ",".join(map(_csv_cell, [*dataset.names, "output"])) + "\n"
    blocks = range(0, n, _ROWS_PER_WRITE)
    block_rows = min(_ROWS_PER_WRITE, n)

    def allocate():
        """One worker's values and byte matrices, each separator in place."""
        chars, keep = _repr.template(block_rows * k, slot + 1)
        chars.reshape(block_rows, k, slot + 1)[:, :, slot] = ord(",")
        chars[k - 1::k, slot] = ord("\n")
        return np.empty((block_rows, k)), chars, keep

    def block(start, buffers):
        """The bytes of the block at row start, formatted in one worker's
        buffers."""
        values, chars, keep = buffers
        rows = min(_ROWS_PER_WRITE, n - start)
        values = values[:rows]
        values[:, :-1] = dataset.inputs[start:start + rows]
        values[:, -1] = dataset.output[start:start + rows]
        chars, keep = _repr.repr_bytes(values, width=slot + 1,
                                       out=(chars[:rows * k], keep[:rows * k]))
        keep[:, slot] = True
        cells_chars, cells_keep = chars.reshape(rows, k, slot + 1), keep.reshape(rows, k, slot + 1)
        for j, (label_chars, label_keep) in labels.items():
            codes = values[:, j].astype(np.intp)
            width = label_chars.shape[1]
            cells_chars[:, j, :width] = label_chars[codes]
            cells_keep[:, j, :width] = label_keep[codes]
            cells_keep[:, j, width:slot] = False
        return chars.ravel()[keep.ravel()]

    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        _in_order(block, lambda start, data: fh.write(data), blocks,
                  [allocate() for _ in range(_workers(len(blocks)))])


def _bulk_rows(fh, n_cols):
    """The rest of the open binary file fh parsed by _parse.read_rows, or
    None.

    read_rows takes a subset of what _checked_rows accepts, with the same
    values, and returns None for anything else (a quoted cell, a
    `1_000`-style number, a ragged or non-finite row, fewer than 2 rows, a
    byte that is not ASCII outside a '#' line): _checked_rows alone decides
    what is accepted and words every error.

    The file is read in chunks, one in flight per worker. The bytes in
    flight are a sixteenth of the rest of the file, at least _SCAN_BYTES:
    the parser's working set is about six times them, so with cells of
    about 20 bytes the read peaks near 2.1 times the parsed matrix however
    many CPUs there are. They are split between binning._workers(in_flight
    // _SCAN_BYTES) workers, so no chunk is shorter than _SCAN_BYTES (two
    threads on short chunks are slower than one), and no chunk is longer
    than 16 * _SCAN_BYTES.
    """
    # imported here, not with binsa: only a dataset read needs the parser
    from . import _parse

    in_flight = max((os.fstat(fh.fileno()).st_size - fh.tell()) // 16, _SCAN_BYTES)
    workers = _workers(in_flight // _SCAN_BYTES)
    chunk = min(in_flight // workers, 16 * _SCAN_BYTES)
    return _parse.read_rows(fh, n_cols, chunk, workers)


def _seek_data(raw, head):
    """Move the binary file raw past the lines of head, read from its start
    in text mode: a UTF-8 byte-order mark dropped, and each "\r\n" or "\r"
    read as "\n"."""
    raw.seek(0)
    at = len(_BOM) if raw.read(len(_BOM)) == _BOM else 0
    for line in head:
        at += len(line.encode("utf-8"))
        raw.seek(at - 1)
        at += raw.read(2) == b"\r\n"
    raw.seek(at)


def read_dataset_csv(path, specs=None):
    """Read a dataset CSV; the last column is the output.

    Without specs, every input column is treated as uniform over its observed
    range (binning only needs the values themselves). Repeated input names
    and a constant output are bad input.
    """
    try:
        return _read_dataset_csv(path, specs)
    except UnicodeDecodeError:
        detail = _row_not_utf8(path)
    except OSError as exc:
        detail = exc
    raise UserInputError(f"cannot read dataset {path}: {detail}")


def _row_not_utf8(path):
    """The first line of file path that is not UTF-8, worded as an error;
    lines end as in the reader, at each "\n", "\r\n" or "\r"."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"row {number} is not UTF-8 ({exc})"


def _read_dataset_csv(path, specs):
    """read_dataset_csv, less the wording of an unreadable file.

    _records reads the header, and the bytes after it go to _bulk_rows; if
    the bulk parser declines them, _checked_rows reads the rows of another
    _records of the same file. A UTF-8 byte-order mark (Excel's "CSV
    UTF-8") is dropped.
    """
    with open(path, encoding="utf-8-sig") as fh:
        _, header, head = _records(fh)
        if header is None:
            raise UserInputError(f"{path}: empty file")
        if len(header) < 2:
            raise UserInputError(f"{path}: need at least one input column and one output column")
        names = header[:-1]
        for j, name in enumerate(names):
            if name in names[:j]:
                raise UserInputError(f"{path}: header repeats the column name {name!r}")
        level_maps = {}
        if specs is not None:
            spec_names = [s.name for s in specs]
            if spec_names != names:
                raise UserInputError(f"{path}: the header's inputs {names} are not the specs' "
                                     f"{spec_names}")
            for j, s in enumerate(specs):
                if s.distribution.kind == "categorical":
                    level_maps[j] = {lvl: float(i) for i, lvl in enumerate(s.distribution.levels)}
        data = None
        if not level_maps:
            _seek_data(fh.buffer, head)
            data = _bulk_rows(fh.buffer, len(header))
        if data is None:
            data = _checked_rows(path, _records(fh)[0], header, level_maps)
    promised = _promised_rows(head)
    if promised not in (None, len(data)):
        raise UserInputError(f"{path}: {len(data)} data rows, but its '# meta' line promises "
                             f"{promised}")
    inputs, output = data[:, :-1], data[:, -1]
    if output.min() == output.max():
        raise UserInputError(
            f"{path}: output column {header[-1]!r} is constant ({fmt_number(output[0])})"
        )
    # Dataset's column-major layout, made here so that each range is read
    # from one contiguous column: the bulk parser's rows already have it,
    # and Dataset keeps the checked reader's copy.
    inputs = column_major(inputs)
    if specs is None:
        specs = []
        for j, name in enumerate(names):
            lo, hi = float(inputs[:, j].min()), float(inputs[:, j].max())
            if lo == hi:
                hi = lo + 1.0
                if hi == lo:
                    # |lo| >= 2**53 swallows the 1: step one float toward 0
                    lo, hi = sorted((lo, math.nextafter(lo, 0.0)))
            specs.append(InputSpec(name=name, distribution=MarginalDistribution.uniform(lo, hi)))
        specs = tuple(specs)
    return Dataset(inputs=inputs, output=output, specs=specs)


def _records(fh):
    """The one csv.reader of the text file fh, from its start, in which a
    '#' line reads as a blank row, so that reader.line_num is the file line;
    it is advanced past the header, the first record that is not blank.
    Returns the reader, the header (None if there is none) and the lines
    read up to the header's end."""
    fh.seek(0)
    head, header = [], None

    def lines():
        for line in iter(fh.readline, ""):
            if header is None:
                head.append(line)
            yield "\n" if line.startswith("#") else line

    reader = csv.reader(lines())
    header = next(filter(None, reader), None)
    return reader, header, head


def _promised_rows(head):
    """The rows that a '# meta' line among the lines head promises: its n,
    where it names binsa as its tool and MC or QMC as its sampler, whose n
    is the row count, and n is a whole number (an int, or a float with no
    fraction part, not a bool); None for any other file. (FFD's n is a
    budget: it draws the largest full factorial design within it.)"""
    for line in head:
        if line.startswith("# meta "):
            try:
                meta = json.loads(line[len("# meta "):])
            except ValueError:
                continue
            if (isinstance(meta, dict) and meta.get("tool") == "binsa"
                    and meta.get("sampler") in ("MC", "QMC")):
                n = meta.get("n")
                if type(n) is int or (type(n) is float and n.is_integer()):
                    return int(n)
    return None


def _checked_rows(path, reader, header, level_maps):
    """The data rows as a float matrix, each cell checked: the definition of
    what read_dataset_csv accepts. Errors name the row by its line number in
    the file, reader.line_num (a quoted record over several lines by its
    last), and the column."""

    def bad(detail, c=None):
        where = "" if c is None else f", column {header[c]!r}:"
        return UserInputError(f"{path}: row {reader.line_num}{where}{detail}")

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


def named_indices(report):
    """A report's first-order indices by input name and its second-order
    indices by "a*b", a before b in the report's input order."""
    names = report.names
    return dict(zip(names, report.first_order.tolist())), {
        f"{a}*{b}": float(report.second_order[i, j])
        for i, a in enumerate(names) for j, b in enumerate(names) if i < j
    }


def report_to_dict(report, metadata=None):
    """report.json's object. JSON has no infinity: a var_y past the largest
    double (an output near 1e154 or beyond) is None, written as null."""
    first, second = named_indices(report)
    return {
        "schema_version": SCHEMA_VERSION,
        "first_order": first,
        "second_order": second,
        "combined": dict(zip(report.names, report.combined.tolist())),
        "var_y": report.var_y if math.isfinite(report.var_y) else None,
        "n_bins_first": report.n_bins_first,
        "n_bins_second_per_dim": report.n_bins_second_per_dim,
        "conservation_sum": conservation_check(report),
        "warnings": list(report.warnings),
        "metadata": metadata or {},
    }


def table_csv(rows, metadata=None):
    """CSV text of rows (lists of cells), after a '# meta' line if metadata."""
    out = io.StringIO()
    if metadata:
        out.write("# meta " + json.dumps(metadata, sort_keys=True) + "\n")
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
    """A full study: a built-in model or a dataset file; _KEYS has the defaults.

    model is the resolved Model, with its parameters, and specs its default
    input specs under the config's law; both are None for a dataset file.
    """

    model: Model | None
    specs: tuple | None
    dataset_path: str | None
    sampling: SamplingPlan
    dependence: tuple
    binning: BinningConfig
    simdec_max_inputs: int
    simdec_cum_threshold: float
    n_output_bins: int
    oracle_n: int
    oracle_sampler: str
    sweep_grid: tuple
    out_dir: str

    def __post_init__(self):
        if (self.model is None) == (self.dataset_path is None):
            raise UserInputError("config must set exactly one of model or dataset")


def load_config(path, overrides=None):
    """Read a study config JSON file and apply CLI flag overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UserInputError(f"cannot read config {path}: {exc}") from None
    return config_from_dict(raw, overrides)


def _whole(value, key, minimum, noun="a whole number", maximum=None):
    """An integer >= minimum, and <= maximum unless that is None, which a
    float with no fraction part (JSON 1e5) may give; not a bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise UserInputError(f"{key} must be {noun} >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise UserInputError(f"{key} must be {noun} <= {maximum}, got {value!r}")
    return value


def _number(value, key, lo, hi):
    """An int or a float in [lo, hi]; not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not lo <= value <= hi:
        raise UserInputError(f"{key} must be a number in [{lo}, {hi}], got {value!r}")
    return value


def _fraction(value, key):
    """A number in (0, 1], as a float; not a bool. The range is checked first,
    as an integer too large for a float has no float to convert to."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if 0 < value <= 1:
            return float(value)
        if abs(value) <= sys.float_info.max:
            value = float(value)
    raise UserInputError(f"{key} must lie in (0, 1], got {value!r}")


def _choice(value, key, options, upper=False):
    """One of options; with upper, a string in any case, upper-cased."""
    if upper and isinstance(value, str):
        value = value.upper()
    if value not in options:
        names = ", ".join(map(repr, options[:-1])) + f" or {options[-1]!r}"
        raise UserInputError(f"{key} must be {names}, got {value!r}")
    return value


def _typed(value, key, types, noun):
    """A value of types, which the message calls noun; not an empty string."""
    if not isinstance(value, types) or value == "":
        raise UserInputError(f"{key} must be {noun}, got {value!r}")
    return value


def _list(value, key, nonempty, noun, check, *args):
    """A JSON list, as a tuple of its items, each checked at key[i]."""
    if not isinstance(value, (list, tuple)):
        raise UserInputError(f"{key} must be a JSON list of {noun}, got {value!r}")
    if nonempty and not value:
        raise UserInputError(f"{key} must not be empty")
    return tuple(check(item, f"{key}[{i}]", *args) for i, item in enumerate(value))


def _pair(value, key):
    """Two distinct input indices, as a tuple (config_from_dict checks that
    the model has them)."""
    if not isinstance(value, list) or not all(type(i) is int for i in value):
        raise UserInputError(f"{key} must hold input indices, got {value!r}")
    if len(value) != 2 or value[0] == value[1]:
        raise UserInputError(f"{key} must name two distinct inputs, got {value!r}")
    return tuple(value)


def _plan(value, key):
    """A dependence plan: an object of a kind, a pair and what else it takes."""
    kind = _typed(value, key, dict, "a JSON object").get("kind")
    _choice(kind, f"{key}.kind", tuple(_PLAN_KEYS))
    _pair(value.get("pair"), f"{key}.pair")  # a plan must name its pair
    return DependencePlan(**_walk(value, f"{key}.", "dependence[k].", _PLAN_KEYS[kind]))


# the keys that a dependence plan of each kind takes
_PLAN_KEYS = {
    "copula": ("kind", "pair", "rho"),
    "equal_portion": ("kind", "pair", "fraction", "sign"),
}
# The largest numpy index: a bin count is an array length, so it must be one.
_MAX_INDEX = int(np.iinfo(np.intp).max)

# Every key that a config may hold, by path: its default, its check and the
# check's arguments. A key whose default is null may be set to null. The
# keys of each plan in the dependence list are at dependence[k].
_KEYS = {
    "model": (None, _typed, (str, dict), "a model name or a JSON object"),
    "dataset": (None, _typed, str, "a non-empty string"),
    "out": (".", _typed, str, "a non-empty string"),
    "law": ("normal", _choice, ("normal", "uniform")),
    "seed": (0, _whole, 0),
    "sampling.method": ("QMC", _choice, ("MC", "QMC", "FFD"), True),
    "sampling.n": (1000, _whole, 2),
    "sampling.seed": (0, _whole, 0),
    "sampling.scramble": (True, _typed, bool, "true or false"),
    "binning.n_bins_first": (None, _whole, 2, "an integer", _MAX_INDEX),
    "binning.n_bins_second_per_dim": (None, _whole, 2, "an integer", _MAX_INDEX),
    "simdec.max_inputs": (3, _whole, 1),
    "simdec.cum_threshold": (0.8, _fraction),
    "simdec.n_output_bins": (100, _whole, 1),
    "oracle.n": (1500, _whole, 128),
    "oracle.sampler": ("QMC", _choice, ("MC", "QMC"), True),
    "sweep_grid": ((-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75),
                   _list, True, "numbers", _number, -1, 1),
    "dependence": ((), _list, False, "objects", _plan),
    "dependence[k].kind": (None, _choice, tuple(_PLAN_KEYS)),
    "dependence[k].pair": (None, _pair),
    "dependence[k].rho": (0.0, _number, -1, 1),
    "dependence[k].fraction": (0.0, _number, 0, 1),
    "dependence[k].sign": ("positive", _choice, ("positive", "negative")),
}
# The key that each flag, or the dataset argument, overrides. One that is
# set takes its key's place, and a message about its value names it. A data
# source set this way takes the place of whichever source the config sets.
_FLAGS = {
    "dataset": "dataset",
    "--model": "model",
    "--seed": "sampling.seed",
    "--n": "sampling.n",
    "--sampler": "sampling.method",
    "--bins": "binning.n_bins_first",
    "--out": "out",
}


def _walk(node, prefix="", template="", names=None):
    """The keys of the JSON object node, each value checked, by path below
    node. A key is at prefix + key in the config and at template + key in
    _KEYS. Only names may be keys: by default, the first part of each path
    below template. A key that is not a whole path holds an object."""
    if names is None:
        names = {re.split(r"[.[]", e[len(template):])[0] for e in _KEYS if e.startswith(template)}
    given = {}
    for key, value in node.items():
        path, entry = prefix + key, template + key
        if key not in names:
            raise UserInputError(f"unknown config key {path!r}")
        if entry in _KEYS:
            default, check, *args = _KEYS[entry]
            given[key] = value if value is None and default is None else check(value, path, *args)
        else:
            inner = _walk(_typed(value, path, dict, "a JSON object"), path + ".", entry + ".")
            given.update((f"{key}.{k}", v) for k, v in inner.items())
    return given


def config_from_dict(raw, overrides=None):
    """The StudyConfig of a config's JSON object raw, every key checked. A
    flag of _FLAGS in overrides (named less its "--") that is not None beats
    its key; sampling.seed beats the top-level seed."""
    if not isinstance(raw, dict):
        raise UserInputError(f"config must be a JSON object, got {type(raw).__name__}")
    overrides = overrides or {}
    given = _walk(raw)
    if "seed" in given:
        given.setdefault("sampling.seed", given["seed"])
    flags = [(name, path) for name, path in _FLAGS.items()
             if overrides.get(name.lstrip("-")) is not None]
    if any(path in ("dataset", "model") for _, path in flags):
        given.pop("dataset", None)
        given.pop("model", None)
    for name, path in flags:
        _, check, *args = _KEYS[path]
        given[path] = check(overrides[name.lstrip("-")], name, *args)
    v = {path: given.get(path, entry[0]) for path, entry in _KEYS.items()}
    method, n = v["sampling.method"], v["sampling.n"]
    n_key = "sampling.n" if overrides.get("n") is None else "--n"
    for key, sampler, count in ((n_key, method, n),
                                ("oracle.n", v["oracle.sampler"], v["oracle.n"])):
        if sampler == "QMC" and count > MAX_SOBOL_POINTS:
            raise UserInputError(f"{key} must be <= {MAX_SOBOL_POINTS} for QMC, got {count}")
    model, specs = v["model"], None
    if model is not None:
        params = dict(model) if isinstance(model, dict) else {"name": model}
        name = _typed(params.pop("name", None), "model.name", str, "a model name")
        try:
            model = get_model(name, **params)
        except ValueError as exc:
            raise UserInputError(str(exc)) from None
        specs = default_specs(model, law=v["law"])
        k = len(specs)
        if method == "FFD" and n < 2**k:
            raise UserInputError(
                f"{n_key} must be >= 2**{k} = {2**k} for FFD on {k} inputs, got {n}"
            )
        for i, dep in enumerate(v["dependence"]):
            for j in dep.pair:
                if not 0 <= j < k:
                    raise UserInputError(
                        f"dependence[{i}].pair names input {j}; the inputs are 0..{k - 1}"
                    )
                if specs[j].distribution.kind != "uniform":
                    raise UserInputError(
                        f"dependence[{i}].pair names input {j} ({specs[j].name!r}), which is "
                        "not uniform; dependence needs uniform marginals"
                    )
    return StudyConfig(
        model=model,
        specs=specs,
        dataset_path=v["dataset"],
        sampling=SamplingPlan(
            method=v["sampling.method"],
            n=v["sampling.n"],
            seed=v["sampling.seed"],
            scramble=v["sampling.scramble"],
        ),
        dependence=v["dependence"],
        binning=BinningConfig(v["binning.n_bins_first"], v["binning.n_bins_second_per_dim"]),
        simdec_max_inputs=v["simdec.max_inputs"],
        simdec_cum_threshold=v["simdec.cum_threshold"],
        n_output_bins=v["simdec.n_output_bins"],
        oracle_n=v["oracle.n"],
        oracle_sampler=v["oracle.sampler"],
        sweep_grid=v["sweep_grid"],
        out_dir=v["out"],
    )


def _known_keys(obj, where, keys):
    """Raise for the first key of the states file's JSON object obj, at
    where, that is not one of keys."""
    for key in obj:
        if key not in keys:
            raise UserInputError(f"{where}: unknown key {key!r}")


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
    # after the keys a state needs, whose absence says more
    _known_keys(st, where, ("name", "levels") if levels else ("name", "min", "max"))
    if not isinstance(state.label, str):
        raise UserInputError(f"{where}: name must be a string, got {state.label!r}")
    return state


def load_states_file(path, dataset):
    """Parse a states JSON file into state definitions keyed to dataset columns.

    Format: [{"input": name, "states": [{"name": "Low", "min": a, "max": b},
    ...]}, ...]. Categorical states use {"name": ..., "levels": [...]}.
    Numeric states are ascending and contiguous (each max is the next min)
    and must cover the column; the first input has at most one state per
    scenario hue. A key that is not one of these is an error. Errors name
    the entry and the state, from 0.
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
        _known_keys(entry, where, ("input", "states"))
        name = entry.get("input")
        if name not in names:
            raise UserInputError(f"{where} references unknown column {name!r}")
        idx = names.index(name)
        if any(d.input_index == idx for d in defs):
            raise UserInputError(f"{where} repeats input {name!r}")
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
