"""Property tests: the estimator's indices are a function of the set of
(input row, output) pairs alone, not of their order or of how the input
matrix is laid out in memory; each first-order index lies in [0, 1]; the
indices barely move under an affine map of the output; a dataset CSV reads
back to the same bytes; a bad dataset cell is a user-input error that names
its line and column; a bad or unknown config key is a user-input error that
names its path."""

import copy
import csv
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from binsa import (
    BinningConfig,
    Dataset,
    InputSpec,
    MarginalDistribution,
    analyze,
    read_dataset_csv,
    write_dataset_csv,
)
from binsa.io import _KEYS, UserInputError, config_from_dict, fmt_number


def _report_bytes(inputs, output, specs, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sparse-grid notes at small n
        rep = analyze(Dataset(inputs=inputs, output=output, specs=specs), config)
    return rep.first_order.tobytes(), rep.second_order.tobytes(), rep.combined.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(20, 400),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    n_bins=st.tuples(st.integers(2, 12), st.integers(2, 6)),
    categorical=st.booleans(),
    tied=st.booleans(),
)
def test_indices_bitwise_equal_across_row_order_and_memory_layout(
    n, k, seed, n_bins, categorical, tied
):
    rng = np.random.default_rng(seed)
    x = rng.random((n, k))
    specs = [InputSpec(f"x{i}", MarginalDistribution.uniform(0, 1)) for i in range(k)]
    if categorical:
        x[:, 0] = rng.integers(0, 3, size=n)
        specs[0] = InputSpec("x0", MarginalDistribution.categorical("abc", (0.2, 0.3, 0.5)))
    y = x @ rng.normal(size=k) + x[:, 0] * x[:, -1]
    if tied:
        y = np.round(y, 1)
    if y.min() == y.max():
        y[0] += 1.0
    specs = tuple(specs)
    config = BinningConfig(n_bins_first=n_bins[0], n_bins_second_per_dim=n_bins[1])

    expected = _report_bytes(np.ascontiguousarray(x), y, specs, config)
    padded = np.zeros((2 * n, 2 * k + 1))
    padded[::2, 1::2] = x
    strided = padded[::2, 1::2]
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    perm = rng.permutation(n)
    for inputs, output in [
        (np.asfortranarray(x), y),
        (strided, y),
        (x[perm], y[perm]),
        (np.asfortranarray(x[perm]), y[perm]),
    ]:
        assert _report_bytes(inputs, output, specs, config) == expected


def _drawn_dataset(data, n, k, scale):
    """A dataset of n rows of k uniform inputs, some of them categorical, and
    an output of magnitude scale with interactions and, maybe, ties."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.random((n, k))
    specs = [InputSpec(f"x{i}", MarginalDistribution.uniform(0, 1)) for i in range(k)]
    if data.draw(st.booleans(), label="categorical"):
        x[:, 0] = rng.integers(0, 3, size=n)
        specs[0] = InputSpec("x0", MarginalDistribution.categorical("abc", (0.2, 0.3, 0.5)))
    y = x @ rng.normal(size=k) + x[:, 0] * x[:, -1] + rng.normal(size=n) * rng.random()
    if data.draw(st.booleans(), label="tied"):
        y = np.round(y, 1)
    assume(y.min() != y.max())
    return Dataset(inputs=x, output=y * scale, specs=tuple(specs))


def _analyze(dataset, config=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # sparse-grid notes at small n
        return analyze(dataset, config)


_BINS = st.one_of(st.none(), st.tuples(st.integers(2, 600), st.integers(2, 30)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(100, 500), k=st.integers(1, 4), bins=_BINS,
       scale=st.sampled_from([1e-8, 1.0, 1e8]))
def test_first_order_indices_lie_in_the_unit_interval(data, n, k, bins, scale):
    # A first-order index is a between-bin variance over the total variance,
    # each summed in its own order. With nb >= N every row can sit in a bin
    # of its own, and then the two are sums of one variance that may differ
    # in their last bits, so the upper bound allows a few ulps above 1.
    config = None if bins is None else BinningConfig(*bins)
    report = _analyze(_drawn_dataset(data, n, k, scale), config)
    assert np.all(report.first_order >= 0.0)
    assert np.all(report.first_order <= 1.0 + 1e-12), report.first_order


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(100, 500), k=st.integers(1, 4),
       scale=st.sampled_from([1e-8, 1.0, 1e8]), a=st.floats(1e-3, 1e3),
       negative=st.booleans(), shift=st.floats(-100.0, 100.0))
def test_indices_are_near_invariant_under_an_affine_map_of_the_output(
    data, n, k, scale, a, negative, shift
):
    # b is scaled to the output's spread: a fixed b far above it would leave
    # only the rounding of y + b, not the estimator, to compare
    dataset = _drawn_dataset(data, n, k, scale)
    y = dataset.output
    b = shift * float(np.std(y))
    mapped = Dataset(inputs=dataset.inputs, output=(-a if negative else a) * y + b,
                     specs=dataset.specs)
    assume(mapped.output.min() != mapped.output.max())
    want, got = _analyze(dataset), _analyze(mapped)
    for name in ("first_order", "second_order", "combined"):
        err = np.max(np.abs(getattr(got, name) - getattr(want, name)))
        assert err <= 1e-10, (name, err)


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-5])


def _finite(**bounds):
    return st.one_of(_EDGE_FLOATS.filter(
        lambda v: bounds.get("min_value", -math.inf) <= v <= bounds.get("max_value", math.inf)),
        st.floats(allow_nan=False, allow_infinity=False, **bounds))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 40))
def test_dataset_csv_write_read_write_is_byte_stable(tmp_path_factory, data, n):
    # One column of each sign, so that no input spans more than the largest
    # float (analyze refuses such a column); the output takes any float.
    levels = ("plain", "a,b", 'say "x"', "", " lead", "line\nbreak", "café")
    specs = (
        InputSpec("pos", MarginalDistribution.uniform(0, 1)),
        InputSpec("neg", MarginalDistribution.uniform(-1, 0)),
        InputSpec("c", MarginalDistribution.categorical(levels, (1 / len(levels),) * len(levels))),
    )

    def column(strategy):
        return data.draw(st.lists(strategy, min_size=n, max_size=n))

    inputs = np.column_stack([
        column(_finite(min_value=-0.0)),
        column(_finite(max_value=0.0)),
        column(st.integers(0, len(levels) - 1)),
    ]).astype(float)
    output = np.array(column(_finite()))
    assume(output.min() != output.max())
    ds = Dataset(inputs=inputs, output=output, specs=specs)
    tmp = tmp_path_factory.mktemp("csv")
    first, second = tmp / "a.csv", tmp / "b.csv"
    write_dataset_csv(first, ds)
    back = read_dataset_csv(first, specs=specs)
    write_dataset_csv(second, back)
    assert first.read_bytes() == second.read_bytes()
    with open(first, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[0] for r in rows] == [fmt_number(v) for v in ds.inputs[:, 0]]
    assert [r[1] for r in rows] == [fmt_number(v) for v in ds.inputs[:, 1]]
    assert [r[2] for r in rows] == [levels[int(v)] for v in ds.inputs[:, 2]]
    assert [r[3] for r in rows] == [fmt_number(v) for v in ds.output]


def _not_a_float(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


_CELL_FAULTS = {
    # printable ASCII that keeps the line one record of the same cells
    "non-numeric": st.text(
        st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=',"#'), max_size=6
    ).filter(_not_a_float),
    "non-finite": st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "+inf", "Infinity"]),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 20), k=st.integers(1, 3), meta=st.booleans(),
       fault=st.sampled_from(["non-numeric", "non-finite", "dropped cell"]))
def test_a_bad_dataset_cell_is_a_user_input_error_naming_its_line_and_column(
    tmp_path_factory, data, n, k, meta, fault
):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    specs = tuple(InputSpec(f"x{i}", MarginalDistribution.uniform(0, 1)) for i in range(k))
    ds = Dataset(inputs=rng.random((n, k)), output=rng.normal(size=n), specs=specs)
    path = tmp_path_factory.mktemp("csv") / "bad.csv"
    write_dataset_csv(path, ds, metadata={"seed": 1} if meta else None)
    lines = path.read_text(encoding="utf-8").split("\n")
    first = 2 if meta else 1  # the index of the first data line
    row = data.draw(st.integers(0, n - 1), label="row")
    col = data.draw(st.integers(0, k), label="column")
    cells = lines[first + row].split(",")
    if fault == "dropped cell":
        del cells[col]
        where = f"row {first + row + 1} has {k} cells, expected {k + 1}"
    else:
        cells[col] = data.draw(_CELL_FAULTS[fault], label="cell")
        name = (ds.names + ("output",))[col]
        where = f"row {first + row + 1}, column {name!r}: {fault} cell {cells[col]!r}"
    lines[first + row] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(UserInputError) as err:
        read_dataset_csv(path)
    assert where in str(err.value)


# A config that sets every key but dataset (it may not be set with model).
_VALID_CONFIG = {
    "model": "two_factor_additive",
    "out": "results",
    "law": "uniform",
    "seed": 4,
    "sampling": {"method": "mc", "n": 500, "seed": 3, "scramble": False},
    "binning": {"n_bins_first": 12, "n_bins_second_per_dim": 4},
    "simdec": {"max_inputs": 2, "cum_threshold": 0.5, "n_output_bins": 20},
    "oracle": {"n": 256, "sampler": "MC"},
    "sweep_grid": [-0.5, 0, 0.5],
    "dependence": [
        {"kind": "copula", "pair": [0, 1], "rho": 0.5},
        {"kind": "equal_portion", "pair": [1, 0], "fraction": 0.25, "sign": "negative"},
    ],
}
# the plan of _VALID_CONFIG's dependence list that holds each plan key
_PLAN_INDEX = {"kind": 0, "pair": 1, "rho": 0, "fraction": 1, "sign": 1}

_NOT_A_NUMBER = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_NOT_A_STRING = st.one_of(st.just(""), st.integers(), st.booleans(), st.floats(),
                          st.lists(st.text(max_size=2), max_size=2))


def _not_whole(minimum, null_ok=False):
    below = st.integers(max_value=minimum - 1)
    return st.one_of(below, below.map(float), st.floats().filter(lambda x: not x.is_integer()),
                     _NOT_A_NUMBER.filter(lambda v: not (null_ok and v is None)))


def _outside(inside):
    return st.one_of(st.floats().filter(lambda x: not inside(x)),
                     st.integers().filter(lambda i: not inside(i)), _NOT_A_NUMBER)


def _not_one_of(*options, upper=False):
    text = st.text(max_size=6).filter(lambda t: (t.upper() if upper else t) not in options)
    return st.one_of(text, st.integers(), st.none(), st.booleans())


# Values that each config key must refuse: a wrong type, or a value out of
# range.
_INVALID = {
    "model": st.one_of(st.just(""), st.integers(), st.booleans(), st.lists(st.text(), max_size=2)),
    "dataset": _NOT_A_STRING,
    "out": st.one_of(st.none(), _NOT_A_STRING),
    "law": _not_one_of("normal", "uniform"),
    "seed": _not_whole(0),
    "sampling.method": _not_one_of("MC", "QMC", "FFD", upper=True),
    "sampling.n": _not_whole(2),
    "sampling.seed": _not_whole(0),
    "sampling.scramble": st.one_of(st.integers(), st.text(max_size=5), st.none(), st.floats()),
    "binning.n_bins_first": _not_whole(2, null_ok=True),
    "binning.n_bins_second_per_dim": _not_whole(2, null_ok=True),
    "simdec.max_inputs": _not_whole(1),
    "simdec.cum_threshold": _outside(lambda x: 0 < x <= 1),
    "simdec.n_output_bins": _not_whole(1),
    "oracle.n": _not_whole(128),
    "oracle.sampler": _not_one_of("MC", "QMC", upper=True),
    "sweep_grid": st.one_of(st.just([]), _NOT_A_NUMBER.filter(lambda v: not isinstance(v, list)),
                            _outside(lambda x: -1 <= x <= 1).map(lambda v: [0.5, v])),
    "dependence": st.one_of(st.integers(), st.text(max_size=3), st.just({}),
                            st.lists(st.one_of(st.integers(), st.none(), st.lists(st.integers())),
                                     min_size=1, max_size=2)),
    "dependence[k].kind": _not_one_of("copula", "equal_portion"),
    "dependence[k].pair": st.one_of(
        st.none(), st.integers(), st.text(max_size=3), st.integers(0, 5).map(lambda i: [i, i]),
        st.lists(st.integers(0, 5), max_size=4).filter(lambda p: len(p) != 2),
        st.lists(st.one_of(st.booleans(), st.floats(), st.text(max_size=2)), min_size=1, max_size=2),
    ),
    "dependence[k].rho": _outside(lambda x: -1 <= x <= 1),
    "dependence[k].fraction": _outside(lambda x: 0 <= x <= 1),
    "dependence[k].sign": _not_one_of("positive", "negative"),
}


def _node(config, section):
    """The object at a section path ("" for the top, "sampling", "dependence[1]")."""
    node = config
    for name, index in re.findall(r"(\w+)(?:\[(\d+)\])?", section):
        node = node[name] if not index else node[name][int(index)]
    return node


def test_the_property_config_is_valid_and_covers_every_key():
    config = config_from_dict(copy.deepcopy(_VALID_CONFIG))
    assert (config.sampling.method, config.sampling.seed, len(config.dependence)) == ("MC", 3, 2)
    assert set(_INVALID) == set(_KEYS)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_bad_or_unknown_config_key_is_a_user_input_error_naming_its_path(data):
    config = copy.deepcopy(_VALID_CONFIG)
    if data.draw(st.booleans(), label="unknown key"):
        section = data.draw(st.sampled_from(
            ["", "sampling", "binning", "simdec", "oracle", "dependence[0]", "dependence[1]"]))
        # every name that the table uses anywhere, so that a key of another
        # section or of the other plan kind is tried too
        names = sorted({name for e in _KEYS for name in re.findall(r"\w+", e)} - {"k"})
        key = data.draw(st.one_of(st.sampled_from(names), st.text(max_size=8)), label="key")
        assume(key not in _node(config, section) and (section or key != "dataset"))
        value = data.draw(st.integers(), label="value")
        expected = repr(f"{section}.{key}" if section else key)
    else:
        entry = data.draw(st.sampled_from(sorted(_INVALID)), label="entry")
        section, _, key = entry.rpartition(".")
        if section == "dependence[k]":
            section = f"dependence[{_PLAN_INDEX[key]}]"
        value = data.draw(_INVALID[entry], label="value")
        expected = f"{section}.{key}" if section else key
    _node(config, section)[key] = value
    with pytest.raises(UserInputError) as err:
        config_from_dict(config)
    assert expected in str(err.value)
